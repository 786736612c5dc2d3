"""Every JSON text and file written has the layout of ``json.dumps`` with
sorted keys, a 2-space indent and non-ASCII kept, plus a trailing newline,
though it is encoded as a stream."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from webimpute.tabular import dump_json, write_json  # noqa: E402

TEXT = st.text(st.characters(codec="utf-8"), max_size=8)  # any character UTF-8 can hold
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities too: both layouts spell them alike
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, "é ü 漢 😀"])
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


@hypothesis.settings(database=None, deadline=None, max_examples=200)
@hypothesis.given(VALUES)
@hypothesis.example([])
@hypothesis.example({"k": {"": [[], {}]}, "é": "漢"})
@hypothesis.example([-0.0, 5e-324, 2.2250738585072014e-308 / 3, math.inf])
def test_text_and_file_equal_json_dumps(tmp_path_factory, data):
    expected = json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert dump_json(data) == expected
    path = tmp_path_factory.getbasetemp() / "written.json"
    write_json(data, path)
    assert path.read_bytes() == expected.encode("utf-8")
