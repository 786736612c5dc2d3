"""The pattern cache file: a later run reads back what an earlier one wrote,
each pair's patterns in the order mining found them."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oracles import make_table  # noqa: E402
from webimpute import LocalCorpusProvider, RunConfig  # noqa: E402
from webimpute.patterns import (  # noqa: E402
    FORWARD,
    REVERSE,
    Pattern,
    load_patterns,
    save_patterns,
)
from webimpute.pipeline import SweepMemo  # noqa: E402
from webimpute.textutil import tokenize  # noqa: E402

DIRECTIONS = st.sampled_from([FORWARD, REVERSE])
PAIRS = [("Name", "City"), ("Name", "Code"), ("City", "Code")]


@hypothesis.settings(database=None, deadline=None, max_examples=200)
@hypothesis.given(
    st.lists(st.tuples(st.text(), st.text(), st.text(), DIRECTIONS, st.integers(1, 10**9)))
)
@hypothesis.example([("Arena", "Location", "İİ Straße ǅ é", FORWARD, 2)])
def test_contexts_of_page_tokens_survive_the_pattern_file(tmp_path_factory, entries):
    patterns = [
        Pattern(attr1, attr2, context, direction, support)
        for attr1, attr2, text, direction, support in entries
        if (context := tokenize(text))
    ]
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    save_patterns(patterns, path)
    assert load_patterns(path) == patterns


@hypothesis.settings(database=None, deadline=None, max_examples=200)
@hypothesis.given(
    st.lists(st.tuples(
        st.sampled_from(PAIRS),
        st.lists(st.sampled_from(["in", "of", "the"]), min_size=1, max_size=3),
        DIRECTIONS,
        st.integers(1, 3),
    )),
    st.randoms(use_true_random=False),
)
def test_the_cache_keeps_each_pairs_mining_order(tmp_path_factory, entries, rng):
    # extraction takes a pair's first pattern that fills, so a later run must
    # read each pair's patterns in mine_patterns order; the file's sort key
    # (pair, -support, context) is a prefix of mining's, and the sort is stable
    found = {}
    for pair, context, direction, support in entries:
        found.setdefault(pair, {})[tuple(context), direction] = support
    mined = {
        pair: sorted(
            (Pattern(*pair, context, direction, support)
             for (context, direction), support in patterns.items()),
            key=lambda p: (-p.support, " ".join(p.context), p.direction),
        )
        for pair, patterns in found.items()
    }
    queues = [list(patterns) for patterns in mined.values()]
    interleaved = []  # a hand-made file: pairs interleaved, each in mining order
    while queues := [q for q in queues if q]:
        interleaved.append(rng.choice(queues).pop(0))
    path = tmp_path_factory.getbasetemp() / "cache.json"
    save_patterns(interleaved, path)
    table = make_table(["Name", "City", "Code"], [])  # no evidence: mining finds nothing

    def cached(memo):
        return {pair: list(memo.mine(table, pair)) for pair in mined}

    config = RunConfig(pattern_cache=str(path))
    memo = SweepMemo(LocalCorpusProvider([]), config)
    assert cached(memo) == mined
    memo.write_cache()
    keys = [(p.attr1, p.attr2, -p.support, " ".join(p.context)) for p in load_patterns(path)]
    assert keys == sorted(keys)
    assert cached(SweepMemo(LocalCorpusProvider([]), config)) == mined
