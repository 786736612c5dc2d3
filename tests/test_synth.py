import pytest

from webimpute.synth import main, make_university_dataset, write_university_fixture


def test_rows_must_be_a_positive_integer(tmp_path):
    # 0 and -3 used to give a header-only table
    for rows in [0, -3, 2.5, True, "3"]:
        with pytest.raises(ValueError, match="rows must be an integer >= 1"):
            make_university_dataset(rows)
        with pytest.raises(ValueError, match="rows must be an integer >= 1"):
            write_university_fixture(tmp_path / "out", rows=rows)
    assert not (tmp_path / "out").exists()
    table, corpus, _ = make_university_dataset(1)
    assert len(table.rows) == 1 and len(corpus) == 3


def test_cli_bad_rows_is_usage_error(tmp_path, capsys):
    # used to exit 0 after writing a header-only university.csv
    for rows in ["0", "-3"]:
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "bad"), "--rows", rows])
        assert exc.value.code == 2
        assert "rows must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    assert main(["--out", str(tmp_path / "ok"), "--rows", "2"]) == 0
    assert (tmp_path / "ok" / "university.csv").read_text().count("\n") == 3
