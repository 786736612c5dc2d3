import json
import logging
import re
from pathlib import Path

import pytest

from webimpute import LocalCorpusProvider
from webimpute.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1

    def test_subcommand_without_flags_is_usage_error(self):
        assert run("impute") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("sdg", "--nope") == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = run(
            "sdg", "--rules", str(tmp_path / "absent.rules"),
            "--table", str(DATA / "nba.csv"), "--dot", str(tmp_path / "g.dot"),
        )
        assert code == 2

    def test_malformed_rules_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("r1: A -> A\n", encoding="utf-8")
        code = run(
            "sdg", "--rules", str(bad),
            "--table", str(DATA / "nba.csv"), "--dot", str(tmp_path / "g.dot"),
        )
        assert code == 2

    def test_version_and_help_need_no_files(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "webimpute" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0


def test_readme_quick_start_forms_agree(tmp_path, monkeypatch, capsys):
    # both quick-start commands of the README, run from the repository root
    monkeypatch.chdir(DATA.parent)
    common = ("impute", "--table", "data/nba.csv", "--rules", "data/nba.rules")
    flags = (
        "--corpus", "data/nba_corpus.jsonl", "--k", "0.5", "--K", "0.8", "--Q", "2",
        "--dict", "Location=data/nba_location.dict",
    )
    runs = []
    for name, extra in [("flags", flags), ("config", ("--config", "data/nba.config.json"))]:
        out, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert run(*common, *extra, "--out", str(out), "--report", str(report)) == 0
        printed = capsys.readouterr().out
        outcomes = json.loads(report.read_text(encoding="utf-8"))["outcomes"]
        runs.append((out.read_bytes(), outcomes, printed))
    assert runs[0] == runs[1]
    assert runs[0][2] == (
        "10 missing: abstained=5, filled-internal=2, filled-keyword=1, filled-pattern=2\n"
    )


def test_sdg_exports_dot(tmp_path):
    dot = tmp_path / "g.dot"
    code = run(
        "sdg", "--rules", str(DATA / "nba.rules"),
        "--table", str(DATA / "nba.csv"), "--dot", str(dot),
    )
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.count("shape=") == 9
    assert '"a_Arena" -> "a_Location"' in text


def test_byte_order_marks_are_dropped_on_read(tmp_path):
    table = tmp_path / "bom.csv"
    table.write_bytes("\ufeffA,B\na1,b1\n".encode("utf-8"))
    rules = tmp_path / "bom.rules"
    rules.write_bytes("\ufeffr: A -> B\n".encode("utf-8"))
    dot = tmp_path / "g.dot"
    assert run("sdg", "--rules", str(rules), "--table", str(table), "--dot", str(dot)) == 0
    assert '"a_A" -> "a_B" [label="r:1"];' in dot.read_text(encoding="utf-8")


def test_impute_with_config_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    report = tmp_path / "report.json"
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--k", "0.5", "--K", "0.8", "--Q", "2",
        "--dict", f"Location={DATA / 'nba_location.dict'}",
        "--out", str(out), "--report", str(report),
    )
    assert code == 0
    content = out.read_text(encoding="utf-8")
    assert "WheatonIL" in content
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["counts"]["filled-internal"] == 2
    assert data["config"]["pattern_support"] == 2
    assert "timings" in data


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pattern_support": 9, "pages": 2}), encoding="utf-8")
    out = tmp_path / "out.csv"
    report = tmp_path / "report.json"
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--config", str(config),
        "--Q", "2",
        "--out", str(out), "--report", str(report),
    )
    assert code == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["config"]["pattern_support"] == 2  # flag wins
    assert data["config"]["pages"] == 2            # file fills the gap

    bad_dict = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--dict", "NoEqualsSign",
        "--out", str(out),
    )
    assert bad_dict == 1


def test_provider_from_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "pattern_support": 2,
                "provider": {"kind": "local", "corpus": str(DATA / "nba_corpus.jsonl")},
                "dictionaries": {"Location": str(DATA / "nba_location.dict")},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--config", str(config),
        "--out", str(out),
    )
    assert code == 0
    assert "WheatonIL" in out.read_text(encoding="utf-8")

    no_provider = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--out", str(out),
    )
    assert no_provider == 1


def test_bad_url_template_is_the_same_usage_error_as_flag_or_config(tmp_path, capsys):
    template = "http://127.0.0.1:9/x"  # no {query}
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"provider": {"kind": "http", "url_template": template}}),
        encoding="utf-8",
    )
    errors = []
    for source in (("--url-template", template), ("--config", str(config))):
        code = run(
            "impute",
            "--table", str(DATA / "nba.csv"),
            "--rules", str(DATA / "nba.rules"),
            *source,
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(
        "error: bad http provider settings: "
        "url_template must contain a {query} placeholder\n"
    )


@pytest.mark.parametrize(
    "provider, key",
    [
        ({"kind": "local"}, "corpus"),
        ({"kind": "local", "corpus": 5}, "corpus"),
        ("local", "provider"),
        ({"kind": "http", "bogus": 1}, "bogus"),
        ({"kind": "http", "url_template": "http://127.0.0.1:9/?q={query}",
          "delay_ms": -1}, "delay_ms"),
        ({"kind": "http", "url_template": "http://127.0.0.1:9/?q={query}",
          "delay_ms": True}, "delay_ms"),
        ({"kind": "http", "url_template": "http://127.0.0.1:9/?q={query}",
          "user_agent": 5}, "user_agent"),
        ({"kind": "http", "url_template": "http://127.0.0.1:9/?q={query}",
          "user_agent": "webimpute\n"}, "user_agent"),
        ({"kind": "ftp"}, "ftp"),
    ],
    ids=["local-without-corpus", "local-corpus-not-a-path", "provider-not-a-mapping",
         "http-unknown-key", "http-negative-delay", "http-bool-delay",
         "http-number-user-agent", "http-user-agent-newline", "unknown-kind"],
)
def test_bad_provider_config_is_usage_error(tmp_path, capsys, provider, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"provider": provider}), encoding="utf-8")
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--config", str(config),
        "--out", str(tmp_path / "out.csv"),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and key in errors[0]


@pytest.mark.parametrize(
    "text",
    ['[1, 2]', '5', '{"pages": ', '{"dictionaries": ["City"]}', '{"dictionaries": 5}'],
    ids=["list", "number", "malformed", "dictionaries-list", "dictionaries-number"],
)
def test_bad_config_file_is_usage_error(tmp_path, capsys, text):
    config = tmp_path / "cfg.json"
    config.write_text(text, encoding="utf-8")
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--config", str(config),
        "--out", str(tmp_path / "out.csv"),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(config) in errors[0]


@pytest.mark.parametrize(
    "settings, key",
    [
        ({"dictionaries": {"Location": 3}}, "dictionaries"),
        ({"pattern_cache": 5}, "pattern_cache"),
        ({"reiterate": "no"}, "reiterate"),
        ({"pages": 2.5}, "pages"),
        ({"pages": "5"}, "pages"),
        ({"bayes_threshold": True}, "bayes_threshold"),
    ],
    ids=[
        "dictionaries-path-not-a-string", "pattern-cache-number", "reiterate-string",
        "pages-float", "pages-string", "bayes-threshold-bool",
    ],
)
def test_wrongly_typed_config_value_is_usage_error(tmp_path, capsys, settings, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--config", str(config),
        "--out", str(tmp_path / "out.csv"),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and key in errors[0]


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"a": 1}', "JSON list"),
        ('[{"attr1": "Arena", "context": ["x"], "direction": "forward", "support": 2}]',
         "entry 0"),
        ("", "not a UTF-8 JSON file"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": "in the", '
         '"direction": "forward", "support": 2}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["in"], '
         '"direction": "forward", "support": true}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["in"], '
         '"direction": "forward", "support": 2.7}]', "entry 0"),
        ('[{"attr1": ["Arena"], "attr2": "Location", "context": ["in"], '
         '"direction": "forward", "support": 2}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["in"], '
         '"direction": "forward", "support": 0}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["in"], '
         '"direction": "forward", "support": -2}]', "entry 0"),
        # context entries no page token can equal, so the pattern could never fill
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["IN"], '
         '"direction": "forward", "support": 2}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["in the"], '
         '"direction": "forward", "support": 2}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": [""], '
         '"direction": "forward", "support": 2}]', "entry 0"),
        ('[{"attr1": "Arena", "attr2": "Location", "context": ["in,"], '
         '"direction": "forward", "support": 2}]', "entry 0"),
    ],
    ids=[
        "not-a-list", "entry-without-attr2", "empty-file", "string-context",
        "bool-support", "float-support", "list-attr1", "zero-support", "negative-support",
        "upper-case-token", "spaced-token", "empty-token", "punctuated-token",
    ],
)
def test_malformed_pattern_cache_is_data_error(tmp_path, capsys, text, where):
    cache = tmp_path / "patterns.json"
    cache.write_text(text, encoding="utf-8")
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--patterns", str(cache),
        "--out", str(tmp_path / "out.csv"),
    )
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(cache) in errors[0] and where in errors[0]


def test_ground_truth_entry_without_row_is_data_error(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text('[{"attr": "Team", "value": "x"}]', encoding="utf-8")
    code = run("eval", "--table", str(DATA / "nba.csv"), "--truth", str(truth))
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(truth) in errors[0] and "entry 0" in errors[0]


@pytest.mark.parametrize(
    "entries, where",
    [
        ([{"row": 2.7, "attr": "Team", "value": "x"}], "entry 0"),
        ([{"row": True, "attr": "Team", "value": "x"}], "entry 0"),
        ([{"row": 1, "attr": "Team", "value": 5}], "entry 0"),
        ([{"row": 1, "attr": None, "value": "x"}], "entry 0"),
        ([{"row": -1, "attr": "Team", "value": "x"}], "entry 0"),
        (
            [
                {"row": 0, "attr": "Team", "value": "Golden State Warriors"},
                {"row": 1, "attr": "Team", "value": "x"},
                {"row": 0, "attr": "Team", "value": "zz"},
            ],
            "entry 2",
        ),
    ],
    ids=["float-row", "bool-row", "number-value", "null-attr", "negative-row", "repeated-cell"],
)
def test_wrongly_typed_ground_truth_entry_is_data_error(tmp_path, capsys, entries, where):
    # a row of 2.7 used to score the cell in row 2; a numeric value got as far
    # as scoring and raised AttributeError there; a cell named twice was
    # scored twice, once against each value
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(entries), encoding="utf-8")
    code = run("eval", "--table", str(DATA / "nba.csv"), "--truth", str(truth))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(truth) in errors[0] and where in errors[0]


def _impute_args(tmp_path, **paths):
    """``impute`` arguments on the NBA example, with some paths replaced."""
    args = {
        "table": DATA / "nba.csv",
        "rules": DATA / "nba.rules",
        "corpus": DATA / "nba_corpus.jsonl",
        "out": tmp_path / "out.csv",
    }
    args.update(paths)
    return ["impute"] + [x for k, v in args.items() for x in (f"--{k}", str(v))]


@pytest.mark.parametrize("flag", ["table", "rules", "corpus", "out", "report"])
def test_unusable_path_is_one_data_error_line(tmp_path, capsys, flag):
    # an input that is a directory, or an output in a directory that does not
    # exist: exit 2 and one line naming the path, not a traceback
    if flag in ("out", "report"):
        path = tmp_path / "no_such_dir" / "o.txt"
    else:
        path = tmp_path / "a_directory"
        path.mkdir()
    code = run(*_impute_args(tmp_path, **{flag: path}))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0]
    assert "input" not in errors[0]


@pytest.mark.parametrize(
    "flag, code", [
        ("table", 2), ("rules", 2), ("corpus", 2), ("dict", 2), ("truth", 2),
        ("patterns", 2), ("config", 1),
    ],
)
def test_non_utf8_input_names_its_file(tmp_path, capsys, flag, code):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9 \xff\n")
    if flag == "truth":
        argv = ["eval", "--table", str(DATA / "nba.csv"), "--truth", str(bad)]
    elif flag == "dict":
        argv = _impute_args(tmp_path, dict=f"Location={bad}")
    else:
        argv = _impute_args(tmp_path, **{flag: bad})
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(bad) in errors[0]


def test_missing_config_file_is_data_error(tmp_path):
    code = run(
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--config", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "out.csv"),
    )
    assert code == 2


def _count_queries(monkeypatch):
    """The list every ``LocalCorpusProvider.query`` call appends its query to."""
    calls = []
    query = LocalCorpusProvider.query

    def counting(self, q):
        calls.append(q)
        return query(self, q)

    monkeypatch.setattr(LocalCorpusProvider, "query", counting)
    return calls


def _assert_fails_before_querying(argv, bad, calls, capsys, unwritten=()):
    assert run(*argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: "), errors
    assert calls == []
    assert not any(Path(path).exists() for path in unwritten)


@pytest.mark.parametrize("flag", ["out", "report", "patterns", "config", "directory"])
def test_impute_checks_its_outputs_before_any_query(tmp_path, capsys, monkeypatch, flag):
    # an output in a missing directory (flag or --config pattern cache), or
    # an --out that is a directory, fails with exit 2 and the line a write
    # would give, but before the table is read or a query made
    calls = _count_queries(monkeypatch)
    out = tmp_path / "out.csv"
    bad = tmp_path / "no_such_dir" / "o.json"
    if flag == "directory":
        out.mkdir()
        bad, out = out, tmp_path / "r.json"  # the report must not be written
        argv = _impute_args(tmp_path, report=out)
    elif flag == "config":
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"pattern_cache": str(bad)}), encoding="utf-8")
        argv = _impute_args(tmp_path, config=config)
    else:
        argv = _impute_args(tmp_path, **{flag: bad})
    _assert_fails_before_querying(argv, bad, calls, capsys, [out])
    assert run(*_impute_args(tmp_path, out=tmp_path / "good.csv")) == 0
    assert calls  # the same run with a writable --out queries


def test_missing_output_directory_is_reported_before_a_missing_table(tmp_path, capsys):
    bad = tmp_path / "nodir" / "out.csv"
    argv = _impute_args(tmp_path, table=tmp_path / "missing.csv", out=bad)
    _assert_fails_before_querying(argv, bad, [], capsys)


@pytest.mark.parametrize("flag", ["out", "report"])
def test_sweep_checks_its_outputs_before_any_query(tmp_path, capsys, monkeypatch, flag):
    table_path, rules_path, corpus_path, v_dict, w_dict = _sweep_files(tmp_path)
    calls = _count_queries(monkeypatch)
    paths = {"out": tmp_path / "sweep.csv", "report": tmp_path / "summary.txt"}
    bad = paths[flag] = tmp_path / "no_such_dir" / "o.txt"
    argv = [
        "sweep", "--table", str(table_path), "--rules", str(rules_path),
        "--corpus", str(corpus_path), "--Q", "2",
        "--dict", f"V={v_dict}", "--dict", f"W={w_dict}",
        "--ratios", "0.2", "--seeds", "1", "--protect", "K",
        "--out", str(paths["out"]), "--report", str(paths["report"]),
    ]
    _assert_fails_before_querying(argv, bad, calls, capsys, paths.values())


def test_mine_patterns_checks_its_output_before_any_query(tmp_path, capsys, monkeypatch):
    calls = _count_queries(monkeypatch)
    bad = tmp_path / "no_such_dir" / "patterns.json"
    argv = [
        "mine-patterns", "--table", str(DATA / "films.csv"),
        "--corpus", str(DATA / "films_corpus.jsonl"),
        "--pair", "Film,Director", "--min-support", "4", "--out", str(bad),
    ]
    _assert_fails_before_querying(argv, bad, calls, capsys)


def test_mask_checks_its_truth_path_before_writing_the_table(tmp_path, capsys):
    out, bad = tmp_path / "masked.csv", tmp_path / "no_such_dir" / "truth.json"
    argv = [
        "mask", "--table", str(DATA / "films.csv"), "--ratio", "0.1", "--seed", "1",
        "--out", str(out), "--truth", str(bad),
    ]
    _assert_fails_before_querying(argv, bad, [], capsys, [out])


def test_eval_checks_its_report_path_before_reading_its_inputs(tmp_path, capsys):
    bad = tmp_path / "nodir" / "m.json"
    argv = [
        "eval", "--table", str(tmp_path / "missing.csv"),
        "--truth", str(tmp_path / "t.json"), "--report", str(bad),
    ]
    _assert_fails_before_querying(argv, bad, [], capsys)


def test_sdg_checks_its_dot_path_before_reading_its_inputs(tmp_path, capsys):
    bad = tmp_path / "nodir" / "g.dot"
    argv = [
        "sdg", "--rules", str(tmp_path / "missing.rules"),
        "--table", str(tmp_path / "missing.csv"), "--dot", str(bad),
    ]
    _assert_fails_before_querying(argv, bad, [], capsys)


def test_url_template_with_whitespace_is_usage_error(tmp_path, capsys):
    # every GET of it would fail; rejected before the table is read
    out = tmp_path / "o.csv"
    code = run(
        "impute", "--table", str(tmp_path / "missing.csv"), "--rules", str(DATA / "nba.rules"),
        "--url-template", "http://127.0.0.1:9/s?q={query} x", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: bad http provider settings: "
        "url_template must not hold whitespace or control characters\n"
    )
    assert not out.exists()


def test_url_template_with_non_ascii_query_is_usage_error(tmp_path, capsys):
    # every GET of it would fail to encode its request line
    out = tmp_path / "o.csv"
    code = run(
        "impute", "--table", str(DATA / "nba.csv"), "--rules", str(DATA / "nba.rules"),
        "--url-template", "http://127.0.0.1:9/s?q={query}&l=\u00fc", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: bad http provider settings: url_template must be ASCII in its path and query\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "template, message",
    [
        ("htp://127.0.0.1:9/?q={query}", "url_template must be an http or https URL"),
        ("127.0.0.1:9/?q={query}", "url_template must be an http or https URL"),
        ("http:///?q={query}", "url_template must name a host"),
        ("http://127.0.0.1:x/?q={query}", "url_template has a bad port"),
        ("http://127.0.0.1:99999/?q={query}", "url_template has a bad port"),
    ],
    ids=["misspelt-scheme", "no-scheme", "empty-host", "non-numeric-port", "port-out-of-range"],
)
def test_url_template_urllib_cannot_open_is_usage_error(tmp_path, capsys, template, message):
    # every GET of it would fail; rejected before the (absent) table is read
    out = tmp_path / "o.csv"
    code = run(
        "impute", "--table", str(tmp_path / "missing.csv"), "--rules", str(DATA / "nba.rules"),
        "--url-template", template, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: bad http provider settings: {message}")
    assert not out.exists()


def test_log_level_controls_stderr(tmp_path, capsys):
    cache = tmp_path / "patterns.json"
    args = [
        "impute",
        "--table", str(DATA / "nba.csv"),
        "--rules", str(DATA / "nba.rules"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--Q", "2", "--patterns", str(cache),
        "--out", str(tmp_path / "out.csv"),
    ]
    package_logger, root = logging.getLogger("webimpute"), logging.getLogger()
    handlers, root_handlers = list(package_logger.handlers), list(root.handlers)
    assert run(*args) == 0  # writes the cache
    assert cache.exists()
    assert run(*args) == 0  # default level: info is not printed
    assert "cached pattern pairs" not in capsys.readouterr().err

    assert run("--log-level", "info", *args) == 0
    err = capsys.readouterr().err
    assert re.search(r"loaded \d+ cached pattern pairs", err)
    assert package_logger.handlers == handlers  # the handler goes when main returns
    assert root.handlers == root_handlers

    assert run("--log-level", "loud", *args) == 1
    assert "--log-level" in capsys.readouterr().err


def test_mask_impute_eval_round_trip(tmp_path, capsys):
    # build a complete table, mask it, impute from a made-to-match corpus,
    # then score the result
    table_path = tmp_path / "base.csv"
    rows = [f"k{i},v{i},w{i}" for i in range(10)]
    table_path.write_text("K,V,W\n" + "\n".join(rows) + "\n", encoding="utf-8")
    rules_path = tmp_path / "r.rules"
    rules_path.write_text("r1: K -> V\nr2: K -> W\n", encoding="utf-8")
    corpus_path = tmp_path / "c.jsonl"
    docs = [
        json.dumps({"id": f"v{i}", "text": f"k{i} holds value v{i}."})
        for i in range(10)
    ] + [
        json.dumps({"id": f"w{i}", "text": f"k{i} keeps item w{i}."})
        for i in range(10)
    ]
    corpus_path.write_text("\n".join(docs) + "\n", encoding="utf-8")
    v_dict = tmp_path / "v.dict"
    v_dict.write_text("\n".join(f"v{i}" for i in range(10)) + "\n", encoding="utf-8")
    w_dict = tmp_path / "w.dict"
    w_dict.write_text("\n".join(f"w{i}" for i in range(10)) + "\n", encoding="utf-8")

    masked_path = tmp_path / "masked.csv"
    truth_path = tmp_path / "truth.json"
    assert run(
        "mask", "--table", str(table_path), "--ratio", "0.3", "--seed", "1",
        "--protect", "K", "--out", str(masked_path), "--truth", str(truth_path),
    ) == 0
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    assert len(truth) == 6

    out_path = tmp_path / "imputed.csv"
    assert run(
        "impute", "--table", str(masked_path), "--rules", str(rules_path),
        "--corpus", str(corpus_path), "--Q", "2", "--sample", "5",
        "--dict", f"V={v_dict}", "--dict", f"W={w_dict}",
        "--out", str(out_path),
    ) == 0

    metrics_path = tmp_path / "metrics.json"
    assert run(
        "eval", "--table", str(out_path), "--truth", str(truth_path),
        "--report", str(metrics_path),
    ) == 0
    metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert metrics["masked"] == 6
    assert metrics["accuracy"] == 1.0
    assert metrics["filling_ratio"] == 1.0


def test_eval_prints_metrics_to_stdout(tmp_path, capsys):
    table = tmp_path / "imputed.csv"
    table.write_text("A,B\nx,1\ny,\n", encoding="utf-8")
    truth = tmp_path / "truth.json"
    truth.write_text(
        json.dumps([{"row": 0, "attr": "B", "value": "1"},
                    {"row": 1, "attr": "B", "value": "2"}]),
        encoding="utf-8",
    )
    assert run("eval", "--table", str(table), "--truth", str(truth)) == 0
    assert capsys.readouterr().out == (
        '{\n  "accuracy": 1.0,\n  "correct": 1,\n  "filled": 1,\n'
        '  "filling_ratio": 0.5,\n  "flagged": false,\n  "masked": 2,\n'
        '  "wall_time": null\n}\n'
    )


def _sweep_files(tmp_path):
    """Table, rules, corpus and V and W dictionaries of a small sweep."""
    table_path = tmp_path / "base.csv"
    rows = [f"k{i},v{i},w{i}" for i in range(8)]
    table_path.write_text("K,V,W\n" + "\n".join(rows) + "\n", encoding="utf-8")
    rules_path = tmp_path / "r.rules"
    rules_path.write_text("r1: K -> V\nr2: K -> W\n", encoding="utf-8")
    corpus_path = tmp_path / "c.jsonl"
    docs = [
        json.dumps({"id": f"v{i}", "text": f"k{i} holds value v{i}."})
        for i in range(8)
    ] + [
        json.dumps({"id": f"w{i}", "text": f"k{i} keeps item w{i}."})
        for i in range(8)
    ]
    corpus_path.write_text("\n".join(docs) + "\n", encoding="utf-8")
    v_dict = tmp_path / "v.dict"
    v_dict.write_text("\n".join(f"v{i}" for i in range(8)) + "\n", encoding="utf-8")
    w_dict = tmp_path / "w.dict"
    w_dict.write_text("\n".join(f"w{i}" for i in range(8)) + "\n", encoding="utf-8")
    return table_path, rules_path, corpus_path, v_dict, w_dict


def test_sweep_writes_csv_and_summary(tmp_path):
    table_path, rules_path, corpus_path, v_dict, w_dict = _sweep_files(tmp_path)
    out_path = tmp_path / "sweep.csv"
    summary_path = tmp_path / "summary.txt"
    code = run(
        "sweep", "--table", str(table_path), "--rules", str(rules_path),
        "--corpus", str(corpus_path), "--Q", "2",
        "--dict", f"V={v_dict}", "--dict", f"W={w_dict}",
        "--ratios", "0.2,0.4", "--seeds", "1,2", "--protect", "K",
        "--out", str(out_path), "--report", str(summary_path),
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 7  # header + 2x2 grid + 2 average rows
    summary = summary_path.read_text(encoding="utf-8")
    assert "accuracy" in summary
    assert "1.0000" in summary  # made-to-match corpus fills everything

    # seeds default to 1-5 when omitted
    code = run(
        "sweep", "--table", str(table_path), "--rules", str(rules_path),
        "--corpus", str(corpus_path), "--Q", "2",
        "--dict", f"V={v_dict}", "--dict", f"W={w_dict}",
        "--ratios", "0.2", "--protect", "K",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 7  # header + 1 ratio x 5 default seeds + average

    for ratios in ("oops", ","):
        assert run(
            "sweep", "--table", str(table_path), "--rules", str(rules_path),
            "--corpus", str(corpus_path), "--ratios", ratios, "--seeds", "1",
            "--out", str(out_path),
        ) == 1


@pytest.mark.parametrize("command", ["impute", "sweep"])
def test_unknown_dictionary_attribute_is_data_error(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    if command == "impute":
        argv = _impute_args(tmp_path, dict="Nope=x.dict")
    else:
        table_path, rules_path, corpus_path, v_dict, _ = _sweep_files(tmp_path)
        argv = [
            "sweep", "--table", str(table_path), "--rules", str(rules_path),
            "--corpus", str(corpus_path), "--dict", f"v={v_dict}",
            "--ratios", "0.2", "--seeds", "1", "--protect", "K", "--out", str(out),
        ]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "error: dictionaries name attributes not in table:" in err
    assert not out.exists()


def test_sweep_with_missing_dictionary_file_writes_no_csv(tmp_path, capsys):
    table_path, rules_path, corpus_path, _, w_dict = _sweep_files(tmp_path)
    missing = tmp_path / "missing.dict"
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--table", str(table_path), "--rules", str(rules_path),
        "--corpus", str(corpus_path), "--dict", f"V={missing}", "--dict", f"W={w_dict}",
        "--ratios", "0.2,0.4", "--seeds", "1,2", "--protect", "K", "--out", str(out),
    )
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(missing) in errors[0]
    assert not out.exists()


def test_impute_with_unread_dictionary_file_is_data_error(tmp_path, capsys):
    # no Coach cell reaches phase 2, yet the missing file stops the run
    out = tmp_path / "out.csv"
    argv = _impute_args(tmp_path, out=out)
    code = run(*argv, "--dict", f"Coach={tmp_path / 'missing.dict'}")
    err = capsys.readouterr().err
    assert code == 2
    assert "missing.dict" in err and not out.exists()


def test_mine_patterns_command(tmp_path):
    out = tmp_path / "patterns.json"
    code = run(
        "mine-patterns",
        "--table", str(DATA / "films.csv"),
        "--corpus", str(DATA / "films_corpus.jsonl"),
        "--pair", "Film,Director",
        "--min-support", "4", "--sample", "7",
        "--out", str(out),
    )
    assert code == 0
    patterns = json.loads(out.read_text(encoding="utf-8"))
    assert [p["context"] for p in patterns] == [["director", "of"]]

    assert run(
        "mine-patterns", "--table", str(DATA / "films.csv"),
        "--corpus", str(DATA / "films_corpus.jsonl"),
        "--pair", "FilmDirector", "--min-support", "2", "--out", str(out),
    ) == 1


def test_mine_patterns_bad_pair_is_usage_error(tmp_path, capsys):
    # the table does not exist: the pair is checked before any file is read
    out = tmp_path / "patterns.json"
    code = run(
        "mine-patterns", "--table", str(tmp_path / "missing.csv"),
        "--corpus", str(DATA / "nba_corpus.jsonl"),
        "--pair", "Arena", "--min-support", "2", "--out", str(out),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "--pair" in err and not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--min-support", "0"), ("--sample", "0"), ("--sample", "-3"), ("--pages", "0")],
)
def test_mine_patterns_count_flags_are_usage_errors(tmp_path, capsys, flag, value):
    # the table does not exist: a usage error is raised before any file is
    # read; a repeated flag takes its last value
    out = tmp_path / "patterns.json"
    code = run(
        "mine-patterns",
        "--table", str(tmp_path / "absent.csv"),
        "--corpus", str(DATA / "films_corpus.jsonl"),
        "--pair", "Film,Director",
        "--min-support", "2", flag, value,
        "--out", str(out),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err and not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("mask", ["--ratio", "1.5"]),
        ("mask", ["--ratio", "-0.2"]),
        ("sweep", ["--ratios", "1.5,-0.2"]),
        ("sweep", ["--ratios", "0.2,nan"]),
        ("sweep", ["--ratios", ","]),
        ("sweep", ["--ratios", "0.2", "--seeds", ","]),
        ("sweep", ["--ratios", "0.2", "--seeds", "1,x"]),
    ],
)
def test_bad_mask_ratio_or_seed_list_is_usage_error(tmp_path, capsys, command, flags):
    # the table does not exist: a usage error is raised before any file is read
    absent = str(tmp_path / "absent")
    out = tmp_path / "out.csv"
    paths = {
        "mask": ["--seed", "1", "--truth", absent + ".json"],
        "sweep": ["--rules", absent + ".rules", "--corpus", absent + ".jsonl"],
    }
    code = run(
        command, "--table", absent + ".csv", *paths[command], *flags, "--out", str(out)
    )
    err = capsys.readouterr().err
    assert code == 1
    assert flags[-2] in err and not out.exists()
