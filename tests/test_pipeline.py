import copy
import json
import random
from dataclasses import replace

import pytest

import webimpute.pipeline as pipeline
from oracles import (
    CountingProvider,
    LiveCountingProvider,
    frequent_corpus_case,
    log_calls,
    make_table,
    scan_query_oracle,
    tied_corpus_case,
)
from webimpute import (
    MISSING,
    LocalCorpusProvider,
    ProviderError,
    Query,
    RuleSet,
    RunConfig,
    impute,
    parse_rules,
)
from webimpute.pipeline import (
    ABSTAINED,
    FILLED_INTERNAL,
    FILLED_KEYWORD,
    FILLED_PATTERN,
    SweepMemo,
)
from webimpute.tabular import to_csv_text


class FailingProvider:
    def __init__(self):
        self.calls = 0

    def query(self, q):
        self.calls += 1
        raise ProviderError("simulated outage")


class FlakyProvider:
    """Fails a fixed number of times, then delegates."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.remaining = failures

    def query(self, q):
        if self.remaining > 0:
            self.remaining -= 1
            raise ProviderError("transient outage")
        return self.inner.query(q)


class MiningOutageProvider:
    """Fails every pattern-mining query (a pair of values) and answers the
    cell queries, whose last keyword is the sink attribute's name."""

    def __init__(self, inner, attrs):
        self.inner = inner
        self.attrs = set(attrs)

    def query(self, q):
        if q.keywords[-1] not in self.attrs:
            raise ProviderError("mining outage")
        return self.inner.query(q)


class TestNbaEndToEnd:
    @pytest.fixture
    def result(self, nba_table, nba_ruleset, nba_provider, nba_config):
        return impute(nba_table, nba_ruleset, nba_config, nba_provider)

    def test_worked_example_cells(self, result):
        table, report = result
        assert table.cell(3, "Location") == "SanFrancsicoCA"
        assert table.cell(3, "Capacity") == "7500"
        assert table.cell(4, "Location") == "WheatonIL"
        assert table.cell(3, "Team") == "Golden State Warriors"

    def test_outcomes_partition_missing_cells(self, result, nba_table):
        _, report = result
        missing = list(nba_table.missing_cells())
        assert [(o.row, o.attr) for o in report.outcomes] == missing
        assert sum(report.counts.values()) == len(missing)

    def test_outcome_kinds(self, result):
        _, report = result
        kinds = {(o.row, o.attr): o.outcome for o in report.outcomes}
        assert kinds[(3, "Location")] == FILLED_INTERNAL
        assert kinds[(4, "Location")] == FILLED_PATTERN
        assert kinds[(3, "Team")] == FILLED_KEYWORD
        assert kinds[(0, "Coach")] == ABSTAINED

    def test_pattern_outcome_records_pattern(self, result):
        _, report = result
        outcome = next(o for o in report.outcomes if (o.row, o.attr) == (4, "Location"))
        assert outcome.pattern["context"] == ["in"]
        assert outcome.keyword_group == ["WheatonFieldHouse", "Location"]
        assert outcome.group_weight == 1.0

    def test_internal_fill_not_overwritten(self, result, nba_table):
        table, report = result
        # phase 1 filled it; the web phase saw it as present evidence
        assert table.cell(3, "Location") == "SanFrancsicoCA"
        internal = [o for o in report.outcomes if o.outcome == FILLED_INTERNAL]
        assert {(o.row, o.attr) for o in internal} == {(3, "Location"), (3, "Capacity")}

    def test_abstain_reasons(self, result):
        _, report = result
        reasons = {(o.row, o.attr): o.reason for o in report.outcomes if o.reason}
        assert reasons[(0, "Coach")] == "no feasible keyword group"
        assert reasons[(4, "Capacity")] == "no extraction"


def test_complete_table_is_identity(nba_ruleset, nba_provider, nba_config):
    table = make_table(
        ["ID", "Team", "Start-End", "Arena", "Location", "Capacity", "Coach"],
        [["t1", "a", "b", "c", "d", "e", "f"]],
    )
    out, report = impute(table, nba_ruleset, nba_config, nba_provider)
    assert out.rows == table.rows
    assert report.initial_missing == 0
    assert report.outcomes == []
    assert all(v == 0 for v in report.counts.values())


def test_empty_corpus_leaves_web_cells_abstained(nba_table, nba_ruleset, nba_config):
    out, report = impute(nba_table, nba_ruleset, nba_config, LocalCorpusProvider([]))
    kinds = {o.outcome for o in report.outcomes}
    assert kinds == {FILLED_INTERNAL, ABSTAINED}
    assert out.cell(4, "Location") is MISSING


def test_provider_failure_never_aborts(nba_table, nba_ruleset, nba_config):
    out, report = impute(nba_table, nba_ruleset, nba_config, FailingProvider())
    assert out.cell(3, "Location") == "SanFrancsicoCA"  # internal phase unaffected
    failures = [o for o in report.outcomes if o.reason == "provider error"]
    assert failures
    assert all(o.outcome == ABSTAINED for o in failures)


def test_transient_provider_failures_are_retried(
    nba_table, nba_ruleset, nba_provider, nba_config
):
    from dataclasses import replace
    from webimpute.tabular import to_csv_text

    flaky = FlakyProvider(nba_provider, failures=2)
    config = replace(nba_config, query_retries=2, max_concurrent_queries=1)
    out, _ = impute(nba_table, nba_ruleset, config, flaky)
    baseline, _ = impute(nba_table, nba_ruleset, config, nba_provider)
    assert to_csv_text(out) == to_csv_text(baseline)

    exhausted = FlakyProvider(nba_provider, failures=100)
    out2, report2 = impute(nba_table, nba_ruleset, config, exhausted)
    assert any(o.reason == "provider error" for o in report2.outcomes)


def test_deterministic_outputs(nba_table, nba_ruleset, nba_provider, nba_config):
    from webimpute.tabular import to_csv_text

    a_table, a_report = impute(nba_table, nba_ruleset, nba_config, nba_provider)
    b_table, b_report = impute(nba_table, nba_ruleset, nba_config, nba_provider)
    assert to_csv_text(a_table) == to_csv_text(b_table)
    assert a_report.to_json(include_timings=False) == b_report.to_json(include_timings=False)


def test_written_report_is_its_json_text(
    tmp_path, nba_table, nba_ruleset, nba_provider, nba_config
):
    # write streams the report into its file; to_json builds the text in memory
    _, report = impute(nba_table, nba_ruleset, nba_config, nba_provider)
    path = tmp_path / "report.json"
    report.write(path)
    assert path.read_bytes() == report.to_json().encode("utf-8")
    assert list(json.loads(path.read_bytes()))[-1] == "timings"  # sorted keys put it last


def test_sequential_and_parallel_agree(nba_table, nba_ruleset, nba_provider, nba_config):
    from dataclasses import replace
    from webimpute.tabular import to_csv_text

    sequential = replace(nba_config, max_concurrent_queries=1)
    parallel = replace(nba_config, max_concurrent_queries=4)
    a_table, a_report = impute(nba_table, nba_ruleset, sequential, nba_provider)
    b_table, b_report = impute(nba_table, nba_ruleset, parallel, nba_provider)
    assert to_csv_text(a_table) == to_csv_text(b_table)
    a_dict, b_dict = a_report.to_dict(False), b_report.to_dict(False)
    a_dict.pop("config"), b_dict.pop("config")  # differs by construction
    assert a_dict == b_dict


def test_pattern_cache_round_trip(
    nba_table, nba_ruleset, nba_provider, nba_config, tmp_path, monkeypatch
):
    # a lone impute writes a missing cache file once; the next one reads it
    # once, and writes it once too, as each lone impute makes its own memo
    cache = tmp_path / "patterns.json"
    config = replace(nba_config, pattern_cache=str(cache))
    calls = []
    log_calls(monkeypatch, calls, pipeline, "load_patterns")
    log_calls(monkeypatch, calls, pipeline, "save_patterns")
    a_table, _ = impute(nba_table, nba_ruleset, config, nba_provider)
    assert calls == ["save_patterns"]
    first_bytes = cache.read_bytes()
    b_table, _ = impute(nba_table, nba_ruleset, config, nba_provider)
    assert calls == ["save_patterns", "load_patterns", "save_patterns"]
    assert to_csv_text(a_table) == to_csv_text(b_table)
    assert cache.read_bytes() == first_bytes


def test_a_malformed_cache_stops_a_lone_impute_before_phase_one(
    nba_table, nba_ruleset, nba_provider, nba_config, tmp_path, monkeypatch
):
    cache = tmp_path / "patterns.json"
    cache.write_text("[", encoding="utf-8")
    calls = []
    log_calls(monkeypatch, calls, pipeline, "impute_internal")
    config = replace(nba_config, pattern_cache=str(cache))
    with pytest.raises(ValueError, match="not a UTF-8 JSON file"):
        impute(nba_table, nba_ruleset, config, nba_provider)
    assert calls == []


def test_provider_error_while_mining_leaves_the_pair_without_patterns(
    nba_table, nba_ruleset, nba_provider, nba_config, tmp_path, caplog
):
    cache = tmp_path / "patterns.json"
    config = replace(nba_config, pattern_cache=str(cache))
    provider = MiningOutageProvider(nba_provider, nba_table.columns)
    with caplog.at_level("WARNING", logger="webimpute.pipeline"):
        out, report = impute(nba_table, nba_ruleset, config, provider)
    pairs = [
        ("Arena", "Capacity"), ("Arena", "Location"), ("Arena", "Team"),
        ("Start-End", "Arena"), ("Start-End", "Team"), ("Team", "Arena"),
    ]
    assert [r.getMessage() for r in caplog.records if "mining" in r.getMessage()] == [
        f"pattern mining for {pair} failed: mining outage" for pair in pairs
    ]
    assert json.loads(cache.read_text(encoding="utf-8")) == []
    # the run finishes; the cells the patterns filled go to keyword extraction
    assert report.counts[FILLED_PATTERN] == 0
    location = next(o for o in report.outcomes if (o.row, o.attr) == (4, "Location"))
    assert (location.outcome, location.value) == (FILLED_KEYWORD, "WheatonIL")
    assert out.cell(4, "Location") == "WheatonIL"


def test_pair_without_a_complete_tuple_mines_no_patterns(tmp_path, caplog):
    # V is missing everywhere, so (K, V) has no mining evidence: the pair
    # gets no patterns without a query or a warning, and keywords fill both
    table = make_table(["K", "V"], [["k1", MISSING], ["k2", MISSING]])
    ruleset = RuleSet(parse_rules("r: K -> V"), {("r", "V"): 1.0})
    provider = LocalCorpusProvider([("d1", "k1 holds value v1."), ("d2", "k2 holds value v2.")])
    values = tmp_path / "v.dict"
    values.write_text("v1\nv2\n", encoding="utf-8")
    cache = tmp_path / "patterns.json"
    config = RunConfig(pattern_cache=str(cache), dictionaries={"V": str(values)})
    with caplog.at_level("WARNING", logger="webimpute"):
        out, report = impute(table, ruleset, config, provider)
    assert caplog.records == []
    assert json.loads(cache.read_text(encoding="utf-8")) == []
    assert [(o.outcome, o.value) for o in report.outcomes] == [
        (FILLED_KEYWORD, "v1"), (FILLED_KEYWORD, "v2"),
    ]


def test_reiterate_runs_one_extra_internal_sweep(tmp_path):
    # B arrives from the web; only a reiterated Bayes sweep can then fill C
    table = make_table(
        ["A", "B", "C"],
        [
            ["a1", "b1", "c1"],
            ["a3", "b2", "c2"],
            ["a2", MISSING, MISSING],
        ],
    )
    ruleset = RuleSet.estimate(parse_rules("r1: A -> B\nr2: B -> C"), table)
    provider = LocalCorpusProvider([("d", "a2 maps to b2 exactly")])
    dict_file = tmp_path / "b.dict"
    dict_file.write_text("b1\nb2\n", encoding="utf-8")
    base = dict(
        pattern_support=1,
        sample=2,
        dictionaries={"B": str(dict_file)},
    )
    out_plain, report_plain = impute(
        table, ruleset, RunConfig(**base), provider
    )
    assert out_plain.cell(2, "B") == "b2"
    assert out_plain.cell(2, "C") is MISSING

    out_re, report_re = impute(
        table, ruleset, RunConfig(**base, reiterate=True), provider
    )
    assert out_re.cell(2, "B") == "b2"
    assert out_re.cell(2, "C") == "c2"
    outcome = next(o for o in report_re.outcomes if (o.row, o.attr) == (2, "C"))
    assert outcome.outcome == FILLED_INTERNAL
    assert outcome.reason == "reiterate"


def test_rules_must_reference_table_attributes(nba_provider, nba_config):
    table = make_table(["X"], [["1"]])
    ruleset = RuleSet.estimate(parse_rules("r: A -> B"), make_table(["A", "B"], []))
    with pytest.raises(ValueError, match="reference"):
        impute(table, ruleset, nba_config, nba_provider)


def test_dictionaries_must_name_table_attributes(nba_table, nba_ruleset, nba_config):
    provider = CountingProvider(LocalCorpusProvider([]))
    config = replace(nba_config, dictionaries={"location": "x.dict", "Nope": "y.dict"})
    with pytest.raises(
        ValueError, match="^dictionaries name attributes not in table: Nope, location$"
    ):
        impute(nba_table, nba_ruleset, config, provider)
    assert provider.queries == []


def test_missing_dictionary_file_fails_before_any_query(
    nba_table, nba_ruleset, nba_provider, nba_config, tmp_path
):
    provider = CountingProvider(nba_provider)
    missing = tmp_path / "missing.dict"
    config = replace(nba_config, dictionaries={"Location": str(missing)})
    with pytest.raises(FileNotFoundError, match="missing.dict"):
        impute(nba_table, nba_ruleset, config, provider)
    assert provider.queries == []


def test_dictionary_file_is_read_even_without_a_phase_two_cell(
    nba_table, nba_ruleset, nba_provider, nba_config, tmp_path
):
    # Coach's one missing cell has no feasible keyword group, so no Coach
    # dictionary is ever built; its file is still read before phase 1
    provider = CountingProvider(nba_provider)
    missing = tmp_path / "missing.dict"
    config = replace(
        nba_config, dictionaries={**nba_config.dictionaries, "Coach": str(missing)}
    )
    with pytest.raises(FileNotFoundError, match="missing.dict"):
        impute(nba_table, nba_ruleset, config, provider)
    assert provider.queries == []


def test_phase_two_queries_cells_in_row_major_order(tmp_path):
    # Z comes before B in the table but after it by name; no row is complete,
    # so phase 1 fills nothing and no pattern is mined: every query is a cell's.
    # The dictionary files give each cell something to extract, so it asks
    table = make_table(["K", "Z", "B"], [["k1", MISSING, MISSING], ["k2", MISSING, MISSING]])
    ruleset = RuleSet(
        parse_rules("r1: K -> Z\nr2: K -> B"), {("r1", "Z"): 1.0, ("r2", "B"): 1.0}
    )
    (tmp_path / "z.dict").write_text("z1\n", encoding="utf-8")
    (tmp_path / "b.dict").write_text("b1\n", encoding="utf-8")
    config = RunConfig(dictionaries={"Z": str(tmp_path / "z.dict"), "B": str(tmp_path / "b.dict")})
    provider = CountingProvider(LocalCorpusProvider([]))
    _, report = impute(table, ruleset, config, provider)
    assert [o.reason for o in report.outcomes] == ["no extraction"] * 4
    assert provider.queries == [("k1", "Z"), ("k1", "B"), ("k2", "Z"), ("k2", "B")]


def test_an_empty_sink_dictionary_asks_nothing(caplog):
    # no A value is known, so A's dictionary is empty and neither extractor
    # can read a value: each cell abstains at once, and the one warning is
    # the dictionary build's
    table = make_table(["K", "A"], [[f"k{i}", MISSING] for i in range(3)])
    ruleset = RuleSet(parse_rules("r: K -> A"), {("r", "A"): 1.0})
    provider = CountingProvider(LocalCorpusProvider([("d1", "k0 is in a1 for A")]))
    with caplog.at_level("WARNING"):
        _, report = impute(table, ruleset, RunConfig(), provider)
    assert [(o.outcome, o.reason) for o in report.outcomes] == [
        (ABSTAINED, "no extraction")
    ] * 3
    assert provider.queries == []
    assert [r.getMessage() for r in caplog.records] == ["dictionary for 'A' is empty"]


def test_nothing_filled_still_returns_a_new_table():
    # no row is complete and the corpus is empty, so neither phase fills a cell
    table = make_table(["K", "Z", "B"], [["k1", MISSING, MISSING], ["k2", MISSING, MISSING]])
    ruleset = RuleSet(
        parse_rules("r1: K -> Z\nr2: K -> B"), {("r1", "Z"): 1.0, ("r2", "B"): 1.0}
    )
    snapshot = copy.deepcopy(table.rows)
    out, report = impute(table, ruleset, RunConfig(), LocalCorpusProvider([]))
    assert [o.outcome for o in report.outcomes] == [ABSTAINED] * 4
    assert out is not table
    assert out.rows == snapshot
    assert table.rows == snapshot


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(bayes_threshold=2.0)
    with pytest.raises(ValueError):
        RunConfig(group_threshold=-0.1)
    with pytest.raises(ValueError):
        RunConfig(pattern_support=0)
    with pytest.raises(ValueError):
        RunConfig(pages=0)


@pytest.mark.parametrize("field", ["max_rounds", "page_size", "max_gap"])
def test_config_rejects_count_below_one(field):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: 0})


@pytest.mark.parametrize(
    "field, value",
    [
        ("dictionaries", ["City"]),
        ("dictionaries", {"Location": 3}),
        ("pattern_cache", 5),
        ("reiterate", "no"),
        ("reiterate", 1),
        ("pages", 2.5),
        ("pages", "5"),
        ("max_rounds", 1.5),
        ("query_retries", True),
        ("pattern_support", 2.0),
        ("bayes_threshold", True),
        ("group_threshold", "0.8"),
    ],
)
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_config_default_pattern_support_tracks_page_budget():
    assert RunConfig(pages=5, page_size=10).effective_pattern_support == 25
    assert RunConfig(pages=1, page_size=10).effective_pattern_support == 5
    assert RunConfig(pattern_support=2).effective_pattern_support == 2


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config"):
        RunConfig.from_dict({"nope": 1})


def test_a_run_asks_each_distinct_query_once(nba_table, nba_ruleset, nba_provider, nba_config):
    # a live provider is asked every time; one that is not live is asked each
    # distinct Query once (one config, so one page budget), in first-ask order
    live = LiveCountingProvider(nba_provider)
    table, report = impute(nba_table, nba_ruleset, nba_config, live)
    pure = CountingProvider(nba_provider)
    again, again_report = impute(nba_table, nba_ruleset, nba_config, pure)
    assert len(live.queries) > len(set(live.queries))
    assert pure.queries == list(dict.fromkeys(live.queries))
    assert to_csv_text(again) == to_csv_text(table)
    assert again_report.to_json(include_timings=False) == report.to_json(include_timings=False)


def test_a_mutated_answer_leaves_the_next_unchanged(
    nba_table, nba_ruleset, nba_provider, nba_config, monkeypatch
):
    # each caller gets a list of its own: emptying one changes neither the
    # answer to the next ask nor the run's result
    table, report = impute(nba_table, nba_ruleset, nba_config, nba_provider)
    query = SweepMemo.query

    def emptied_first(self, q):
        query(self, q).clear()
        return query(self, q)

    monkeypatch.setattr(SweepMemo, "query", emptied_first)
    again, again_report = impute(nba_table, nba_ruleset, nba_config, nba_provider)
    assert to_csv_text(again) == to_csv_text(table)
    assert again_report.to_json(include_timings=False) == report.to_json(include_timings=False)


def test_memoised_answers_match_scan_oracle():
    # each query is asked two or three times in random order, and at another
    # page budget too, which is another question with a longer or shorter answer
    rng = random.Random(20261027)
    budgets_differ = 0
    for case in [frequent_corpus_case] * 100 + [tied_corpus_case] * 100:
        docs, q, page_size = case(rng)
        queries = [q, case(rng)[1]]
        queries += [Query(x.keywords, x.pages % 3 + 1) for x in queries]
        asked = queries * 2 + rng.choices(queries, k=3)
        rng.shuffle(asked)
        local = CountingProvider(LocalCorpusProvider(docs, page_size=page_size))
        provider = SweepMemo(local, RunConfig(query_retries=0))
        for x in asked:
            assert provider.query(x) == scan_query_oracle(docs, x, page_size)
        assert len(local.queries) == len(set(asked))
        budgets_differ += scan_query_oracle(docs, q, page_size) != scan_query_oracle(
            docs, queries[2], page_size
        )
    assert budgets_differ >= 100, budgets_differ


def test_a_memo_serves_only_its_own_provider_and_config(
    nba_table, nba_ruleset, nba_provider, nba_config
):
    # a memo keeps mined patterns and answers of the provider and the config
    # it was made for, and a run takes it as its provider.  Its keys hold no
    # config count, so a run with other counts or dictionary files is refused
    # before any query, a config changed in place since the memo was made too
    config = replace(nba_config, dictionaries=dict(nba_config.dictionaries))
    counted = CountingProvider(nba_provider)
    memo = SweepMemo(counted, config)

    def rejected(run_config):
        with pytest.raises(ValueError, match="configuration it was made for"):
            impute(nba_table, nba_ruleset, run_config, memo)

    rejected(replace(config, pages=4))
    config.sample = 4
    rejected(config)
    config.sample = 5
    config.dictionaries.clear()
    rejected(config)
    config.dictionaries.update(nba_config.dictionaries)
    assert counted.queries == []
    _, report = impute(nba_table, nba_ruleset, config, memo)
    assert report.counts[FILLED_PATTERN] == 2
    # another provider gets a memo of its own: a memo paired with the NBA
    # corpus's patterns used to fill two cells by pattern on an empty corpus
    empty = CountingProvider(LocalCorpusProvider([]))
    _, report = impute(nba_table, nba_ruleset, config, empty)
    assert report.counts[FILLED_PATTERN] == 0
    assert empty.queries
