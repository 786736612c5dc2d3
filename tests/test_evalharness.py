import csv
import io
import json
import random
from dataclasses import replace

import pytest

import webimpute.evalharness as evalharness
import webimpute.pipeline as pipeline
from oracles import CountingProvider, LiveCountingProvider, log_calls, make_table
from webimpute import (
    LocalCorpusProvider,
    MaskedCell,
    RuleSet,
    RunConfig,
    evaluate,
    parse_rules,
    sweep,
)
from webimpute.evalharness import run_one
from webimpute.pipeline import SweepMemo, impute
from webimpute.tabular import MISSING, MaskError, MaskSpec, mask_random, to_csv_text


class TestEvaluate:
    def test_three_of_four_correct(self):
        imputed = make_table(["A"], [["v1"], ["v2"], ["v3"], ["wrong"]])
        truth = [MaskedCell(i, "A", f"v{i + 1}") for i in range(4)]
        metrics = evaluate(truth, imputed)
        assert metrics.accuracy == 0.75
        assert metrics.filling_ratio == 1.0
        assert (metrics.masked, metrics.filled, metrics.correct) == (4, 4, 3)

    def test_zero_masked_is_flagged(self):
        metrics = evaluate([], make_table(["A"], [["x"]]))
        assert metrics.accuracy == 1.0
        assert metrics.filling_ratio == 1.0
        assert metrics.flagged

    def test_unfilled_cells_hit_filling_ratio_not_accuracy(self):
        imputed = make_table(["A"], [["v1"], [MISSING], ["v3"], [MISSING]])
        truth = [MaskedCell(i, "A", f"v{i + 1}") for i in range(4)]
        metrics = evaluate(truth, imputed)
        assert metrics.accuracy == 1.0
        assert metrics.filling_ratio == 0.5

    def test_comparison_trims_whitespace_but_keeps_case(self):
        imputed = make_table(["A"], [[" v1 "], ["V2"]])
        truth = [MaskedCell(0, "A", "v1"), MaskedCell(1, "A", "v2")]
        metrics = evaluate(truth, imputed)
        assert metrics.correct == 1

    def test_schema_mismatch_rejected(self):
        table = make_table(["A"], [["x"]])
        with pytest.raises(ValueError, match="not in table"):
            evaluate([MaskedCell(0, "B", "x")], table)
        with pytest.raises(ValueError, match="out of range"):
            evaluate([MaskedCell(5, "A", "x")], table)


@pytest.fixture
def tiny_setup():
    # complete 12-row table whose corpus answers every keyword query
    rows = [[f"key{i}", f"val{i % 3}", f"extra{i}"] for i in range(12)]
    table = make_table(["K", "V", "E"], rows)
    ruleset = RuleSet.estimate(parse_rules("r1: K -> V\nr2: K -> E"), table)
    corpus = []
    for i, (k, v, e) in enumerate(rows):
        corpus.append((f"v{i:02d}", f"{k} holds value {v}."))
        corpus.append((f"e{i:02d}", f"{k} keeps item {e}."))
    provider = LocalCorpusProvider(corpus)
    config = RunConfig(pattern_support=2, sample=4, pages=2)
    return table, ruleset, config, provider


class TestSweep:
    def test_grid_shape_and_averages(self, tiny_setup):
        table, ruleset, config, provider = tiny_setup
        result = sweep(
            table, ruleset, config, provider,
            ratios=[0.1, 0.3], seeds=[1, 2, 3], protected=["K"],
        )
        assert len(result.rows) == 6
        averages = result.averages()
        assert [a["ratio"] for a in averages] == [0.1, 0.3]
        for avg in averages:
            rows = [r.metrics for r in result.rows if r.ratio == avg["ratio"]]
            assert avg["accuracy"] == pytest.approx(
                sum(m.accuracy for m in rows) / len(rows)
            )
            assert avg["filling_ratio"] == pytest.approx(
                sum(m.filling_ratio for m in rows) / len(rows)
            )

    def test_single_cell_grid(self, tiny_setup):
        table, ruleset, config, provider = tiny_setup
        result = sweep(table, ruleset, config, provider, [0.2], [1], protected=["K"])
        assert len(result.rows) == 1
        parsed = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(parsed) == 2  # the run plus its per-ratio average
        assert parsed[0]["ratio"] == "0.2" and parsed[0]["seed"] == "1"
        assert parsed[1]["seed"] == "avg"
        assert parsed[1]["accuracy"] == parsed[0]["accuracy"]
        assert set(parsed[0]) == {
            "ratio", "seed", "masked", "filled", "correct",
            "accuracy", "filling_ratio", "wall_time_s",
        }

    def test_csv_without_timing_column(self, tiny_setup):
        table, ruleset, config, provider = tiny_setup
        result = sweep(table, ruleset, config, provider, [0.2], [1], protected=["K"])
        parsed = list(csv.DictReader(io.StringIO(result.to_csv(include_timing=False))))
        assert "wall_time_s" not in parsed[0]

    def test_failures_recorded_not_raised(self, tiny_setup):
        table, ruleset, config, provider = tiny_setup
        # ratio 0.95 cannot keep one cell per row: recorded as an error row
        result = sweep(table, ruleset, config, provider, [0.95, 0.1], [1], protected=["K"])
        failed = [r for r in result.rows if r.error]
        succeeded = [r for r in result.rows if r.metrics]
        assert len(failed) == 1 and failed[0].ratio == 0.95
        assert len(succeeded) == 1
        assert "failed" in result.summary()
        records = list(csv.reader(io.StringIO(result.to_csv())))
        # the failed run keeps its ratio and seed; only the ratio that ran
        # has an average row
        assert records[1] == ["0.95", "1", "", "", "", "", "", ""]
        assert [r[:2] for r in records[2:]] == [["0.1", "1"], ["0.1", "avg"]]
        untimed = list(csv.reader(io.StringIO(result.to_csv(include_timing=False))))
        assert untimed[1] == ["0.95", "1", "", "", "", "", ""]

    def test_error_common_to_every_point_ends_the_sweep(self, tiny_setup, tmp_path):
        table, ruleset, config, provider = tiny_setup
        config = replace(config, dictionaries={"V": str(tmp_path / "missing.dict")})
        with pytest.raises(FileNotFoundError):
            sweep(table, ruleset, config, provider, [0.95, 0.3], [1], protected=["K"])

    def test_one_shot_protected_iterable_protects_every_point(self, tiny_setup, monkeypatch):
        table, ruleset, config, provider = tiny_setup
        specs = []
        mask = evalharness.mask_random

        def recording(table, spec, rules=None):
            specs.append(spec)
            return mask(table, spec, rules=rules)

        monkeypatch.setattr(evalharness, "mask_random", recording)
        sweep(table, ruleset, config, provider, [0.1, 0.3], [1],
              protected=(a for a in ["K"]))
        assert [s.protected_attrs for s in specs] == [frozenset({"K"})] * 2

    def test_run_one_reports_wall_time(self, tiny_setup):
        table, ruleset, config, provider = tiny_setup
        metrics = run_one(table, ruleset, config, provider, 0.2, 1, protected=["K"])
        assert metrics.wall_time is not None and metrics.wall_time > 0
        assert set(metrics.phase_timings) == {"internal_s", "web_s", "total_s"}


def test_filling_ratio_non_decreasing_in_pages(tiny_setup):
    from dataclasses import replace

    table, ruleset, config, provider = tiny_setup
    ratios = []
    for pages in (1, 2, 3):
        cfg = replace(config, pages=pages)
        metrics = run_one(table, ruleset, cfg, provider, 0.3, 1, protected=["K"])
        ratios.append(metrics.filling_ratio)
    assert ratios == sorted(ratios)


def _memo_case(seed, tmp_path):
    """A complete table, its rules, a corpus and a config for a random sweep.

    Cities repeat across rows and have no dictionary file, so a grid point's
    City dictionary depends on its mask.  City and Code have patterns, with
    supports that depend on which rows are sampled; Tag co-occurs with the
    key only through random filler words, so (Name, Tag) mines no pattern.
    """
    rng = random.Random(seed)
    cities = ["Avon", "Brill", "Crewe", "Dover"]
    rows = [
        [f"Inst{i}", rng.choice(cities), f"C{rng.randrange(90) + 10}", f"tag{rng.randrange(6)}"]
        for i in range(14)
    ]
    table = make_table(["Name", "City", "Code", "Tag"], rows)
    rules = parse_rules("r1: Name -> City\nr2: Name -> Code\nr3: Name -> Tag")
    corpus = []
    for i, (name, city, code, tag) in enumerate(rows):
        corpus.append((f"c{i:02d}", f"{name} is located in {city} ."))
        if rng.random() < 0.5:
            corpus.append((f"d{i:02d}", f"visit {name} located in {city} today"))
        corpus.append((f"k{i:02d}", f"{name} has code {code} ."))
        filler = " ".join(f"w{rng.randrange(10**6)}" for _ in range(rng.randrange(1, 3)))
        corpus.append((f"t{i:02d}", f"{tag} {filler} {name}"))
    codes = tmp_path / "code.dict"
    codes.write_text("\n".join(r[2] for r in rows[::2]) + "\n\n  C99  \n", encoding="utf-8")
    config = RunConfig(pattern_support=2, sample=4, pages=2, dictionaries={"Code": str(codes)})
    return table, RuleSet.estimate(rules, table), config, LocalCorpusProvider(corpus)


def _sweep_points(monkeypatch, table, ruleset, config, provider, ratios, seeds):
    """``(ratio, seed, imputed CSV + report or MaskError text)`` of every point of a sweep."""
    texts = []
    inner = evalharness.impute

    def recording(*args, **kwargs):
        imputed, report = inner(*args, **kwargs)
        texts.append(to_csv_text(imputed) + "\0" + report.to_json(include_timings=False))
        return imputed, report

    monkeypatch.setattr(evalharness, "impute", recording)
    result = sweep(table, ruleset, config, provider, ratios, seeds, protected=["Name"])
    monkeypatch.setattr(evalharness, "impute", inner)
    points = iter(texts)
    return [
        (row.ratio, row.seed, row.error if row.metrics is None else next(points))
        for row in result.rows
    ]


def _fresh_points(table, ruleset, config, provider, ratios, seeds):
    """The same points, each from its own ``impute`` call with its own memo."""
    out = []
    for ratio in ratios:
        for seed in seeds:
            try:
                masked, _ = mask_random(
                    table, MaskSpec(ratio, seed, frozenset({"Name"})), rules=ruleset.rules
                )
            except MaskError as exc:
                out.append((ratio, seed, str(exc)))
                continue
            run_ruleset = RuleSet.estimate(ruleset.rules, masked)
            imputed, report = impute(masked, run_ruleset, config, provider)
            out.append((ratio, seed, to_csv_text(imputed) + "\0" + report.to_json(
                include_timings=False
            )))
    return out


RATIOS, SEEDS = [0.2, 0.5, 0.7], [1, 2, 3]


class TestSweepMemo:
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "pattern-cache"])
    @pytest.mark.parametrize("case", range(4))
    def test_every_point_equals_a_fresh_run(self, case, cached, tmp_path, monkeypatch):
        table, ruleset, config, provider = _memo_case(case, tmp_path)
        cache = tmp_path / "patterns.json"
        if cached:
            config = replace(config, pattern_cache=str(cache))
        shared = _sweep_points(monkeypatch, table, ruleset, config, provider, RATIOS, SEEDS)
        cache.unlink(missing_ok=True)
        fresh = _fresh_points(table, ruleset, config, provider, RATIOS, SEEDS)
        assert [p[:2] for p in shared] == [(r, s) for r in RATIOS for s in SEEDS]
        assert '"outcome": "filled-pattern"' in "".join(p[2] for p in shared)
        assert '"outcome": "filled-keyword"' in "".join(p[2] for p in shared)
        for got, want in zip(shared, fresh):
            assert got == want, got[:2]

    def test_live_provider_gets_the_queries_of_fresh_runs(self, tmp_path, monkeypatch):
        table, ruleset, plain, local = _memo_case(0, tmp_path)
        cache = tmp_path / "patterns.json"
        # with a pattern cache, its table serves a live provider as the file does
        for config in [plain, replace(plain, pattern_cache=str(cache))]:
            swept, fresh = LiveCountingProvider(local), LiveCountingProvider(local)
            _sweep_points(monkeypatch, table, ruleset, config, swept, RATIOS, SEEDS)
            cache.unlink(missing_ok=True)
            _fresh_points(table, ruleset, config, fresh, RATIOS, SEEDS)
            assert swept.queries == fresh.queries
            # the same sweep asks a provider that is not live each distinct
            # Query (one config, so one page budget) once, in first-ask order
            pure = CountingProvider(local)
            cache.unlink(missing_ok=True)
            _sweep_points(monkeypatch, table, ruleset, config, pure, RATIOS, SEEDS)
            assert len(pure.queries) < len(fresh.queries)
            assert pure.queries == list(dict.fromkeys(fresh.queries))

    def test_a_sweep_reads_each_dictionary_file_once_before_its_first_mask(
        self, tmp_path, monkeypatch
    ):
        table, ruleset, config, provider = _memo_case(0, tmp_path)
        cities = tmp_path / "city.dict"
        cities.write_text("Avon\nEly\n", encoding="utf-8")
        config = replace(config, dictionaries={**config.dictionaries, "City": str(cities)})
        events = []
        read_text, mask = pipeline.read_text, evalharness.mask_random

        def reading(path):
            events.append(path)
            return read_text(path)

        def masking(*args, **kwargs):
            events.append("mask")
            return mask(*args, **kwargs)

        monkeypatch.setattr(pipeline, "read_text", reading)
        monkeypatch.setattr(evalharness, "mask_random", masking)
        result = sweep(table, ruleset, config, provider, RATIOS, SEEDS, protected=["Name"])
        assert len(result.rows) == len(RATIOS) * len(SEEDS)
        files = sorted(config.dictionaries.values())
        assert sorted(events[:2]) == files
        assert events[2:] == ["mask"] * len(result.rows)

    def test_a_cached_sweep_reads_its_file_once_and_writes_it_when_it_changes(
        self, tmp_path, monkeypatch
    ):
        # only the first point mines patterns here, so the file changes once
        table, ruleset, config, provider = _memo_case(0, tmp_path)
        cache = tmp_path / "patterns.json"
        config = replace(config, pattern_cache=str(cache))
        events = []
        log_calls(monkeypatch, events, pipeline, "load_patterns")
        log_calls(monkeypatch, events, pipeline, "save_patterns")
        log_calls(monkeypatch, events, evalharness, "mask_random")
        masks = ["mask_random"] * (len(RATIOS) * len(SEEDS) - 1)
        sweep(table, ruleset, config, provider, RATIOS, SEEDS, protected=["Name"])
        assert events == ["mask_random", "save_patterns"] + masks
        written = cache.read_bytes()
        assert {(p["attr1"], p["attr2"]) for p in json.loads(written)} == {
            ("Name", "City"), ("Name", "Code"),
        }
        # now the file exists: read before the first mask, and written by the
        # first point only, in its canonical order
        events.clear()
        sweep(table, ruleset, config, provider, RATIOS, SEEDS, protected=["Name"])
        assert events == ["load_patterns", "mask_random", "save_patterns"] + masks
        assert cache.read_bytes() == written

    def test_a_malformed_cache_stops_the_sweep_before_its_first_mask(
        self, tmp_path, monkeypatch
    ):
        table, ruleset, config, provider = _memo_case(0, tmp_path)
        cache = tmp_path / "patterns.json"
        cache.write_text('[{"attr1": "Name", "context": ["in"]}]', encoding="utf-8")
        config = replace(config, pattern_cache=str(cache))
        events = []
        log_calls(monkeypatch, events, evalharness, "mask_random")
        with pytest.raises(ValueError, match="bad pattern entry 0"):
            sweep(table, ruleset, config, provider, RATIOS, SEEDS, protected=["Name"])
        assert events == []

    def test_lone_impute_calls_share_no_memo(self, tmp_path):
        table, ruleset, config, local = _memo_case(0, tmp_path)
        masked, _ = mask_random(table, MaskSpec(0.5, 1, frozenset({"Name"})), rules=ruleset.rules)
        provider = CountingProvider(local)
        impute(masked, ruleset, config, provider)
        first = list(provider.queries)
        impute(masked, ruleset, config, provider)
        assert first and provider.queries == first * 2

    def test_lone_impute_calls_handed_one_memo_share_its_work(self, tmp_path, monkeypatch):
        # each distinct query reaches the provider once across the runs, a
        # repeated mask mines nothing again, and each run's table and report
        # are those of a run with a fresh provider
        table, ruleset, config, local = _memo_case(0, tmp_path)
        counted, fresh = CountingProvider(local), CountingProvider(local)
        memo = SweepMemo(counted, config)
        events, mined = [], []
        log_calls(monkeypatch, events, pipeline, "mine_patterns")
        for seed in (1, 2, 1):
            masked, _ = mask_random(
                table, MaskSpec(0.5, seed, frozenset({"Name"})), rules=ruleset.rules
            )
            texts = []
            for provider in (memo, fresh):
                imputed, report = impute(masked, ruleset, config, provider)
                mined.append(len(events))
                events.clear()
                texts.append(to_csv_text(imputed) + report.to_json(include_timings=False))
            assert texts[0] == texts[1]
        assert mined[4] == 0 < mined[5]
        assert len(counted.queries) < len(fresh.queries)
        assert counted.queries == list(dict.fromkeys(fresh.queries))

    def test_a_sweep_takes_a_memo_as_its_provider(self, tmp_path, monkeypatch):
        # a second sweep on the same memo asks nothing new; a memo made for
        # another configuration stops a sweep before its first mask
        table, ruleset, config, local = _memo_case(0, tmp_path)
        counted = CountingProvider(local)
        memo = SweepMemo(counted, config)
        first = _sweep_points(monkeypatch, table, ruleset, config, memo, RATIOS, SEEDS)
        asked = list(counted.queries)
        second = _sweep_points(monkeypatch, table, ruleset, config, memo, RATIOS, SEEDS)
        assert asked and counted.queries == asked
        assert second == first == _fresh_points(table, ruleset, config, local, RATIOS, SEEDS)
        events = []
        log_calls(monkeypatch, events, evalharness, "mask_random")
        with pytest.raises(ValueError, match="configuration it was made for"):
            sweep(table, ruleset, replace(config, pages=3), memo, RATIOS, SEEDS)
        assert events == []
