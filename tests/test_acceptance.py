"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see one line per
criterion.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from oracles import bayes_oracle, best_weight_oracle, random_bayes_case, random_sink_case
from webimpute import (
    MISSING,
    LocalCorpusProvider,
    RuleSet,
    RunConfig,
    Table,
    build_dependency_graph,
    enumerate_single_sink_graphs,
    impute,
    impute_internal,
    load_table,
    mine_patterns,
    parse_rules,
    parse_rules_file,
    render_keywords,
    select_optimal,
    sweep,
)
from webimpute.evalharness import run_one
from webimpute.patterns import save_patterns
from webimpute.synth import write_university_fixture
from webimpute.tabular import to_csv_text

DATA = Path(__file__).resolve().parent.parent / "data"


def passed(n: int, message: str) -> None:
    print(f"criterion {n:02d} PASS: {message}")


@pytest.fixture(scope="module")
def nba():
    table = load_table(DATA / "nba.csv")
    ruleset = RuleSet.estimate(parse_rules_file(DATA / "nba.rules"), table)
    graph = build_dependency_graph(ruleset)
    provider = LocalCorpusProvider.from_jsonl(DATA / "nba_corpus.jsonl")
    config = RunConfig(
        bayes_threshold=0.5,
        group_threshold=0.8,
        pattern_support=2,
        pages=5,
        sample=5,
        dictionaries={"Location": str(DATA / "nba_location.dict")},
    )
    return table, ruleset, graph, provider, config


@pytest.fixture(scope="module")
def university(tmp_path_factory):
    out = tmp_path_factory.mktemp("university")
    paths = write_university_fixture(out, rows=100, seed=7)
    table = load_table(paths["table"])
    ruleset = RuleSet.estimate(parse_rules_file(paths["rules"]), table)
    provider = LocalCorpusProvider.from_jsonl(paths["corpus"])
    config = RunConfig(
        bayes_threshold=0.5,
        group_threshold=0.8,
        pattern_support=3,
        pages=2,
        sample=5,
        dictionaries={
            attr: str(paths[f"dict:{attr}"])
            for attr in ("City", "Address", "Principal")
        },
    )
    return table, ruleset, config, provider


RATIOS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
SEEDS = [1, 2, 3, 4, 5]


@pytest.fixture(scope="module")
def university_sweep(university):
    table, ruleset, config, provider = university
    start = time.perf_counter()
    result = sweep(
        table, ruleset, config, provider, RATIOS, SEEDS, protected=["University"]
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_internal_phase_on_worked_example(nba):
    table, ruleset, graph, _, _ = nba
    start = time.perf_counter()
    filled, _ = impute_internal(table, graph, k=0.5)
    elapsed = time.perf_counter() - start
    assert filled.cell(3, "Location") == "SanFrancsicoCA"
    assert filled.cell(3, "Capacity") == "7500"
    assert filled.cell(4, "Location") is MISSING
    assert filled.cell(4, "Capacity") is MISSING
    assert elapsed < 1.0
    passed(1, f"internal fills exact, {elapsed * 1000:.0f} ms")


def test_criterion_02_keyword_selection_on_worked_example(nba):
    table, ruleset, graph, _, _ = nba
    filled, _ = impute_internal(table, graph, k=0.5)
    graphs = enumerate_single_sink_graphs(graph, filled, 4, "Location")
    chained = [g for g in graphs if g.attrs == ("Arena", "Capacity", "Location")]
    assert chained and chained[0].weight == 0.7
    group = select_optimal(graphs, K=0.8)
    assert group.weight == 1.0
    assert group.attrs == ("Arena", "Location")
    assert tuple(render_keywords(group)) == ("WheatonFieldHouse", "Location")
    passed(2, "direct graph selected at weight 1.0; 0.7 chain enumerated and rejected")


def test_criterion_03_web_phase_fills_location(nba):
    table, ruleset, _, provider, config = nba
    out, report = impute(table, ruleset, config, provider)
    assert out.cell(4, "Location") == "WheatonIL"
    passed(3, "pipeline filled the arena's location as WheatonIL")


def principal_fixture():
    table = Table(
        "principals",
        ["principal", "university"],
        [
            ["YuZhou", "Harbin Institute Of technology"],
            ["YongQiu", "Tsinghua University"],
            ["Enge Wang", "Peking University"],
        ],
    )
    provider = LocalCorpusProvider(
        [
            ("s1", "YuZhou is the principal of Harbin Institute Of technology"),
            ("s2", "YongQiu is the present principal of Tsinghua University"),
            ("s3", "Enge Wang served as the principal of Peking University"),
        ]
    )
    return table, provider


def test_criterion_04_pattern_mining_principal_snippets():
    table, provider = principal_fixture()
    patterns = mine_patterns(
        provider, table, ("principal", "university"), min_support=2
    )
    assert len(patterns) == 1
    assert patterns[0].context == ("the", "principal", "of")
    passed(4, 'exactly one pattern, context "the principal of"')


def film_round_trip(tmp_path) -> list[str]:
    """Mask each director in turn; return the recovered values."""
    films = load_table(DATA / "films.csv")
    complete = Table(
        "films",
        list(films.columns),
        [list(r) for r in films.rows if r[2] is not MISSING],
    )
    assert len(complete.rows) == 7
    provider = LocalCorpusProvider(
        [(f"f{i}", f"{r[2]} director of {r[1]}") for i, r in enumerate(complete.rows)]
    )
    dict_path = tmp_path / "directors.dict"
    dict_path.write_text(
        "\n".join(r[2] for r in complete.rows) + "\n", encoding="utf-8"
    )
    config = RunConfig(
        pattern_support=4, sample=7, dictionaries={"Director": str(dict_path)}
    )
    rules = parse_rules("d1: Film -> Director")
    recovered = []
    for i in range(len(complete.rows)):
        masked = complete.with_cell(i, "Director", MISSING)
        ruleset = RuleSet.estimate(rules, masked)
        out, _ = impute(masked, ruleset, config, provider)
        recovered.append(out.cell(i, "Director"))
    return recovered, [r[2] for r in complete.rows]


def test_criterion_05_film_round_trip(tmp_path):
    recovered, truth = film_round_trip(tmp_path)
    assert recovered == truth
    passed(5, "all 7 masked directors recovered exactly")


def test_criterion_06_bayes_matches_brute_force_oracle():
    rng = random.Random(1729)
    agreements = 0
    for _ in range(50):
        masked, ruleset, row, attr, k = random_bayes_case(rng)
        graph = build_dependency_graph(ruleset)
        filled, _ = impute_internal(masked, graph, k, max_rounds=1)
        expected = bayes_oracle(masked, ruleset, row, attr, k)
        assert filled.cell(row, attr) == expected
        agreements += 1
    assert agreements == 50
    passed(6, "50/50 random tables agree with the brute-force scorer")


def test_criterion_07_selection_matches_exhaustive_oracle():
    rng = random.Random(5050)
    agreements = 0
    for _ in range(50):
        table, ruleset, sink = random_sink_case(rng)
        graph = build_dependency_graph(ruleset)
        graphs = enumerate_single_sink_graphs(graph, table, 0, sink)
        got = max((g.weight for g in graphs), default=None)
        expected = best_weight_oracle(table, ruleset, 0, sink)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)
        agreements += 1
    assert agreements == 50
    passed(7, "50/50 random dependency graphs match exhaustive enumeration")


def test_criterion_08_university_sweep_accuracy(university_sweep):
    result, elapsed = university_sweep
    averages = result.averages()
    assert [a["ratio"] for a in averages] == RATIOS
    for avg in averages:
        assert avg["runs"] == len(SEEDS)
        assert avg["accuracy"] >= 0.95, f"accuracy at ratio {avg['ratio']}"
        assert avg["filling_ratio"] >= 0.95, f"filling ratio at ratio {avg['ratio']}"
    lines = result.to_csv().strip().splitlines()
    assert len(lines) == 1 + len(RATIOS) * len(SEEDS) + len(RATIOS)
    assert elapsed < 120.0
    passed(8, f"7x5 sweep all ratios >= 0.95/0.95 in {elapsed:.1f} s")


def test_criterion_09_filling_ratio_monotone_in_pages(university):
    table, ruleset, config, provider = university
    ratios = []
    for pages in range(1, 6):
        cfg = replace(config, pages=pages)
        metrics = run_one(
            table, ruleset, cfg, provider, ratio=0.3, seed=1, protected=["University"]
        )
        ratios.append(metrics.filling_ratio)
    assert ratios == sorted(ratios)
    passed(9, f"filling ratio over pages 1..5: {[f'{r:.2f}' for r in ratios]}")


def test_criterion_10_runtime_roughly_linear_in_missing_ratio(university):
    table, ruleset, config, provider = university

    def wall(ratio: float) -> float:
        times = []
        for _ in range(2):
            metrics = run_one(
                table, ruleset, config, provider, ratio, seed=1,
                protected=["University"],
            )
            times.append(metrics.wall_time)
        return min(times)

    low, high = wall(0.05), wall(0.60)
    assert high <= 1.5 * 12 * low, f"t(60%)={high:.3f}s vs 18*t(5%)={18 * low:.3f}s"
    passed(10, f"t(5%)={low:.3f}s, t(60%)={high:.3f}s, ratio {high / low:.1f}x <= 18x")


def test_criterion_11_byte_identical_reruns(nba, university, university_sweep, tmp_path):
    table, ruleset, _, provider, config = nba

    def nba_artifacts():
        out, report = impute(table, ruleset, config, provider)
        return to_csv_text(out) + report.to_json(include_timings=False)

    assert nba_artifacts() == nba_artifacts()

    def pattern_artifacts():
        ptable, pprovider = principal_fixture()
        patterns = mine_patterns(pprovider, ptable, ("principal", "university"), 2)
        path = tmp_path / "patterns.json"
        save_patterns(patterns, path)
        return path.read_bytes()

    assert pattern_artifacts() == pattern_artifacts()

    first, truth = film_round_trip(tmp_path)
    second, _ = film_round_trip(tmp_path)
    assert first == second == truth

    utable, uruleset, uconfig, uprovider = university
    baseline, _ = university_sweep
    rerun = sweep(
        utable, uruleset, uconfig, uprovider, RATIOS, SEEDS, protected=["University"]
    )
    assert rerun.to_csv(include_timing=False) == baseline.to_csv(include_timing=False)
    passed(11, "pipeline, mining, round-trip and sweep outputs byte-identical")
