import gc
import random
import time

import pytest

from oracles import (
    _sink_graph_key,
    best_weight_oracle,
    make_table,
    random_ranked_sink_case,
    random_shape_case,
    random_sink_case,
    sink_graphs_oracle,
)
from webimpute import (
    MISSING,
    RuleSet,
    build_dependency_graph,
    enumerate_single_sink_graphs,
    impute_internal,
    parse_rules,
    render_keywords,
    select_optimal,
)
from webimpute import keywords


def setup_graph(text, table):
    ruleset = RuleSet.estimate(parse_rules(text), table)
    return ruleset, build_dependency_graph(ruleset)


@pytest.fixture
def nba_after_internal(nba_table, nba_ruleset, nba_graph):
    filled, _ = impute_internal(nba_table, nba_graph, 0.5)
    return filled


class TestEnumerate:
    def test_t5_location_graphs(self, nba_graph, nba_after_internal):
        graphs = enumerate_single_sink_graphs(nba_graph, nba_after_internal, 4, "Location")
        by_attrs = {g.attrs: g.weight for g in graphs}
        # the direct dependency and the chain through the missing Capacity
        assert by_attrs[("Arena", "Location")] == 1.0
        assert by_attrs[("Arena", "Capacity", "Location")] == 0.7
        assert set(by_attrs.values()) == {1.0, 0.7}

    def test_sink_without_incoming_edges(self, nba_graph, nba_table):
        assert enumerate_single_sink_graphs(nba_graph, nba_table, 3, "Coach") == []

    def test_chain_weight_is_edge_product(self):
        table = make_table(
            ["A", "B", "C", "D"], [["a1", MISSING, MISSING, MISSING]]
        )
        ruleset, graph = setup_graph(
            "r1: A -> B @ 0.9\nr2: B -> C @ 0.8\nr3: C -> D @ 0.7", table
        )
        (only,) = enumerate_single_sink_graphs(graph, table, 0, "D")
        assert only.weight == pytest.approx(0.9 * 0.8 * 0.7)
        assert only.source_attrs == ("A",)

    def test_extra_edge_multiplies_weight(self):
        # the same sink with and without one extra chain hop
        table = make_table(["A", "B", "C"], [["a1", MISSING, MISSING]])
        ruleset, graph = setup_graph("r1: A -> B @ 0.9\nr2: B -> C @ 0.8", table)
        (chained,) = enumerate_single_sink_graphs(graph, table, 0, "C")
        table2 = make_table(["A", "B", "C"], [["a1", "b1", MISSING]])
        ruleset2, graph2 = setup_graph("r1: A -> B @ 0.9\nr2: B -> C @ 0.8", table2)
        (direct,) = enumerate_single_sink_graphs(graph2, table2, 0, "C")
        assert chained.weight == pytest.approx(direct.weight * 0.9)

    def test_unsatisfied_condition_kills_expansion(self, nba_graph, nba_table):
        # t4 has no Coach value, so the conditional rule cannot apply to Team
        graphs = enumerate_single_sink_graphs(nba_graph, nba_table, 3, "Team")
        used_rules = {app.rule_id for g in graphs for _, app in g.applications}
        assert graphs and "f6" not in used_rules

    def test_logic_node_needs_every_parent(self):
        table = make_table(["A", "B", "C"], [[MISSING, "b1", MISSING]])
        ruleset, graph = setup_graph("r: A, B -> C", table)
        # A is missing and underivable, so the AND junction is infeasible
        assert enumerate_single_sink_graphs(graph, table, 0, "C") == []

    def test_cycles_are_broken(self):
        table = make_table(["A", "B"], [[MISSING, MISSING]])
        ruleset, graph = setup_graph("r1: A -> B\nr2: B -> A", table)
        assert enumerate_single_sink_graphs(graph, table, 0, "A") == []

    def test_non_missing_sink_rejected(self, nba_graph, nba_table):
        with pytest.raises(ValueError):
            enumerate_single_sink_graphs(nba_graph, nba_table, 0, "Team")


class TestSelect:
    def test_t5_location_worked_example(self, nba_graph, nba_after_internal):
        graphs = enumerate_single_sink_graphs(nba_graph, nba_after_internal, 4, "Location")
        group = select_optimal(graphs, 0.8)
        assert group.weight == 1.0
        assert group.attrs == ("Arena", "Location")
        assert tuple(render_keywords(group)) == ("WheatonFieldHouse", "Location")
        rejected = [g for g in graphs if g.weight == 0.7]
        assert rejected  # enumerated, but below the winner

    def test_empty_list_abstains(self):
        assert select_optimal([], 0.8) is None

    def test_threshold_dominates(self):
        table = make_table(["A", "B", "C"], [["a1", "b1", MISSING]])
        ruleset, graph = setup_graph("r1: A -> C @ 0.5\nr2: B -> C @ 0.5", table)
        graphs = enumerate_single_sink_graphs(graph, table, 0, "C")
        assert len(graphs) == 2
        assert select_optimal(graphs, 0.6) is None
        assert select_optimal(graphs, 0.5) is not None

    def test_bad_threshold_rejected(self):
        for K in (1.2, True, "0.8"):
            with pytest.raises(ValueError, match="K"):
                select_optimal([], K)


class TestRender:
    def test_direct_graph(self, nba_graph, nba_after_internal):
        graphs = enumerate_single_sink_graphs(nba_graph, nba_after_internal, 4, "Location")
        direct = next(g for g in graphs if g.attrs == ("Arena", "Location"))
        assert render_keywords(direct) == ["WheatonFieldHouse", "Location"]

    def test_condition_literal_order(self, nba_table, nba_ruleset, nba_graph):
        # a tuple satisfying the conditional rule: mask t2.Team
        masked = nba_table.with_cell(1, "Team", MISSING)
        graphs = enumerate_single_sink_graphs(nba_graph, masked, 1, "Team")
        f6_graph = next(
            g for g in graphs if any(app.rule_id == "f6" for _, app in g.applications)
        )
        assert render_keywords(f6_graph) == ["1964-1966", "A.Hannum", "Team"]

    def test_single_source_chain(self):
        table = make_table(["A", "B"], [["value", MISSING]])
        ruleset, graph = setup_graph("r: A -> B @ 1.0", table)
        (g,) = enumerate_single_sink_graphs(graph, table, 0, "B")
        assert render_keywords(g) == ["value", "B"]

    def test_bfs_discovery_order(self):
        # sink D <- (B, C); C is present, B expands to A: sources are [C, A]
        table = make_table(["A", "B", "C", "D"], [["a1", MISSING, "c1", MISSING]])
        ruleset, graph = setup_graph("r1: B, C -> D @ 1.0\nr2: A -> B @ 1.0", table)
        (g,) = enumerate_single_sink_graphs(graph, table, 0, "D")
        assert g.source_attrs == ("C", "A")
        assert render_keywords(g) == ["c1", "a1", "D"]


def test_selection_is_optimal_on_random_graphs():
    rng = random.Random(424242)
    for _ in range(25):
        table, ruleset, sink = random_sink_case(rng)
        graph = build_dependency_graph(ruleset)
        graphs = enumerate_single_sink_graphs(graph, table, 0, sink)
        got = max((g.weight for g in graphs), default=None)
        expected = best_weight_oracle(table, ruleset, 0, sink)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


def test_chain_selection_scales_roughly_linearly():
    # empirical check only: a 10x longer all-confident chain should not cost
    # anything like 100x
    def build_chain(n):
        attrs = [f"A{i}" for i in range(n)]
        row = ["a0"] + [MISSING] * (n - 1)
        table = make_table(attrs, [row])
        text = "\n".join(f"r{i}: A{i} -> A{i + 1} @ 1.0" for i in range(n - 1))
        ruleset, graph = setup_graph(text, table)
        return table, graph, attrs[-1]

    def measure(n):
        # a fresh graph each time: on a warm one, the search memo would answer
        elapsed = 0.0
        for _ in range(3):
            table, graph, sink = build_chain(n)
            start = time.perf_counter()
            graphs = enumerate_single_sink_graphs(graph, table, 0, sink)
            assert select_optimal(graphs, 0.0) is not None
            elapsed += time.perf_counter() - start
        return elapsed

    small, big = measure(12), measure(120)
    assert big < 60 * max(small, 1e-4)


def test_search_matches_exhaustive_ranking_on_random_graphs():
    rng = random.Random(8080)
    for case in range(2000):
        table, ruleset, sink = random_ranked_sink_case(rng)
        graph = build_dependency_graph(ruleset)
        ranked = sink_graphs_oracle(graph, table, 0, sink)
        for n in (1, 2, 8):
            got = enumerate_single_sink_graphs(graph, table, 0, sink, limit=n)
            assert got == ranked[:n], (case, n)
            for g in got:
                assert g.rank == _sink_graph_key(g), (case, n)
                sources = [table.cell(0, a) for a in g.source_attrs]
                assert render_keywords(g) == [*sources, *g.condition_literals, sink]


def test_memoised_search_matches_exhaustive_ranking_row_by_row():
    # One graph serves every row of two tables; rows repeat a missing mask
    # but not its values, and conditions hold in some rows only.  Every cell
    # must still get its own ranking and its own source values.
    rng = random.Random(1968)
    for case in range(60):
        tables, ruleset = random_shape_case(rng)
        graph = build_dependency_graph(ruleset)
        seen, repeats = set(), 0
        for table in tables:
            for row, sink in table.missing_cells():
                ranked = sink_graphs_oracle(graph, table, row, sink)
                values = table.rows[row]
                for n in (1, 2, 8):
                    # finer than the search's own key, so each repeat is a hit
                    signature = (sink, n, tuple(v is MISSING for v in values), tuple(values[-2:]))
                    repeats += signature in seen
                    seen.add(signature)
                    got = enumerate_single_sink_graphs(graph, table, row, sink, limit=n)
                    assert got == ranked[:n], (case, table.name, row, sink, n)
                    for g in got:
                        assert g.rank == _sink_graph_key(g), (case, row, sink, n)
        assert repeats >= 20, case


def test_warm_signature_runs_no_search(monkeypatch):
    # Rows 1 and 2 share row 0's signature: A present, B and C missing, X=on.
    table = make_table(
        ["A", "B", "C", "X"],
        [["a0", MISSING, MISSING, "on"], ["a1", MISSING, MISSING, "on"],
         ["a2", MISSING, MISSING, "on"]],
    )
    text = "r1: A -> B @ 0.9\nr2: [X=on], B -> C @ 0.8\nr3: A -> C @ 0.5"
    _, graph = setup_graph(text, table)
    expected = [
        enumerate_single_sink_graphs(setup_graph(text, table)[1], table, row, "C")
        for row in range(3)
    ]
    assert enumerate_single_sink_graphs(graph, table, 0, "C") == expected[0]

    def no_search(*args):
        raise AssertionError("search ran on a warm signature")

    monkeypatch.setattr(keywords, "_search", no_search)
    for row in (1, 2):
        got = enumerate_single_sink_graphs(graph, table, row, "C")
        assert got == expected[row]
        assert [g.source_values for g in got] == [(f"a{row}",), (f"a{row}",)]
        assert [g.rank for g in got] == [g.rank for g in expected[row]]


def test_deep_chain_returns_first_eight_in_enumeration_order():
    # 12 levels, each derivable from the one above by 3 rules at confidence
    # 1.0: 3**12 = 531,441 subgraphs for the last level, all tied on the key
    depth = 12
    columns = ["Key"] + [f"L{i}" for i in range(1, depth + 1)]
    table = make_table(columns, [["k"] + [MISSING] * depth])
    text = "\n".join(
        f"c{i}{x}: {columns[i - 1]} -> L{i} @ 1.0"
        for i in range(1, depth + 1)
        for x in "abc"
    )
    ruleset, graph = setup_graph(text, table)
    graphs = enumerate_single_sink_graphs(graph, table, 0, f"L{depth}")
    assert [g.weight for g in graphs] == [1.0] * 8
    # enumeration varies the level nearest the source fastest
    expected = [(l2, l1) for l2 in "abc" for l1 in "abc"][:8]
    for g, (l2, l1) in zip(graphs, expected):
        rules = {target: app.rule_id for target, app in g.applications}
        assert rules == {
            **{f"L{i}": f"c{i}a" for i in range(3, depth + 1)},
            "L2": f"c2{l2}",
            "L1": f"c1{l1}",
        }
    assert enumerate_single_sink_graphs(graph, table, 0, f"L{depth}", limit=1) == graphs[:1]


def test_ladder_search_matches_exhaustive_ranking():
    # L_i and M_i are each derived from L_{i-1} and M_{i-1}, so 2**i paths
    # reach level 10 - i; the search must not recurse once per path
    depth = 10
    columns = ["Key"] + [f"{x}{i}" for i in range(1, depth + 1) for x in "LM"]
    table = make_table(columns, [["k"] + [MISSING] * (2 * depth)])
    lines = ["la: Key -> L1 @ 0.8", "lb: Key -> L1 @ 1.0"]
    lines += ["ma: Key -> M1 @ 1.0", "mb: Key -> M1 @ 0.5"]
    lines += [
        f"{x.lower()}{i}: L{i - 1}, M{i - 1} -> {x}{i} @ 1.0"
        for i in range(2, depth + 1)
        for x in "LM"
    ]
    ruleset, graph = setup_graph("\n".join(lines), table)
    ranked = sink_graphs_oracle(graph, table, 0, f"L{depth}")
    assert [g.weight for g in ranked] == [1.0, 0.8, 0.5, 0.4]
    for n in (1, 2, 8):
        assert enumerate_single_sink_graphs(graph, table, 0, f"L{depth}", limit=n) == ranked[:n]


def test_search_leaves_no_garbage():
    # a search's closures refer to one another; once it returns, plain
    # reference counting must free them and their dicts, with no cycle left
    # for the collector
    depth = 6
    columns = ["Key"] + [f"{x}{i}" for i in range(1, depth + 1) for x in "LM"]
    table = make_table(columns, [["k"] + [MISSING] * (2 * depth)])
    lines = ["la: Key -> L1 @ 0.8", "lb: Key -> L1 @ 1.0", "ma: Key -> M1 @ 1.0"]
    lines += [
        f"{x.lower()}{i}: L{i - 1}, M{i - 1} -> {x}{i} @ 1.0"
        for i in range(2, depth + 1)
        for x in "LM"
    ]
    _, graph = setup_graph("\n".join(lines), table)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        graphs = enumerate_single_sink_graphs(graph, table, 0, f"L{depth}", limit=1)
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert [g.weight for g in graphs] == [1.0]
    assert unreachable == 0


def test_attribute_bound_ignores_reachable_attributes_above_the_mandatory():
    # With B <- r2 chosen, A may still add C or D; D sorts after every
    # mandatory attribute, so it must not enter the bound, or the r2 branch
    # would be cut although its (A, B, C) ranks ahead of (A, B, C, D).
    table = make_table(
        ["A", "B", "C", "D", "X", "Y"], [[MISSING, MISSING, "c1", "d1", "on", "x"]]
    )
    ruleset, graph = setup_graph(
        "r0: [X=on], D, A -> B @ 1.0\n"
        "r2: [X=on, Y=x], A, C -> B @ 1.0\n"
        "r4: D -> A @ 1.0\n"
        "r6: C -> A @ 1.0",
        table,
    )
    ranked = sink_graphs_oracle(graph, table, 0, "B")
    assert [g.attrs for g in ranked[:2]] == [("A", "B", "D"), ("A", "B", "C")]
    for n in (1, 2, 3):
        assert enumerate_single_sink_graphs(graph, table, 0, "B", limit=n) == ranked[:n]


def test_bound_uses_only_mandatory_attributes(monkeypatch):
    # A <- r1 yields (A, B, C, G) first.  Every completion of the duplicate
    # A <- r2 branch holds A, B, C and G (G through C's mandatory set), so it
    # at best ties and loses the tie.  C <- r4 could add F, which sorts below
    # G, but a completion holding F also has more nodes, so the branch is
    # cut as soon as A <- r2 is chosen, and nothing of it is finished.
    table = make_table(["A", "B", "C", "F", "G"], [[MISSING, MISSING, MISSING, "f", "g"]])
    ruleset, graph = setup_graph(
        "r1: B, C -> A @ 1.0\n"
        "r2: B, C -> A @ 1.0\n"
        "r3: G -> C @ 1.0\n"
        "r4: F, G -> C @ 1.0\n"
        "r5: C -> B @ 1.0",
        table,
    )
    finalized, cut = [], []
    finalize, beaten = keywords._finalize, keywords._beaten

    def counting_finalize(*args):
        finalized.append(args)
        return finalize(*args)

    def recording_beaten(worst, weight, sink, chosen, *rest):
        result = beaten(worst, weight, sink, chosen, *rest)
        if result:
            cut.append({attr: app.rule_id for attr, app in chosen.items()})
        return result

    monkeypatch.setattr(keywords, "_finalize", counting_finalize)
    monkeypatch.setattr(keywords, "_beaten", recording_beaten)
    got = enumerate_single_sink_graphs(graph, table, 0, "A", limit=1)
    assert got == sink_graphs_oracle(graph, table, 0, "A")[:1]
    assert got[0].attrs == ("A", "B", "C", "G")
    assert len(finalized) == 1
    assert {"A": "r2"} in cut


def test_limit_must_be_positive(nba_graph, nba_after_internal):
    for limit in (0, True, 2.5):
        with pytest.raises(ValueError, match="limit"):
            enumerate_single_sink_graphs(
                nba_graph, nba_after_internal, 4, "Location", limit=limit
            )


def test_edge_weight_above_one_rejected():
    # the weight bound needs every confidence in [0, 1]
    rules = parse_rules("r: A -> B")
    with pytest.raises(ValueError, match="edge weight"):
        RuleSet(rules, {("r", "B"): 1.5})
