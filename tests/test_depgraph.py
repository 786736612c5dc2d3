import random

from webimpute import RuleSet, Table, build_dependency_graph, export_dot, parse_rules
from webimpute.depgraph import ATTRIBUTE, CONDITION, LOGIC

NBA_DOT = """\
digraph sdg {
  "a_Arena" [label="Arena" shape=ellipse];
  "a_Capacity" [label="Capacity" shape=ellipse];
  "a_Location" [label="Location" shape=ellipse];
  "a_Start-End" [label="Start-End" shape=ellipse];
  "a_Team" [label="Team" shape=ellipse];
  "l_f2" [label="f2" shape=box];
  "l_f3" [label="f3" shape=box];
  "l_f6" [label="f6" shape=box];
  "c_Coach=A.Hannum" [label="Coach=A.Hannum" shape=diamond];
  "a_Arena" -> "a_Capacity" [label="f1:1"];
  "a_Arena" -> "a_Location" [label="f1:1"];
  "a_Arena" -> "a_Team" [label="f4:0.8"];
  "a_Arena" -> "l_f2" [label="f2:1"];
  "a_Capacity" -> "a_Location" [label="f5:0.7"];
  "a_Start-End" -> "l_f2" [label="f2:1"];
  "a_Start-End" -> "l_f3" [label="f3:1"];
  "a_Start-End" -> "l_f6" [label="f6:1"];
  "a_Team" -> "l_f3" [label="f3:1"];
  "c_Coach=A.Hannum" -> "l_f6" [label="f6:1"];
  "l_f2" -> "a_Capacity" [label="f2:1"];
  "l_f2" -> "a_Location" [label="f2:1"];
  "l_f2" -> "a_Team" [label="f2:1"];
  "l_f3" -> "a_Arena" [label="f3:1"];
  "l_f6" -> "a_Team" [label="f6:1"];
}
"""


def make_ruleset(text, table):
    return RuleSet.estimate(parse_rules(text), table)


def labels(graph, kind):
    return [n.label for n in graph.nodes if n.kind == kind]


def test_nba_graph_census(nba_graph):
    assert set(labels(nba_graph, ATTRIBUTE)) == {
        "Arena", "Location", "Capacity", "Start-End", "Team",
    }
    assert set(labels(nba_graph, LOGIC)) == {"f2", "f3", "f6"}
    assert labels(nba_graph, CONDITION) == ["Coach=A.Hannum"]
    assert len(nba_graph.nodes) == 9


def test_single_rule_has_no_logic_node():
    table = Table("t", ["A", "B"], [["1", "2"]])
    graph = build_dependency_graph(make_ruleset("r: A -> B @ 0.7", table))
    assert len(graph.nodes) == 2
    assert labels(graph, LOGIC) == []
    (edge,) = graph.edges
    assert (edge.src.label, edge.dst.label, edge.weight) == ("A", "B", 0.7)


def test_empty_ruleset_gives_empty_graph():
    table = Table("t", ["A"], [])
    graph = build_dependency_graph(RuleSet([], {}))
    assert graph.nodes == [] and graph.edges == []
    assert export_dot(graph).split() == ["digraph", "sdg", "{", "}"]


def test_condition_nodes_have_no_incoming_edges(nba_graph):
    condition_labels = set(labels(nba_graph, CONDITION))
    assert condition_labels
    for edge in nba_graph.edges:
        assert edge.dst.label not in condition_labels or edge.dst.kind != CONDITION


def test_edges_into_logic_nodes_are_structural(nba_graph):
    for edge in nba_graph.edges:
        if edge.dst.kind == LOGIC:
            assert edge.weight == 1.0
        if edge.src.kind == LOGIC:
            assert edge.src.label == edge.rule_id  # one junction per rule


def test_confidence_sits_on_dependency_edges(nba_graph):
    weights = {
        (e.rule_id, e.dst.label): e.weight
        for e in nba_graph.edges
        if e.dst.kind == ATTRIBUTE
    }
    assert weights[("f4", "Team")] == 0.8
    assert weights[("f5", "Location")] == 0.7
    assert weights[("f1", "Location")] == 1.0


def test_applications_into(nba_graph):
    apps = nba_graph.applications["Team"]
    assert [a.rule_id for a in apps] == ["f2", "f4", "f6"]
    f6 = apps[2]
    assert f6.determinants == ("Start-End",)
    assert f6.conditions == (("Coach", "A.Hannum"),)
    assert "Coach" not in nba_graph.applications


class TestDot:
    def test_single_rule_edge_present(self, nba_table):
        graph = build_dependency_graph(
            make_ruleset("f1: Arena -> Location", nba_table)
        )
        dot = export_dot(graph)
        assert '"a_Arena" -> "a_Location"' in dot

    def test_nba_dot_has_nine_nodes(self, nba_graph):
        dot = export_dot(nba_graph)
        assert dot.count("shape=") == 9
        assert dot.count("->") == len(nba_graph.edges)

    def test_shapes_encode_kinds(self, nba_graph):
        dot = export_dot(nba_graph)
        assert dot.count("shape=ellipse") == 5
        assert dot.count("shape=box") == 3
        assert dot.count("shape=diamond") == 1


def test_build_is_row_order_independent(nba_table):
    text = (
        "f1: Arena -> Location, Capacity\n"
        "f2: Start-End, Arena -> Team, Location, Capacity\n"
    )
    base = export_dot(build_dependency_graph(make_ruleset(text, nba_table)))
    rng = random.Random(5)
    rows = [list(r) for r in nba_table.rows]
    for _ in range(3):
        rng.shuffle(rows)
        shuffled = Table("nba", list(nba_table.columns), rows)
        assert export_dot(build_dependency_graph(make_ruleset(text, shuffled))) == base


def test_rules_sharing_attributes_share_nodes(nba_table):
    graph = build_dependency_graph(
        make_ruleset("f1: Arena -> Location\nf5: Capacity -> Location @ 0.7", nba_table)
    )
    location_nodes = [n for n in graph.nodes if n.label == "Location"]
    assert len(location_nodes) == 1


def test_nba_dot_text_is_pinned(nba_graph):
    assert export_dot(nba_graph) == NBA_DOT


def test_logic_nodes_are_the_junction_applications(nba_graph):
    junctions = {
        app.rule_id
        for attr in ("Arena", "Location", "Capacity", "Team")
        for app in nba_graph.applications[attr]
        if app.junction
    }
    assert junctions == set(labels(nba_graph, LOGIC)) == {"f2", "f3", "f6"}
