"""Weighted directed graph over the attributes of a rule set.

The graph has three node kinds:

* ``attribute`` nodes, one per attribute appearing on either side of a rule;
* ``logic`` nodes (AND junctions), one per rule whose applications are
  junctions (:attr:`RuleApplication.junction`: LHS attributes plus condition
  literals number at least two);
* ``condition`` nodes, one per distinct ``Attr=Literal`` constraint.

A rule with a single unconditional determinant contributes direct
attribute -> attribute edges carrying that edge's confidence.  A rule with a
logic node routes weight-1 structural edges from its determinants and
conditions into the junction, and the per-RHS confidence sits on the
junction -> attribute edge.  Condition nodes never have incoming edges.
The graph may contain cycles; nothing downstream assumes acyclicity.

Both imputation phases take from here the rule applications into each
attribute (:attr:`DependencyGraph.applications`) and which form logic
nodes; edge weights lie in [0, 1] because ``RuleSet`` rejects any other
confidence.  Each phase tests a row's conditions and determinants itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rules import RuleSet

ATTRIBUTE = "attribute"
LOGIC = "logic"
CONDITION = "condition"


@dataclass(frozen=True)
class GraphNode:
    kind: str
    label: str


@dataclass(frozen=True)
class GraphEdge:
    src: GraphNode
    dst: GraphNode
    weight: float
    rule_id: str


@dataclass(frozen=True)
class RuleApplication:
    """One way a rule can supply a value for one attribute.

    ``weight`` is the confidence of the dependency edge into ``target``.
    """

    rule_id: str
    target: str
    determinants: tuple[str, ...]
    conditions: tuple[tuple[str, str], ...]
    weight: float

    @property
    def junction(self) -> bool:
        """Whether the application has a logic node: two or more parents."""
        return len(self.determinants) + len(self.conditions) >= 2


@dataclass(frozen=True)
class DependencyGraph:
    """The graph, and the rule applications into each attribute.

    ``_plans`` holds the keyword search's memo (see ``keywords``).  Its keys
    read no cell values, so one graph may serve several tables.
    """

    nodes: list[GraphNode]
    edges: list[GraphEdge]
    applications: dict[str, list[RuleApplication]]  # target -> in declaration order
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_dependency_graph(ruleset: RuleSet) -> DependencyGraph:
    """Assemble the graph from a rule set with estimated confidences."""
    nodes: dict[GraphNode, None] = {}  # an insertion-ordered set
    edges: list[GraphEdge] = []
    applications: dict[str, list[RuleApplication]] = {}
    for rule in ruleset.rules:
        nodes.update(dict.fromkeys(GraphNode(ATTRIBUTE, a) for a in rule.lhs + rule.rhs))
        apps = [
            RuleApplication(
                rule.id, attr, rule.lhs, rule.condition, ruleset.confidence(rule.id, attr)
            )
            for attr in rule.rhs
        ]
        src = GraphNode(ATTRIBUTE, rule.lhs[0])
        if apps[0].junction:
            src = GraphNode(LOGIC, rule.id)
            nodes[src] = None
            for attr in rule.lhs:
                edges.append(GraphEdge(GraphNode(ATTRIBUTE, attr), src, 1.0, rule.id))
            for attr, literal in rule.condition:
                cond = GraphNode(CONDITION, f"{attr}={literal}")
                nodes[cond] = None
                edges.append(GraphEdge(cond, src, 1.0, rule.id))
        for app in apps:
            dst = GraphNode(ATTRIBUTE, app.target)
            edges.append(GraphEdge(src, dst, app.weight, rule.id))
            applications.setdefault(app.target, []).append(app)
    return DependencyGraph(list(nodes), edges, applications)


_DOT_SHAPES = {ATTRIBUTE: "ellipse", LOGIC: "box", CONDITION: "diamond"}
_KIND_ORDER = {ATTRIBUTE: 0, LOGIC: 1, CONDITION: 2}


def _dot_id(node: GraphNode) -> str:
    return f"{node.kind[0]}_{node.label}"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: DependencyGraph) -> str:
    """Graphviz DOT rendering; node shape encodes the node kind."""
    lines = ["digraph sdg {"]
    for node in sorted(graph.nodes, key=lambda n: (_KIND_ORDER[n.kind], n.label)):
        lines.append(
            f"  {_quote(_dot_id(node))} "
            f"[label={_quote(node.label)} shape={_DOT_SHAPES[node.kind]}];"
        )
    for edge in sorted(
        graph.edges, key=lambda e: (_dot_id(e.src), _dot_id(e.dst), e.rule_id)
    ):
        lines.append(
            f"  {_quote(_dot_id(edge.src))} -> {_quote(_dot_id(edge.dst))} "
            f"[label={_quote(f'{edge.rule_id}:{edge.weight:g}')}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
