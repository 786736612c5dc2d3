"""Keyword-group selection for web search.

For a still-missing cell we look for subgraphs of the dependency graph that
route known values toward that one sink attribute.  A determinant with a
present cell value is a source; a determinant that is itself missing is
expanded recursively through its own dependencies (never revisiting an
attribute already on the path).  Logic junctions are AND nodes: every parent
must be satisfiable or the expansion dies.  Condition nodes are satisfied
only when the tuple matches the literal.

A subgraph's weight is the product of the confidences of its distinct
dependency edges.  The best graph (maximum weight; ties prefer fewer nodes,
then the lexicographically smallest attribute set) is rendered into an
ordered keyword list - source cell values in breadth-first discovery order,
then condition literals, then the sink attribute name - and is only emitted
when its weight reaches the group threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bayes import ABSTAIN
from .depgraph import DependencyGraph, RuleApplication
from .tabular import MISSING, Cell, Table


@dataclass(frozen=True)
class SinkGraph:
    """A feasible single-sink subgraph for one tuple.

    ``applications`` maps each derived attribute (the sink and every missing
    intermediate) to the rule application supplying it.
    """

    sink: str
    row: int
    row_values: tuple[Cell, ...]
    columns: tuple[str, ...]
    applications: tuple[tuple[str, RuleApplication], ...]
    weight: float
    source_attrs: tuple[str, ...]
    condition_literals: tuple[str, ...]

    @property
    def attrs(self) -> tuple[str, ...]:
        """All attribute labels in the subgraph, sorted."""
        labels = {self.sink}
        for _, app in self.applications:
            labels.update(app.determinants)
        return tuple(sorted(labels))

    def node_count(self) -> int:
        attrs = {self.sink}
        logic = 0
        conditions = set()
        for _, app in self.applications:
            attrs.update(app.determinants)
            if len(app.determinants) + len(app.conditions) >= 2:
                logic += 1
            conditions.update(app.conditions)
        return len(attrs) + logic + len(conditions)


@dataclass(frozen=True)
class KeywordGroup:
    graph: SinkGraph
    keywords: tuple[str, ...]
    weight: float


def _app_feasible(table: Table, row: int, app: RuleApplication) -> bool:
    return all(table.cell(row, a) == lit for a, lit in app.conditions)


def enumerate_single_sink_graphs(
    graph: DependencyGraph,
    table: Table,
    row: int,
    sink: str,
) -> list[SinkGraph]:
    """Every feasible single-sink subgraph for ``(row, sink)``.

    Exhaustive: for each rule application into the sink, every combination
    of expansions of its missing determinants is produced (one application
    per derived attribute, cycles forbidden along a path).  Zero-weight
    graphs are dropped.
    """
    if table.cell(row, sink) is not MISSING:
        raise ValueError(f"cell (row {row}, {sink}) is not missing")

    memo: dict[tuple[str, frozenset[str]], list[dict[str, RuleApplication]]] = {}

    def expansions(attr: str, path: frozenset[str]) -> list[dict[str, RuleApplication]]:
        """All ways to derive ``attr``; each is a map target -> application."""
        key = (attr, path)
        if key in memo:
            return memo[key]
        result: list[dict[str, RuleApplication]] = []
        for app in graph.applications_into(attr):
            if not _app_feasible(table, row, app):
                continue
            if any(d in path for d in app.determinants):
                continue
            branch_options: list[list[dict[str, RuleApplication]]] = []
            feasible = True
            for det in app.determinants:
                if table.cell(row, det) is not MISSING:
                    continue  # a source; nothing to expand
                subs = expansions(det, path | {attr})
                if not subs:
                    feasible = False
                    break
                branch_options.append(subs)
            if not feasible:
                continue
            for combo in product(*branch_options):
                merged: dict[str, RuleApplication] = {attr: app}
                consistent = True
                for sub in combo:
                    for target, sub_app in sub.items():
                        existing = merged.get(target)
                        if existing is not None and existing is not sub_app:
                            consistent = False
                            break
                        merged[target] = sub_app
                    if not consistent:
                        break
                if consistent:
                    result.append(merged)
        memo[key] = result
        return result

    graphs = []
    for apps in expansions(sink, frozenset({sink})):
        g = _finalize(table, row, sink, apps)
        if g.weight > 0.0:
            graphs.append(g)
    graphs.sort(key=lambda g: (-g.weight, g.node_count(), g.attrs))
    return graphs


def _finalize(
    table: Table, row: int, sink: str, apps: dict[str, RuleApplication]
) -> SinkGraph:
    """Fix discovery order by BFS from the sink and compute the weight."""
    sources: list[str] = []
    literals: list[str] = []
    queue = [sink]
    seen = {sink}
    while queue:
        attr = queue.pop(0)
        app = apps.get(attr)
        if app is None:
            continue
        for det in app.determinants:
            if det in seen:
                continue
            seen.add(det)
            if table.cell(row, det) is not MISSING:
                sources.append(det)
            else:
                queue.append(det)
        for _, literal in app.conditions:
            literals.append(literal)
    edge_weights = {
        (app.rule_id, "+".join(app.determinants), target): app.weight
        for target, app in apps.items()
    }
    weight = 1.0
    for w in edge_weights.values():
        weight *= w
    ordered_apps = tuple(sorted(apps.items()))
    return SinkGraph(
        sink=sink,
        row=row,
        row_values=tuple(table.rows[row]),
        columns=tuple(table.columns),
        applications=ordered_apps,
        weight=weight,
        source_attrs=tuple(sources),
        condition_literals=tuple(literals),
    )


def render_keywords(group: SinkGraph, row_values: tuple[Cell, ...] | None = None) -> list[str]:
    """Ordered keywords: source values, condition literals, sink attribute name."""
    values = row_values if row_values is not None else group.row_values
    index = {c: i for i, c in enumerate(group.columns)}
    keywords = [values[index[a]] for a in group.source_attrs]
    keywords.extend(group.condition_literals)
    keywords.append(group.sink)
    return keywords


def select_optimal(graphs: list[SinkGraph], K: float) -> KeywordGroup | None:
    """The maximum-weight graph rendered as keywords, or ABSTAIN (None).

    Abstains when the list is empty or the best weight falls below ``K``.
    Ties prefer fewer nodes, then the lexicographically smallest sorted
    attribute-name sequence.
    """
    if not 0.0 <= K <= 1.0:
        raise ValueError(f"group threshold must be in [0,1], got {K}")
    if not graphs:
        return ABSTAIN
    best = min(graphs, key=lambda g: (-g.weight, g.node_count(), g.attrs))
    if best.weight < K:
        return ABSTAIN
    return KeywordGroup(best, tuple(render_keywords(best)), best.weight)
