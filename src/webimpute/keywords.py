"""Keyword-group selection for web search.

For a still-missing cell we look for subgraphs of the dependency graph that
route known values toward that one sink attribute.  A determinant with a
present cell value is a source; a determinant that is itself missing is
expanded recursively through its own dependencies (never revisiting an
attribute already on the path).  Logic junctions are AND nodes: every parent
must be satisfiable or the expansion dies.  Condition nodes are satisfied
only when the tuple matches the literal.

A subgraph's weight is the product of the confidences of its distinct
dependency edges.  Subgraphs rank by maximum weight; ties prefer fewer nodes,
then the lexicographically smallest attribute set.  A cell can have
exponentially many subgraphs (``fanout ** depth`` on a rule chain) but only
the best few are wanted, so they are found by a depth-first branch and bound
over the AND-OR expansion, a bounded relative of AO* search (Martelli &
Montanari 1973, Nilsson 1980), instead of by listing them all.  ``RuleSet``
rejects any confidence outside [0, 1], so the weight product of a partial
subgraph bounds every completion's weight from above; the attributes that
every expansion of each pending attribute adds bound a completion's node
count and attribute set from below.  Logic nodes are the junction
applications (``RuleApplication.junction``).

The search reads a row only through its signature: which attributes upstream
of the sink are missing and which conditions of the applications into them
hold (``_upstream``).  It is handed that signature and nothing else, so it
never sees a value: a determinant outside the missing set is a source, and an
application applies when its conditions are in the holding set.  Its ranked
plans are memoised on the graph (memo functions, Michie 1968) under the key
``(limit, missing, holds)`` per sink, which is the whole input of the search.
Every cell takes its plans from that memo, searching only on a new key, and
reads its own source values into the graphs.

``select_optimal`` keeps the first (best) graph only when its weight reaches
the group threshold; ``render_keywords`` turns a graph into an ordered keyword
list - the source values it recorded, in breadth-first discovery order, then
condition literals, then the sink attribute name.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import itemgetter

from .bayes import ABSTAIN
from .depgraph import DependencyGraph, RuleApplication
from .tabular import MISSING, Table, check_count, check_ratio


@dataclass(frozen=True)
class SinkGraph:
    """A feasible single-sink subgraph for one tuple.

    ``applications`` maps each derived attribute (the sink and every missing
    intermediate) to the rule application supplying it.  ``source_values``
    holds the tuple's cells of ``source_attrs``.  ``rank`` is the sort key
    ``(-weight, node count, attrs)``.
    """

    sink: str
    applications: tuple[tuple[str, RuleApplication], ...]
    weight: float
    source_attrs: tuple[str, ...]
    source_values: tuple[str, ...]
    condition_literals: tuple[str, ...]
    rank: tuple[float, int, tuple[str, ...]] = field(repr=False, compare=False)

    @property
    def attrs(self) -> tuple[str, ...]:
        """All attribute labels in the subgraph, sorted."""
        return self.rank[2]


def _shape(
    sink: str, applications: Iterable[tuple[str, RuleApplication]]
) -> tuple[int, tuple[str, ...]]:
    """Node count and sorted attributes of the subgraph choosing ``applications``.

    Nodes are the attributes, one logic node per junction application, and the
    distinct conditions.
    """
    labels = {sink}
    logic = 0
    conditions = set()
    for _, app in applications:
        labels.update(app.determinants)
        logic += app.junction
        conditions.update(app.conditions)
    return len(labels) + logic + len(conditions), tuple(sorted(labels))


_Option = tuple[RuleApplication, list[str]]  # an application and its missing determinants


def enumerate_single_sink_graphs(
    graph: DependencyGraph,
    table: Table,
    row: int,
    sink: str,
    *,
    limit: int = 8,
) -> list[SinkGraph]:
    """The ``limit`` best feasible single-sink subgraphs for ``(row, sink)``.

    A subgraph gives one rule application to the sink and to every missing
    determinant it reaches (one application per derived attribute, cycles
    forbidden along a path).  Zero-weight subgraphs are dropped.  The result
    is sorted by ``SinkGraph.rank``; full ties keep
    enumeration order, in which derived attributes are expanded depth first
    and each tries its feasible applications in declaration order.  It is
    exactly the first ``limit`` entries of that sorted enumeration.

    Branch and bound: a branch is cut once ``limit`` graphs are held and no
    completion of it can rank ahead of the last one held.  Edge weights lie in
    [0, 1] (``RuleSet`` admits no other), so the weight product so far, which
    is the graph's weight once the branch completes, bounds every completion's
    weight from above; on a weight tie, ``_beaten`` bounds the rest of the key
    from below.  A completion that ties the last held graph on the whole key
    comes later and loses the tie.

    The search is memoised on ``graph`` per row signature (see the module
    docstring); each graph is built with this row's source values.
    """
    if table.cell(row, sink) is not MISSING:
        raise ValueError(f"cell (row {row}, {sink}) is not missing")
    check_count("limit", limit)
    upstream = graph._plans.get(sink)
    if upstream is None:
        upstream = graph._plans[sink] = (*_upstream(graph, sink), {})
    attrs, conditions, plans = upstream
    missing = frozenset(a for a in attrs if table.cell(row, a) is MISSING)
    holds = frozenset((a, lit) for a, lit in conditions if table.cell(row, a) == lit)
    key = (limit, missing, holds)
    ranked = plans.get(key)
    if ranked is None:
        ranked = plans[key] = _search(graph, sink, limit, missing, holds)
    return [
        SinkGraph(
            sink, apps, weight, sources, tuple(table.cell(row, a) for a in sources), literals, rank
        )
        for rank, apps, weight, sources, literals in ranked
    ]


def _upstream(
    graph: DependencyGraph, sink: str
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Attributes reachable backwards from ``sink`` through determinants,
    ``sink`` first, and the distinct conditions of the applications into
    them: all of a row that the search for ``sink`` reads."""
    attrs = [sink]
    conditions: dict[tuple[str, str], None] = {}  # an insertion-ordered set
    for attr in attrs:  # grows as it is walked
        for app in graph.applications.get(attr, ()):
            conditions.update(dict.fromkeys(app.conditions))
            for det in app.determinants:
                if det not in attrs:
                    attrs.append(det)
    return tuple(attrs), tuple(conditions)


def _search(
    graph: DependencyGraph, sink: str, limit: int, missing: frozenset, holds: frozenset
) -> list[tuple]:
    """The branch and bound of ``enumerate_single_sink_graphs``, unmemoised.

    ``missing`` holds the attributes upstream of ``sink`` that are missing in
    the row, ``holds`` the upstream conditions that hold in it.  Returns the
    ranked plans (see ``_finalize``).

    A revisited attribute needs no path check.  The chosen applications form
    an acyclic graph (an edge from each derived attribute to each missing
    determinant of its application), and a pending item's path is a chain of
    its attribute's chosen ancestors.  A fresh choice rejects an application
    with a determinant on the path, and depth first finishes a derived
    attribute's subtree before any item outside it, so no later choice points
    back into an unfinished subtree (its root would be on the path): a
    revisited attribute's determinants are its descendants, never on its
    path.  A branch completes only once every missing determinant it pushed
    is derived, so ``_finalize`` queues no attribute without an application.
    """
    options: dict[str, list[_Option]] = {}

    def usable(attr: str) -> list[_Option]:
        """Applications into ``attr`` whose conditions hold, in declaration
        order, each with its missing determinants."""
        found = options.get(attr)
        if found is None:
            found = options[attr] = [
                (app, [d for d in app.determinants if d in missing])
                for app in graph.applications.get(attr, ())
                if holds.issuperset(app.conditions)
            ]
        return found

    chosen: dict[str, RuleApplication] = {}  # target -> app, in depth-first preorder
    expands: dict[str, list[str]] = {}  # target -> its app's missing determinants
    ranked: list[tuple] = []  # the best ``limit`` plans so far, in rank order
    closures: dict = {}  # built only once a branch needs bounding

    def visit(todo, weight: float) -> None:
        """Expand the pending ``((attr, path), rest)`` items of ``todo``."""
        # An attribute already derived takes its application again, in this
        # frame: only a new choice recurses, so the depth is the number of
        # derived attributes and not the number of paths reaching them.
        while todo is not None:
            (attr, path), rest = todo
            if attr not in chosen:
                break
            todo = _push(rest, attr, path, expands[attr])
        if todo is None:
            insort(ranked, _finalize(sink, chosen, weight, missing), key=itemgetter(0))
            del ranked[limit:]
            return
        for app, pending in usable(attr):
            if not path.isdisjoint(app.determinants):
                continue
            w = weight * app.weight
            if w == 0.0:
                continue
            chosen[attr] = app
            expands[attr] = pending
            child = _push(rest, attr, path, pending)
            if len(ranked) < limit or not _beaten(
                ranked[-1][0], w, sink, chosen, child, usable, closures
            ):
                visit(child, w)
            del chosen[attr]

    try:
        visit(((sink, frozenset({sink})), None), 1.0)
    finally:
        del visit  # it refers to itself: break the cycle, leave no garbage
    return ranked


def _push(todo, attr: str, path: frozenset[str], missing: list[str]):
    """``todo`` with ``attr``'s missing determinants in front, in order."""
    if missing:
        child_path = path | {attr}
        for det in reversed(missing):
            todo = ((det, child_path), todo)
    return todo


def _beaten(
    worst: tuple,
    weight: float,
    sink: str,
    chosen: dict[str, RuleApplication],
    todo,
    usable: Callable[[str], list[_Option]],
    closures: dict,
) -> bool:
    """Whether every completion of a branch ranks at or after ``worst``.

    ``weight`` is the branch's weight so far, ``chosen`` its applications and
    ``todo`` its pending ``(attr, path)`` items.  On a weight tie: every
    completion holds the branch's attributes and each pending attribute's
    mandatory set, together ``labels``, plus the branch's logic and condition
    nodes, so it has at least ``len(labels) + extra_nodes`` nodes; one with
    exactly that many holds no other attribute.  So no completion's
    ``(node count, attrs)`` is below ``(len(labels) + extra_nodes,
    sorted(labels))``.
    """
    if -weight != worst[0]:
        return -weight > worst[0]
    nodes, attrs = _shape(sink, chosen.items())  # of the branch so far
    labels = set(attrs)
    extra_nodes = nodes - len(labels)  # logic and condition nodes
    while todo is not None:
        (attr, path), todo = todo
        must = _closure(attr, path, usable, closures)
        if must is None:
            return True  # a pending attribute cannot be derived
        labels |= must
    return (len(labels) + extra_nodes, tuple(sorted(labels))) >= worst[1:]


def _closure(
    attr: str, path: frozenset[str], usable: Callable[[str], list[_Option]], memo: dict
) -> set[str] | None:
    """Attributes that every expansion of ``attr`` adds, or None.

    Cross-branch consistency is ignored, so the set can only be too small;
    None means ``attr`` has no expansion.
    """
    key = (attr, path)
    if key not in memo:
        must = None
        child_path = path | {attr}
        for app, missing in usable(attr):
            if not path.isdisjoint(app.determinants):
                continue
            app_must = set(app.determinants)
            for det in missing:
                sub = _closure(det, child_path, usable, memo)
                if sub is None:
                    break
                app_must |= sub
            else:
                must = app_must if must is None else must & app_must
        memo[key] = must
    return memo[key]


def _finalize(
    sink: str, apps: dict[str, RuleApplication], weight: float, missing: frozenset[str]
) -> tuple:
    """The plan of the graph choosing ``apps``, of weight ``weight``:
    ``(rank, applications, weight, source_attrs, condition_literals)``, sources
    and literals in BFS order.  A determinant not in ``missing`` is a source."""
    sources: list[str] = []
    literals: list[str] = []
    queue = [sink]
    seen = {sink}
    while queue:
        app = apps[queue.pop(0)]
        for det in app.determinants:
            if det not in seen:
                seen.add(det)
                (queue if det in missing else sources).append(det)
        literals.extend(literal for _, literal in app.conditions)
    rank = (-weight, *_shape(sink, apps.items()))
    return rank, tuple(sorted(apps.items())), weight, tuple(sources), tuple(literals)


def render_keywords(graph: SinkGraph) -> list[str]:
    """Ordered keywords: source values, condition literals, sink attribute name."""
    return [*graph.source_values, *graph.condition_literals, graph.sink]


def select_optimal(graphs: list[SinkGraph], K: float) -> SinkGraph | None:
    """The first graph, or ABSTAIN (None).

    ``graphs`` are in ``SinkGraph.rank`` order, as
    ``enumerate_single_sink_graphs`` returns them.  Abstains when the list is
    empty or the first graph's weight falls below ``K``.
    """
    check_ratio("K", K)
    if not graphs or graphs[0].weight < K:
        return ABSTAIN
    return graphs[0]
