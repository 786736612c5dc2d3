"""Independent brute-force oracles, random-case generators, a query recorder
and the tests' table builder.

These deliberately avoid the library's internal machinery: frequencies are
counted with plain loops, the best evidence subgraph is found by
enumerating every assignment of rules to missing attributes, the ranked
subgraph list comes from listing every feasible subgraph, and retrieval
scans every document for every keyword, tokenized by the ``\\w+`` regex
alone with no ASCII fast path, and maximal patterns come from
comparing every pair of qualifying contexts.  They exist so the real
implementations can be checked against something that cannot share their
bugs.  Rule confidence is the plurality ratio counted group by group.  The rule-DSL oracle is the earlier character-loop parser, kept as it
was (quote state toggled per character in three separate scans).
"""

from __future__ import annotations

import copy
import itertools
import random
import re

from webimpute import Document, LocalCorpusProvider, Pattern, Query, Rule, RuleSet, Table
from webimpute.keywords import SinkGraph
from webimpute.patterns import FORWARD
from webimpute.rules import RuleParseError
from webimpute.tabular import MISSING


def make_table(columns, rows):
    """A table named ``t`` holding copies of ``columns`` and of each row."""
    return Table("t", list(columns), [list(r) for r in rows])


class CountingProvider:
    """Records the keywords of every query, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []

    def query(self, q):
        self.queries.append(q.keywords)
        return self.inner.query(q)


class LiveCountingProvider(CountingProvider):
    """A ``CountingProvider`` whose answers a run must not reuse."""

    live = True


def bayes_joints_oracle(table: Table, ruleset: RuleSet, row: int, attr: str):
    """``(rule, {candidate: joint})`` for one missing cell, or None.

    The rule is the applicable one with the highest confidence into
    ``attr`` (ties: lowest id); the candidates come in sorted order.
    """
    applicable = []
    for rule in ruleset.rules:
        if attr not in rule.rhs:
            continue
        if any(table.cell(row, a) is MISSING for a in rule.lhs):
            continue
        if any(table.cell(row, ca) != lit for ca, lit in rule.condition):
            continue
        applicable.append(rule)
    if not applicable:
        return None
    best = sorted(
        applicable, key=lambda r: (-ruleset.confidence(r.id, attr), r.id)
    )[0]

    cond_rows = [
        i
        for i in range(len(table.rows))
        if all(table.cell(i, ca) == lit for ca, lit in best.condition)
    ]
    candidates = sorted(
        {
            table.cell(i, attr)
            for i in cond_rows
            if table.cell(i, attr) is not MISSING
        }
    )
    evidence = [(a, table.cell(row, a)) for a in best.lhs]
    population = [
        i
        for i in cond_rows
        if table.cell(i, attr) is not MISSING
        and all(table.cell(i, a) is not MISSING for a, _ in evidence)
    ]
    joints = {}
    for d in candidates:
        n_d = sum(1 for i in population if table.cell(i, attr) == d)
        if not population or n_d == 0:
            joints[d] = 0.0
            continue
        joint = n_d / len(population)
        for a, v in evidence:
            n_av = sum(
                1
                for i in population
                if table.cell(i, a) == v and table.cell(i, attr) == d
            )
            joint *= n_av / n_d
        joints[d] = joint
    return best, joints


def bayes_oracle(table: Table, ruleset: RuleSet, row: int, attr: str, k: float):
    """Expected internal-fill decision for one missing cell, or None."""
    found = bayes_joints_oracle(table, ruleset, row, attr)
    if found is None:
        return None
    _, joints = found
    total = sum(joints.values())
    if total <= 0:
        return None
    posteriors = {d: j / total for d, j in joints.items()}
    top = max(posteriors.values())
    winner = min(d for d in joints if posteriors[d] == top)
    return winner if posteriors[winner] >= k else None


def internal_fills_oracle(table: Table, ruleset: RuleSet, k: float, max_rounds: int):
    """Cells the internal pass fills, in fill order, swept to a fixpoint with
    :func:`bayes_oracle`.

    Every round decides each still-missing cell, in row-major order, against
    a fresh table built from plain row lists as the previous round left them,
    then writes the round's fills into those lists.  Neither the table's
    missing-cell list nor :meth:`Table.with_cells` is used.
    """
    columns, rows = with_cells_oracle(table, ())
    filled = {}
    for _ in range(max_rounds):
        current = Table(table.name, list(columns), [list(r) for r in rows])
        fills = {}
        for row, attr in missing_cells_oracle(columns, rows):
            value = bayes_oracle(current, ruleset, row, attr, k)
            if value is not None:
                fills[(row, attr)] = value
        if not fills:
            break
        for (row, attr), value in fills.items():
            rows[row][columns.index(attr)] = value
        filled.update(fills)
    return filled


def with_cells_oracle(table: Table, updates):
    """``(columns, rows)`` of ``table`` with each (row, attr, value) update
    applied in order to a deep copy of every row."""
    columns = list(table.columns)
    rows = copy.deepcopy(table.rows)
    for row, attr, value in updates:
        rows[row][columns.index(attr)] = value
    return columns, rows


def missing_cells_oracle(columns, rows) -> list[tuple[int, str]]:
    """(row, attr) of every missing cell, scanned row by row, column by column."""
    return [
        (r, columns[c])
        for r in range(len(rows))
        for c in range(len(columns))
        if rows[r][c] is MISSING
    ]


def count_table_oracle(table: Table, attr: str, evidence_attrs, condition):
    """``(candidates, total, target, pair)`` of a count table, row by row.

    Read off the ``bayes`` docstring: the candidates are the sorted present
    values of ``attr`` over the rows that satisfy the condition; ``total``,
    ``target`` (candidate -> n) and ``pair`` ((evidence attr, value) ->
    {candidate: n}) count the condition rows complete on ``attr`` and every
    evidence attribute.  Keys are inserted in the order the rows give them.
    """
    candidates = set()
    total = 0
    target = {}
    pair = {}
    for i in range(len(table.rows)):
        if not all(table.cell(i, a) == lit for a, lit in condition):
            continue
        d = table.cell(i, attr)
        if d is MISSING:
            continue
        candidates.add(d)
        values = [table.cell(i, a) for a in evidence_attrs]
        if any(v is MISSING for v in values):
            continue
        total += 1
        target[d] = target.get(d, 0) + 1
        for a, v in zip(evidence_attrs, values):
            counts = pair.setdefault((a, v), {})
            counts[d] = counts.get(d, 0) + 1
    return sorted(candidates), total, target, pair


def confidence_oracle(rule: Rule, table: Table) -> dict[str, float]:
    """Confidence per RHS attribute, read straight off the ``rules`` docstring.

    A declared confidence overrides measurement.  Otherwise keep the tuples
    that satisfy the condition and are complete on condition + LHS + the RHS
    attribute, group them by LHS values, and divide the summed size of each
    group's largest consistent subset (its most frequent RHS value) by the
    number of tuples kept; 0 when none is kept.
    """
    result = {}
    for attr in rule.rhs:
        if rule.declared_confidence is not None:
            result[attr] = rule.declared_confidence
            continue
        needed = [a for a, _ in rule.condition] + list(rule.lhs) + [attr]
        kept = [
            i
            for i in range(len(table.rows))
            if all(table.cell(i, a) is not MISSING for a in needed)
            and all(table.cell(i, a) == lit for a, lit in rule.condition)
        ]
        groups = {}
        for i in kept:
            key = tuple(table.cell(i, a) for a in rule.lhs)
            groups.setdefault(key, []).append(table.cell(i, attr))
        support = sum(max(values.count(v) for v in values) for values in groups.values())
        result[attr] = support / len(kept) if kept else 0.0
    return result


def tokenize_oracle(text: str) -> tuple[str, ...]:
    """Case-folded ``\\w+`` runs, by the regex alone on every input."""
    return tuple(map(str.casefold, re.findall(r"\w+", text)))


def scan_ranking_oracle(docs, q: Query) -> list[tuple[int, Document]]:
    """``(score, document)`` for every matching document, best first, by a scan."""

    def contains(tokens, needle):
        n = len(needle)
        return any(tokens[i : i + n] == needle for i in range(len(tokens) - n + 1))

    needles = []
    for kw in q.keywords:
        seq = tokenize_oracle(kw)
        if seq and seq not in needles:
            needles.append(seq)
    scored = []
    for doc_id, text in docs:
        tokens = tokenize_oracle(text)
        score = sum(1 for n in needles if contains(tokens, n))
        if score > 0:
            scored.append((-score, doc_id, text))
    scored.sort()
    return [
        (-negated, Document(doc_id, tokenize_oracle(text))) for negated, doc_id, text in scored
    ]


def scan_query_oracle(docs, q: Query, page_size: int) -> list[Document]:
    """Local-corpus retrieval by scanning every document for every keyword."""
    return [doc for _, doc in scan_ranking_oracle(docs, q)[: q.pages * page_size]]


def random_corpus_case(rng: random.Random):
    """A small corpus with duplicate ids and empty texts, and a few queries."""
    # the non-ASCII words take the regex tokenize path: "Straße" and
    # "STRASSE" fold to one token, "İstanbul" folds to a dotted i, and the
    # decomposed "cafe\u0301" tokenizes to "cafe" alone
    vocab = [
        "alpha", "beta", "gamma", "delta", "Alpha", "eps",
        "Straße", "STRASSE", "İstanbul", "café", "cafe\u0301",
    ]
    docs = []
    for _ in range(rng.randint(0, 25)):
        doc_id = f"d{rng.randint(0, 9)}"  # ids repeat
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        docs.append((doc_id, rng.choice([" ", ", ", "-"]).join(words)))
    queries = []
    for _ in range(rng.randint(1, 4)):
        keywords = []
        for _ in range(rng.randint(1, 4)):
            # multi-token keywords, tokens absent from the corpus, punctuation only
            n = rng.randint(1, 3)
            kw = " ".join(rng.choice(vocab + ["zeta", "!"]) for _ in range(n))
            keywords.append(kw)
        if rng.random() < 0.3:
            keywords.append(keywords[0])  # duplicate keyword
        queries.append(Query(tuple(keywords), rng.randint(1, 3)))
    return docs, queries, rng.randint(1, 4)


def tied_corpus_case(rng: random.Random):
    """More matching documents than the page cut, scored 1 or 2, on few ids.

    Every document contains ``alpha``, so every one matches; ids come from at
    most three, so many documents share an id and differ in text, and equal
    scores pile up on both sides of the ``pages * page_size`` cut.
    """
    page_size, pages = rng.randint(1, 4), rng.randint(1, 3)
    cut = pages * page_size
    ids = [f"d{i}" for i in range(rng.randint(1, 3))]
    docs = []
    for _ in range(cut + rng.randint(1, 2 * cut)):
        words = ["alpha"] + [rng.choice(["beta", "pad", "Pad"]) for _ in range(rng.randint(0, 3))]
        rng.shuffle(words)
        docs.append((rng.choice(ids), " ".join(words)))
    return docs, Query(("alpha", "beta"), pages), page_size


def frequent_corpus_case(rng: random.Random):
    """A corpus where several keywords each match more pages than the page cut.

    Every page holds ``the``; ``alpha``, ``beta`` and ``gamma`` each occur on
    about seven pages in ten, and ``delta`` and ``eps`` on one in ten, so
    several match lists are longer than ``pages * page_size`` while others
    are shorter.  Queries mix these with multi-token keywords (``alpha
    beta``, a sequence on fewer pages than either token), case variants,
    repeats and tokens absent from the corpus; ids repeat.
    """
    page_size, pages = rng.randint(1, 4), rng.randint(1, 3)
    cut = pages * page_size
    docs = []
    for _ in range(rng.randint(cut + 1, 4 * cut + 8)):
        words = ["the"]
        words += [w for w in ("alpha", "beta", "gamma") if rng.random() < 0.7]
        words += [w for w in ("delta", "eps") if rng.random() < 0.1]
        rng.shuffle(words)
        docs.append((f"d{rng.randint(0, 5)}", " ".join(words)))
    pool = [
        "the", "alpha", "beta", "gamma", "delta", "eps",
        "alpha beta", "The", "gamma the", "zeta", "beta zeta",
    ]
    keywords = rng.sample(pool, rng.randint(1, 6))
    if rng.random() < 0.2:
        keywords.append(keywords[0])
    return docs, Query(tuple(keywords), pages), page_size


def maximal_patterns_oracle(supports, attr_pair, min_support: int) -> list[Pattern]:
    """Maximal qualifying patterns by comparing every pair of contexts.

    ``supports`` maps ``(context, direction)`` to its count.  A qualifying
    context is dropped when a longer qualifying context with the same
    direction ends with it (forward) or starts with it (reverse).
    """

    def contained(shorter, longer, direction):
        if len(shorter) >= len(longer):
            return False
        if direction == FORWARD:
            return longer[-len(shorter) :] == shorter
        return longer[: len(shorter)] == shorter

    qualifying = [(c, d, n) for (c, d), n in supports.items() if n >= min_support]
    a1, a2 = attr_pair
    patterns = [
        Pattern(a1, a2, ctx, direction, count)
        for ctx, direction, count in qualifying
        if not any(
            other_dir == direction and contained(ctx, other, direction)
            for other, other_dir, _ in qualifying
        )
    ]
    patterns.sort(key=lambda p: (-p.support, " ".join(p.context), p.direction))
    return patterns


def random_mining_case(rng: random.Random):
    """A two-column table of clean tuples and a corpus relating them.

    Documents join the row's two values in either order with zero to ten
    words from a small vocabulary between them, so contexts repeat and nest;
    some values are multi-token, some rows share a value, and one row in
    ten has a punctuation-only value that never tokenizes.
    """
    names = ["red", "blue", "green", "stone", "river", "oak", "pine"]
    filler = ["of", "the", "in", "by", "is", "near", "and"]

    def value():
        if rng.random() < 0.1:
            return "--"
        return " ".join(rng.sample(names, rng.choice([1, 1, 2])))

    rows = [[value(), value()] for _ in range(rng.randint(1, 6))]
    docs = []
    for i, (v1, v2) in enumerate(rows):
        for j in range(rng.randint(1, 4)):
            between = " ".join(rng.choice(filler) for _ in range(rng.randint(0, 10)))
            first, second = (v1, v2) if rng.random() < 0.5 else (v2, v1)
            lead = rng.choice(["", "so", "then the"])
            docs.append((f"d{i}-{j}", f"{lead} {first} {between} {second}."))
    return Table("pairs", ["A", "B"], rows), LocalCorpusProvider(docs)


def best_weight_oracle(table: Table, ruleset: RuleSet, row: int, sink: str):
    """Maximum single-sink-subgraph weight by trying every rule assignment."""
    missing = [a for a in table.columns if table.cell(row, a) is MISSING]
    options = {}
    for a in missing:
        usable = [
            r
            for r in ruleset.rules
            if a in r.rhs
            and all(table.cell(row, ca) == lit for ca, lit in r.condition)
        ]
        options[a] = usable + [None]
    if sink not in options:
        return None

    def resolve(assignment: dict, a: str, path: frozenset):
        """Rules actually used to derive ``a``, or None when infeasible."""
        rule = assignment[a]
        if rule is None or a in path:
            return None
        used = {a: rule}
        for det in rule.lhs:
            if table.cell(row, det) is not MISSING:
                continue
            if det not in assignment:
                return None
            sub = resolve(assignment, det, path | {a})
            if sub is None:
                return None
            used.update(sub)
        return used

    best = None
    attrs = list(options)
    for combo in itertools.product(*(options[a] for a in attrs)):
        assignment = dict(zip(attrs, combo))
        used = resolve(assignment, sink, frozenset())
        if used is None:
            continue
        weight = 1.0
        for a, rule in used.items():
            weight *= ruleset.confidence(rule.id, a)
        if weight > 0.0 and (best is None or weight > best):
            best = weight
    return best


def sink_graphs_oracle(graph, table: Table, row: int, sink: str):
    """Every feasible single-sink subgraph for ``(row, sink)``, best first.

    Exhaustive: for each rule application into the sink, every combination
    of expansions of its missing determinants is produced (one application
    per derived attribute, cycles forbidden along a path).  Zero-weight
    graphs are dropped; the stable sort keeps full ties in enumeration order.
    """
    if table.cell(row, sink) is not MISSING:
        raise ValueError(f"cell (row {row}, {sink}) is not missing")

    memo = {}

    def expansions(attr, path):
        """All ways to derive ``attr``; each is a map target -> application."""
        key = (attr, path)
        if key in memo:
            return memo[key]
        result = []
        for app in graph.applications.get(attr, ()):
            if any(table.cell(row, a) != lit for a, lit in app.conditions):
                continue
            if any(d in path for d in app.determinants):
                continue
            branch_options = []
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
            for combo in itertools.product(*branch_options):
                merged = {attr: app}
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
        g = _sink_graph(table, row, sink, apps)
        if g.weight > 0.0:
            graphs.append(g)
    graphs.sort(key=_sink_graph_key)
    return graphs


def _sink_graph_key(g: SinkGraph):
    """Heaviest first, then fewest attribute/logic/condition nodes, then the
    smallest sorted attribute tuple; counted here, not by ``keywords``."""
    return _rank(g.sink, g.applications, g.weight)


def _rank(sink: str, applications, weight: float):
    """``_sink_graph_key`` of the graph choosing ``applications``."""
    labels, logic, conditions = {sink}, 0, set()
    for _, app in applications:
        labels.update(app.determinants)
        logic += len(app.determinants) + len(app.conditions) >= 2
        conditions.update(app.conditions)
    return (-weight, len(labels) + logic + len(conditions), tuple(sorted(labels)))


def _sink_graph(table: Table, row: int, sink: str, apps) -> SinkGraph:
    """The subgraph choosing ``apps``: sources and literals in BFS order."""
    sources, literals = [], []
    queue, seen = [sink], {sink}
    while queue:
        app = apps.get(queue.pop(0))
        if app is None:
            continue
        for det in app.determinants:
            if det not in seen:
                seen.add(det)
                (sources if table.cell(row, det) is not MISSING else queue).append(det)
        literals.extend(literal for _, literal in app.conditions)
    edge_weights = {
        (app.rule_id, "+".join(app.determinants), target): app.weight
        for target, app in apps.items()
    }
    weight = 1.0
    for w in edge_weights.values():
        weight *= w
    applications = tuple(sorted(apps.items()))
    return SinkGraph(
        sink,
        applications,
        weight,
        tuple(sources),
        tuple(table.cell(row, a) for a in sources),
        tuple(literals),
        _rank(sink, applications, weight),
    )


def feasible_oracle(graph, table: Table, row: int, attr: str):
    """Applications into ``attr`` whose conditions hold in ``row``, in
    declaration order, each with its determinants missing in the row."""
    expected = []
    for app in graph.applications.get(attr, ()):
        if not conditions_hold(table, row, app.conditions):
            continue
        missing = [d for d in app.determinants if table.cell(row, d) is MISSING]
        expected.append((app, missing))
    return expected


def conditions_hold(table: Table, row: int, condition) -> bool:
    """Whether ``row`` has every ``(attr, literal)`` of ``condition``, cell by cell."""
    return all(table.cell(row, a) == literal for a, literal in condition)


def random_bayes_case(rng: random.Random):
    """A small complete table, rules, one masked cell, and a threshold."""
    n_attrs = rng.randint(2, 4)
    attrs = ["A", "B", "C", "D"][:n_attrs]
    n_rows = rng.randint(2, 8)
    rows = [
        [f"{a.lower()}{rng.randint(1, 3)}" for a in attrs] for _ in range(n_rows)
    ]
    table = Table("case", attrs, rows)

    rules = []
    for i in range(rng.randint(1, 3)):
        rhs = rng.choice(attrs)
        others = [a for a in attrs if a != rhs]
        lhs = tuple(rng.sample(others, rng.randint(1, min(2, len(others)))))
        condition = ()
        leftover = [a for a in others if a not in lhs]
        if leftover and rng.random() < 0.25:
            ca = rng.choice(leftover)
            condition = ((ca, f"{ca.lower()}{rng.randint(1, 3)}"),)
        declared = round(rng.uniform(0.3, 1.0), 3) if rng.random() < 0.5 else None
        rules.append(Rule(f"r{i}", condition, lhs, (rhs,), declared))
    ruleset = RuleSet.estimate(rules, table)

    row = rng.randrange(n_rows)
    attr = rng.choice(attrs)
    masked = table.with_cell(row, attr, MISSING)
    k = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0])
    return masked, ruleset, row, attr, k


def random_count_case(rng: random.Random):
    """A small table with several masked cells, a rule set and a threshold.

    Each attribute takes one of three values, so joints and posteriors tie.
    Rules have one or two attributes on each side, a condition one time in
    three, and confidences declared from {0.5, 0.8, 1.0} or measured.  About
    a sixth of the cells are masked, which leaves some candidates only in
    rows that are incomplete on the evidence.
    """
    attrs = ["A", "B", "C", "D", "E"][: rng.randint(3, 5)]
    n_rows = rng.randint(3, 12)
    rows = [[f"{a.lower()}{rng.randint(1, 3)}" for a in attrs] for _ in range(n_rows)]
    cells = [(r, c) for r in range(n_rows) for c in range(len(attrs))]
    for r, c in rng.sample(cells, rng.randint(1, len(cells) // 3)):
        rows[r][c] = MISSING
    table = Table("case", attrs, rows)

    rules = []
    for i in range(rng.randint(1, 4)):
        rhs = tuple(rng.sample(attrs, rng.choice([1, 1, 2])))
        others = [a for a in attrs if a not in rhs]
        lhs = tuple(rng.sample(others, rng.randint(1, min(2, len(others)))))
        condition = ()
        if rng.random() < 1 / 3:
            ca = rng.choice(others)
            condition = ((ca, f"{ca.lower()}{rng.randint(1, 3)}"),)
        declared = rng.choice([0.5, 0.8, 1.0, None])
        rules.append(Rule(f"r{i}", condition, lhs, rhs, declared))
    k = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0])
    return table, RuleSet.estimate(rules, table), k


def random_count_table_case(rng: random.Random):
    """A table of 3 to 40 rows and one count-table setting on it.

    Attributes take one of two to four values, so combinations repeat; in
    half of the tables ``K`` is a key (one value per row), so any
    combination holding it is distinct.  About a fifth of the cells are
    masked.  The setting is ``(attr, evidence_attrs, condition)``: one or
    two evidence attributes, and a one-literal condition half the time.
    """
    attrs = ["A", "B", "C", "D", "K"]
    n_rows = rng.randint(3, 40)
    key_like = rng.random() < 1 / 2
    domain = {a: rng.randint(2, 4) for a in attrs}
    rows = []
    for i in range(n_rows):
        row = [f"{a.lower()}{rng.randint(1, domain[a])}" for a in attrs]
        if key_like:
            row[-1] = f"k{i}"
        rows.append([MISSING if rng.random() < 0.2 else v for v in row])
    table = Table("counts", attrs, rows)
    attr = rng.choice(attrs[:-1])
    others = [a for a in attrs if a != attr]
    evidence = tuple(rng.sample(others, rng.randint(1, 2)))
    condition = ()
    if rng.random() < 0.5:
        ca = rng.choice(others)
        condition = ((ca, f"{ca.lower()}{rng.randint(1, domain[ca])}"),)
    return table, attr, evidence, condition


def random_sink_case(rng: random.Random):
    """A one-row table with missing cells, a random rule set, and a sink."""
    n_attrs = rng.randint(3, 6)
    attrs = ["A", "B", "C", "D", "E", "F"][:n_attrs]
    columns = attrs + ["G"]  # extra attribute for condition literals
    row = [f"v{a}" if rng.random() < 0.5 else MISSING for a in attrs]
    row.append(rng.choice(["on", "off"]))
    if all(v is not MISSING for v in row[:-1]):
        row[rng.randrange(n_attrs)] = MISSING
    table = Table("case", columns, [row])

    rules = []
    for i in range(rng.randint(2, 6)):
        rhs = rng.choice(attrs)
        others = [a for a in attrs if a != rhs]
        lhs = tuple(rng.sample(others, rng.randint(1, min(2, len(others)))))
        condition = ()
        if rng.random() < 0.25:
            condition = (("G", rng.choice(["on", "off"])),)
        declared = round(rng.uniform(0.3, 1.0), 3)
        rules.append(Rule(f"r{i}", condition, lhs, (rhs,), declared))
    ruleset = RuleSet.estimate(rules, table)

    missing = [a for a in attrs if table.cell(0, a) is MISSING]
    sink = rng.choice(missing)
    return table, ruleset, sink


def random_ranked_sink_case(rng: random.Random):
    """A one-row table and a rule set rich in ranking ties, with a sink.

    Rules are duplicated under new ids (interchangeable applications),
    confidences come from {0.5, 0.8, 1.0}, right-hand sides have one or two
    attributes and conditions zero to two literals; random determinants make
    DAG overlaps and cycles.
    """
    attrs = ["A", "B", "C", "D", "E", "F", "G"][: rng.randint(4, 7)]
    columns = attrs + ["X", "Y"]  # X and Y only carry condition literals
    row = [f"v{a}" if rng.random() < 0.5 else MISSING for a in attrs]
    row += ["on", "x"]
    if all(v is not MISSING for v in row[: len(attrs)]):
        row[rng.randrange(len(attrs))] = MISSING
    table = Table("case", columns, [row])
    missing = [a for a in attrs if table.cell(0, a) is MISSING]
    sink = rng.choice(missing)

    rules = []
    for i in range(rng.randint(4, 14)):
        if rules and rng.random() < 0.25:
            base = rng.choice(rules)
            rules.append(
                Rule(f"r{i}", base.condition, base.lhs, base.rhs, base.declared_confidence)
            )
            continue
        rhs = tuple(rng.sample(attrs, rng.choice([1, 1, 2])))
        if not rules and sink not in rhs:
            rhs = (sink,) + rhs[1:]  # at least one application into the sink
        others = [a for a in attrs if a not in rhs]
        lhs = tuple(rng.sample(others, rng.randint(1, min(2, len(others)))))
        condition = tuple(  # a literal the row fails one time in four
            (c, table.cell(0, c) if rng.random() < 0.75 else "other")
            for c in ["X", "Y"][: rng.choice([0, 0, 1, 2])]
        )
        rules.append(Rule(f"r{i}", condition, lhs, rhs, rng.choice([0.5, 0.8, 1.0])))
    return table, RuleSet.estimate(rules, table), sink


def random_shape_case(rng: random.Random):
    """Two tables of 10 to 30 rows sharing their columns, and a rule set.

    Every row takes its missing cells from one pool of three masks, so row
    signatures repeat within and across the tables, while each present cell
    holds a value of its own row.  The condition columns X and Y vary from
    row to row (X is sometimes missing), so a rule's condition holds in some
    rows only.  Rules are drawn as in ``random_ranked_sink_case``, with
    declared confidences, so both tables share one graph.
    """
    attrs = ["A", "B", "C", "D", "E", "F"][: rng.randint(4, 6)]
    columns = attrs + ["X", "Y"]  # X and Y only carry condition literals
    masks = [{a for a in attrs if rng.random() < 0.5} or {rng.choice(attrs)} for _ in range(3)]

    def table(name: str) -> Table:
        rows = []
        for r in range(rng.randint(10, 30)):
            mask = rng.choice(masks)
            rows.append(
                [MISSING if a in mask else f"{name}{a.lower()}{r}" for a in attrs]
                + [rng.choice(["on", "off", MISSING]), rng.choice(["x", "y"])]
            )
        return Table(name, columns, rows)

    tables = [table("s"), table("t")]
    rules = []
    for i in range(rng.randint(4, 12)):
        if rules and rng.random() < 0.25:
            base = rng.choice(rules)
            rules.append(
                Rule(f"r{i}", base.condition, base.lhs, base.rhs, base.declared_confidence)
            )
            continue
        rhs = tuple(rng.sample(attrs, rng.choice([1, 1, 2])))
        others = [a for a in attrs if a not in rhs]
        lhs = tuple(rng.sample(others, rng.randint(1, min(2, len(others)))))
        pairs = rng.sample([("X", ["on", "off"]), ("Y", ["x", "y"])], rng.choice([0, 0, 1, 2]))
        condition = tuple((c, rng.choice(literals)) for c, literals in pairs)
        rules.append(Rule(f"r{i}", condition, lhs, rhs, rng.choice([0.5, 0.8, 1.0])))
    return tables, RuleSet.estimate(rules, tables[0])


def _split_top(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside double quotes and square brackets."""
    parts, buf, depth, quoted = [], [], 0, False
    for ch in text:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif quoted:
            buf.append(ch)
        elif ch == "[":
            depth += 1
            buf.append(ch)
        elif ch == "]":
            depth -= 1
            buf.append(ch)
        elif ch == sep and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _unquote(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == '"' and item[-1] == '"':
        return item[1:-1]
    return item


def _strip_comment(line: str) -> str:
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _find_unquoted(text: str, needle: str, last: bool = False) -> int:
    """Index of ``needle`` outside double quotes, or -1."""
    quoted = False
    found = -1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == '"':
            quoted = not quoted
        elif not quoted and text.startswith(needle, i):
            if not last:
                return i
            found = i
        i += 1
    return found


def _parse_condition(block: str, where: str) -> tuple[tuple[str, str], ...]:
    inner = block.strip()[1:-1]
    literals = []
    for part in _split_top(inner, ","):
        part = part.strip()
        if not part or part == "_":
            continue  # wildcard position: no constraint
        if "=" not in part:
            raise RuleParseError(f"{where}: condition literal needs Attr=Value: {part!r}")
        attr, _, value = part.partition("=")
        attr, value = _unquote(attr), _unquote(value)
        if not attr or not value:
            raise RuleParseError(f"{where}: malformed condition literal: {part!r}")
        literals.append((attr, value))
    return tuple(literals)


def parse_rules_oracle(text: str) -> list[Rule]:
    """Parse the rule DSL; one :class:`Rule` per non-comment line."""
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        where = f"line {lineno}"
        head, colon, body = line.partition(":")
        if not colon or not head.strip():
            raise RuleParseError(f"{where}: expected 'id: ... -> ...'")
        rule_id = head.strip()
        if rule_id in seen_ids:
            raise RuleParseError(f"{where}: duplicate rule id {rule_id!r}")

        confidence = None
        at = _find_unquoted(body, "@", last=True)
        if at >= 0:
            conf_text = body[at + 1 :].strip()
            body = body[:at]
            try:
                confidence = float(conf_text)
            except ValueError:
                raise RuleParseError(f"{where}: bad confidence {conf_text!r}") from None

        arrow = _find_unquoted(body, "->")
        if arrow < 0 or _find_unquoted(body[arrow + 2 :], "->") >= 0:
            raise RuleParseError(f"{where}: expected exactly one '->'")
        left, right = body[:arrow], body[arrow + 2 :]

        condition: tuple[tuple[str, str], ...] = ()
        lhs: list[str] = []
        for item in _split_top(left, ","):
            item = item.strip()
            if not item:
                continue
            if item.startswith("["):
                if not item.endswith("]"):
                    raise RuleParseError(f"{where}: unclosed condition block")
                if condition:
                    raise RuleParseError(f"{where}: more than one condition block")
                condition = _parse_condition(item, where)
            else:
                lhs.append(_unquote(item))
        rhs = [_unquote(i) for i in _split_top(right, ",") if i.strip()]

        try:
            rule = Rule(rule_id, condition, tuple(lhs), tuple(rhs), confidence)
        except RuleParseError as exc:
            raise RuleParseError(f"{where}: {exc}") from None
        rules.append(rule)
        seen_ids.add(rule_id)
    return rules


_RULE_NAMES = ["A", "B", "C", " D ", '"Home City"', '"A"']
_QUOTED_DELIMITERS = ['"x,y"', '"x#y"', '"x@y"', '"x->y"', '"[Z"', '"W]"', '"a, [b]"']
_BLOCKS = [
    "[X=1]", "[X=1, _]", "[_, Y=2]", '["Q,1"="v#2"]', '[X="a->b", Y="[c]"]', '[X="@"]',
    "[_]", "[]", "[ _ , _ ]",  # no literal
    "[X]", "[X=1, Y]",  # literal without '='
    "[=1]", "[X=]", '[""=1]',  # malformed literal
    "[X=1", "[X=1, _",  # unclosed
    "[X=[1]]", "[[X=1]]", "[X=1] [Y=2]", "[X=1]]",  # unquoted bracket inside
    "]", "[X=1]]]",  # stray ']' drives the depth below 0
]
_IDS = ["f1", "f2", "r", " g7 "] * 4 + ["f0", "", '"f:1"', "[c]"]
_CONFIDENCES = [""] * 6 + ["@ 0.8", "@1", "@ 1.5", "@ 0", "@ nope", "@", "@ 0.5 @ 0.9"]
_COMMENTS = ["", "# note", "  # a -> b, @ 1", '# "quoted', "#"]


def random_rule_line(rng: random.Random) -> str:
    """One line of the rule DSL built from random pieces, most of them malformed.

    Pieces: ids (empty, duplicate of ``f0``, holding a colon), names (plain,
    quoted, quoted around ``,``, ``#``, ``@``, ``->``, ``[`` or ``]``, or an
    unclosed quote), condition blocks (with wildcards, quoted literals,
    malformed literals, unclosed, with a bracket inside, stray ``]``), zero to
    two arrows, ``@`` clauses and comments.
    """
    def name() -> str:
        r = rng.random()
        if r < 0.15:
            return rng.choice(_QUOTED_DELIMITERS)
        if r < 0.17:
            return '"open'
        return rng.choice(_RULE_NAMES)

    lhs = [name() for _ in range(rng.choice([0, 1, 1, 2, 3]))]
    for _ in range(rng.choice([0, 0, 1, 1, 1, 2])):
        lhs.insert(rng.randint(0, len(lhs)), rng.choice(_BLOCKS))
    rhs = [name() for _ in range(rng.choice([0, 1, 1, 1, 2]))]
    if rng.random() < 0.4:
        rhs.append(rng.choice(["X", "Y"]))  # a condition attribute in the RHS
    arrow = rng.choice(["->"] * 20 + ["", "-> B ->", "- >"])
    body = f"{', '.join(lhs)} {arrow} {', '.join(rhs)} {rng.choice(_CONFIDENCES)}"
    colon = ":" if rng.random() < 0.97 else ""
    return f"{rng.choice(_IDS)}{colon} {body}{rng.choice(_COMMENTS)}"
