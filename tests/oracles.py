"""Independent brute-force oracles and random-case generators.

These deliberately avoid the library's internal machinery: frequencies are
counted with plain loops, the best evidence subgraph is found by
enumerating every assignment of rules to missing attributes, and retrieval
scans every document for every keyword.  They exist so the real
implementations can be checked against something that cannot share their
bugs.
"""

from __future__ import annotations

import itertools
import random

from webimpute import Document, Query, Rule, RuleSet, Table
from webimpute.tabular import MISSING
from webimpute.textutil import tokenize


def bayes_oracle(table: Table, ruleset: RuleSet, row: int, attr: str, k: float):
    """Expected internal-fill decision for one missing cell, or None."""
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
    total = sum(joints.values())
    if total <= 0:
        return None
    posteriors = {d: j / total for d, j in joints.items()}
    top = max(posteriors.values())
    winner = min(d for d in candidates if posteriors[d] == top)
    return winner if posteriors[winner] >= k else None


def internal_fills_oracle(table: Table, ruleset: RuleSet, k: float, max_rounds: int):
    """Cells the internal pass fills, swept to a fixpoint with :func:`bayes_oracle`.

    Every round decides each still-missing cell against the table as the
    previous round left it, then applies the round's fills one at a time.
    """
    filled = {}
    for _ in range(max_rounds):
        fills = {}
        for row, attr in table.missing_cells():
            value = bayes_oracle(table, ruleset, row, attr, k)
            if value is not None:
                fills[(row, attr)] = value
        if not fills:
            break
        for (row, attr), value in fills.items():
            table = table.with_cell(row, attr, value)
        filled.update(fills)
    return filled


def scan_query_oracle(docs, q: Query, page_size: int) -> list[Document]:
    """Local-corpus retrieval by scanning every document for every keyword."""

    def contains(tokens, needle):
        n = len(needle)
        return any(tokens[i : i + n] == needle for i in range(len(tokens) - n + 1))

    needles = []
    for kw in q.keywords:
        seq = tokenize(kw)
        if seq and seq not in needles:
            needles.append(seq)
    scored = []
    for doc_id, text in docs:
        tokens = tokenize(text)
        score = sum(1 for n in needles if contains(tokens, n))
        if score > 0:
            scored.append((-score, doc_id, text, score))
    scored.sort()
    return [
        Document(doc_id, text, rank, float(score))
        for rank, (_, doc_id, text, score) in enumerate(scored[: q.pages * page_size])
    ]


def random_corpus_case(rng: random.Random):
    """A small corpus with duplicate ids and empty texts, and a few queries."""
    vocab = ["alpha", "beta", "gamma", "delta", "Alpha", "eps"]
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
