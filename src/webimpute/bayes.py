"""Internal imputation: fill missing cells from the table's own evidence.

For a missing cell the applicable dependencies are those whose determinants
are all present in the tuple (and whose condition holds).  Candidates are
the distinct values the attribute takes elsewhere (restricted to
condition-satisfying tuples for conditional rules).  Each candidate ``d``
gets the naive-Bayes joint

    P(d) * prod_i P(a_i | d)

with probabilities estimated by frequency counts over tuples complete on the
referenced attributes.  There is no smoothing: a zero count zeroes the
candidate.  Joints are normalized to posteriors over the candidate set and
the best candidate is written back when its posterior reaches the threshold;
otherwise the cell abstains and is left for web-based imputation.

The table is swept repeatedly (a fill can unlock evidence for another cell)
until a sweep fills nothing or ``max_rounds`` is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DependencyGraph, RuleApplication
from .rules import RuleSet
from .tabular import MISSING, Table

ABSTAIN = None
"""Decision marker: no candidate reached the threshold."""


@dataclass(frozen=True)
class CandidateScore:
    value: str
    joint: float
    posterior: float


@dataclass
class BayesDecision:
    """Outcome for one (row, attr) cell in one evaluation.

    ``chosen`` is the filled value, or :data:`ABSTAIN` (None) when the best
    posterior fell short of ``threshold`` or no rule was applicable
    (``rule_id`` None, empty candidates).
    """

    row: int
    attr: str
    rule_id: str | None
    candidates: list[CandidateScore]
    chosen: str | None
    threshold: float

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "attr": self.attr,
            "rule_id": self.rule_id,
            "candidates": [
                {"value": c.value, "joint": c.joint, "posterior": c.posterior}
                for c in self.candidates
            ],
            "chosen": self.chosen,
            "threshold": self.threshold,
        }


def _condition_rows(table: Table, condition: tuple[tuple[str, str], ...]) -> list[int]:
    return [
        r
        for r in range(len(table.rows))
        if all(table.cell(r, a) == lit for a, lit in condition)
    ]


def candidate_values(table: Table, attr: str, rule) -> set[str]:
    """Distinct present values of ``attr`` over condition-satisfying tuples."""
    col = table.column_index(attr)
    return {
        table.rows[r][col]
        for r in _condition_rows(table, tuple(rule.condition))
        if table.rows[r][col] is not MISSING
    }


def bayes_score(
    candidate: str,
    attr: str,
    evidence: list[tuple[str, str]],
    table: Table,
    rule,
) -> float:
    """Joint score P(candidate) * prod P(evidence_value | candidate).

    Counted over tuples that satisfy the rule's condition and are complete
    on ``attr`` and every evidence attribute.
    """
    counts = _FrequencyCounts.build(table, attr, [a for a, _ in evidence], rule.condition)
    return counts.joint(candidate, evidence)


@dataclass
class _FrequencyCounts:
    """Count tables for one (condition, target attr, evidence attrs) setting."""

    total: int
    target: dict[str, int]
    pair: dict[str, dict[tuple[str, str], int]]  # evidence attr -> (ev value, d) -> n

    @classmethod
    def build(
        cls,
        table: Table,
        attr: str,
        evidence_attrs: list[str],
        condition: tuple[tuple[str, str], ...],
    ) -> "_FrequencyCounts":
        needed = [attr] + evidence_attrs
        target: dict[str, int] = {}
        pair: dict[str, dict[tuple[str, str], int]] = {a: {} for a in evidence_attrs}
        total = 0
        for r in _condition_rows(table, condition):
            if any(table.cell(r, a) is MISSING for a in needed):
                continue
            total += 1
            d = table.cell(r, attr)
            target[d] = target.get(d, 0) + 1
            for a in evidence_attrs:
                key = (table.cell(r, a), d)
                pair[a][key] = pair[a].get(key, 0) + 1
        return cls(total, target, pair)

    def joint(self, candidate: str, evidence: list[tuple[str, str]]) -> float:
        if self.total == 0:
            return 0.0
        c_d = self.target.get(candidate, 0)
        if c_d == 0:
            return 0.0
        score = c_d / self.total
        for a, v in evidence:
            score *= self.pair[a].get((v, candidate), 0) / c_d
            if score == 0.0:
                return 0.0
        return score


def _decide_cell(
    table: Table,
    row: int,
    attr: str,
    app: RuleApplication,
    rule,
    k: float,
    cache: dict,
) -> BayesDecision:
    key = (rule.condition, attr, app.determinants)
    counts = cache.get(key)
    if counts is None:
        counts = _FrequencyCounts.build(
            table, attr, list(app.determinants), rule.condition
        )
        cache[key] = counts
    evidence = [(a, table.cell(row, a)) for a in app.determinants]
    # The cache lives for one round, during which the table does not change.
    candidates = cache.get((rule.condition, attr))
    if candidates is None:
        candidates = sorted(candidate_values(table, attr, rule))
        cache[(rule.condition, attr)] = candidates
    joints = {d: counts.joint(d, evidence) for d in candidates}
    total = sum(joints.values())
    scored = [
        CandidateScore(d, joints[d], joints[d] / total if total > 0 else 0.0)
        for d in candidates
    ]
    chosen = None
    if total > 0:
        max_post = max(c.posterior for c in scored)
        # equal posteriors break lexicographically on the value
        best = min((c for c in scored if c.posterior == max_post), key=lambda c: c.value)
        if best.posterior >= k:
            chosen = best.value
    return BayesDecision(row, attr, app.rule_id, scored, chosen, k)


def impute_internal(
    table: Table,
    graph: DependencyGraph,
    ruleset: RuleSet,
    k: float,
    max_rounds: int = 10,
) -> tuple[Table, list[BayesDecision]]:
    """Fill what the table itself can justify; leave the rest missing.

    Returns the new table and one decision per initially-missing cell: a
    fill decision recorded when it happened, or the final abstain decision
    (with candidate scores) from the last sweep.
    """
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"threshold must be in [0,1], got {k}")
    current = table
    remaining = list(table.missing_cells())
    fill_decisions: list[BayesDecision] = []
    abstains: dict[tuple[int, str], BayesDecision] = {}
    for _ in range(max_rounds):
        cache: dict = {}
        sweep: list[BayesDecision] = []
        for row, attr in remaining:
            apps = [
                app
                for app in graph.applications_into(attr)
                if all(current.cell(row, a) is not MISSING for a in app.determinants)
                and all(current.cell(row, a) == lit for a, lit in app.conditions)
            ]
            if not apps:
                sweep.append(BayesDecision(row, attr, None, [], ABSTAIN, k))
                continue
            best_app = min(apps, key=lambda a: (-a.weight, a.rule_id))
            rule = ruleset.rule(best_app.rule_id)
            sweep.append(_decide_cell(current, row, attr, best_app, rule, k, cache))
        abstains = {(d.row, d.attr): d for d in sweep if d.chosen is None}
        fills = [d for d in sweep if d.chosen is not None]
        if not fills:
            break
        current = current.with_cells((d.row, d.attr, d.chosen) for d in fills)
        fill_decisions.extend(fills)
        filled_cells = {(d.row, d.attr) for d in fills}
        remaining = [cell for cell in remaining if cell not in filled_cells]
        if not remaining:
            break
    decisions = fill_decisions + [abstains[cell] for cell in remaining]
    return current, decisions
