"""Internal imputation: fill missing cells from the table's own evidence.

For a missing cell the applicable dependencies are the graph's rule
applications into the attribute whose condition holds in the tuple and whose
determinants are all present; the heaviest decides (ties: lowest rule id).
Each attribute's applications are ranked that way once per call, so a cell
takes the first applicable one in the ranking.  Candidates are the distinct
present values of the attribute over condition-satisfying tuples.  Each
candidate ``d`` gets the naive-Bayes joint

    P(d) * prod_i P(a_i | d)

with probabilities estimated by frequency counts over the condition-satisfying
tuples complete on the attribute and every determinant.  The condition
tuples are tallied by their distinct (attribute, determinants) value
combination, and each combination is folded into the counts once, with its
multiplicity (:class:`_FrequencyCounts`); a table that obeys its FDs holds
few of them.  There is no smoothing: a candidate never seen
with one of the evidence values scores 0, so only the candidates seen with
every one are multiplied out.  Joints are normalized to posteriors over the
candidate set and the best candidate is written back when its posterior
reaches the threshold; otherwise the cell abstains and is left for web-based
imputation.

Every candidate is reported, most of them with a zero joint.  The nonzero
scores and the chosen value depend only on the count table and the evidence
values, so they are scored once per distinct evidence and round, one
:class:`CandidateScore` per nonzero joint.  Evidence repeats exactly where
phase 1 can fill: an FD fills a cell only from tuples that share its LHS
values.  A decision holds, and never copies, its count table's sorted
candidates (``values``, shared by every decision of the round drawn from the
table) and its evidence's nonzero scores (``scores``, shared by every such
decision with that evidence); :meth:`BayesDecision.to_dict` writes the zeros.

The table is swept repeatedly (a fill can unlock evidence for another cell)
until a sweep fills nothing or ``max_rounds`` is hit.  A round's fills go
into a table derived with :meth:`Table.with_cells`, which copies only the rows
they write, and the next round sweeps only the cells the round left missing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DependencyGraph, RuleApplication
from .rules import tally
from .tabular import MISSING, Table, check_count, check_ratio

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
    (``rule_id`` None, no values).

    ``values`` is the count table's sorted candidates, one tuple shared by
    every decision of the round drawn from that table.  ``scores`` holds the
    nonzero-joint candidates' scores in the same order, one tuple shared by
    every such decision with the same evidence; every other value scores 0.
    """

    row: int
    attr: str
    rule_id: str | None
    values: tuple[str, ...]
    scores: tuple[CandidateScore, ...]
    chosen: str | None
    threshold: float

    def to_dict(self) -> dict:
        scored = {c.value: (c.joint, c.posterior) for c in self.scores}
        candidates = []
        for d in self.values:  # a value without a score has a zero joint
            joint, posterior = scored.get(d, (0.0, 0.0))
            candidates.append({"value": d, "joint": joint, "posterior": posterior})
        return {
            "row": self.row,
            "attr": self.attr,
            "rule_id": self.rule_id,
            "candidates": candidates,
            "chosen": self.chosen,
            "threshold": self.threshold,
        }


@dataclass
class _FrequencyCounts:
    """Counts for a (condition, target attr, evidence attrs) setting.

    Built from the :func:`~webimpute.rules.tally` of the condition rows by
    (target, evidence) values, one step per distinct combination, not per row.
    """

    candidates: tuple[str, ...]  # sorted present target values over the condition rows
    total: int  # condition rows complete on the target and every evidence attr
    target: dict[str, int]  # candidate -> n, over those ``total`` rows
    pair: dict[tuple[str, str], dict[str, int]]  # (evidence attr, value) -> {candidate: n}

    @classmethod
    def build(
        cls,
        table: Table,
        attr: str,
        evidence_attrs: tuple[str, ...],
        condition: tuple[tuple[str, str], ...],
    ) -> "_FrequencyCounts":
        present: set[str] = set()
        target: dict[str, int] = {}
        pair: dict[tuple[str, str], dict[str, int]] = {}
        total = 0
        for (d, *values), n in tally(table, condition, (attr, *evidence_attrs)).items():
            if d is MISSING:
                continue
            present.add(d)
            if MISSING in values:
                continue
            total += n
            target[d] = target.get(d, 0) + n
            for key in zip(evidence_attrs, values):
                counts = pair.setdefault(key, {})
                counts[d] = counts.get(d, 0) + n
        return cls(tuple(sorted(present)), total, target, pair)

    def joints(self, evidence: tuple[tuple[str, str], ...]) -> dict[str, float]:
        """The nonzero joints P(d) * prod P(v | d), by candidate.

        A candidate that never co-occurs with one of the evidence values
        scores 0, so only the candidates in every evidence value's map are
        scored; the factors are multiplied in evidence order.
        """
        maps = [self.pair.get((a, v), {}) for a, v in evidence]
        joints = {}
        for d in min(maps, key=len, default=self.target):
            if all(d in m for m in maps):
                c_d = self.target[d]
                score = c_d / self.total
                for m in maps:
                    score *= m[d] / c_d
                joints[d] = score
        return joints


def _decide_cell(
    table: Table,
    row: int,
    app: RuleApplication,
    evidence: tuple[tuple[str, str], ...],
    k: float,
    cache: dict,
) -> BayesDecision:
    # The cache lives for one round, during which the table does not change.
    # It holds a count table per setting and a scoring per (setting, evidence).
    attr = app.target
    key = (app.conditions, attr, app.determinants)
    counts = cache.get(key)
    if counts is None:
        counts = _FrequencyCounts.build(table, attr, app.determinants, app.conditions)
        cache[key] = counts
    scoring = cache.get((key, evidence))
    if scoring is None:
        scoring = _score(counts, evidence, k)
        cache[(key, evidence)] = scoring
    return BayesDecision(row, attr, app.rule_id, counts.candidates, *scoring, k)


def _score(
    counts: _FrequencyCounts, evidence: tuple[tuple[str, str], ...], k: float
) -> tuple[tuple[CandidateScore, ...], str | None]:
    """The nonzero scores, in candidate order, and the chosen value or None."""
    nonzero = sorted(counts.joints(evidence).items())
    # summed in candidate order; the zeros left out add nothing, exactly
    total = sum(j for _, j in nonzero)
    if total <= 0:  # a joint can underflow to 0.0, so a nonempty map can sum to 0
        return (), ABSTAIN
    scored = tuple(CandidateScore(d, j, j / total) for d, j in nonzero)
    # scored is in candidate order, so equal posteriors break on the lowest
    # value, and the best posterior is positive, above every zero's
    best = max(scored, key=lambda c: c.posterior)
    return scored, best.value if best.posterior >= k else ABSTAIN


def impute_internal(
    table: Table,
    graph: DependencyGraph,
    k: float,
    max_rounds: int = 10,
) -> tuple[Table, list[BayesDecision]]:
    """Fill what the table itself can justify; leave the rest missing.

    Returns the new table and one decision per initially-missing cell: a
    fill decision recorded when it happened, or the final abstain decision
    (with candidate scores) from the last sweep.
    """
    check_ratio("k", k)
    check_count("max_rounds", max_rounds)
    # Each attribute's applications, heaviest first (ties: lowest rule id),
    # with their condition and determinant columns resolved.  The first one
    # usable in a row is the min over the row's feasible applications: a
    # rule has one application per attribute and rule ids are unique.
    ranked = {
        attr: [
            (
                app,
                [(table.column_index(a), lit) for a, lit in app.conditions],
                [table.column_index(a) for a in app.determinants],
            )
            for app in sorted(apps, key=lambda a: (-a.weight, a.rule_id))
        ]
        for attr, apps in graph.applications.items()
    }
    current = table
    remaining = list(table.missing_cells())
    fill_decisions: list[BayesDecision] = []
    abstains: list[BayesDecision] = []
    for _ in range(max_rounds):
        # One decision per remaining cell, in order, against the table as the
        # round began; its fills apply after the sweep, its abstains remain.
        cache: dict = {}
        start = len(fill_decisions)
        abstains = []
        for row, attr in remaining:
            cells = current.rows[row]
            for app, conditions, determinants in ranked.get(attr, ()):
                if all(cells[c] == lit for c, lit in conditions):
                    values = [cells[c] for c in determinants]
                    if MISSING not in values:
                        evidence = tuple(zip(app.determinants, values))
                        decision = _decide_cell(current, row, app, evidence, k, cache)
                        break
            else:
                decision = BayesDecision(row, attr, None, (), (), ABSTAIN, k)
            (abstains if decision.chosen is None else fill_decisions).append(decision)
        if len(fill_decisions) == start:
            break
        current = current.with_cells((d.row, d.attr, d.chosen) for d in fill_decisions[start:])
        remaining = [(d.row, d.attr) for d in abstains]
        if not remaining:
            break
    return current, fill_decisions + abstains
