"""Masking sweeps and metrics: the experiment protocol at desk scale.

A sweep masks the complete input table at each (ratio, seed) grid point,
re-estimates rule confidences on the masked table, runs the pipeline, and
scores the result against the mask's ground truth.  Accuracy is judged over
attempted fills and the filling ratio over all masked cells, so the two
metrics stay independent.  A grid point's own failure, a ratio it cannot
mask (:class:`MaskError`), is recorded; any other error ends the sweep.

The grid points of one ``sweep`` call share one :class:`SweepMemo`, made
for the call's provider and configuration before the first mask, so every
dictionary file is read before any point runs.  It reuses work only where
the whole input of that work repeats, so a point's table and report are
those of a run of its own.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pipeline import RunConfig, SweepMemo, impute
from .providers import SearchProvider
from .rules import RuleSet
from .tabular import MISSING, MaskedCell, MaskError, MaskSpec, Table, mask_random

log = logging.getLogger(__name__)


@dataclass
class Metrics:
    """Scoring for one imputation run against its mask ground truth."""

    masked: int
    filled: int
    correct: int
    accuracy: float
    filling_ratio: float
    wall_time: float | None = None
    phase_timings: dict | None = None
    flagged: bool = False


def evaluate(ground_truth: Sequence[MaskedCell], imputed: Table) -> Metrics:
    """Exact-match scoring (whitespace-trimmed, case-sensitive).

    Unfilled cells lower the filling ratio but do not count against
    accuracy.  With nothing masked (or nothing filled) the undefined ratio
    is reported as 1.0 and the metrics are flagged.
    """
    filled = correct = 0
    for entry in ground_truth:
        if entry.attr not in imputed.columns:
            raise ValueError(f"ground truth attribute {entry.attr!r} not in table")
        if not 0 <= entry.row < len(imputed.rows):
            raise ValueError(f"ground truth row {entry.row} out of range")
        value = imputed.cell(entry.row, entry.attr)
        if value is MISSING:
            continue
        filled += 1
        if value.strip() == entry.value.strip():
            correct += 1
    masked = len(ground_truth)
    flagged = masked == 0 or filled == 0
    accuracy = correct / filled if filled else 1.0
    filling_ratio = filled / masked if masked else 1.0
    return Metrics(masked, filled, correct, accuracy, filling_ratio, flagged=flagged)


@dataclass
class SweepRow:
    ratio: float
    seed: int
    metrics: Metrics | None
    error: str | None = None


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def averages(self) -> list[dict]:
        """Per-ratio arithmetic means over the seeds that succeeded."""
        by_ratio: dict[float, list[Metrics]] = {}
        for row in self.rows:
            if row.metrics is not None:
                by_ratio.setdefault(row.ratio, []).append(row.metrics)
        out = []
        for ratio in sorted(by_ratio):
            ms = by_ratio[ratio]
            out.append(
                {
                    "ratio": ratio,
                    "runs": len(ms),
                    "accuracy": sum(m.accuracy for m in ms) / len(ms),
                    "filling_ratio": sum(m.filling_ratio for m in ms) / len(ms),
                    "wall_time": sum(m.wall_time or 0.0 for m in ms) / len(ms),
                }
            )
        return out

    def to_csv(self, include_timing: bool = True) -> str:
        """Per-run rows followed by one ``seed=avg`` row per ratio."""
        records = [["ratio", "seed", "masked", "filled", "correct", "accuracy",
                    "filling_ratio", "wall_time_s"]]
        for row in self.rows:
            m = row.metrics
            if m is None:
                records.append([f"{row.ratio:g}", row.seed, "", "", "", "", "", ""])
                continue
            records.append([
                f"{row.ratio:g}", row.seed, m.masked, m.filled, m.correct,
                f"{m.accuracy:.6f}", f"{m.filling_ratio:.6f}",
                f"{m.wall_time:.6f}" if m.wall_time is not None else "",
            ])
        for avg in self.averages():
            records.append([
                f"{avg['ratio']:g}", "avg", "", "", "",
                f"{avg['accuracy']:.6f}", f"{avg['filling_ratio']:.6f}",
                f"{avg['wall_time']:.6f}",
            ])
        buf = io.StringIO()
        end = None if include_timing else -1  # the timing column is last
        csv.writer(buf).writerows(record[:end] for record in records)
        return buf.getvalue()

    def summary(self) -> str:
        lines = ["ratio  runs  accuracy  filling_ratio"]
        for avg in self.averages():
            lines.append(
                f"{avg['ratio']:>5g}  {avg['runs']:>4d}  "
                f"{avg['accuracy']:>8.4f}  {avg['filling_ratio']:>13.4f}"
            )
        errors = [r for r in self.rows if r.error]
        for row in errors:
            lines.append(f"failed: ratio={row.ratio:g} seed={row.seed}: {row.error}")
        return "\n".join(lines) + "\n"


def run_one(
    table: Table,
    ruleset: RuleSet,
    config: RunConfig,
    provider: SearchProvider,
    ratio: float,
    seed: int,
    protected: Iterable[str] = (),
    memo: SweepMemo | None = None,
) -> Metrics:
    """mask -> impute -> evaluate for one grid point, with wall time.

    ``memo`` is handed to ``impute``: work shared with the sweep's other points.
    """
    spec = MaskSpec(ratio=ratio, seed=seed, protected_attrs=frozenset(protected))
    masked, truth = mask_random(table, spec, rules=ruleset.rules)
    start = time.perf_counter()
    run_ruleset = RuleSet.estimate(ruleset.rules, masked)
    imputed, report = impute(masked, run_ruleset, config, provider, memo=memo)
    elapsed = time.perf_counter() - start
    metrics = evaluate(truth, imputed)
    metrics.wall_time = elapsed
    metrics.phase_timings = dict(report.timings)
    return metrics


def sweep(
    table: Table,
    ruleset: RuleSet,
    config: RunConfig,
    provider: SearchProvider,
    ratios: Sequence[float],
    seeds: Sequence[int],
    protected: Iterable[str] = (),
) -> SweepResult:
    """The full (ratio x seed) grid, one grid point after another, sharing one memo."""
    protected = frozenset(protected)
    memo = SweepMemo(provider, config)
    rows = []
    for ratio in ratios:
        for seed in seeds:
            try:
                metrics = run_one(
                    table, ruleset, config, provider, ratio, seed, protected, memo
                )
                rows.append(SweepRow(ratio, seed, metrics))
            except MaskError as exc:  # recorded, sweep continues
                log.warning("sweep cell ratio=%g seed=%d failed: %s", ratio, seed, exc)
                rows.append(SweepRow(ratio, seed, None, error=str(exc)))
    return SweepResult(rows)
