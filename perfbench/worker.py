"""One timed iteration of a workload, in a fresh interpreter.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py SPEC.json [--trace] [--perturb]

Loads the workload's files as a CLI invocation would (the set-up), makes
the one timed library call (``impute``, or ``sweep`` for the sweep
workload), and prints one JSON line: set-up and call times, the reference
kernel's times right before the set-up and right after the call (see
``reference.py``), peak RSS, the output digest, counts scored against ground truth and, with ``--trace``,
the spans and per-layer metrics.  ``--perturb`` corrupts one output value
before the digest, so tests can see the output check fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import webimpute.evalharness as evalharness
import webimpute.pipeline as pipeline
from webimpute.providers import LocalCorpusProvider
from webimpute.rules import RuleSet, parse_rules_file
from webimpute.tabular import MISSING, load_table, read_ground_truth, to_csv_text

import reference
from spans import TracedProvider, Tracer, install, layer_metrics


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)

    def traced(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    reference.measure(1)  # warm-up
    before = reference.measure()
    start = time.perf_counter()
    table = traced("tabular.load", load_table)(spec["table"])
    rules = traced("rules.parse", parse_rules_file)(spec["rules"])
    ruleset = RuleSet.estimate(rules, table)
    config = pipeline.RunConfig(**spec["config"])
    provider = traced("providers.init", LocalCorpusProvider.from_jsonl)(
        spec["corpus"], page_size=config.page_size
    )
    setup_s = time.perf_counter() - start
    if tracer is not None:
        provider = TracedProvider(provider, tracer)

    out: dict = {"setup_s": setup_s}
    if spec["kind"] == "impute":
        root_name = "pipeline.impute"
        call = traced(root_name, pipeline.impute)
        start = time.perf_counter()
        imputed, report = call(table, ruleset, config, provider)
        out["wall_s"] = time.perf_counter() - start
        out["reference"] = before + reference.measure()
        truth = read_ground_truth(spec["truth"])
        if args.perturb:
            first = truth[0]
            imputed = imputed.with_cell(first.row, first.attr, first.value + "~")
        filled = correct = 0
        for cell in truth:
            value = imputed.cell(cell.row, cell.attr)
            if value is not MISSING:
                filled += 1
                correct += value == cell.value
        out.update(
            masked=len(truth),
            filled=filled,
            correct=correct,
            internal_s=report.timings["internal_s"],
            digest=_digest(to_csv_text(imputed), report.to_json(include_timings=False)),
        )
    else:
        root_name = "evalharness.sweep"
        call = traced(root_name, evalharness.sweep)
        start = time.perf_counter()
        result = call(
            table, ruleset, config, provider, spec["ratios"], spec["seeds"],
            protected=spec["protected"],
        )
        out["wall_s"] = time.perf_counter() - start
        out["reference"] = before + reference.measure()
        metrics = [row.metrics for row in result.rows if row.metrics is not None]
        if args.perturb:
            metrics[0].correct -= 1
        out.update(
            masked=sum(m.masked for m in metrics),
            filled=sum(m.filled for m in metrics),
            correct=sum(m.correct for m in metrics),
            internal_s=sum(m.phase_timings["internal_s"] for m in metrics),
            errors=len(result.rows) - len(metrics),
            digest=_digest(result.to_csv(include_timing=False)),
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        (root,) = [s[0] for s in tracer.spans if s[4] is None and s[1] == root_name]
        out["layers"] = layer_metrics(tracer, root)
        out["spans"] = tracer.spans
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
