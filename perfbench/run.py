"""The webimpute benchmark: one workload, timed end to end or traced.

Run from the root of a checkout (no install needed; ``src`` is put on the
path of each iteration's interpreter)::

    python3 perfbench/run.py --workload univ-impute --seed 7 --seconds 30 --trace 0

The inputs are generated from ``--seed`` and written once under
``.perfbench_work/<workload>``.  Iterations run one at a time (a closed
loop with a single client), each in a fresh interpreter, so no provider,
cache or module state survives from one to the next.  New iterations start
while the next one is expected to end within ``--seconds``; at least three
always run.

With ``--trace 0`` every iteration is untraced and the end-to-end metrics
are reported.  The times among them are normalised to the host's speed:
each iteration's set-up and call times are multiplied by
``reference.NOMINAL_S`` over the mean repetition time of the reference
kernel, timed in the same worker process around them, and the run reports
the median over iterations (``norm_wall_s``, ``setup_s``; ``norm_cells_per_s``
is masked cells over ``norm_wall_s``).  A slower program raises them in
full; a host slowed by other tenants slows the kernel alike and cancels.
The raw wall times are printed next to them.

With ``--trace 1`` traced and untraced iterations alternate (traced
first); the per-layer metrics are medians over the traced ones, the tracing
overhead compares the two kinds at nominal host speed, and the spans are
written to ``.perfbench_work/<workload>/spans.jsonl``.

Every iteration's output digest must equal every other's and, at the
default seed, the digest recorded in ``perfbench/baseline.json`` from the
seed commit.  A traced run also checks that tracing changed no output, that
the traced internal pass agrees with the report's own timing, and that every
count repeats exactly.  Any failure is counted, makes ``correct`` false and
the exit code 1.  Exit code 2 means the benchmark could not start.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("univ-impute", "univ-sweep", "roster-internal", "rule-chain")
MIN_ITERATIONS = 3
RUN_LIMIT_S = 150.0  # no new iteration starts past this, so a run ends well within 180 s
INTERNAL_TOLERANCE = (0.05, 0.005)  # relative, absolute (s)

# The layer each workload was built to stress.  The traced run prints the
# measured dominant layer next to it rather than trusting the prediction.
PREDICTED_DOMINANT = {
    "univ-impute": "providers",
    "univ-sweep": "providers",
    "roster-internal": "bayes",
    "rule-chain": "keywords",
}

E2E_UNITS = {
    "norm_wall_s": "s",
    "norm_cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fill_ratio": "ratio",
    "accuracy": "ratio",
}


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_p95")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "ratio"
    return "count"


def _host_scale(result: dict) -> float:
    """Factor that turns an iteration's times into times at nominal host speed."""
    return reference.NOMINAL_S / statistics.fmean(result["reference"])


def _reference_ms(results: list[dict]) -> float:
    """Median over iterations of the reference kernel's mean repetition time."""
    return statistics.median(statistics.fmean(r["reference"]) for r in results) * 1e3


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _run_iteration(spec_path: Path, traced: bool, perturb: bool, timeout: float) -> dict:
    """One worker process; ``{"error": ...}`` if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
    if traced:
        cmd.append("--trace")
    if perturb:
        cmd.append("--perturb")
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _iterate(spec_path: Path, trace: bool, seconds: float, perturb: bool) -> list[dict]:
    results: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_ITERATIONS:
            expected = statistics.median(durations)
            if elapsed + expected > min(seconds, RUN_LIMIT_S):
                break
        index = len(results)
        traced = trace and index % 2 == 0
        t = time.perf_counter()
        result = _run_iteration(
            spec_path, traced, perturb and index == 1, max(30.0, 170.0 - elapsed)
        )
        durations.append(time.perf_counter() - t)
        result.update(iteration=index, traced=traced)
        results.append(result)
    return results


def _check_outputs(results: list[dict], recorded: str | None) -> tuple[set[int], str]:
    """Iterations whose digest is wrong, and a one-line verdict."""
    digests = [r["digest"] for r in results if "digest" in r]
    if not digests:
        return set(), "no iteration produced output"
    reference = recorded or Counter(digests).most_common(1)[0][0]
    bad = {r["iteration"] for r in results if "digest" in r and r["digest"] != reference}
    source = "the recorded seed-commit digest" if recorded else "the common digest"
    if bad:
        return bad, f"FAILED: iterations {sorted(bad)} differ from {source}"
    return bad, f"ok: {len(digests)} digests equal {source}"


def _trace_checks(traced: list[dict]) -> tuple[set[int], list[str]]:
    """Self-checks of a traced run: internal-pass timing and repeatable counts."""
    bad: set[int] = set()
    notes = []
    rel, absolute = INTERNAL_TOLERANCE
    for r in traced:
        span, report = r["layers"]["bayes.internal_s"], r["internal_s"]
        if abs(span - report) > rel * report + absolute:
            bad.add(r["iteration"])
            notes.append(
                f"FAILED: iteration {r['iteration']}: bayes.internal_s {span:.4f} s "
                f"vs report internal_s {report:.4f} s"
            )
    first = traced[0]["layers"]
    for r in traced[1:]:
        differing = [
            name for name, value in r["layers"].items()
            if _layer_unit(name) == "count" and value != first[name]
        ]
        if differing:
            bad.add(r["iteration"])
            notes.append(f"FAILED: iteration {r['iteration']}: counts differ: {differing}")
    if not bad:
        notes.append(
            f"ok: internal-pass span within tolerance of the report on "
            f"{len(traced)} traced iterations; counts repeat exactly"
        )
    return bad, notes


def _write_spans(path: Path, traced: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for r in traced:
            for span_id, name, start, end, parent, thread in r["spans"]:
                fh.write(json.dumps({
                    "iteration": r["iteration"], "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent, "thread": thread,
                }) + "\n")


def _end_to_end(ok: list[dict], fill_ratio: float, accuracy: float) -> dict:
    walls = [r["wall_s"] * _host_scale(r) for r in ok]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    raw = [r["wall_s"] for r in ok]
    raw_q1, raw_q3 = _quartiles(raw)
    ref_ms = _reference_ms(ok)
    values = {
        "norm_wall_s": wall,
        "norm_cells_per_s": ok[0]["masked"] / wall,
        "setup_s": statistics.median(r["setup_s"] * _host_scale(r) for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "fill_ratio": fill_ratio,
        "accuracy": accuracy,
    }
    print(f"  norm_wall_s       {wall:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})")
    print(f"  raw wall          {statistics.median(raw):.4f} s "
          f"(q1 {raw_q1:.4f}, q3 {raw_q3:.4f}); reference kernel {ref_ms:.3f} ms "
          f"per repetition, nominal {reference.NOMINAL_S * 1e3:.3f} ms")
    print(f"  norm_cells_per_s  {values['norm_cells_per_s']:.2f} cells/s "
          f"({ok[0]['masked']} masked cells per iteration)")
    print(f"  setup_s           {values['setup_s']:.5f} s (raw "
          f"{statistics.median(r['setup_s'] for r in ok):.5f} s)")
    print(f"  peak_rss_mb       {values['peak_rss_mb']:.1f} MiB")
    print(f"  fill_ratio        {fill_ratio:.6f}")
    print(f"  accuracy          {accuracy:.6f}")
    return {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in values.items()}


def _per_layer(workload: str, ok: list[dict], workdir: Path, failed: set[int]) -> dict:
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    if len(traced) < 2 or not untraced:
        print("trace checks: FAILED: need two traced and one untraced iteration")
        return {}
    bad, notes = _trace_checks(traced)
    failed |= bad
    for note in notes:
        print(f"trace checks: {note}")
    _write_spans(workdir / "spans.jsonl", traced)
    names = list(traced[0]["layers"])
    values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] * _host_scale(r) for r in traced)
        / statistics.median(r["wall_s"] * _host_scale(r) for r in untraced)
        - 1.0
    )
    values["host.reference_ms"] = _reference_ms(ok)

    shares = {n.split(".")[0]: values[n] for n in names if n.endswith(".share")}
    print("layer self-time share inside the timed call:")
    for layer, share in shares.items():
        print(f"  {layer:<12} {share:7.1%}")
    dominant = max(shares, key=shares.get)
    print(f"dominant layer: {dominant} {shares[dominant]:.1%} "
          f"(predicted {PREDICTED_DOMINANT[workload]})")
    print(f"tracing overhead: traced wall {traced_wall:.4f} s vs untraced "
          f"{untraced_wall:.4f} s; at nominal host speed "
          f"{values['trace.overhead_frac']:+.1%}")
    return {n: {"value": v, "unit": _layer_unit(n)} for n, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="webimpute benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt the second iteration's output (smoke test)")
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "webimpute" / "__init__.py").is_file():
        print("perfbench: run from a webimpute checkout (src/webimpute not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    from workloads import generate  # needs webimpute on the path

    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    recorded = None
    if args.seed == baseline["default_seed"]:
        recorded = baseline["recorded"][args.size][args.workload]

    workdir = Path(".perfbench_work") / args.workload
    generate(args.workload, args.seed, args.size, workdir)
    results = _iterate(workdir / "spec.json", bool(args.trace), args.seconds, args.perturb)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"iterations {len(results)}  trace {args.trace}")

    failed = {r["iteration"] for r in results if "error" in r}
    for r in results:
        if "error" in r:
            print(f"iteration {r['iteration']} failed: {r['error']}")
        elif r.get("errors"):
            failed.add(r["iteration"])
            print(f"iteration {r['iteration']}: {r['errors']} sweep grid points failed")
    bad, verdict = _check_outputs(results, recorded["digest"] if recorded else None)
    failed |= bad
    print(f"output check: {verdict}")

    ok = [r for r in results if "digest" in r]
    metrics: dict = {}
    if ok:
        first = ok[0]
        fill_ratio = first["filled"] / first["masked"]
        accuracy = first["correct"] / first["filled"] if first["filled"] else 0.0
        if recorded and (fill_ratio, accuracy) != (
            recorded["fill_ratio"], recorded["accuracy"]
        ):
            failed.add(first["iteration"])
            print("output check: FAILED: fill_ratio/accuracy differ from the recorded values")
        if args.trace:
            metrics = _per_layer(args.workload, ok, workdir, failed)
        else:
            metrics = _end_to_end(ok, fill_ratio, accuracy)
    print(f"  error_rate   {len(failed) / len(results):.6f} "
          f"({len(failed)} failed of {len(results)} attempted)")

    correct = not failed and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
