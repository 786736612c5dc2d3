"""Run the benchmark once per seed and report each metric's median and spread.

Run from the checkout root::

    python3 perfbench/spread.py --workloads univ-impute rule-chain --seeds 1-10

Each run is ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
with ``S`` from ``BENCHMARK.json``.  For every end-to-end metric it prints
the median of the runs and their spread, (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound.  ``--out FILE`` also writes the runs and the summary as JSON.  The
exit code is 1 if a run failed or was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    runs: dict[str, list] = {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
            values = {n: m["value"] for n, m in result.get("metrics", {}).items()}
            runs[workload].append({"seed": seed, "metrics": values})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n} {v:.6g}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs[workload] if name in r["metrics"]]
            if len(values) < 2:
                continue
            summary[workload][name] = s = summarise(values)
            print(f"  {workload:<16} {name:<17} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}")
    if args.out:
        args.out.write_text(
            json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
