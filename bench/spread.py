"""Run-to-run spread of the benchmark over seeds.

Usage (from the repository root):
    python3 bench/spread.py [--workload NAME ...] [--runs 10] [--out FILE]

Runs bench/run.py with --trace 0 once per seed 1..runs for each workload,
with the run length of BENCHMARK.json, and prints for each end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread: (Q3 - Q1) / median, compared with the metric's bound: "ok"
below a third of it, "WIDE" above the bound.  --out writes all of it as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [one_run(workload, seed, spec["run_seconds"])
                for seed in range(1, args.runs + 1)]
        rows = {}
        for name in runs[0]["metrics"]:
            rows[name] = summarize([r["metrics"][name]["value"] for r in runs])
            rows[name]["unit"] = runs[0]["metrics"][name]["unit"]
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": rows,
        }
        print(f"{workload}: {args.runs} runs, correct={report[workload]['correct']}, "
              f"failed {report[workload]['failed']}/{report[workload]['attempted']}")
        for name, row in rows.items():
            bound = bounds[name]
            verdict = ("ok" if row["spread"] < bound / 3
                       else "WIDE" if row["spread"] > bound else "within bound")
            print(f"  {name:46s} median {row['median']:<14.6g} q1 {row['q1']:<14.6g} "
                  f"q3 {row['q3']:<14.6g} spread {row['spread']:.4f} {row['unit']} {verdict}")
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
