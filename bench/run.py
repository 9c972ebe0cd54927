"""gaussfactor benchmark runner.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, default seed

One client in a closed loop: each pass is a fresh child process
(bench/passrun.py) that calls gaussfactor.cli.main(argv) in-process for
every operation of the workload, one after another.  An untimed set-up
probe warms the file cache first.  Passes repeat until --seconds have gone
by and at least two have run; with --trace 0, set-up probe processes then
top the passes' own set-up times up to nine samples.
The runner checks every output after its pass, off the clock, and prints
the metrics named in BENCHMARK.json: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The package is run from `src/` through PYTHONPATH; nothing is installed.
See bench/README.md for metric definitions and the layer-to-workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import INTEGER_SUMS, LAYERS  # noqa: E402  (names only; no patching here)
from workloads import SUITES, WORKLOADS, Op, check, digest, output_bytes  # noqa: E402

MIN_PASSES = 2  # timed passes per run, so no metric rests on one pass
SETUP_PROBES = 9  # set-up samples per run, passes included
RUN_LIMIT_S = 170.0  # a run kills its pass and ends within 180 s
DIGESTS = BENCH / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


@dataclass
class Pass:
    traced: bool
    result: dict | None = None  # passrun.py's result; None when the pass died
    failures: list[str] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    emit_bytes: int = 0


def child_env(outdir: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["GAUSSFACTOR_OUTDIR"] = str(outdir)
    return env


def spawn(workdir: Path, ops: list[Op], traced: bool, deadline: float) -> dict | None:
    """Run one pass process; return its result, or None if it failed or timed out."""
    workdir.mkdir(parents=True)
    spec = {
        "ops": [list(op.argv) for op in ops],
        "trace": traced,
        "stdout_dir": str(workdir / "stdout"),
        "result": str(workdir / "result.json"),
    }
    (workdir / "spec.json").write_text(json.dumps(spec))
    with open(workdir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "passrun.py"), str(workdir / "spec.json"), repr(t_spawn)],
            cwd=ROOT, env=child_env(workdir / "out"),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    if rc != 0:
        return None
    return json.loads((workdir / "result.json").read_text())


def run_pass(workdir: Path, ops: list[Op], traced: bool, deadline: float,
             expected: dict[str, str]) -> Pass:
    p = Pass(traced, spawn(workdir, ops, traced, deadline))
    if p.result is None:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-500:]
        p.failures = [f"pass process failed: {tail}"] * len(ops)
        return p
    outdir = workdir / "out"
    for i, (op, res) in enumerate(zip(ops, p.result["ops"])):
        stdout = (workdir / "stdout" / f"{i}.txt").read_text()
        why = res["error"] or check(op, res["rc"], stdout, outdir)
        d = None
        if why is None:
            data = output_bytes(op, stdout, outdir)
            p.emit_bytes += len(data)
            if op.kind != "verify":  # verify prints its own timings
                d = digest(data)
                if expected.setdefault(op.key, d) != d:
                    why = "output bytes differ from the recorded digest"
        p.digests.append(d)
        if why is not None:
            p.failures.append(f"{op.key}: {why}")
    return p


def end_to_end(ops: list[Op], setups: list[float], passes: list[Pass]) -> dict:
    """Pass time is the median set-up plus each operation's fastest latency
    over the run's passes.  On a shared host, contention only ever adds
    time, in bursts of seconds; the fastest of an operation's runs is the
    estimate of its own cost that those bursts move least."""
    ok = [p.result for p in passes if p.result is not None and not p.traced]
    if not ok:
        raise BenchError("no pass completed")
    setup = median(setups)
    wall = setup + sum(min(r["ops"][i]["latency_s"] for r in ok) for i in range(len(ops)))
    return {
        "setup_s": setup,
        "wall_s": wall,
        "items_per_s": sum(op.items for op in ops) / wall,
        "peak_rss_mb": median(r["maxrss_kb"] / 1024 for r in ok),
    }


def layer_metrics(p: Pass) -> dict:
    res = p.result
    tr = res["trace"]
    stats, ctr = tr["stats"], tr["counters"]

    def rec(name):
        return stats.get(name, [0, 0.0, 0.0])

    m = {}
    for layer in LAYERS:
        recs = [v for k, v in stats.items() if k.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(r[0] for r in recs)
        m[f"{layer}.self_s"] = sum(r[1] for r in recs)
    grid = rec("gausssums.continuous_sum_grid")
    phasors = ctr.get("gausssums.continuous_sum_grid.phasors", 0.0)
    m["gausssums.continuous_sum_grid.calls"] = grid[0]
    m["gausssums.continuous_sum_grid.self_s"] = grid[1]
    m["gausssums.continuous_sum_grid.phasors"] = phasors
    m["gausssums.continuous_sum_grid.bytes_computed"] = ctr.get(
        "gausssums.continuous_sum_grid.bytes_computed", 0.0)
    m["gausssums.phasors_per_s"] = phasors / grid[1] if grid[1] > 0 else 0.0
    m["gausssums.integer.calls"] = ctr.get("gausssums.integer.calls", 0.0)
    m["gausssums.integer.self_s"] = sum(rec(n)[1] for n in INTEGER_SUMS)
    m["gausssums.integer.phasors"] = ctr.get("gausssums.integer.phasors", 0.0)
    for fn in ("ring_gauss", "wtilde_b_sweep"):
        m[f"gausssums.{fn}.calls"] = rec(f"gausssums.{fn}")[0]
        m[f"gausssums.{fn}.self_s"] = rec(f"gausssums.{fn}")[1]
    cands = ctr.get("factorizer.candidates", 0.0)
    m["factorizer.candidates"] = cands
    m["factorizer.verified"] = ctr.get("factorizer.verified", 0.0)
    m["factorizer.useful_ratio"] = m["factorizer.verified"] / cands if cands else 0.0
    m["factorizer.envelope_background.calls"] = rec("factorizer.envelope_background")[0]
    m["factorizer.envelope_background.self_s"] = rec("factorizer.envelope_background")[1]
    for suite in SUITES:
        m[f"verify.{suite}_s"] = rec(f"verify.check_{suite}")[2]
    m["cli.emit_bytes"] = p.emit_bytes
    m["trace.wall_s"] = res["wall_s"]
    m["trace.unattributed_s"] = res["wall_s"] - tr["root_s"]
    m["trace.self_sum_s"] = sum(r[1] for r in stats.values())
    return m


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced and p.result is not None]
    plain = [p.result for p in passes if not p.traced and p.result is not None]
    if not traced or not plain:
        raise BenchError("a traced run needs a completed traced and untraced pass")
    each = [layer_metrics(p) for p in traced]
    m = {k: median(d[k] for d in each) for k in each[0]}
    m["process.cpu_s"] = median(r["cpu_s"] for r in plain)
    m["process.cpu_per_wall"] = median(r["cpu_s"] / r["wall_s"] for r in plain)
    m["trace.overhead_s"] = m["trace.wall_s"] - median(r["wall_s"] for r in plain)
    return m


def probe(workdir: Path, deadline: float) -> float:
    """Set-up time of one pass process that runs no operation."""
    res = spawn(workdir, [], False, deadline)
    if res is None:
        raise BenchError("set-up probe failed: is src/gaussfactor importable?")
    return res["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path,
                 expected: dict[str, str]) -> tuple[dict, list[Pass], list[Op]]:
    ops = WORKLOADS[name](seed)
    return (*run_ops(ops, seconds, trace, tmp, expected), ops)


def run_ops(ops: list[Op], seconds: float, trace: bool, tmp: Path,
            expected: dict[str, str]) -> tuple[dict, list[Pass]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    probe(tmp / "warmup", deadline)
    start = time.monotonic()
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        workdir = tmp / f"pass{len(passes)}"
        p = run_pass(workdir, ops, traced, deadline, expected)
        shutil.rmtree(workdir)
        passes.append(p)
        if p.result is None:
            break
        enough = len(passes) >= MIN_PASSES
        now = time.monotonic()
        if enough and now - start >= seconds:
            break
        if now + 1.5 * p.result["wall_s"] > deadline:  # the next pass might be killed
            break
    if trace:
        return per_layer(passes), passes
    setups = [p.result["setup_s"] for p in passes if p.result is not None]
    while len(setups) < SETUP_PROBES:
        setups.append(probe(tmp / f"probe{len(setups)}", deadline))
    return end_to_end(ops, setups, passes), passes


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests-out", type=Path, default=None,
                    help="write the output digests of this run's operations to a JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gaussfactor" / "cli.py").is_file():
        print(f"error: no gaussfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    expected = json.loads(DIGESTS.read_text())
    recorded: dict[str, str] = {}

    run_root = ROOT / ".bench_run"
    run_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run_root))
    attempted = failed = 0
    out_metrics = {}
    try:
        for name in names:
            metrics, passes, ops = run_workload(
                name, args.seed, seconds, bool(args.trace), tmp / name, expected)
            attempted += len(ops) * len(passes)
            n_failed = sum(len(p.failures) for p in passes)
            failed += n_failed
            for p in passes:
                for f in p.failures[:3]:
                    print(f"FAIL {name}: {f}", file=sys.stderr)
            first = passes[0]
            recorded.update({op.key: d for op, d in zip(ops, first.digests) if d is not None})
            print(f"{name}: seed {args.seed}, {len(passes)} passes, {len(ops)} ops per pass, "
                  f"error_rate {n_failed / (len(ops) * len(passes)):.4g}")
            for m in wanted:
                if m["name"] not in metrics:
                    raise BenchError(f"metric {m['name']} was not measured")
                value = metrics[m["name"]]
                print(f"  {m['name']:46s} {value:>16.6g} {m['unit']}")
                key = m["name"] if len(names) == 1 else f"{name}/{m['name']}"
                out_metrics[key] = {"value": value, "unit": m["unit"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run_root.rmdir()
        except OSError:
            pass
    if args.digests_out is not None:
        args.digests_out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
