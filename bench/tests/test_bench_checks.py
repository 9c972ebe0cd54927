"""The benchmark's inputs and correctness checks.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
from workloads import (
    Op,
    WORKLOADS,
    check,
    continuous_factor,
    digest,
    grid_count,
    integer_schemes,
    narrow_scan,
    output_bytes,
    scan_sample,
    verify_all,
)


def run_cli(argv, outdir, monkeypatch, capsys):
    from gaussfactor import cli

    monkeypatch.setenv("GAUSSFACTOR_OUTDIR", str(outdir))
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_default_seed_picks_the_roadmap_sizes():
    assert narrow_scan(0).n == 1001
    op = continuous_factor(0)
    assert op.n == 201
    assert op.items == 20001  # xi grid points of the 20001 x 1139 phase matrix
    assert op.argv[op.argv.index("--dm") + 1] == repr(201 / 2 ** 0.5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert WORKLOADS[name](7) == WORKLOADS[name](7)


def test_integer_batch_is_stratified():
    for seed in range(20):
        ops = integer_schemes(seed)
        big = sorted({op.n for op in ops if op.kind == "reciprocate"})
        assert len(big) == 24 and all(n % 2 == 1 for n in big)
        for i, n in enumerate(big):
            assert 100_000 + i * 37_500 <= n < 100_000 + (i + 1) * 37_500
        assert sum(op.kind == "lines" for op in ops) == 6
        nslit = [op.n for op in ops if op.kind == "nslit"]
        assert len(nslit) == 8 and all(31 <= n <= 201 and n % 2 for n in nslit)
    assert integer_schemes(1) != integer_schemes(2)


def test_digests_cover_the_default_seed():
    recorded = json.loads(bench.DIGESTS.read_text())
    for name, make in WORKLOADS.items():
        for op in make(0):
            assert (op.key in recorded) == (op.kind != "verify"), op.key


def test_scan_bytes_do_not_depend_on_workers(tmp_path, monkeypatch, capsys):
    op = narrow_scan(0)
    i = op.argv.index("--workers") + 1
    data = {}
    for workers in ("1", "2"):
        argv = op.argv[:i] + (workers,) + op.argv[i + 1:]
        outdir = tmp_path / workers
        rc, out = run_cli(argv, outdir, monkeypatch, capsys)
        assert rc == 0
        data[workers] = output_bytes(op, out, outdir)
    assert data["1"] == data["2"]
    assert json.loads(bench.DIGESTS.read_text())[op.key] == digest(data["2"])


def test_scan_check_catches_a_wrong_digit(tmp_path, monkeypatch, capsys):
    argv = ("scan", "--n", "33", "--dm", "4", "--xi-min", "2", "--xi-max", "32",
            "--step", "0.004", "--workers", "2", "--output", "s33.csv")
    op = Op(argv, "scan", n=33, items=grid_count(2.0, 32.0, 0.004), output="s33.csv")
    rc, out = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert check(op, rc, out, tmp_path) is None
    path = tmp_path / "s33.csv"
    lines = path.read_text().split("\n")
    row = next(i + 1 for i in scan_sample(op, op.items)
               if abs(float(lines[i + 1].split(",")[1])) > 0.1)
    xi, re, im, abs2 = lines[row].split(",")
    lines[row] = ",".join((xi, f"{float(re) * (1 + 1e-10):.12g}", im, abs2))
    path.write_text("\n".join(lines))
    assert "differs from reference" in check(op, rc, out, tmp_path)
    path.write_text("\n".join(lines[:-2] + [""]))
    assert "rows" in check(op, rc, out, tmp_path)


def test_report_checks_catch_wrong_answers(tmp_path):
    rec = Op(("factor",), "reciprocate", n=1911, l_max=43, items=43)
    cands = [{"l": l} for l in range(1, 44)]
    good = {"n": 1911, "candidates": cands, "factors": [3, 7, 13, 21, 39]}
    assert check(rec, 0, json.dumps(good), tmp_path) is None
    assert check(rec, 1, json.dumps(good), tmp_path) == "exit code 1"
    missing = dict(good, factors=[3, 7, 21, 39])
    assert "expected" in check(rec, 0, json.dumps(missing), tmp_path)
    trunc = Op(("factor",), "truncated", n=1911, l_max=43, items=42)
    wrong = {"n": 1911, "candidates": cands[1:], "factors": [3, 5]}
    assert "do not divide" in check(trunc, 0, json.dumps(wrong), tmp_path)
    ghost = Op(("ghost",), "ghost", n=1911, l_max=43, items=42)
    assert check(ghost, 0, json.dumps({"n": 1911, "ghosts": [5], "count": 1}), tmp_path) is None
    assert check(ghost, 0, json.dumps({"n": 1911, "ghosts": [7], "count": 1}), tmp_path)
    for ver in verify_all(0):
        suite = ver.argv[-1]
        line = f"{suite:14s} PASS  (0.10s)  ok"
        assert check(ver, 0, line, tmp_path) is None
        assert suite in check(ver, 0, line.replace("PASS", "FAIL"), tmp_path)
        assert suite in check(ver, 0, "", tmp_path)
    assert "unreadable" in check(rec, 0, "not json", tmp_path)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "integer_schemes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
