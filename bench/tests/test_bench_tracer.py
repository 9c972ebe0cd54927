"""Tracer self-test: coverage of the per-layer metrics, exact self-time
attribution, thread parenting, and byte-identical traced outputs.

Run from the repository root: python3 -m pytest bench/tests  (about 2 minutes,
most of it the traced verify_all pass).
"""

import math

import numpy as np
import pytest

import run as bench
from tracer import Tracer
from workloads import SUITES, WORKLOADS, continuous_factor, narrow_scan

# per-layer metrics that must record work on the workload the mapping names
MAPPING = {
    "continuous_kernel": [
        "gausssums.continuous_sum_grid.calls",
        "gausssums.continuous_sum_grid.self_s",
        "gausssums.continuous_sum_grid.phasors",
        "gausssums.continuous_sum_grid.bytes_computed",
        "gausssums.phasors_per_s",
        "factorizer.envelope_background.calls",
        "factorizer.envelope_background.self_s",
        "factorizer.candidates",
        "cli.self_s",
        "cli.emit_bytes",
        "process.cpu_s",
        "process.cpu_per_wall",
    ],
    "integer_schemes": [
        "gausssums.integer.calls",
        "gausssums.integer.self_s",
        "gausssums.integer.phasors",
        "closedform.calls",
        "numtheory.calls",
        "nslit.calls",
        "factorizer.candidates",
        "factorizer.verified",
        "factorizer.useful_ratio",
    ],
    "verify_all": [
        "gausssums.ring_gauss.calls",
        "gausssums.ring_gauss.self_s",
        "gausssums.wtilde_b_sweep.calls",
        "gausssums.wtilde_b_sweep.self_s",
        "decomposition.calls",
        "verify.calls",
        *[f"verify.{s}_s" for s in SUITES],
    ],
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One untraced and one traced pass of every workload at seed 0."""
    out = {}
    for name in WORKLOADS:
        tmp = tmp_path_factory.mktemp(name)
        metrics, passes, ops = bench.run_workload(name, 0, 0.0, True, tmp, {})
        out[name] = (metrics, passes, ops)
    return out


@pytest.mark.parametrize("workload", sorted(MAPPING))
def test_mapped_metrics_record_work(traced_runs, workload):
    metrics, passes, _ = traced_runs[workload]
    assert all(not p.failures for p in passes)
    for name in MAPPING[workload]:
        assert metrics[name] > 0, name
    for layer in ("cli", "factorizer", "gausssums") if workload != "verify_all" else ("verify",):
        assert metrics[f"{layer}.calls"] > 0


def test_every_per_layer_metric_is_reported(traced_runs):
    names = [m["name"] for m in bench.load_spec()["per_layer"]]
    for metrics, _, _ in traced_runs.values():
        assert set(names) <= set(metrics)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_and_unattributed_sum_to_wall(traced_runs, workload):
    _, passes, _ = traced_runs[workload]
    for p in passes:
        if p.traced:
            m = bench.layer_metrics(p)
            layers = sum(m[f"{layer}.self_s"] for layer in bench.LAYERS)
            assert math.isclose(layers + m["trace.unattributed_s"], m["trace.wall_s"],
                                rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(layers, m["trace.self_sum_s"], rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_outputs_are_byte_identical(traced_runs, workload):
    _, passes, ops = traced_runs[workload]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    assert plain and traced
    assert traced[0].digests == plain[0].digests
    if workload != "verify_all":  # verify prints its own timings; check() saw every PASS
        assert traced[0].emit_bytes == plain[0].emit_bytes
        assert all(d is not None for d in plain[0].digests)


def test_mapping_shares_at_this_commit(traced_runs, tmp_path):
    # the two operations of continuous_kernel, each traced on its own
    cont, _ = bench.run_ops([continuous_factor(0)], 0.0, True, tmp_path / "cont", {})
    assert cont["gausssums.continuous_sum_grid.self_s"] > 0.8 * cont["trace.wall_s"]
    scan, _ = bench.run_ops([narrow_scan(0)], 0.0, True, tmp_path / "scan", {})
    assert scan["cli.self_s"] > 0.25 * scan["trace.wall_s"]
    assert traced_runs["integer_schemes"][0]["gausssums.continuous_sum_grid.calls"] == 0
    ver = traced_runs["verify_all"][0]
    assert ver["verify.ring_s"] + ver["verify.wtilde_s"] > 0.8 * ver["trace.wall_s"]


def test_patches_every_name_callers_look_up():
    from gaussfactor import cli, closedform, decomposition, factorizer, gausssums, verify

    looked_up = {
        factorizer: ("continuous_sum_grid", "reciprocate_complete", "reciprocate_truncated",
                     "discrete_sum", "predict_discrete_modulus2", "predict_reciprocate_modulus"),
        closedform: ("residue_class", "jacobi_symbol", "standard_gauss"),
        decomposition: ("finite_w",),
        gausssums: ("is_prime", "primitive_root"),
        cli: ("reciprocate_complete", "monte_carlo_sum", "main", "run"),
        verify: ("is_prime",),
    }
    originals = {(m, a): getattr(m, a) for m, names in looked_up.items() for a in names}
    suites = dict(verify.SUITES)
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn and getattr(mod, attr).__wrapped__ is fn, attr
        assert all(verify.SUITES[k].__wrapped__ is v for k, v in suites.items())
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())
    assert verify.SUITES == suites


def test_worker_threads_are_parented_to_scan_series():
    from gaussfactor import factorizer
    from gaussfactor.gausssums import ContinuousSpec, WeightProfile

    tracer = Tracer()
    tracer.install()
    try:
        series = factorizer.scan_series(ContinuousSpec(1.0, 33.0), WeightProfile(4.0, 16),
                                        2.0, 32.0, 0.004, n_label=33, workers=2)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert stats["gausssums.continuous_sum_grid"][0] == 2
    assert tracer.counters["gausssums.continuous_sum_grid.phasors"] == len(series.xis) * 33
    # one root span; its subtree's self times add up to it exactly
    assert stats["factorizer.scan_series"][0] == 1
    total = sum(r[1] for r in stats.values())
    assert math.isclose(total, tracer.root_s, rel_tol=1e-9)
    assert math.isclose(tracer.root_s, stats["factorizer.scan_series"][2], rel_tol=1e-12)
    assert 0 < stats["gausssums.continuous_sum_grid"][1] <= tracer.root_s
    assert np.all(np.isfinite(series.values))
