import functools
import hashlib
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from gaussfactor import cli
from gaussfactor import factorizer as fz
from gaussfactor import gausssums as gs
from gaussfactor import nslit
from gaussfactor.decomposition import recommend_weight_width
from gaussfactor.factorizer import Classification
from factor_reports import report_of

W10 = gs.WeightProfile(10.0, 40)
W8 = gs.WeightProfile(8.0, 32)


def broad(n: int) -> gs.WeightProfile:
    return gs.WeightProfile.for_width(recommend_weight_width(n, 2.0))


def factor_series(n: int, w: gs.WeightProfile, step: float) -> fz.ScanSeries:
    """N's factor scan gathered whole: the grid the continuous schemes read."""
    return fz.scan_series(gs.ContinuousSpec(1.0, float(n)), w, *fz._scan_range(n), step,
                          n_label=n)


def flagged_of(report):
    return [c.l for c in report.candidates if c.classification is not Classification.NONFACTOR]


def proper_divisors(n: int) -> list[int]:
    return [d for d in range(2, n) if n % d == 0]


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every thread pool the factorizer opens."""
    sizes = []

    class RecordingPool(fz.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(fz, "ThreadPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture(autouse=True)
def no_cgroup_quota(monkeypatch, tmp_path):
    """Point the cgroup reader at a file that does not exist, so no test
    here reads this host's CPU quota."""
    monkeypatch.setattr(fz, "_PROC_CGROUP", tmp_path / "no-such-cgroup")


def set_usable_cpus(monkeypatch, cpus: int) -> None:
    """Let this process run on `cpus` CPUs of a 64-CPU host."""
    monkeypatch.setattr(fz.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(fz.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def fake_cgroup(monkeypatch, tmp_path, membership: str, files: dict[str, str]) -> None:
    """Give this process the /proc/self/cgroup text `membership`, and a
    cgroup mount under tmp_path that holds `files` (relative path: text)."""
    root = tmp_path / "cgroup"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    (tmp_path / "proc-cgroup").write_text(membership)
    monkeypatch.setattr(fz, "_PROC_CGROUP", tmp_path / "proc-cgroup")
    monkeypatch.setattr(fz, "_CGROUP_ROOT", root)


class TestScanSeries:
    def test_grid_and_validation(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        s = fz.scan_series(spec, W10, 2.0, 3.0, 0.25, n_label=33)
        assert np.allclose(s.xis, [2.0, 2.25, 2.5, 2.75, 3.0])
        with pytest.raises(ValueError):
            fz.ScanSeries(0.0, s.xis, s.values, 33)
        with pytest.raises(ValueError):
            fz.ScanSeries(1.0, s.xis[::-1], s.values, 33)

    def test_worker_count_does_not_change_bytes(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        a = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=1)
        b = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=4)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.xis.tobytes() == b.xis.tobytes()

    @pytest.mark.parametrize("cpus", [3, None])
    def test_pool_capped_at_cpu_count(self, cpus, monkeypatch, pool_sizes):
        # without an affinity call the host's CPU count is the cap
        monkeypatch.delattr(fz.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fz.os, "cpu_count", lambda: cpus)
        spec = gs.ContinuousSpec(1.0, 33.0)
        a = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=1_000_000)
        b = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=1)
        assert pool_sizes == [cpus or 1, 1]
        assert a.values.tobytes() == b.values.tobytes()

    def test_default_workers_one_per_cpu(self, monkeypatch, pool_sizes):
        set_usable_cpus(monkeypatch, 4)
        spec = gs.ContinuousSpec(1.0, 33.0)
        a = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33)
        b = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=1)
        assert pool_sizes == [4, 1]
        assert a.values.tobytes() == b.values.tobytes()

    def test_pool_sized_by_cpu_affinity(self, monkeypatch, pool_sizes):
        # a process allowed 2 of 64 CPUs opens 2 threads, by default and
        # when asked for more, so threads and their working blocks do not
        # grow with the host's core count
        set_usable_cpus(monkeypatch, 2)
        spec = gs.ContinuousSpec(1.0, 33.0)
        fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33)
        fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=64)
        assert pool_sizes == [2, 2]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            fz.scan_series(gs.ContinuousSpec(1.0, 33.0), W10, 2.0, 3.0, 0.5, 33, workers=workers)

    @pytest.mark.parametrize(
        "xi_min, xi_max, step",
        [(0.0, 3.0, 0.0), (0.0, 3.0, -0.5), (3.0, 0.0, 0.5), (0.0, math.inf, 0.5),
         (0.0, 3.0, math.nan)],
    )
    def test_uniform_grid_rejects_bad_input(self, xi_min, xi_max, step):
        with pytest.raises(ValueError):
            fz.uniform_grid(xi_min, xi_max, step)

    @pytest.mark.parametrize("xi_min, xi_max, step", [
        (1e18, 1.000000000000001e18, 1.0), (1e18, 1e18 + 1e6, 100.0),
        (-1e18, -1e18 + 1e6, 64.0), (1.0, 1.0 + 1e-14, 1e-17),
        # past 2^53 a step of 1 rounds two points together: the first
        # repeat at index 100,000 (a later block), and the only repeat of a
        # grid at the first block boundary (indices 32767 and 32768 both 2^53)
        (9007199254640992.0, 9007199254840992.0, 1.0),
        (2.0**53 - fz._SCAN_BLOCK_ROWS + 1, 2.0**53 + 2, 1.0)])
    def test_uniform_grid_rejects_repeated_points(self, xi_min, xi_max, step):
        # neighbouring points round to the same float
        with pytest.raises(ValueError, match="xi grid must be strictly increasing"):
            fz.uniform_grid(xi_min, xi_max, step)

    def test_grid_past_the_address_space_refused_at_once(self):
        with pytest.raises(MemoryError):
            fz.uniform_grid(0.0, 1e15, 1.0)


class TestScanBlocks:
    SPEC = gs.ContinuousSpec(1.0, 1001.0)
    W4 = gs.WeightProfile(4.0, 16)
    EVALUATE = staticmethod(functools.partial(gs.continuous_sum_grid, spec=SPEC, w=W4))

    @pytest.mark.parametrize("count", [1, 255, 256, fz._SCAN_BLOCK_ROWS - 1,
                                       fz._SCAN_BLOCK_ROWS, 2 * fz._SCAN_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_blocks_in_grid_order_with_the_whole_call_bits(self, count, workers, monkeypatch):
        set_usable_cpus(monkeypatch, 4)
        grid = fz.uniform_grid(2.0, 2.0 + 0.004 * (count - 1), 0.004)
        assert grid.count == count
        xis = grid.points()
        blocks = list(fz.scan_blocks(self.EVALUATE, grid, workers))
        # each run of _SCAN_BLOCK_ROWS points, in one part per pool thread
        runs = [min(fz._SCAN_BLOCK_ROWS, count - start)
                for start in range(0, count, fz._SCAN_BLOCK_ROWS)]
        assert [len(x) for x, _ in blocks] == [
            len(part) for run in runs for part in np.array_split(np.empty(run), min(workers, run))]
        assert np.concatenate([x for x, _ in blocks]).tobytes() == xis.tobytes()
        whole = gs.continuous_sum_grid(xis, self.SPEC, self.W4)
        assert np.concatenate([v for _, v in blocks]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("count", [256, 1000, fz._SCAN_BLOCK_ROWS + 2])
    def test_pattern_blocks_over_unequal_parts_have_the_whole_call_bits(self, count,
                                                                         monkeypatch):
        set_usable_cpus(monkeypatch, 4)
        grid = fz.uniform_grid(-1.5, -1.5 + 0.0037 * (count - 1), 0.0037)
        evaluate = functools.partial(nslit.green_sum, cfg=nslit.NSlitConfig(15, 3))
        blocks = list(fz.scan_blocks(evaluate, grid, workers=3))
        assert len({len(x) for x, _ in blocks}) > 1  # parts of unequal length
        whole = nslit.green_sum(grid.points(), nslit.NSlitConfig(15, 3))
        assert np.concatenate([v for _, v in blocks]).tobytes() == whole.tobytes()

    def test_a_run_allocates_its_points_and_values_once(self, monkeypatch):
        # each thread's values are yielded as they were made; joining them
        # into one block allocated them twice, 40 bytes a point, not 24
        set_usable_cpus(monkeypatch, 4)
        grid = fz.uniform_grid(2.0, 2.0 + 0.004 * (fz._SCAN_BLOCK_ROWS - 1), 0.004)
        tracemalloc.start()
        try:
            blocks = list(fz.scan_blocks(lambda x: x.astype(complex), grid, workers=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(x) for x, _ in blocks] == [10923, 10923, 10922]
        assert all(np.array_equal(x, v) for x, v in blocks)
        assert peak <= 24 * grid.count + 64 * 1024  # and a thread pool's small objects

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_block_outlives_its_yield(self, workers):
        grid = fz.uniform_grid(2.0, 300.0, 0.004)
        blocks = fz.scan_blocks(np.square, grid, workers)
        for xis, values in blocks:
            refs = [weakref.ref(xis), weakref.ref(values)]
            del xis, values
            assert all(ref() is None for ref in refs)

    def test_one_pool_per_scan(self, monkeypatch, pool_sizes):
        set_usable_cpus(monkeypatch, 4)
        grid = fz.uniform_grid(2.0, 300.0, 0.004)
        assert len(list(fz.scan_blocks(self.EVALUATE, grid))) > 2
        fz.scan_series(self.SPEC, self.W4, 2.0, 300.0, 0.004, n_label=1001)
        assert pool_sizes == [4, 4]

    @pytest.mark.parametrize("lo, hi, step", [
        (2.0, 1000.0, 0.004), (-3.7, 11.3, 0.013), (-1e4, 1e4, 0.3),
        (-2e4 - 1 / 3, -1e4, 0.07), (1e18, 1e18 + 128 * 70_000, 128.0),
        (9007199254640992.0, 9007199254740991.0, 1.0)])
    def test_blocks_join_to_the_whole_array_grid(self, lo, hi, step):
        # the grid as it was built whole, in place
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        whole = np.arange(count, dtype=float)
        whole *= step
        whole += lo
        grid = fz.uniform_grid(lo, hi, step)
        assert grid.count == count
        assert grid.points().tobytes() == whole.tobytes()
        for size in (fz._SCAN_BLOCK_ROWS, 1000, 4097):
            joined = np.concatenate([grid.points(i, i + size) for i in range(0, count, size)])
            assert joined.tobytes() == whole.tobytes()
        assert grid.points(count - 3, count + 5).tobytes() == whole[-3:].tobytes()
        blocks = fz.scan_blocks(lambda x: x, grid)
        assert np.concatenate([x for x, _ in blocks]).tobytes() == whole.tobytes()


class TestCpuQuota:
    """_usable_cpus caps the affinity count by the cgroup CPU quota, rounded
    up.  Every case reads faked files under tmp_path."""

    @pytest.mark.parametrize("membership, files, expect", [
        # v2: quota / period from cpu.max, in the process's own cgroup
        ("0::/job/task\n", {"job/task/cpu.max": "150000 100000\n"}, 2),
        ("0::/job/task\n", {"job/task/cpu.max": "300000 100000\n"}, 3),
        ("0::/\n", {"cpu.max": "50000 100000\n"}, 1),
        # a container that mounts its own cgroup at the root
        ("0::/outer/view\n", {"cpu.max": "250000 100000\n"}, 3),
        # v1: cfs quota over period, in the hierarchy holding the cpu controller
        ("4:memory:/m\n3:cpu,cpuacct:/docker/x\n0::/\n",
         {"cpu,cpuacct/docker/x/cpu.cfs_quota_us": "200000\n",
          "cpu,cpuacct/docker/x/cpu.cfs_period_us": "100000\n"}, 2),
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "120000\n",
                        "cpu/cpu.cfs_period_us": "100000\n"}, 2),
        # a quota above the affinity count leaves the affinity count
        ("0::/\n", {"cpu.max": "1600000 100000\n"}, 8),
    ])
    def test_quota_caps_the_affinity_count(self, monkeypatch, tmp_path, membership, files,
                                           expect):
        set_usable_cpus(monkeypatch, 8)
        fake_cgroup(monkeypatch, tmp_path, membership, files)
        assert fz._usable_cpus() == expect

    @pytest.mark.parametrize("membership, files", [
        ("0::/\n", {"cpu.max": "max 100000\n"}),
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}),
        ("0::/\n", {}),
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "200000\n"}),
        ("0::/\n", {"cpu.max": "\n"}),
        ("0::/\n", {"cpu.max": "lots of\n"}),
        ("4:memory:/m\n", {"cpu.max": "100000 100000\n"}),
        ("", {}),
    ])
    def test_unlimited_missing_or_unreadable_leaves_the_affinity_count(
            self, monkeypatch, tmp_path, membership, files):
        set_usable_cpus(monkeypatch, 8)
        fake_cgroup(monkeypatch, tmp_path, membership, files)
        assert fz._usable_cpus() == 8

    def test_unreadable_file(self, monkeypatch, tmp_path):
        set_usable_cpus(monkeypatch, 8)
        fake_cgroup(monkeypatch, tmp_path, "0::/\n", {"cpu.max/x": ""})  # a directory
        assert fz._usable_cpus() == 8

    def test_no_cgroup_file(self, monkeypatch, tmp_path):
        set_usable_cpus(monkeypatch, 8)
        assert fz._usable_cpus() == 8

    def test_quota_sizes_the_pool(self, monkeypatch, tmp_path, pool_sizes):
        set_usable_cpus(monkeypatch, 64)
        fake_cgroup(monkeypatch, tmp_path, "0::/\n", {"cpu.max": "150000 100000\n"})
        spec = gs.ContinuousSpec(1.0, 33.0)
        a = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33)
        b = fz.scan_series(spec, W10, 2.0, 17.0, 0.01, n_label=33, workers=1)
        assert pool_sizes == [2, 1]
        assert a.values.tobytes() == b.values.tobytes()


class TestFactorSchemesUseEveryCpu:
    """The continuous and even schemes scan on one thread per CPU, and the
    report bytes do not depend on how many CPUs there are."""

    @pytest.mark.parametrize("argv", [
        ["factor", "--scheme", "continuous", "--n", "33", "--dm", "10"],
        ["factor", "--scheme", "even", "--n", "30", "--dm", "8"],
    ])
    def test_json_bytes_independent_of_cpu_count(self, argv, monkeypatch, capsys, pool_sizes):
        out = {}
        for cpus in (1, 4):
            set_usable_cpus(monkeypatch, cpus)
            assert cli.main(argv + ["--format", "json"]) == 0
            out[cpus] = capsys.readouterr().out.encode()
        assert pool_sizes == [1, 4]
        assert out[1] == out[4]
        assert json.loads(out[1])["factors"]


class TestContinuousScan:
    def test_n33(self):
        rep = fz.factor_scan_continuous(33, W10)
        assert rep.verified_factors == [3, 11]
        fl = flagged_of(rep)
        assert 5 not in fl and 13 not in fl

    def test_n9(self):
        rep = fz.factor_scan_continuous(9, W10)
        assert 3 in rep.verified_factors

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="even"):
            fz.factor_scan_continuous(30, W10)

    def test_soundness_of_verified(self):
        rep = fz.factor_scan_continuous(35, W10)
        for l in rep.verified_factors:
            assert 35 % l == 0


class TestEvenScan:
    def test_n30_zeros_and_maxima(self):
        rep = fz.factor_scan_even(30, W8)
        zeros = [c.l for c in rep.candidates if c.classification is Classification.ZERO_SIGNAL]
        maxima = [
            c.l
            for c in rep.candidates
            if c.classification in (Classification.FACTOR, Classification.MULTIPLE_OF_FACTOR)
        ]
        assert {3, 5} <= set(zeros)
        assert {10, 12} <= set(maxima)

    def test_n30_l7_unremarkable(self):
        rep = fz.factor_scan_even(30, W8)
        c7 = next(c for c in rep.candidates if c.l == 7)
        assert c7.classification is Classification.NONFACTOR

    def test_degenerate_n2(self):
        rep = fz.factor_scan_even(2, W8)
        assert rep.candidates == [] and rep.verified_factors == []

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            fz.factor_scan_even(33, W8)


class TestLinesDiscrete:
    def test_n39_members(self):
        rep = fz.factor_lines_discrete(39, broad(39))
        by_l = {c.l: c for c in rep.candidates}
        assert by_l[3].classification is Classification.FACTOR
        assert by_l[13].classification is Classification.FACTOR
        assert {3, 13} <= set(rep.verified_factors)

    def test_n41_no_interior_points(self):
        rep = fz.factor_lines_discrete(41, broad(41))
        interior = [
            c for c in rep.candidates if 1 < c.l < 41 and c.classification is not Classification.NONFACTOR
        ]
        assert interior == []

    def test_n40_line_assignments(self):
        rep = fz.factor_lines_discrete(40, broad(40))
        by_l = {c.l: c for c in rep.candidates}
        assert abs(by_l[5].measured - 0.25) < 0.005   # on the 2l/N line
        assert abs(by_l[8].measured - 0.20) < 0.005   # on the l/N line
        assert by_l[20].measured < 1e-3
        assert by_l[5].classification is Classification.FACTOR
        assert by_l[8].classification is Classification.FACTOR

    def test_n42_nonfactors_vanish(self):
        rep = fz.factor_lines_discrete(42, broad(42))
        for c in rep.candidates:
            if math.gcd(c.l, 42) == 1 and c.l > 1:
                assert c.measured < 1e-3


class TestReciprocate:
    def test_1911(self):
        rep = fz.factor_reciprocate(1911, 100)
        assert rep.verified_factors == [3, 7, 13, 21, 39, 49, 91]
        c12 = next(c for c in rep.candidates if c.l == 12)
        assert c12.classification is Classification.MULTIPLE_OF_FACTOR
        assert abs(c12.measured - math.sqrt(0.5)) < 1e-12

    def test_15(self):
        assert fz.factor_reciprocate(15, 5).verified_factors == [3, 5]

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            fz.factor_reciprocate(30, 10)

    def test_exact_divisor_sets_sample(self):
        for n in (21, 45, 121, 175, 189):
            rep = fz.factor_reciprocate(n, n)
            assert rep.verified_factors == [d for d in range(2, n + 1) if n % d == 0]


@pytest.fixture(scope="module")
def master51():
    spec = gs.ContinuousSpec(1.0, 51.0)
    return fz.scan_series(spec, W10, 2.0, 25.0, 0.01, n_label=51)


class TestPocketRescale:
    def test_identity(self, master51):
        same = fz.pocket_rescale(master51, 51)
        assert same.unit_c == master51.unit_c
        assert same.values is master51.values

    def test_n35_peak_maps_to_7(self, master51):
        resc = fz.pocket_rescale(master51, 35)
        assert abs(resc.unit_c - 51 / 35) < 1e-12
        idx = int(np.argmax(np.abs(master51.values) * (np.abs(master51.xis - 10.2) < 0.3)))
        assert abs(master51.xis[idx] - 10.2) < 0.01
        assert abs(master51.xis[idx] / resc.unit_c - 7.0) < 0.01
        rep = fz.report_from_series(resc, "continuous_odd")
        assert 7 in rep.verified_factors

    def test_n65_flags_both_factors(self, master51):
        resc = fz.pocket_rescale(master51, 65)
        # the r=13 master peak carrying the factor 5 rises ~1.7x over the
        # fringe envelope; the threshold is configurable by design
        rep = fz.report_from_series(resc, "continuous_odd", peak_factor=1.5)
        assert {5, 13} <= set(rep.verified_factors)

    def test_scaling_soundness(self, master51):
        resc = fz.pocket_rescale(master51, 35)
        rep = fz.report_from_series(resc, "continuous_odd")
        for k in (0.5, 3.0):
            scaled = fz.ScanSeries(
                unit_c=resc.unit_c * k,
                xis=resc.xis * k,
                values=resc.values,
                n_label=resc.n_label,
            )
            rep_k = fz.report_from_series(scaled, "continuous_odd")
            assert flagged_of(rep_k) == flagged_of(rep)


def old_flagged(l: int, n: int) -> Classification:
    """The per-l class of a flagged candidate, as the scalar helper gave it."""
    if n % l == 0:
        return Classification.FACTOR
    if math.gcd(l, n) > 1:
        return Classification.MULTIPLE_OF_FACTOR
    return Classification.GHOST


def full_grid_background(xis, abs2, center, unit):
    """envelope_background as it was before the window was found by bisection:
    its mask built over the whole grid."""
    near = np.abs(xis - center) <= fz.DEFAULT_BACKGROUND_WINDOW * unit + 1e-12
    ratio = xis[near] / unit
    v = abs2[near][np.abs(ratio - np.round(ratio)) > fz.DEFAULT_BACKGROUND_CORE]
    if len(v) < 3:
        return float(np.median(abs2[near])) if near.any() else 0.0
    tops = v[1:-1][(v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])]
    return float(np.median(tops if len(tops) else v))


class TestWindowedClassification:
    """The bisected windows of report_from_series and envelope_background
    must give every candidate the measured value, background and class of
    the full-grid expressions."""

    @staticmethod
    def assert_full_grid_equal(series, peak_factor=fz.DEFAULT_PEAK_FACTOR, zero_factor=None):
        xis, abs2, c, n = series.xis, series.abs2(), series.unit_c, series.n_label
        rep = fz.report_from_series(series, "continuous_odd", peak_factor, zero_factor)
        assert rep.candidates
        zero_level = None if zero_factor is None else zero_factor * float(abs2.max())
        for cand in rep.candidates:
            pos = cand.l * c
            measured = float(abs2[int(np.argmin(np.abs(xis - pos)))])
            bg = full_grid_background(xis, abs2, pos, c)
            if zero_level is not None and measured < zero_level:
                cls = Classification.ZERO_SIGNAL
            elif bg > 0 and measured >= peak_factor * bg:
                cls = old_flagged(cand.l, n)
            else:
                cls = Classification.NONFACTOR
            got_bg = fz.envelope_background(xis, abs2, pos, candidate_unit=c)
            assert (cand.measured, got_bg, cand.classification) == (measured, bg, cls), cand.l

    def test_odd_series(self, master51):
        self.assert_full_grid_equal(master51)
        self.assert_full_grid_equal(factor_series(91, W10, 0.01))

    @pytest.mark.parametrize("n_prime, peak_factor", [(35, 2.0), (65, 1.5), (77, 2.0)])
    def test_rescaled_series(self, master51, n_prime, peak_factor):
        # unit_c = 51 / n_prime is not an integer
        self.assert_full_grid_equal(fz.pocket_rescale(master51, n_prime), peak_factor)

    def test_scaled_and_coarse_grids(self, master51):
        resc = fz.pocket_rescale(master51, 35)
        for k in (0.5, 3.0):
            self.assert_full_grid_equal(
                fz.ScanSeries(resc.unit_c * k, resc.xis * k, resc.values, resc.n_label))
        # a few points per window: the fallbacks of fewer than 3 off-core samples
        coarse = fz.scan_series(gs.ContinuousSpec(1.0, 51.0), W10, 1.0, 50.0, 0.37, n_label=51)
        self.assert_full_grid_equal(coarse)

    def test_even_zero_rule_series(self):
        for n, w in ((30, W8), (60, W10)):
            series = factor_series(n, w, 0.01)
            self.assert_full_grid_equal(series, zero_factor=fz.DEFAULT_ZERO_FACTOR)


# SHA-256 of each `factor ... --format json` report as the classifier
# wrote it from the whole series, before it read the scan block by block
STREAMED_REPORTS = [
    (["factor", "--n", "33", "--dm", "10"],
     "7e02bf030eb6e9feaabd4c3a32604c8ab207c53b1f2788df5bfe84ebe0dd86fe"),
    (["factor", "--n", "91", "--dm", "3", "--step", "0.013"],
     "0ea82a4565c351ad9b0d8479a734286641eb39d7fbda5e7e3fe7f89e49318107"),
    (["factor", "--n", "105", "--dm", "2.5", "--peak-factor", "1.5"],
     "28e2ef024ae1157f811aaac08133796f8123eff59f239912677c51c4346ad558"),
    (["factor", "--n", "30", "--scheme", "even", "--dm", "8"],
     "39e8c04b123a7cbbbfea08f30bbed34532c2b4f72ea85b4beb57edf6a1ab71dc"),
    (["factor", "--n", "60", "--scheme", "even", "--dm", "2", "--step", "0.007"],
     "bd9bfbe0d06f9a2fc851bcf7694042dc32f8f25c08434b227a88768c23f34252"),
    # about five samples a window: the fallbacks of fewer than 3 off-core samples
    (["factor", "--n", "51", "--dm", "10", "--step", "0.37"],
     "204b658fe66caa0f922525839c094b97fad39c4fd911a2e0cb516be9fbb6e875"),
]


class TestStreamedClassification:
    """factor --scheme continuous|even classify each block of the scan as
    it arrives.  At blocks far smaller than a candidate's window, split
    again over threads, every window and nearest sample falls across block
    joins; the report bytes must still be those of the whole series."""

    @pytest.mark.parametrize("argv, digest", STREAMED_REPORTS)
    @pytest.mark.parametrize("rows", [7, 100, 1001])
    def test_report_bytes_at_any_block_size(self, argv, digest, rows, monkeypatch, capsys):
        self.assert_report_bytes(argv, digest, rows, monkeypatch, capsys)

    @pytest.mark.parametrize("argv, digest", [STREAMED_REPORTS[0], STREAMED_REPORTS[-1]])
    def test_report_bytes_at_one_row_blocks(self, argv, digest, monkeypatch, capsys):
        self.assert_report_bytes(argv, digest, 1, monkeypatch, capsys)

    @staticmethod
    def assert_report_bytes(argv, digest, rows, monkeypatch, capsys):
        monkeypatch.setattr(fz, "_SCAN_BLOCK_ROWS", rows)
        for cpus in (1, 3):
            set_usable_cpus(monkeypatch, cpus)
            assert cli.main([*argv, "--format", "json"]) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digest

    def test_array_levels_are_the_per_center_levels(self, master51):
        xis, abs2 = master51.xis, master51.abs2()
        # centers inside, at and beyond the grid's ends
        centers = np.concatenate([np.arange(-1.0, 27.0, 0.37), [xis[0], xis[-1], 2.0, 25.0]])
        for unit in (1.0, 51 / 35, 0.05):
            got = fz.envelope_background(xis, abs2, centers, candidate_unit=unit)
            want = [full_grid_background(xis, abs2, c, unit) for c in centers.tolist()]
            assert got.tolist() == want

    def test_row_medians_are_np_median(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 4, size=(2000, 9)) / 3  # many ties
        values[rng.random(values.shape) < 0.01] = np.nan
        values[rng.random(values.shape) < 0.02] = np.inf
        mask = rng.random(values.shape) < 0.6
        mask[:, 0] |= ~mask.any(axis=1)
        got = fz._row_medians(values, mask)
        want = np.array([np.median(v[m]) for v, m in zip(values, mask)])
        assert np.isnan(want).any() and (got == want).sum() > 1500
        assert np.array_equal(got, want, equal_nan=True)


class TestGhostCensus:
    def test_divisors_never_counted(self):
        census = fz.ghost_census(100, 6, threshold=0.05, l_min=2, l_max=10)
        for d in (2, 4, 5, 10):
            assert d not in census.ghosts

    def test_ghosts_exist_at_scale(self):
        census = fz.ghost_census(100001, 10, threshold=0.7)
        assert census.count > 0
        for g in census.ghosts:
            assert 100001 % g != 0

    def test_more_terms_never_adds_ghosts(self):
        counts = [fz.ghost_census(100001, m, threshold=0.7).count for m in (10, 20, 40)]
        assert counts == sorted(counts, reverse=True)

    def test_threshold_monotonicity(self):
        lo = fz.ghost_census(100001, 10, threshold=0.5).count
        hi = fz.ghost_census(100001, 10, threshold=0.9).count
        assert lo >= hi

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            fz.ghost_census(100, 5, threshold=1.5)

    @pytest.mark.parametrize("l_min", [0, -3])
    def test_l_min_below_one_rejected(self, l_min):
        with pytest.raises(ValueError, match="l_min"):
            fz.ghost_census(15, 3, l_min=l_min)

    def test_l_min_one_adds_no_ghost(self):
        assert fz.ghost_census(15, 3, l_min=1) == fz.ghost_census(15, 3, l_min=2)


class TestTruncatedScheme:
    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_threshold_domain_matches_ghost_census(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            fz.factor_truncated(15, 3, 3, threshold=threshold)
        with pytest.raises(ValueError, match="threshold"):
            fz.ghost_census(15, 3, threshold=threshold)

    def test_flags_are_classified_honestly(self):
        rep = fz.factor_truncated(100001, 316, 10, threshold=0.7)
        assert 11 in rep.verified_factors
        ghosts = [c.l for c in rep.candidates if c.classification is Classification.GHOST]
        assert ghosts, "the truncated scheme at this scale is ghost-prone"
        for g in ghosts:
            assert 100001 % g != 0


class TestVerifiedEqualsDivisors:
    """With margin-2 weights each signal scheme verifies exactly the divisors
    of N in 2..N-1: no flag is lost and none survives without dividing N."""

    @staticmethod
    def mismatches(scheme, ns):
        reports = {n: scheme(n, broad(n)).verified_factors for n in ns}
        return {n: got for n, got in reports.items() if got != proper_divisors(n)}

    def test_continuous_odd(self):
        assert self.mismatches(fz.factor_scan_continuous, range(9, 80, 2)) == {}

    def test_continuous_even(self):
        assert self.mismatches(fz.factor_scan_even, range(10, 59, 2)) == {}

    def test_discrete_lines(self):
        assert self.mismatches(fz.factor_lines_discrete, range(4, 120)) == {}


def at_margin(n: int, margin: float) -> list[int]:
    """Verified factors of the continuous odd scheme at weights of margin
    delta_m * sqrt(8) / N, with the CLI's default term count."""
    dm = margin * n / math.sqrt(8)
    return fz.factor_scan_continuous(n, gs.WeightProfile(dm, math.ceil(4 * dm))).verified_factors


class TestCompletenessRegion:
    """The claimed completeness region of the continuous odd scheme: from
    margin 1 up, the verified factors are the divisors.  Mapped at margins
    0.5, 0.75, 1.0 and 1.25 over 18 odd composite N in [45, 315] (a
    random.Random(16) sample of 16 with 45, 105, 231 and 315), every N was
    complete at 1.0 and 1.25; below 1.0 small divisors (3 or 5) were
    missed at twelve N."""

    @pytest.mark.parametrize("n", [45, 105, 165, 231, 315])
    def test_complete_at_the_boundary_margin(self, n):
        assert at_margin(n, 1.0) == proper_divisors(n)

    @pytest.mark.parametrize("n, margin, missed", [(45, 0.75, [3]), (155, 0.5, [5])])
    def test_documented_misses_below_it(self, n, margin, missed):
        got = at_margin(n, margin)
        assert sorted(set(proper_divisors(n)) - set(got)) == missed
        assert set(got) <= set(proper_divisors(n))


class TestFactorReport:
    def test_divisibility_invariant_enforced(self):
        with pytest.raises(ValueError):
            report_of(15, "reciprocate", [], [4])

    def test_columns_of_unequal_length_rejected(self):
        ls, values, codes = np.arange(2, 5), np.ones(3), np.zeros(3, dtype=np.uint8)
        for measured, predicted, classes in ((values[:2], values, codes),
                                             (values, values[:2], codes),
                                             (values, values, codes[:2])):
            with pytest.raises(ValueError, match="equal length"):
                fz.FactorReport(15, "made_up", ls, measured, predicted, classes, [])

    @pytest.mark.parametrize("ls", [[3, 2, 4], [2, 2, 4]])
    def test_trial_arguments_not_strictly_increasing_rejected(self, ls):
        values = np.ones(3)
        with pytest.raises(ValueError, match="strictly increasing"):
            fz.FactorReport(15, "made_up", np.array(ls), values, values,
                            np.zeros(3, dtype=np.uint8), [])

    def test_json_schema(self):
        rep = fz.factor_reciprocate(15, 5)
        doc = rep.to_json_dict()
        assert list(doc) == ["n", "scheme", "params", "candidates", "factors"]
        assert doc["factors"] == [3, 5]
        ls = [c["l"] for c in doc["candidates"]]
        assert ls == sorted(ls)
        assert set(doc["candidates"][0]) == {"l", "measured", "predicted", "class"}


# The per-l rules of each scheme as they were before the array driver: one
# closure l -> (measured, predicted, class) per report, applied by a loop.
OLD_CLASS_WEIGHT = {0: 2.0, 1: 1.0, 2: 0.0, 3: 1.0}
KEPT = (Classification.FACTOR, Classification.ZERO_SIGNAL)


def old_predict_discrete(n: int, l: int) -> float:
    p = math.gcd(l, n)
    if p == 1:
        return OLD_CLASS_WEIGHT[n % 4] / n
    return p * OLD_CLASS_WEIGHT[(n // p) % 4] / n


def old_report(n, ls, rule):
    candidates = [(l, *rule(l)) for l in ls]
    verified = [l for l, _, _, cls in candidates if cls in KEPT and l >= 2 and n % l == 0]
    return candidates, verified


def old_series_report(series, peak_factor=fz.DEFAULT_PEAK_FACTOR, zero_factor=None):
    n, abs2, c = series.n_label, series.abs2(), series.unit_c
    lo = int(math.ceil((series.xis[0] + 1e-9) / c))
    hi = int(math.floor((series.xis[-1] - 1e-9) / c))
    zero_level = zero_factor * float(abs2.max()) if zero_factor is not None else None

    def rule(l):
        pos = l * c
        span = slice(*map(int, fz._spans(series.xis, pos, pos)))
        measured = float(abs2[span][int(np.argmin(np.abs(series.xis[span] - pos)))])
        bg = fz.envelope_background(series.xis, abs2, pos, candidate_unit=c)
        predicted = old_predict_discrete(n, l)
        if zero_level is not None and measured < zero_level:
            return measured, predicted, Classification.ZERO_SIGNAL
        if bg > 0 and measured >= peak_factor * bg:
            return measured, predicted, old_flagged(l, n)
        return measured, predicted, Classification.NONFACTOR

    return old_report(n, range(max(lo, 2), min(hi, n - 1) + 1), rule)


def old_lines_report(n, w):
    slopes = [1.0 / n] + ([2.0 / n] if n % 4 == 0 else [])
    zero_level = fz.DEFAULT_ZERO_FACTOR / n
    ls = range(1, n + 1)
    values = dict(zip(ls, gs.discrete_sweep(n, ls, w).tolist()))

    def rule(l):
        measured = abs(values[l]) ** 2
        member = any(abs(measured - s * l) < max(fz._LINE_ABS_TOL, fz._LINE_REL_TOL * s * l)
                     for s in slopes)
        if member and 1 < l < n:
            cls = Classification.FACTOR if n % l == 0 else Classification.GHOST
        elif n % 2 == 0 and measured < zero_level and 1 < l < n:
            cls = Classification.ZERO_SIGNAL
        else:
            cls = Classification.NONFACTOR
        return measured, old_predict_discrete(n, l), cls

    return old_report(n, ls, rule)


def old_reciprocate_report(n, l_max):
    ls = range(1, l_max + 1)
    values = dict(zip(ls, gs.reciprocate_complete_sweep(n, ls).tolist()))
    tol = fz._RECIPROCATE_TOL

    def rule(l):
        measured = abs(values[l])
        s = math.gcd(l, n)
        k = l // s
        predicted = 1.0 if k == 1 else (
            math.sqrt(2.0 / k), math.sqrt(1.0 / k), 0.0, math.sqrt(1.0 / k))[k % 4]
        if abs(measured - 1.0) < tol:
            cls = Classification.FACTOR
        elif s > 1:
            cls = Classification.MULTIPLE_OF_FACTOR
        elif measured < tol and predicted == 0.0:
            cls = Classification.ZERO_SIGNAL
        else:
            cls = Classification.NONFACTOR
        return measured, predicted, cls

    return old_report(n, ls, rule)


def old_truncated_report(n, l_max, m_terms, threshold=fz.DEFAULT_GHOST_THRESHOLD):
    ls = range(2, l_max + 1)
    truncated = dict(zip(ls, gs.reciprocate_truncated_sweep(n, ls, m_terms).tolist()))
    nondivisors = [l for l in ls if n % l]
    complete = dict(zip(nondivisors, gs.reciprocate_complete_sweep(n, nondivisors).tolist()))

    def rule(l):
        measured = abs(truncated[l])
        predicted = 1.0 if n % l == 0 else abs(complete[l])
        if measured > threshold:
            return measured, predicted, old_flagged(l, n)
        return measured, predicted, Classification.NONFACTOR

    return old_report(n, ls, rule)


def old_ghosts(n, m_terms, threshold=fz.DEFAULT_GHOST_THRESHOLD, l_min=2, l_max=None):
    l_max = math.isqrt(n) if l_max is None else l_max
    nondivisors = [l for l in range(l_min, l_max + 1) if n % l != 0]
    values = gs.reciprocate_truncated_sweep(n, nondivisors, m_terms).tolist()
    return [l for l, v in zip(nondivisors, values) if abs(v) > threshold]


def bitwise(candidates):
    """(l, measured, predicted, class) with the floats as their exact words."""
    return [(l, float(m).hex(), float(p).hex(), cls) for l, m, p, cls in sorted(candidates)]


class TestArrayDriver:
    """Every report of the array driver against the per-l closures it
    replaced: each candidate's l, the bits of measured and predicted, its
    class, and the verified factors."""

    @staticmethod
    def assert_same(report, old):
        candidates, verified = old
        assert candidates, "an empty report pins nothing"
        assert bitwise(report.candidates) == bitwise(candidates)
        assert report.verified_factors == verified

    @pytest.mark.parametrize("n", [51, 91, 201])
    def test_continuous_odd_margin2(self, n):
        series = factor_series(n, broad(n), 0.01)
        self.assert_same(fz.report_from_series(series, "continuous_odd"),
                         old_series_report(series))

    @pytest.mark.parametrize("n", [30, 60])
    def test_continuous_even_zero_rule(self, n):
        series = factor_series(n, broad(n), 0.01)
        self.assert_same(
            fz.report_from_series(series, "continuous_even", zero_factor=fz.DEFAULT_ZERO_FACTOR),
            old_series_report(series, zero_factor=fz.DEFAULT_ZERO_FACTOR))

    @pytest.mark.parametrize("n_prime, peak_factor", [(35, 2.0), (65, 1.5), (77, 2.0)])
    def test_pocket_rescale_series(self, master51, n_prime, peak_factor):
        series = fz.pocket_rescale(master51, n_prime)
        self.assert_same(fz.report_from_series(series, "continuous_odd", peak_factor),
                         old_series_report(series, peak_factor))

    def test_lines(self):
        for n in range(1, 121):
            w = broad(n)
            self.assert_same(fz.factor_lines_discrete(n, w), old_lines_report(n, w))

    def test_reciprocate_small_odd(self):
        for n in range(1, 202, 2):
            self.assert_same(fz.factor_reciprocate(n, n + 2), old_reciprocate_report(n, n + 2))

    def test_reciprocate_past_int64(self):
        n = 10**20 + 1
        self.assert_same(fz.factor_reciprocate(n, 40), old_reciprocate_report(n, 40))

    @pytest.mark.parametrize("m_terms", [1, 3, 20])
    @pytest.mark.parametrize("n, l_max", [(15, 15), (30, 40), (1911, 300), (100001, 316),
                                          (777777, 881), (10**20 + 1, 40)])
    def test_truncated(self, n, l_max, m_terms):
        self.assert_same(fz.factor_truncated(n, l_max, m_terms),
                         old_truncated_report(n, l_max, m_terms))

    @pytest.mark.parametrize("m_terms", [1, 3, 20])
    @pytest.mark.parametrize("n", [15, 100, 100001])
    def test_ghost_census(self, n, m_terms):
        census = fz.ghost_census(n, m_terms)
        assert census.ghosts == old_ghosts(n, m_terms)
        assert census.count == len(census.ghosts)
        full = fz.ghost_census(n, m_terms, l_min=1, l_max=n if n < 1000 else 2000)
        assert full.ghosts == old_ghosts(n, m_terms, l_min=1, l_max=n if n < 1000 else 2000)
