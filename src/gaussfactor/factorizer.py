"""Factor extraction from sum signals: peak/zero criteria for continuous
scans, line membership for discrete values, the complete-reciprocate rules,
master-curve rescaling, and the ghost-factor census.

Every report carries ground truth: verified_factors holds only flagged
candidates that actually divide the target (checked by integer division).
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .closedform import predict_discrete_moduli2, predict_reciprocate_moduli
from .gausssums import (
    _BLOCK_PHASORS,
    ContinuousSpec,
    WeightProfile,
    _reduced,
    abs2,
    continuous_sum_grid,
    discrete_sweep,
    reciprocate_complete_sweep,
    reciprocate_truncated_sweep,
)

DEFAULT_PEAK_FACTOR = 2.0
DEFAULT_ZERO_FACTOR = 1e-3
DEFAULT_BACKGROUND_WINDOW = 1.0
DEFAULT_BACKGROUND_CORE = 0.02
DEFAULT_GHOST_THRESHOLD = 1.0 / math.sqrt(2.0)
_RECIPROCATE_TOL = 1e-9
# discrete-scheme line membership: absolute tolerance, and relative to s * l
_LINE_ABS_TOL, _LINE_REL_TOL = 0.005, 0.05


def _check_threshold(threshold: float) -> None:
    """The truncated-sum modulus lies in [0, 1], so only (0, 1) separates."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")


class Classification(Enum):
    FACTOR = "factor"
    MULTIPLE_OF_FACTOR = "multiple_of_factor"
    NONFACTOR = "nonfactor"
    GHOST = "ghost"
    ZERO_SIGNAL = "zero_signal"


# a rule's class codes index _CLASSES
_CLASSES = tuple(Classification)
_FACTOR, _MULTIPLE, _NONFACTOR, _GHOST, _ZERO = range(len(_CLASSES))


class Candidate(NamedTuple):
    l: int
    measured: float
    predicted: float
    classification: Classification


@dataclass(frozen=True)
class ScanSeries:
    """Sampled complex signal over a strictly increasing xi grid.

    unit_c is the xi-axis unit: integer multiples of unit_c are the candidate
    arguments for the labelled number.
    """

    unit_c: float
    xis: np.ndarray
    values: np.ndarray
    n_label: int

    def __post_init__(self) -> None:
        if self.unit_c <= 0:
            raise ValueError("unit_c must be positive")
        if len(self.xis) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if np.any(np.diff(self.xis) <= 0):
            raise ValueError("xi grid must be strictly increasing")

    def abs2(self) -> np.ndarray:
        """|v|^2 as the classifier takes it, np.abs(v) ** 2.  For about a
        third of values its last bit differs from the abs2 column of scan
        output (gausssums.abs2, the bits of Python's abs(v) ** 2)."""
        return np.abs(self.values) ** 2


@dataclass(eq=False)
class FactorReport:
    """A scheme's rule as columns: for each trial argument in ls (strictly
    increasing), the measured and predicted values and a uint8 class code
    indexing _CLASSES.  The candidates property makes Candidate tuples of
    them, in order of l, on each read.  eq=False: == on arrays is ambiguous."""

    n_target: int
    scheme: str
    ls: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    codes: np.ndarray
    verified_factors: list[int]
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not len(self.ls) == len(self.measured) == len(self.predicted) == len(self.codes):
            raise ValueError("report columns must have equal length")
        if np.any(np.diff(self.ls) <= 0):
            raise ValueError("trial arguments must be strictly increasing")
        for l in self.verified_factors:
            if self.n_target % l != 0:
                raise ValueError(f"verified factor {l} does not divide {self.n_target}")

    @property
    def candidates(self) -> list[Candidate]:
        return list(map(Candidate, self.ls.tolist(), self.measured.tolist(),
                        self.predicted.tolist(), map(_CLASSES.__getitem__, self.codes.tolist())))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_target,
            "scheme": self.scheme,
            "params": self.params,
            "candidates": [
                {"l": c.l, "measured": c.measured, "predicted": c.predicted,
                 "class": c.classification.value}
                for c in self.candidates
            ],
            "factors": sorted(self.verified_factors),
        }


class GridTooLarge(MemoryError):
    """A grid with more points than one float64 array can hold."""

    def __init__(self, count: int):
        super().__init__(f"a grid of {count:.3g} points does not fit in memory")
        self.count = count


class GridRepeats(ValueError):
    """A grid whose step is below the spacing of floats near its points, so
    that neighbouring points round to the same value."""


@dataclass(frozen=True)
class UniformGrid:
    """The points xi_min + k * step, k = 0, 1, ..., count - 1, as a
    description: points are made a block at a time, as index offsets (never
    accumulated sums), so a grid holds no array of its own.

    Construction refuses, at once, a grid that could not be held as one
    float64 array (GridTooLarge, after one unwritten np.empty(count), so a
    grid past the address space fails before any point is made), and one
    whose neighbouring points round to the same float (GridRepeats), checked
    over the whole grid one block at a time."""

    xi_min: float
    step: float
    count: int

    def __post_init__(self) -> None:
        try:
            np.empty(self.count)
        except (MemoryError, ValueError):  # ValueError: past any array size
            raise GridTooLarge(self.count) from None
        for start in range(0, self.count, _SCAN_BLOCK_ROWS):
            # one point of overlap checks the join with the previous block
            block = self.points(max(start - 1, 0), start + _SCAN_BLOCK_ROWS)
            if not (block[1:] > block[:-1]).all():
                raise GridRepeats(f"xi grid must be strictly increasing: step {self.step!r} "
                                  "is below the spacing of floats near its points")

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Points start, ..., stop - 1 (clipped to the grid; all by default),
        made in place: the bits of the same slice of the whole grid."""
        stop = self.count if stop is None else min(stop, self.count)
        grid = np.arange(start, stop, dtype=float)
        grid *= self.step
        grid += self.xi_min
        return grid


def uniform_grid(xi_min: float, xi_max: float, step: float) -> UniformGrid:
    """The UniformGrid from xi_min by step up to xi_max (with 1e-9 steps of
    slack).  A step below the float spacing near the grid makes neighbouring
    points round to the same value; such a grid is rejected, so every grid
    command gets strictly increasing points.  A point count that overflows
    to inf is GridTooLarge, as is one past memory."""
    if not all(map(math.isfinite, (xi_min, xi_max, step))):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if xi_max < xi_min:
        raise ValueError("empty scan range")
    span = (xi_max - xi_min) / step + 1e-9
    if span == math.inf:
        raise GridTooLarge(span)
    return UniformGrid(xi_min, step, int(math.floor(span)) + 1)


# This process's cgroup membership, and where the cgroup hierarchies are
# mounted.
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cgroup_cpu_quota() -> float | None:
    """The CPU time this process's cgroup may use per period, in CPUs: v2
    cpu.max ("quota period"), or v1 cpu.cfs_quota_us over cpu.cfs_period_us.
    None where no quota is set ("max", or -1) or no file can be read.

    A cgroup's files are looked for under its path in the hierarchy's mount,
    then at the mount itself, which is where a container that mounts its own
    cgroup sees them."""
    try:
        lines = _PROC_CGROUP.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        _, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if controllers == "" and path:
            mount, names = _CGROUP_ROOT, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            mount, names = _CGROUP_ROOT / controllers, ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        for folder in (mount / path.lstrip("/"), mount):
            try:
                fields = " ".join((folder / name).read_text() for name in names).split()
            except OSError:
                continue
            try:
                quota, period = int(fields[0]), int(fields[1])
            except (ValueError, IndexError):  # "max", or a file that is not a number
                return None
            return quota / period if quota > 0 and period > 0 else None
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, otherwise every CPU of the host; fewer where its cgroup's
    CPU quota, rounded up, is smaller."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    return cpus if quota is None else max(1, min(cpus, math.ceil(quota)))


# Rows per run of a scan: as many rows as a kernel block of _real_sums
# holds phasors, so a run's values take 512 KB.  Each run of every grid,
# however short, wakes the pool threads and then the caller once.  On a
# loaded 2-vCPU host a wake-up took up to about 3 ms, and 8192-row runs
# (31 for the 249,501-row N=1001 scan) ran that scan up to about 10% slower
# than one run, for 1.8 MB less peak RSS than this size (measured when each
# run was joined into one block).
_SCAN_BLOCK_ROWS = _BLOCK_PHASORS


def scan_blocks(
    evaluate: Callable[[np.ndarray], np.ndarray],
    grid: UniformGrid,
    workers: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """evaluate (one value per point of an array of points: the continuous
    rows, or an N-slit pattern) on the grid, as (xis, values) blocks in
    grid order.

    The points are made _SCAN_BLOCK_ROWS at a time.  One pool of
    min(workers, usable CPUs) threads serves every grid, even one of a row
    (workers=1 gives a pool of one thread): each run of points is split
    into one part per thread (one per point in a run of fewer points),
    and each part is yielded as a block of its own, holding the values its
    thread's evaluate call made, so no values are copied or joined.  Only
    one run's points and values are held at a time (the generator keeps no
    reference to a block it has yielded), and the values are identical
    regardless of worker count.  workers=None asks for one thread per
    usable CPU (_usable_cpus).  The worker count is checked at the first
    next(), before any block is evaluated.
    """
    cpus = _usable_cpus()
    if workers is None:
        workers = cpus
    if workers < 1:
        raise ValueError("workers must be >= 1")
    threads = min(workers, cpus)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, grid.count, _SCAN_BLOCK_ROWS):
            x = grid.points(start, start + _SCAN_BLOCK_ROWS)
            parts = np.array_split(x, min(threads, len(x)))
            blocks = list(zip(parts, pool.map(evaluate, parts)))[::-1]
            del x, parts  # so a yielded block is held by its caller alone
            while blocks:
                yield blocks.pop()


def scan_series(
    spec: ContinuousSpec,
    w: WeightProfile,
    xi_min: float,
    xi_max: float,
    step: float,
    n_label: int,
    workers: int | None = None,
) -> ScanSeries:
    """Evaluate the continuous sum on a uniform grid, in units unit_c = 1:
    the scan_blocks of the grid, gathered whole."""
    grid = uniform_grid(xi_min, xi_max, step)
    evaluate = functools.partial(continuous_sum_grid, spec=spec, w=w)
    values = np.concatenate([v for _, v in scan_blocks(evaluate, grid, workers)])
    return ScanSeries(unit_c=1.0, xis=grid.points(), values=values, n_label=n_label)


def _spans(xis: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The start and stop indices of the strictly increasing xis within
    each [lo, hi], with two points of slack on each side for rounding: a
    superset of any window predicate near those bounds, which the caller
    then applies to it."""
    start = np.maximum(np.searchsorted(xis, lo, side="left") - 2, 0)
    stop = np.minimum(np.searchsorted(xis, hi, side="right") + 2, len(xis))
    return start, stop


# Window samples (candidates times window width) that one pass of
# envelope_background handles at a time, so each of its arrays stays near
# 128 KB.
_BACKGROUND_CELLS = 1 << 14


def envelope_background(
    xis: np.ndarray,
    abs2: np.ndarray,
    center: float | np.ndarray,
    candidate_unit: float = 1.0,
) -> float | np.ndarray:
    """Background level near a candidate point: the median height of the
    local maxima of the oscillating signal within DEFAULT_BACKGROUND_WINDOW
    units, sampled more than DEFAULT_BACKGROUND_CORE away from candidates.
    An array of centers gives one level each, in array passes over the
    candidates' windows.

    The interference background passes through zero between fringes, so a
    plain median is dragged down by the nulls; the fringe-top median is the
    stable notion of "background level" the peak criterion compares against.
    xis must be strictly increasing (a ScanSeries grid), so each window is
    found by bisection and the cost is O(window), not O(grid).  Each window
    is the span of the samples within [center - half, center + half], with
    two points of slack on each side for rounding, to which the window
    predicate is then applied.
    """
    centers = np.asarray(center, dtype=float).reshape(-1)
    half = DEFAULT_BACKGROUND_WINDOW * candidate_unit + 1e-12
    start, stop = _spans(xis, centers - half, centers + half)
    levels = np.zeros(len(centers))
    if len(xis):
        rows = max(1, _BACKGROUND_CELLS // int((stop - start).max(initial=1)))
        for b in range(0, len(centers), rows):
            chunk = slice(b, b + rows)
            levels[chunk] = _window_levels(xis, abs2, centers[chunk], start[chunk], stop[chunk],
                                           half, candidate_unit)
    return float(levels[0]) if np.ndim(center) == 0 else levels


def _window_levels(xis, abs2, centers, start, stop, half, unit) -> np.ndarray:
    """envelope_background's level for each center, whose window samples
    are xis[start:stop]: one row per center, padded to the widest window."""
    width = int((stop - start).max())
    cols = np.arange(width)
    idx = start[:, None] + cols
    inside = idx < stop[:, None]
    np.minimum(idx, len(xis) - 1, out=idx)
    x, a = xis[idx], abs2[idx]
    near = inside & (np.abs(x - centers[:, None]) <= half)
    ratio = x / unit
    off_core = near & (np.abs(ratio - np.round(ratio)) > DEFAULT_BACKGROUND_CORE)
    # the off-core samples v of each row, moved to its front in order
    count = off_core.sum(axis=1)
    v = np.zeros_like(a)
    v[np.nonzero(off_core)[0], (np.cumsum(off_core, axis=1) - 1)[off_core]] = a[off_core]
    tops = np.zeros_like(near)
    tops[:, 1:-1] = ((v[:, 1:-1] >= v[:, :-2]) & (v[:, 1:-1] >= v[:, 2:])
                     & (cols[1:-1] < count[:, None] - 1))
    levels = np.where(tops.any(axis=1), _row_medians(v, tops), _row_medians(a, off_core))
    few = count < 3
    levels[few] = np.where(near[few].any(axis=1), _row_medians(a[few], near[few]), 0.0)
    return levels


def _row_medians(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """float(np.median(row[row_mask])) for each row, word for word: the
    middle order statistic, or the mean of the middle two, and NaN where a
    masked value is NaN.  A row with nothing masked gives inf."""
    count = mask.sum(axis=1)
    order = np.where(mask, values, np.inf)
    order.sort(axis=1)
    rows = np.arange(len(order))
    medians = order[rows, np.maximum(count - 1, 0) // 2]
    even = (count % 2 == 0) & (count > 0)
    medians[even] = (medians[even] + order[rows[even], count[even] // 2]) / 2
    medians[(mask & np.isnan(values)).any(axis=1)] = np.nan
    return medians


def _divides(n_target: int, ls: np.ndarray) -> np.ndarray:
    """N mod l == 0 elementwise, exact for N of any size."""
    return _reduced(n_target, ls) == 0


def _flag_codes(n_target: int, ls: np.ndarray) -> np.ndarray:
    """The class of each flagged l: FACTOR where it divides N, else
    MULTIPLE_OF_FACTOR where it shares a factor with N, else GHOST."""
    residues = _reduced(n_target, ls)
    return np.select([residues == 0, np.gcd(ls, residues) > 1], [_FACTOR, _MULTIPLE], _GHOST)


def _unsound(codes: np.ndarray) -> np.ndarray:
    """Flags on a non-divisor: GHOST or MULTIPLE_OF_FACTOR codes."""
    return (codes == _GHOST) | (codes == _MULTIPLE)


def _classify(n_target: int, scheme: str, ls: np.ndarray, measured: np.ndarray,
              predicted: np.ndarray, codes: np.ndarray, params: dict) -> FactorReport:
    """The report of a scheme's rule: one element of measured, predicted and
    class code per trial argument in ls.  A flag becomes a verified factor
    only when its class is FACTOR or ZERO_SIGNAL and division confirms it."""
    kept = ((codes == _FACTOR) | (codes == _ZERO)) & (ls >= 2) & _divides(n_target, ls)
    return FactorReport(n_target, scheme, ls, measured, predicted, codes.astype(np.uint8),
                        ls[kept].tolist(), params)


def report_from_series(
    series: ScanSeries,
    scheme: str,
    peak_factor: float = DEFAULT_PEAK_FACTOR,
    zero_factor: float | None = None,
) -> FactorReport:
    """Apply the peak (and optionally zero) criteria at every integer
    candidate l whose position l * unit_c lies inside the series: the
    streamed classifier read over the series as one block."""
    xis = series.xis
    return _report_blocks([(xis, series.values)], xis[0], xis[-1], series.unit_c,
                          series.n_label, scheme, peak_factor, zero_factor)


def _report_blocks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    first: float,
    last: float,
    unit_c: float,
    n: int,
    scheme: str,
    peak_factor: float,
    zero_factor: float | None,
) -> FactorReport:
    """The peak (and optionally zero) criteria at every integer candidate l
    whose position l * unit_c lies inside the grid from first to last, read
    from the grid's (xis, values) blocks in order.

    A candidate is classified once the samples it reads have arrived: its
    nearest sample (two indices either side of its position) and
    envelope_background's window, both found by bisection in the samples
    held.  Those still needed by a candidate not yet classified are carried
    into the next block, so each candidate reads the samples the whole
    series would give it, and at most one block and one window are held.
    The zero rule compares with the largest |S|^2 of the whole grid, so it
    is applied once the last block is read.
    """
    c = unit_c
    lo = int(math.ceil((first + 1e-9) / c))
    hi = int(math.floor((last - 1e-9) / c))
    ls = np.arange(max(lo, 2), min(hi, n - 1) + 1)
    pos = ls * c
    half = DEFAULT_BACKGROUND_WINDOW * c + 1e-12
    right = pos + half  # each window's right edge, as envelope_background finds it
    measured, bg = np.empty(len(ls)), np.empty(len(ls))
    maxima = []  # each block's largest |S|^2
    xis = abs2 = np.empty(0)
    done = 0

    def classify(stop: int) -> None:
        """Classify candidates done..stop-1 from the samples held."""
        p = pos[done:stop]
        # the first nearest sample of the five about each position
        start = np.searchsorted(xis, p, side="left")
        near = np.clip(start[:, None] + np.arange(-2, 3), 0, len(xis) - 1)
        nearest = near[np.arange(len(p)), np.argmin(np.abs(xis[near] - p[:, None]), axis=1)]
        measured[done:stop] = abs2[nearest]
        bg[done:stop] = envelope_background(xis, abs2, p, candidate_unit=c)

    for x, v in blocks:
        a = np.abs(v) ** 2
        maxima.append(a.max())
        xis, abs2 = np.concatenate([xis, x]), np.concatenate([abs2, a])
        if len(xis) < 3:
            continue
        # each candidate whose window closes before the third-last sample
        # has its window's two points of slack and its nearest five
        stop = done + int(np.searchsorted(right[done:], xis[-3], side="left"))
        classify(stop)
        done = stop
        keep = len(xis) if done == len(ls) else int(np.searchsorted(xis, pos[done] - half))
        xis, abs2 = xis[max(keep - 2, 0):], abs2[max(keep - 2, 0):]
    classify(len(ls))
    zero = measured < zero_factor * float(np.max(maxima)) if zero_factor is not None else False
    peak = (bg > 0) & (measured >= peak_factor * bg)
    codes = np.select([zero, peak], [_ZERO, _flag_codes(n, ls)], _NONFACTOR)
    params = {"unit_c": c, "peak_factor": peak_factor, "window": DEFAULT_BACKGROUND_WINDOW}
    return _classify(n, scheme, ls, measured, predict_discrete_moduli2(n, ls)[0], codes, params)


def _scan_range(n_target: int) -> tuple[float, float]:
    """The xi range of N's factor scan: every candidate 2..N-1 with its
    background window."""
    return max(2.0 - DEFAULT_BACKGROUND_WINDOW, 0.5), (n_target - 1.0) + DEFAULT_BACKGROUND_WINDOW


def _report_scan(n_target: int, w: WeightProfile, grid_step: float, scheme: str,
                 peak_factor: float, zero_factor: float | None = None) -> FactorReport:
    """The report of N's factor scan, classified block by block as
    scan_blocks evaluates it, so the series is never held whole."""
    spec = ContinuousSpec(a_param=1.0, b_param=float(n_target))
    grid = uniform_grid(*_scan_range(n_target), grid_step)
    blocks = scan_blocks(functools.partial(continuous_sum_grid, spec=spec, w=w), grid)
    first, last = grid.points(0, 1)[0], grid.points(grid.count - 1)[0]
    return _report_blocks(blocks, first, last, 1.0, n_target, scheme, peak_factor, zero_factor)


def factor_scan_continuous(
    n_target: int,
    w: WeightProfile,
    grid_step: float = 0.01,
    peak_factor: float = DEFAULT_PEAK_FACTOR,
) -> FactorReport:
    """Odd-N continuous scheme: integers where |S_N|^2 spikes above the local
    fringe background carry a factor or a multiple of one."""
    if n_target % 2 == 0:
        raise ValueError("continuous odd scheme requires odd N; use factor_scan_even")
    if n_target < 3:
        raise ValueError("N must be >= 3")
    return _report_scan(n_target, w, grid_step, "continuous_odd", peak_factor)


def factor_scan_even(
    n_target: int,
    w: WeightProfile,
    grid_step: float = 0.01,
    peak_factor: float = DEFAULT_PEAK_FACTOR,
    zero_factor: float = DEFAULT_ZERO_FACTOR,
) -> FactorReport:
    """Even-N continuous scheme: both spikes and parity-forced zeros of
    |S_N|^2 at integers carry factor information."""
    if n_target % 2 != 0:
        raise ValueError("even scheme requires even N")
    if n_target < 4:
        return _classify(n_target, "continuous_even", *[np.arange(0)] * 4, {})
    return _report_scan(n_target, w, grid_step, "continuous_even", peak_factor, zero_factor)


def factor_lines_discrete(n_target: int, w: WeightProfile) -> FactorReport:
    """Discrete scheme: |S_N(l)|^2 for l in [1, N]; points on the line l/N
    (also 2l/N for N in M0) are divisors, up to coincidences filtered by the
    divisibility check."""
    if n_target < 1:
        raise ValueError("n_target must be positive")
    n = n_target
    slopes = [1.0 / n]
    if n % 4 == 0:
        slopes.append(2.0 / n)
    ls = np.arange(1, n + 1)
    measured = abs2(discrete_sweep(n, ls, w))
    member = np.zeros(n, dtype=bool)
    for s in slopes:
        member |= np.abs(measured - s * ls) < np.maximum(_LINE_ABS_TOL, _LINE_REL_TOL * s * ls)
    interior = (ls > 1) & (ls < n)
    zero = (n % 2 == 0) & (measured < DEFAULT_ZERO_FACTOR / n)
    codes = np.select(
        [member & interior, zero & interior],
        [np.where(_divides(n, ls), _FACTOR, _GHOST), _ZERO],
        _NONFACTOR,
    )
    params = {"abs_tol": _LINE_ABS_TOL, "rel_tol": _LINE_REL_TOL}
    return _classify(n, "discrete_lines", ls, measured, predict_discrete_moduli2(n, ls)[0],
                     codes, params)


def factor_reciprocate(n_target: int, l_max: int) -> FactorReport:
    """Complete-reciprocate scheme for odd N: |A| = 1 exactly at factors;
    values off the three coprime baseline curves reveal a shared factor."""
    if n_target % 2 == 0:
        raise ValueError("reciprocate scheme requires odd N")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    ls = np.arange(1, l_max + 1)
    v = reciprocate_complete_sweep(n_target, ls)
    measured = np.hypot(v.real, v.imag)  # Python's abs(v) bits; np.abs differs
    predicted, shared = predict_reciprocate_moduli(n_target, ls)
    codes = np.select(
        [
            np.abs(measured - 1.0) < _RECIPROCATE_TOL,
            shared > 1,
            (measured < _RECIPROCATE_TOL) & (predicted == 0.0),
        ],
        [_FACTOR, _MULTIPLE, _ZERO],
        _NONFACTOR,
    )
    return _classify(n_target, "reciprocate", ls, measured, predicted, codes, {"l_max": l_max})


def _truncated_rule(
    n_target: int, ls: np.ndarray, m_terms: int, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """|A_N^(M)(l)| for every l in ls, and the class codes that flag those
    above threshold (_flag_codes) and leave the rest NONFACTOR."""
    v = reciprocate_truncated_sweep(n_target, ls, m_terms)
    measured = np.hypot(v.real, v.imag)  # Python's abs(v) bits; np.abs differs
    return measured, np.where(measured > threshold, _flag_codes(n_target, ls), _NONFACTOR)


def factor_truncated(
    n_target: int,
    l_max: int,
    m_terms: int,
    threshold: float = DEFAULT_GHOST_THRESHOLD,
) -> FactorReport:
    """Truncated-sum quick test: flag l with |A_N^(M)(l)| above threshold.

    Ghost-prone by construction; non-divisor flags are classified as ghosts
    (or factor multiples) rather than factors.  The predicted value is the
    complete sum's modulus, computed for the non-divisors only (1 at divisors).
    """
    if l_max < 2 or m_terms < 1:
        raise ValueError("need l_max >= 2 and m_terms >= 1")
    _check_threshold(threshold)
    ls = np.arange(2, l_max + 1)
    measured, codes = _truncated_rule(n_target, ls, m_terms, threshold)
    nondivisor = ~_divides(n_target, ls)
    predicted = np.ones(len(ls))
    v = reciprocate_complete_sweep(n_target, ls[nondivisor])
    predicted[nondivisor] = np.hypot(v.real, v.imag)
    return _classify(n_target, "truncated", ls, measured, predicted, codes,
                     {"m_terms": m_terms, "threshold": threshold})


def pocket_rescale(master: ScanSeries, n_prime: int) -> ScanSeries:
    """Reuse a master curve for N to test candidates of N': the samples stay
    put while the xi-axis unit becomes C' = C * N / N', so integer multiples
    of C' mark candidate factors of N'."""
    if n_prime < 1:
        raise ValueError("n_prime must be positive")
    return ScanSeries(
        unit_c=master.unit_c * master.n_label / n_prime,
        xis=master.xis,
        values=master.values,
        n_label=n_prime,
    )


def ghost_census(
    n_target: int,
    m_terms: int,
    threshold: float = DEFAULT_GHOST_THRESHOLD,
    l_min: int = 2,
    l_max: int | None = None,
) -> list[int]:
    """The non-divisors l in [l_min, l_max], ascending, whose truncated sum
    modulus exceeds the threshold.  Default range is 2..floor(sqrt(N))."""
    _check_threshold(threshold)
    if l_min < 1:
        raise ValueError("l_min must be >= 1")
    if l_max is None:
        l_max = math.isqrt(n_target)
    ls = np.arange(l_min, l_max + 1)
    _, codes = _truncated_rule(n_target, ls, m_terms, threshold)
    return ls[_unsound(codes)].tolist()
