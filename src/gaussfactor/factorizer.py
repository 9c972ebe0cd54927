"""Factor extraction from sum signals: peak/zero criteria for continuous
scans, line membership for discrete values, the complete-reciprocate rules,
master-curve rescaling, and the ghost-factor census.

Every report carries ground truth: verified_factors holds only flagged
candidates that actually divide the target (checked by integer division).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .closedform import predict_discrete_moduli2, predict_reciprocate_moduli
from .gausssums import (
    ContinuousSpec,
    WeightProfile,
    _reduced,
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
        return np.abs(self.values) ** 2


@dataclass
class FactorReport:
    n_target: int
    scheme: str
    candidates: list[Candidate]
    verified_factors: list[int]
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for l in self.verified_factors:
            if self.n_target % l != 0:
                raise ValueError(f"verified factor {l} does not divide {self.n_target}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_target,
            "scheme": self.scheme,
            "params": self.params,
            "candidates": [
                {
                    "l": c.l,
                    "measured": c.measured,
                    "predicted": c.predicted,
                    "class": c.classification.value,
                }
                for c in sorted(self.candidates)
            ],
            "factors": sorted(self.verified_factors),
        }


def uniform_grid(xi_min: float, xi_max: float, step: float) -> np.ndarray:
    """Points xi_min + k * step, k = 0, 1, ..., up to xi_max (with 1e-9 steps
    of slack).  Points are index offsets, never accumulated sums."""
    if not all(map(math.isfinite, (xi_min, xi_max, step))):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if xi_max < xi_min:
        raise ValueError("empty scan range")
    span = (xi_max - xi_min) / step + 1e-9
    if span == math.inf:
        raise ValueError(f"step {step!r} is too small: the point count overflows to inf")
    count = int(math.floor(span)) + 1
    return xi_min + step * np.arange(count)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, otherwise every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan_series(
    spec: ContinuousSpec,
    w: WeightProfile,
    xi_min: float,
    xi_max: float,
    step: float,
    n_label: int,
    workers: int | None = None,
) -> ScanSeries:
    """Evaluate the continuous sum on a uniform grid, in units unit_c = 1.

    Chunks are evaluated by a worker pool and assembled in order, so the
    output is identical regardless of worker count.  The pool has at most
    one thread per usable CPU (_usable_cpus); workers=None asks for one per
    usable CPU.
    """
    cpus = _usable_cpus()
    if workers is None:
        workers = cpus
    if workers < 1:
        raise ValueError("workers must be >= 1")
    xis = uniform_grid(xi_min, xi_max, step)
    count = len(xis)
    pool_size = min(workers, cpus)
    if pool_size == 1 or count < 256:
        values = continuous_sum_grid(xis, spec, w)
    else:
        chunks = np.array_split(np.arange(count), pool_size)
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(lambda idx: continuous_sum_grid(xis[idx], spec, w), chunks))
        values = np.concatenate(parts)
    return ScanSeries(unit_c=1.0, xis=xis, values=values, n_label=n_label)


def _span(xis: np.ndarray, lo: float, hi: float) -> slice:
    """The indices of the strictly increasing xis within [lo, hi], with two
    points of slack on each side for rounding: a superset of any window
    predicate near those bounds, which the caller then applies to it."""
    start = int(np.searchsorted(xis, lo, side="left"))
    stop = int(np.searchsorted(xis, hi, side="right"))
    return slice(max(start - 2, 0), stop + 2)


def envelope_background(
    xis: np.ndarray,
    abs2: np.ndarray,
    center: float,
    candidate_unit: float = 1.0,
) -> float:
    """Background level near a candidate point: the median height of the
    local maxima of the oscillating signal within DEFAULT_BACKGROUND_WINDOW
    units, sampled more than DEFAULT_BACKGROUND_CORE away from candidates.

    The interference background passes through zero between fringes, so a
    plain median is dragged down by the nulls; the fringe-top median is the
    stable notion of "background level" the peak criterion compares against.
    xis must be strictly increasing (a ScanSeries grid), so the window is
    found by bisection and the cost is O(window), not O(grid).
    """
    half = DEFAULT_BACKGROUND_WINDOW * candidate_unit + 1e-12
    span = _span(xis, center - half, center + half)
    xis, abs2 = xis[span], abs2[span]
    near = np.abs(xis - center) <= half
    ratio = xis[near] / candidate_unit
    off_core = np.abs(ratio - np.round(ratio)) > DEFAULT_BACKGROUND_CORE
    v = abs2[near][off_core]
    if len(v) < 3:
        return float(np.median(abs2[near])) if near.any() else 0.0
    interior = (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])
    tops = v[1:-1][interior]
    if len(tops) == 0:
        return float(np.median(v))
    return float(np.median(tops))


def _divides(n_target: int, ls: np.ndarray) -> np.ndarray:
    """N mod l == 0 elementwise, exact for N of any size."""
    return _reduced(n_target, ls) == 0


def _flag_codes(n_target: int, ls: np.ndarray) -> np.ndarray:
    """The class of each flagged l: FACTOR where it divides N, else
    MULTIPLE_OF_FACTOR where it shares a factor with N, else GHOST."""
    residues = _reduced(n_target, ls)
    return np.select([residues == 0, np.gcd(ls, residues) > 1], [_FACTOR, _MULTIPLE], _GHOST)


def _classify(n_target: int, scheme: str, ls: np.ndarray, measured: np.ndarray,
              predicted: np.ndarray, codes: np.ndarray, params: dict) -> FactorReport:
    """The report of a scheme's rule: one element of measured, predicted and
    class code per trial argument in ls.  A flag becomes a verified factor
    only when its class is FACTOR or ZERO_SIGNAL and division confirms it."""
    kept = ((codes == _FACTOR) | (codes == _ZERO)) & (ls >= 2) & _divides(n_target, ls)
    classes = [_CLASSES[k] for k in codes.tolist()]
    candidates = list(map(Candidate, ls.tolist(), measured.tolist(), predicted.tolist(), classes))
    return FactorReport(n_target, scheme, candidates, ls[kept].tolist(), params)


def report_from_series(
    series: ScanSeries,
    scheme: str,
    peak_factor: float = DEFAULT_PEAK_FACTOR,
    zero_factor: float | None = None,
) -> FactorReport:
    """Apply the peak (and optionally zero) criteria at every integer
    candidate l whose position l * unit_c lies inside the series."""
    n = series.n_label
    xis, abs2, c = series.xis, series.abs2(), series.unit_c
    lo = int(math.ceil((xis[0] + 1e-9) / c))
    hi = int(math.floor((xis[-1] - 1e-9) / c))
    ls = np.arange(max(lo, 2), min(hi, n - 1) + 1)
    pos = ls * c
    # the first nearest sample within each _span(xis, pos, pos)
    start = np.searchsorted(xis, pos, side="left")
    near = np.clip(start[:, None] + np.arange(-2, 3), 0, len(xis) - 1)
    nearest = near[np.arange(len(ls)), np.argmin(np.abs(xis[near] - pos[:, None]), axis=1)]
    measured = abs2[nearest]
    bg = np.array([envelope_background(xis, abs2, p, candidate_unit=c) for p in pos.tolist()])
    zero = measured < zero_factor * float(abs2.max()) if zero_factor is not None else False
    peak = (bg > 0) & (measured >= peak_factor * bg)
    codes = np.select([zero, peak], [_ZERO, _flag_codes(n, ls)], _NONFACTOR)
    params = {"unit_c": c, "peak_factor": peak_factor, "window": DEFAULT_BACKGROUND_WINDOW}
    return _classify(n, scheme, ls, measured, predict_discrete_moduli2(n, ls)[0], codes, params)


def _scan_for(n_target: int, w: WeightProfile, grid_step: float) -> ScanSeries:
    spec = ContinuousSpec(a_param=1.0, b_param=float(n_target))
    lo = max(2.0 - DEFAULT_BACKGROUND_WINDOW, 0.5)
    hi = (n_target - 1.0) + DEFAULT_BACKGROUND_WINDOW
    return scan_series(spec, w, lo, hi, grid_step, n_label=n_target)


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
    series = _scan_for(n_target, w, grid_step)
    return report_from_series(series, "continuous_odd", peak_factor=peak_factor)


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
        return FactorReport(n_target, "continuous_even", [], [], params={})
    series = _scan_for(n_target, w, grid_step)
    return report_from_series(
        series, "continuous_even", peak_factor=peak_factor, zero_factor=zero_factor
    )


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
    # Python's abs(v) ** 2 per element: np.abs(v) ** 2 gives other bits
    measured = np.array([abs(v) ** 2 for v in discrete_sweep(n, ls, w).tolist()])
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


@dataclass(frozen=True)
class GhostCensus:
    ghosts: list[int]
    count: int


def ghost_census(
    n_target: int,
    m_terms: int,
    threshold: float = DEFAULT_GHOST_THRESHOLD,
    l_min: int = 2,
    l_max: int | None = None,
) -> GhostCensus:
    """Non-divisors l in [l_min, l_max] whose truncated sum modulus exceeds
    the threshold.  Default range is 2..floor(sqrt(N))."""
    _check_threshold(threshold)
    if l_min < 1:
        raise ValueError("l_min must be >= 1")
    if l_max is None:
        l_max = math.isqrt(n_target)
    ls = np.arange(l_min, l_max + 1)
    _, codes = _truncated_rule(n_target, ls, m_terms, threshold)
    ghosts = ls[(codes == _GHOST) | (codes == _MULTIPLE)].tolist()
    return GhostCensus(ghosts=ghosts, count=len(ghosts))
