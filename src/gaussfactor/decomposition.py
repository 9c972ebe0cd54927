"""Poisson-summation representation of the continuous sum near rational
multiples of B: S = sum_m W_m^(r) I_m^(r), with complex-Gaussian shape
functions, the geometry of each peak, and the weight-width rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gausssums import ContinuousSpec, WeightProfile, _real_sums, wtilde_b_sweep

_SHAPE_CUTOFF = 1e-14


def recommend_weight_width(n_target: int, margin: float = 3.0) -> float:
    """Width delta_m = margin * N / sqrt(8), making the interference-contrast
    ratio 8 delta_m^2 / N^2 equal margin^2."""
    if n_target < 1:
        raise ValueError("n_target must be positive")
    if margin < 1:
        raise ValueError("margin must be >= 1")
    return margin * n_target / math.sqrt(8.0)


@dataclass(frozen=True)
class PeakDescriptor:
    """Geometry of the candidate peak at xi = (q/r) B + delta.

    q/r need not be reduced: the representation itself does not require it.
    """

    q: int
    r: int
    location_xi: float
    delta: float
    m_bar: float
    sigma0: float
    d_coef: float
    sigma: float

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be positive")
        expect = self.sigma0 * math.sqrt(1.0 + (self.d_coef * self.delta) ** 2)
        if not math.isclose(self.sigma, expect, rel_tol=1e-12, abs_tol=1e-15):
            raise ValueError("sigma inconsistent with sigma0 * sqrt(1 + D^2 delta^2)")

    @classmethod
    def at(cls, xi: float, q: int, r: int, spec: ContinuousSpec, w: WeightProfile) -> "PeakDescriptor":
        b = spec.b_param
        delta = xi - q * b / r
        m_bar = q * b / spec.a_param + r * delta / spec.a_param
        sigma0 = r / (math.sqrt(2.0) * math.pi * w.delta_m)
        d_coef = 4.0 * math.pi * w.delta_m**2 / b
        sigma = sigma0 * math.sqrt(1.0 + (d_coef * delta) ** 2)
        return cls(q, r, q * b / r, delta, m_bar, sigma0, d_coef, sigma)


def shape_function(m: int, peak: PeakDescriptor, spec: ContinuousSpec, w: WeightProfile) -> complex:
    """Closed-form shape integral for a Gaussian weight:
    N * exp[-((m - m_bar)/sigma)^2 (1 + i D delta)], N = sqrt(1/(1 - i D delta)).
    """
    dd = peak.d_coef * peak.delta
    norm = cmath.sqrt(1.0 / (1.0 - 1j * dd))
    z = ((m - peak.m_bar) / peak.sigma) ** 2 * (1.0 + 1j * dd)
    return norm * cmath.exp(-z)


def decomposed_sum(xi: float, q: int, r: int, spec: ContinuousSpec, w: WeightProfile) -> complex:
    """Evaluate the continuous sum near xi ~ (q/r)B through the representation
    sum_m W_m^(r) I_m^(r), truncating the m-sum where |I_m| < 1e-14.

    The Poisson identity covers the full integer lattice while the artifact's
    sums stop at |m| <= m_max, so the lattice terms beyond the window are
    subtracted explicitly; they decay Gaussianly and cost a few dozen direct
    evaluations.  The result therefore matches continuous_sum at its own
    truncation and normalization.
    """
    peak = PeakDescriptor.at(xi, q, r, spec, w)
    # W_m^(r) = finite_w(q, r, m) for every m, from one window-sum row
    w_row = wtilde_b_sweep(2 * q, 0, r).tolist()
    total = 0j
    center = round(peak.m_bar)
    for direction in (1, -1):
        m = center if direction == 1 else center - 1
        while True:
            i_m = shape_function(m, peak, spec, w)
            if abs(i_m) < _SHAPE_CUTOFF:
                break
            total += w_row[m % r] * i_m
            m += direction

    m_ext = w.m_max + math.ceil(8 * w.delta_m)
    tail = np.concatenate([np.arange(w.m_max + 1, m_ext + 1), np.arange(-m_ext, -w.m_max)])
    # the lattice terms beyond the window, with the unnormalized weight extension
    total -= complex(_real_sums([xi], spec, tail, w.raw_weight(tail.astype(float)))[0])
    return total / w.norm
