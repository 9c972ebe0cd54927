"""Poisson-summation representation of the continuous sum near rational
multiples of B: S = sum_m W_m^(r) I_m^(r), with complex-Gaussian shape
integrals, and the weight-width rule.
"""

from __future__ import annotations

import math

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


def _shape_integrals(xs: np.ndarray, q: int, r: int, spec: ContinuousSpec,
                     w: WeightProfile) -> tuple[np.ndarray, np.ndarray]:
    """The shape integrals I_m^(r) of the Gaussian weight, one row per xi of
    the 1-D xs, on one range ms of m that holds every |I_m| >= _SHAPE_CUTOFF
    of every point (q/r need not be reduced).

    With xi = (q/r) B + delta, I_m = N exp[-((m - m_bar)/sigma)^2 (1 + i D delta)]
    for N = (1 - i D delta)^(-1/2), m_bar = (q B + r delta)/A, D = 4 pi delta_m^2/B
    and sigma = r sqrt(1 + (D delta)^2) / (sqrt(2) pi delta_m).  So |I_m| meets
    the cutoff at |m - m_bar| = sigma sqrt(ln(1/cutoff) - ln(1 + (D delta)^2)/4).
    """
    b = spec.b_param
    delta = xs[:, None] - q * b / r
    m_bar = q * b / spec.a_param + r * delta / spec.a_param
    dd = 4.0 * math.pi * w.delta_m**2 / b * delta
    sigma = r / (math.sqrt(2.0) * math.pi * w.delta_m) * np.sqrt(1.0 + dd * dd)
    reach = sigma * np.sqrt(np.maximum(0.0, -math.log(_SHAPE_CUTOFF) - 0.25 * np.log1p(dd * dd)))
    ms = np.arange(math.ceil((m_bar - reach).min()), math.floor((m_bar + reach).max()) + 1)
    z = ((ms - m_bar) / sigma) ** 2 * (1.0 + 1j * dd)
    return ms, np.sqrt(1.0 / (1.0 - 1j * dd)) * np.exp(-z)


def decomposed_sum(xi, q: int, r: int, spec: ContinuousSpec,
                   w: WeightProfile) -> complex | np.ndarray:
    """Evaluate the continuous sum near xi ~ (q/r)B through the representation
    sum_m W_m^(r) I_m^(r), truncating the m-sum where |I_m| < 1e-14.

    xi may be an array: the result then has its shape, from one window-sum
    row, one points x m array of shape integrals and one kernel call for the
    tails; a scalar xi gives a complex.  The m range spans r (max xi - min xi)/A
    more terms than one point's, so the points should lie near one peak.

    The Poisson identity covers the full integer lattice while the artifact's
    sums stop at |m| <= m_max, so the lattice terms beyond the window are
    subtracted explicitly; they decay Gaussianly and cost a few dozen direct
    evaluations a point.  The result therefore matches continuous_sum at its
    own truncation and normalization.
    """
    xs = np.asarray(xi, dtype=float)
    flat = xs.reshape(-1)
    if not flat.size:
        return np.empty(xs.shape, dtype=complex)
    ms, shapes = _shape_integrals(flat, q, r, spec, w)
    # W_m^(r) = finite_w(q, r, m) for every m, from one window-sum row; a
    # product and row sum, as a BLAS matmul left OpenBLAS threads spinning
    # that made the next verify suite (nslit) about 60% slower on 2 vCPUs
    shapes *= wtilde_b_sweep(2 * q, 0, r)[ms % r]
    total = shapes.sum(axis=1)
    m_ext = w.m_max + math.ceil(8 * w.delta_m)
    tail = np.concatenate([np.arange(w.m_max + 1, m_ext + 1), np.arange(-m_ext, -w.m_max)])
    # the lattice terms beyond the window, with the unnormalized weight extension
    total -= _real_sums(flat, spec, tail, w.raw_weight(tail.astype(float)))
    total /= w.norm
    return complex(total[0]) if xs.ndim == 0 else total.reshape(xs.shape)
