"""Analytic predictors for the moduli and values of the sum families.

Every function here has an independent brute-force counterpart in
`gausssums`; the test suite checks each pair against the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numtheory import jacobi_symbol
from .gausssums import _integers, _period_sums, _reduced, _trial_arguments


@dataclass(frozen=True)
class ModulusPrediction:
    """Predicted modulus (or modulus squared) with the rule that produced it."""

    value: float
    rule: str
    shared_factor: int | None = None

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("predicted modulus must be nonnegative")


# G(1, b) / sqrt(b) for b = 0, 1, 2, 3 mod 4 (the classes M0 .. M3)
_G1B_UNIT = np.array([1 + 1j, 1 + 0j, 0j, 1j])
# |G(1, b)|^2 / b for b in M0 .. M3: the weights of both modulus predictors
_CLASS_WEIGHT = np.array([2.0, 1.0, 0.0, 1.0])


def g1b_closed(b):
    """Elementary Gauss sum G(1, b) by residue class of b:
    (1+i)sqrt(b), sqrt(b), 0, i*sqrt(b) for b in M0, M1, M2, M3.

    An integer array of b gives one value per element, and an int b a
    complex: each the complex product of the class unit and sqrt(b).
    """
    b = _integers(b)
    if np.any(b < 1):
        raise ValueError("b must be positive")
    g = _G1B_UNIT[np.asarray(b % 4, dtype=np.int64)] * np.sqrt(b.astype(float))
    return complex(g) if b.ndim == 0 else g


def gab_closed(a, b):
    """G(a, b) = (a/b) G(1, b) for odd b coprime to a.

    Integer arrays of a and b broadcast and give one value per element, and
    ints a and b a complex.
    """
    a, b = np.broadcast_arrays(_integers(a), _integers(b))
    if not np.all((b >= 1) & (b % 2 == 1)):
        raise ValueError("b must be odd and positive")
    if not np.all(np.gcd(a, b) == 1):
        raise ValueError("a and b share a factor; apply factor_out first")
    g = jacobi_symbol(a, b) * g1b_closed(b)
    return complex(g) if b.ndim == 0 else g


def factor_out(a: int, b: int) -> tuple[int, int, int]:
    """Common-factor extraction (p, a/p, b/p) with p = gcd(a, b), so that
    G(a, b) = p * G(a/p, b/p)."""
    if b < 1:
        raise ValueError("b must be positive")
    p = math.gcd(a, b)
    if p == 0:
        raise ValueError("gcd(a, b) must be positive")
    return p, a // p, b // p


def predict_discrete_moduli2(n_target: int, ls) -> tuple[np.ndarray, np.ndarray]:
    """|S_N(l)|^2 in the broad-weight limit for every l in ls, with the shared
    factors p = gcd(l, N): one array formula, the twin of
    predict_reciprocate_moduli.

    With N = r * p the value is (p/N) * {2, 1, 0, 1} for r in M0 .. M3;
    p = 1 gives the coprime values (1/N) * {2, 1, 0, 1} by N's class.
    """
    if n_target < 1:
        raise ValueError("n_target must be positive")
    ls = _trial_arguments(ls)
    shared = np.gcd(ls, _reduced(n_target, ls))
    # r mod 4 = (N mod 4p) / p, in Python ints: 4p may pass int64
    r_class = _reduced(n_target, 4 * np.asarray(shared, dtype=object)) // shared
    weight = _CLASS_WEIGHT[np.asarray(r_class, dtype=np.int64)]
    return np.asarray(shared, dtype=float) * weight / n_target, shared


def predict_finite_w_modulus(q, r, m):
    """|W_m^(r)| by the parity table: sqrt(1/r) for odd r; for even r
    sqrt(2/r) where rq/2 and m have one parity, else 0.

    Integer arrays of q, r and m broadcast and give one value per element,
    and ints a float.
    """
    q, r, m = np.broadcast_arrays(_integers(q), _integers(r), _integers(m))
    if np.any(r < 1):
        raise ValueError("r must be positive")
    if np.any(np.gcd(q, r) != 1):
        raise ValueError("q and r must be coprime")
    # the parities of r, r/2, q and m: rq/2 is odd where r/2 and q are
    r_odd, half_odd, q_odd, m_odd = (np.asarray(x % 2, dtype=bool) for x in (r, r // 2, q, m))
    weight = np.where(r_odd, 1.0, 2.0 * ((half_odd & q_odd) == m_odd))
    value = np.sqrt(weight / r.astype(float))
    return float(value) if r.ndim == 0 else value


# e^{-i pi/4}, the unit factor of the reciprocity transform
_EIGHTH_ROOT = cmath.exp(-1j * math.pi / 4)


def reciprocity_transform(n_target, l) -> complex | np.ndarray:
    """Reciprocity route to the complete reciprocate sum:
    e^{-i pi/4} / (2 sqrt(2 l N)) * G(l, 4N).

    Integer arrays of N and l broadcast and give one value per element, with
    the bits of a scalar call.  G(l, 4N) is a _period_sums row of 4N terms
    (4 | 4N, so N + 1 of them are exponentiated); the factor and the product
    are taken in float64 parts in the order of Python's complex division by
    a float and complex product, so a scalar call has the bits of that
    complex expression.
    """
    n, ls = np.broadcast_arrays(n_target, l)
    if np.any(ls < 1) or np.any(n < 1):
        raise ValueError("n_target and l must be positive")
    b = (4 * n).reshape(-1)
    g = _period_sums(_reduced(ls.reshape(-1), b), b)
    scale = 2.0 * np.sqrt(2.0 * ls.reshape(-1) * n.reshape(-1))
    re, im = _EIGHTH_ROOT.real / scale, _EIGHTH_ROOT.imag / scale
    out = np.empty(len(b), dtype=complex)
    out.real = re * g.real - im * g.imag
    out.imag = re * g.imag + im * g.real
    return complex(out[0]) if n.ndim == 0 else out.reshape(n.shape)


def predict_reciprocate_moduli(n_target: int, ls) -> tuple[np.ndarray, np.ndarray]:
    """|A_N^(l-1)(l)| for odd N and every l in ls, with the shared factors
    s = gcd(l, N): one array formula, each value the bits of
    predict_reciprocate_modulus(n_target, l).value.  n_target may be an
    integer array with one N per l.

    With k = l/s the modulus is 1 at factors (k = 1), otherwise
    sqrt(2/k), sqrt(1/k), 0 or sqrt(1/k) for k in M0, M1, M2 or M3.
    """
    if np.any(np.asarray(n_target) % 2 == 0):
        raise ValueError("N must be odd")
    ls = _trial_arguments(ls)
    shared = np.gcd(ls, _reduced(n_target, ls))
    k = ls // shared
    weight = _CLASS_WEIGHT[np.asarray(k % 4, dtype=np.int64)]
    values = np.sqrt(weight / np.asarray(k, dtype=float))
    values[k == 1] = 1.0
    return values, shared


def predict_reciprocate_modulus(n_target: int, l: int) -> ModulusPrediction:
    """|A_N^(l-1)(l)| for odd N, exact: predict_reciprocate_moduli at one l,
    with the rule that gives it.

    s = gcd(l, N) = 1 recovers the coprime baselines sqrt(2/l), sqrt(1/l), 0.
    """
    values, shared = predict_reciprocate_moduli(n_target, [l])
    s = int(shared[0])
    k = l // s
    rule = "factor" if k == 1 else f"{'coprime' if s == 1 else 'shared'}-M{k % 4}"
    return ModulusPrediction(float(values[0]), rule, shared_factor=s if s > 1 else None)
