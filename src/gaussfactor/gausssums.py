"""Direct numerical evaluators for every sum family.

Phase discipline: sums at integer arguments reduce the quadratic phase to an
exact residue (numerator mod denominator) before the single floating-point
exponential, so 17-digit moduli are handled without precision loss.  Sums at
real arguments reduce the phase mod 1 in extended (80-bit) precision, which
is checked, not assumed: on a platform whose longdouble has a shorter
mantissa they raise PrecisionError while the integer sums keep working.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numtheory import is_prime, primitive_root

TWO_PI = 2.0 * math.pi

# int64 stays exact for (m*m) % b and the follow-up multiply when b is below
# this bound; larger moduli take the Python-int path.
_INT64_SAFE_MODULUS = 3_000_000_000

# Phasors per row block of _real_sums, whose work arrays (25 bytes per
# phasor, about 0.8 MB) are made once per call.  Measured on a 2-vCPU host,
# fresh process per run, with the former 41-byte arrays: at 1 << 14 the
# N=1001 scan peaked 1.3 MB lower (48.5 against 49.8 MB; the kernel that
# allocated per block peaked at 53.0 MB) but the N=201 factor run took
# 5-8% longer; 1 << 16 raised the factor run's peak by 2.6 MB for no time
# told apart from noise.
_BLOCK_PHASORS = 1 << 15

# Phasors per block of the integer sweeps, so a block's complex arrays stay
# at 128 KB, glibc malloc's default threshold for mapping a block apart from
# its heap.  At 1 << 15 the integer_schemes peak RSS was 2.5 MB higher.
_SWEEP_PHASORS = 1 << 13

# Rows of one modulus that _period_sums sums as one 2-D block rather than
# row by row.  It pays in the verify reciprocity suite, whose modulus rows
# repeat every l up to 201: over 10 alternating pairs of verify_all runs
# (30 s each, 2-vCPU host), summing every row on its own raised the median
# wall_s from 0.817 to 0.873 s, slower in 10 of 10.
_SHARED_ROWS = 8

# Mantissa bits of the platform longdouble.  Real-argument phases run to
# 1e5 turns and beyond; an 80-bit (63-bit mantissa) or wider format keeps
# their fractional part 2^11 times more accurate than float64 would.
_LONGDOUBLE_NMANT = np.finfo(np.longdouble).nmant


class PrecisionError(ArithmeticError):
    """The platform longdouble is too short for the exact mod-1 reduction."""


def _check_width(delta_m: float) -> None:
    """Reject a Gaussian width that is not finite and positive, or whose
    square (raw_weight divides by its square root) is 0 or inf."""
    if not 0 < delta_m < math.inf:
        raise ValueError("delta_m must be finite and positive")
    square = delta_m * delta_m  # a float ** raises OverflowError where * gives inf
    if square == 0.0:
        raise ValueError(f"delta_m {delta_m!r} is too small: its square underflows to 0")
    if square == math.inf:
        raise ValueError(f"delta_m {delta_m!r} is too large: its square overflows to inf")


def abs2(v) -> np.ndarray:
    """|v|^2 of each complex in v, with the bits of Python's abs(v) ** 2 (a
    libm hypot, then a libm pow): np.abs(v) ** 2 and np.hypot(...) ** 2
    differ from it in the last bit."""
    return np.float_power(np.hypot(v.real, v.imag), 2.0)


@dataclass(frozen=True)
class WeightProfile:
    """Gaussian weights w_m of width delta_m, truncated to |m| <= m_max.

    The discrete weights are renormalized by their own sum, so a sum with all
    phases zero evaluates to exactly 1.  `raw_weight` is the continuous
    extension (the unit-area Gaussian density) used by the Poisson-summation
    machinery.
    """

    delta_m: float
    m_max: int

    def __post_init__(self) -> None:
        _check_width(self.delta_m)
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")

    @classmethod
    def for_width(cls, delta_m: float) -> "WeightProfile":
        """Default truncation m_max = ceil(4 * delta_m)."""
        return cls(delta_m=delta_m, m_max=math.ceil(4 * delta_m))

    def indices(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)

    def raw_weight(self, mu):
        """Continuous Gaussian extension w(mu), unit area."""
        mu = np.asarray(mu, dtype=float)
        amp = 1.0 / math.sqrt(TWO_PI * self.delta_m**2)
        # below widths of about 1.5e-154 the square overflows to inf, and
        # exp(-inf) = 0 is the right weight
        with np.errstate(over="ignore"):
            return amp * np.exp(-0.5 * (mu / self.delta_m) ** 2)

    @property
    def norm(self) -> float:
        """Discrete normalization constant: sum of raw weights over the window."""
        return float(self.raw_weight(self.indices()).sum())

    def weights(self) -> np.ndarray:
        w = self.raw_weight(self.indices())
        return w / w.sum()


@dataclass(frozen=True)
class ContinuousSpec:
    """Parameters (A, B) of the continuous sum with phases m/A + m^2/B."""

    a_param: float
    b_param: float

    def __post_init__(self) -> None:
        if not (0 < self.a_param < math.inf and 0 < self.b_param < math.inf):
            raise ValueError("A and B must be finite and positive")


@dataclass(frozen=True)
class CharacterSpec:
    """Multiplicative character chi_k mod a prime n: chi(g^t) = exp(2pi i k t/(n-1)).

    Index 0 is the trivial character; all characters send 0 to 0 and 1 to 1.
    """

    modulus: int
    index: int

    def __post_init__(self) -> None:
        if not is_prime(self.modulus):
            raise ValueError(f"character modulus {self.modulus} is not prime")
        if not 0 <= self.index < max(self.modulus - 1, 1):
            raise ValueError("character index out of range")


def _quad_residues(m, c, b) -> np.ndarray:
    """Exact residues (m^2 * c) mod b, elementwise over broadcast arrays, for
    coefficients c already reduced into [0, b).

    While m^2 (b - 1) < 2^63 for the largest |m| and modulus, one int64
    residue (m*m*c) % b is exact.  Past that, int64 stays exact for
    (m*m) % b and the follow-up multiply while every modulus and every |m|
    is at most _INT64_SAFE_MODULUS; otherwise the same expression runs on
    Python ints in an object array.  All three give the same residues.
    """
    m_top = int(np.abs(np.asarray(m)).max(initial=0))
    b_top = int(np.asarray(b).max(initial=1))
    if m_top * m_top * max(b_top - 1, 1) < 2**63:
        m, c, b = (np.asarray(x, dtype=np.int64) for x in (m, c, b))
        return (m * m * c) % b
    small = b_top <= _INT64_SAFE_MODULUS and m_top <= _INT64_SAFE_MODULUS
    dtype = np.int64 if small else object
    m, c, b = (np.asarray(x, dtype=dtype) for x in (m, c, b))
    return ((m * m) % b * c) % b


def _reduced(x, b) -> np.ndarray:
    """x mod b elementwise, exact for integers of any size, returned in b's
    dtype (the residues fit it): in int64 when x and b are both int64
    arrays or ints, otherwise in Python ints through an object array."""
    xa, ba = np.asarray(x), np.asarray(b)
    if xa.dtype.kind == "i" and ba.dtype.kind == "i":
        return np.remainder(xa, ba).astype(ba.dtype, copy=False)
    return np.asarray(np.asarray(x, dtype=object) % b, dtype=ba.dtype)


def _phase_exp(residues, modulus, sign: float = 1.0) -> np.ndarray:
    """exp(sign 2 pi i residues / modulus), elementwise over broadcast arrays:
    cos and sin written into the two halves of one complex array.

    Each element takes the same operations whatever the shape, so a phasor
    is bitwise the same in a sweep as in a one-argument sum.  For turns
    t = residues / modulus, the argument of np.exp(sign * 2j * np.pi * t) is
    +0 + i sign TWO_PI t, with a +0 (not -0) imaginary part at t = 0, so
    this gives its bits as long as NumPy's sin/cos loops agree with its
    complex exp;
    TestPhaseExpBitwise checks that (and TestKernelBitwise for _real_sums).
    """
    y = np.asarray(residues, dtype=float) / np.asarray(modulus, dtype=float)
    y *= sign * TWO_PI
    if sign < 0:
        y += 0.0  # -0 becomes +0
    out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


# Tables serve a modulus shared by many rows, one modulus at a time (G(a, b)
# over many a, a run of rows of one modulus in _period_sums, the lines sweep,
# the wtilde and ring moduli), so a few cached tables give every hit and a
# caller's large modulus is not kept alive for long.  Tables of both signs
# share the slots (a run of reciprocate rows takes a sign -1 table); a +1
# table is always keyed (n,), so it is built once.  A row whose modulus is
# its own (most of the reciprocate sweep, G(l, 4N) over many N) makes its
# own phasors and builds no table.
_TABLE_CACHE = 4


@lru_cache(maxsize=_TABLE_CACHE)
def _root_table(n: int, sign: float = 1.0) -> np.ndarray:
    """Read-only table of the n-th roots of unity exp(sign 2 pi i k / n), k in
    [0, n), each entry the bits _phase_exp gives for its residue k."""
    table = _phase_exp(np.arange(n), n, sign)
    table.flags.writeable = False
    return table


def _real_sums(xis, spec: ContinuousSpec, m, weights) -> np.ndarray:
    """Row sums sum_j weights[j] exp[2 pi i (m_j/A + m_j^2/B) xi], one per
    real argument xi, with phases reduced mod 1 in 80-bit precision.

    Rows run in blocks of about _BLOCK_PHASORS phasors through work arrays
    made once per call, so memory does not grow with the grid and no block
    allocates; each row is summed on its own, so results are bitwise
    identical however the grid is chunked.  A block's longdouble phases and
    its complex phasors share one buffer: the phases are read into the
    float64 turns before the phasors overwrite them, so a block phasor costs
    25 bytes (16 shared, 8 of turns, 1 of sign mask), not 41.

    The reduction gives the value of np.mod(t, 1): t - trunc(t) is exact
    while |t| < 2^63 (trunc by the int64 cast), and adding 1 to a negative
    remainder rounds once as np.mod does.  Only at t = -0 does the sign bit
    differ (-0 against np.mod's +0); that turn's phasor (1, -0) times a real
    weight has a +0 imaginary part either way, so no sum changes.  A call
    whose phases may reach 2^62 (or are not finite) reduces with np.mod.
    """
    if _LONGDOUBLE_NMANT < 63:
        raise PrecisionError(
            "real-argument sums need an 80-bit longdouble (63 mantissa bits); "
            f"this platform's has {_LONGDOUBLE_NMANT}"
        )
    m = np.asarray(m, dtype=np.longdouble)
    coeff = m / np.longdouble(spec.a_param) + m * m / np.longdouble(spec.b_param)
    xs = np.asarray(xis)
    out = np.empty(len(xs), dtype=complex)
    rows = max(1, min(len(xs), _BLOCK_PHASORS // len(coeff)))
    # The bound keeps every |x * c| < 2^63 with a factor 2 for its own
    # rounding; a NaN in xs makes it NaN, and the test False (initial=0.0
    # gives an empty xs a bound of 0).
    truncate = (max(float(xs.max(initial=0.0)), -float(xs.min(initial=0.0)))
                * float(np.abs(coeff).max()) < 2.0**62)
    shape, phasors = (rows, len(coeff)), rows * len(coeff)
    # one buffer holds the phases t and then the phasors p; sized in bytes,
    # so a 12-byte longdouble works as well as a 16-byte one
    ld_size = np.dtype(np.longdouble).itemsize
    work = np.empty(phasors * max(ld_size, 16), dtype=np.uint8)
    t_buf = work[:phasors * ld_size].view(np.longdouble).reshape(shape)
    p_buf = work[:phasors * 16].view(complex).reshape(shape)
    x_buf = np.empty((rows, 1), dtype=np.longdouble)
    f_buf = np.empty(shape)
    k_buf = f_buf.view(np.int64)
    neg_buf = np.empty(shape, dtype=bool)
    for start in range(0, len(xs), rows):
        size = min(rows, len(xs) - start)
        x, t, f, k, neg, p = (a[:size] for a in (x_buf, t_buf, f_buf, k_buf, neg_buf, p_buf))
        np.copyto(x[:, 0], xs[start:start + size])
        np.multiply(x, coeff, out=t)
        if truncate:
            np.copyto(k, t, casting="unsafe")
            t -= k
            np.less(t, 0, out=neg)
            np.add(t, 1, out=t, where=neg)
        else:
            np.mod(t, 1, out=t)
        np.copyto(f, t)  # the last read of t: p overwrites its bytes
        f *= TWO_PI
        np.cos(f, out=p.real)
        np.sin(f, out=p.imag)
        p *= weights
        p.sum(axis=1, out=out[start:start + size])
    return out


def continuous_sum(xi: float, spec: ContinuousSpec, w: WeightProfile) -> complex:
    """Weighted sum over |m| <= M of exp[2 pi i (m/A + m^2/B) xi].

    Phases are reduced mod 1 in 80-bit precision before exponentiation.
    """
    return complex(continuous_sum_grid(np.array([xi]), spec, w)[0])


def continuous_sum_grid(
    xis: np.ndarray, spec: ContinuousSpec, w: WeightProfile
) -> np.ndarray:
    """Vectorized continuous_sum over a grid of arguments: one _real_sums row
    of the 2M+1 normalized weights per grid point."""
    return _real_sums(xis, spec, w.indices(), w.weights())


def _integers(x) -> np.ndarray:
    """x as an integer array: an array as it is; an int or a sequence as
    int64, or as an object array of Python ints when some value does not fit
    (np.asarray would make such a list float64, and such an int uint64)."""
    if isinstance(x, np.ndarray):
        return x
    try:
        return np.array(x, dtype=np.int64)
    except OverflowError:
        return np.array(x, dtype=object)


def _trial_arguments(ls) -> np.ndarray:
    """Trial arguments as a 1-D integer array (_integers), all of them
    positive."""
    ls = _integers(ls)
    if ls.size and ls.min() < 1:
        raise ValueError("l must be positive")
    return ls


def _blocks(sizes: Sequence[int]) -> Iterator[slice]:
    """Runs of consecutive rows, of sizes[i] phasors each, that together hold
    at most _SWEEP_PHASORS phasors; a longer row is a run of its own."""
    start = total = 0
    for i, size in enumerate(sizes):
        if i > start and total + size > _SWEEP_PHASORS:
            yield slice(start, i)
            start, total = i, 0
        total += size
    if start < len(sizes):
        yield slice(start, len(sizes))


def _quad_sums(m, coeffs, moduli, sign: float = 1.0, weights=None, layout=None) -> np.ndarray:
    """Row sums sum_j weights[j] exp(sign 2 pi i m_j^2 c / n), one per residue
    coefficient c in coeffs, with one modulus n per row or one shared by all.

    With a layout, each row sums the terms row[layout] instead: a term
    computed once stands for every position of the row that repeats it.
    Each row is summed on its own (the pairwise order of a 1-D sum),
    _SWEEP_PHASORS summed terms at a time.  With a shared modulus and at
    least n phasors to make, they are gathered from _root_table(n, sign)
    (the bits exponentiating each residue gives).
    """
    shared = np.ndim(moduli) == 0
    table = None
    if shared and moduli <= min(_INT64_SAFE_MODULUS, len(coeffs) * len(m)):
        table = _root_table(moduli) if sign > 0 else _root_table(moduli, sign)
    out = np.empty(len(coeffs), dtype=complex)
    rows = max(1, _SWEEP_PHASORS // (len(m) if layout is None else len(layout)))
    for start in range(0, len(coeffs), rows):
        block = slice(start, start + rows)
        b = moduli if shared else moduli[block, None]
        res = _quad_residues(m, coeffs[block, None], b)
        terms = _phase_exp(res, b, sign) if table is None else table[res]
        if weights is not None:
            terms *= weights
        if layout is not None:
            terms = np.take(terms, layout, axis=1)  # C order: each row summed on its own
        out[block] = terms.sum(axis=1)
    return out


def _period_terms(b):
    """Terms m = 0 .. _period_terms(b) - 1 of a period b are all its distinct
    ones: b // 2 + 1, or b // 4 + 1 when 4 | b (elementwise over arrays)."""
    return np.where(b % 4 == 0, b // 4, b // 2) + 1


def _period_sums(coeffs, moduli, sign: float = 1.0) -> np.ndarray:
    """Complete sums sum_{m=0}^{b-1} exp(sign 2 pi i m^2 c / b), one per
    residue coefficient c in coeffs, with one modulus b per row or one
    shared by all.

    Term b - m has the residue of term m, since (b - m)^2 = m^2 (mod b), and
    when 4 | b so has term m + b/2, since (m + b/2)^2 = m^2 + b (m + b/4).
    So only the _period_terms(b) terms m <= b // 2 (m <= b // 4 when 4 | b)
    are exponentiated.  Each row is laid out in the order m = 0 .. b-1: the
    computed terms, then their mirror, then that half repeated when 4 | b;
    and it is summed on its own, so every sum keeps the bits of the pairwise
    sum over its b terms.  A modulus shared by the whole call or by at least
    _SHARED_ROWS rows lays its rows out as 2-D _quad_sums blocks (phasors
    from _root_table(b, sign) when there are enough); the other rows are
    exponentiated _SWEEP_PHASORS computed terms at a time and laid out one
    by one.
    """
    if np.ndim(moduli) == 0:
        b = int(moduli)
        p = b // 2 if b % 4 == 0 else b
        m = np.arange(b) % p
        return _quad_sums(np.arange(_period_terms(b)), coeffs, b, sign,
                          layout=np.minimum(m, p - m))
    out = np.empty(len(moduli), dtype=complex)
    order = np.argsort(moduli, kind="stable")
    values, firsts, counts = np.unique(moduli[order], return_index=True, return_counts=True)
    many = counts >= _SHARED_ROWS
    for b, first, count in zip(values[many].tolist(), firsts[many].tolist(),
                               counts[many].tolist()):
        rows = order[first:first + count]
        out[rows] = _period_sums(coeffs[rows], b, sign)
    rows = order[~np.repeat(many, counts)]
    terms = _period_terms(moduli[rows]).astype(np.int64)
    for block in _blocks(terms.tolist()):
        b, k, at = moduli[rows[block]], terms[block], rows[block]
        starts = np.cumsum(k) - k
        flat = np.repeat(b, k)
        m = np.arange(len(flat)) - np.repeat(starts, k)
        q = _phase_exp(_quad_residues(m, np.repeat(coeffs[at], k), flat), flat, sign)
        row_buf = np.empty(int(b.max()), dtype=complex)
        for i, l, a, h in zip(at.tolist(), b.tolist(), starts.tolist(), k.tolist()):
            p = l // 2 if l % 4 == 0 else l
            row = row_buf[:l]
            row[:h] = q[a:a + h]
            # m = h .. p-1 take the phasor of p - m = p-h .. 1
            row[h:p] = q[a + p - h:a:-1]
            row[p:] = row[:l - p]
            out[i] = row.sum()
    return out


def discrete_sum(n_target: int, l: int, w: WeightProfile) -> complex:
    """Continuous sum restricted to the integer argument l: weighted exp[2 pi i m^2 l / N]."""
    return complex(discrete_sweep(n_target, [l], w)[0])


def discrete_sweep(n_target: int, ls, w: WeightProfile) -> np.ndarray:
    """discrete_sum(n_target, l, w) for every l in ls, bitwise the same: one
    _quad_sums row of 2M+1 weighted terms per l, all of modulus N.

    Terms m and -m are equal: m^2 has one residue, and the weights are
    symmetric bit for bit.  So only the M+1 terms m >= 0 are exponentiated
    and weighted, and each row is laid out as the term of |m| for
    m = -M .. M.
    """
    if n_target < 1:
        raise ValueError("n_target and l must be positive")
    coeffs = _reduced(_trial_arguments(ls), n_target)
    return _quad_sums(np.arange(w.m_max + 1), coeffs, n_target,
                      weights=w.weights()[w.m_max:], layout=np.abs(w.indices()))


def standard_gauss(a, b: int) -> complex | np.ndarray:
    """Standard quadratic Gauss sum G(a, b): sum over one period b of exp(2 pi i m^2 a / b).

    `a` may be an integer array; the result then has a's shape, one sum per
    element, each a _period_sums row of b terms with the bits of a scalar call.
    """
    if b < 1:
        raise ValueError("b must be positive")
    out = _period_sums(_reduced(a, b).reshape(-1), b)
    return complex(out[0]) if np.ndim(a) == 0 else out.reshape(np.shape(a))


def finite_w(q: int, r: int, m: int) -> complex:
    """Finite Gauss sum (1/r) sum_p exp[2 pi i (q p^2 + m p) / r] = wtilde(2q, m, 0, r)."""
    return complex(wtilde_b_sweep(2 * q, 0, r, [m])[0])


def wtilde(a: int, b: int, c: int, r: int) -> complex:
    """Half-integer-phase sum (1/r) sum_p exp[(i pi / r)(p^2 a + 2 b p + p c)]."""
    return complex(wtilde_b_sweep(a, c, r, [b])[0])


def wtilde_b_sweep(a, c, r: int, b_values=None) -> np.ndarray:
    """wtilde evaluated for every b in b_values (default: all b in [0, r)).

    `a` and `c` may be integer arrays: they broadcast against each other and
    give one row per (a, c) pair, so the result has shape
    broadcast(a, c).shape + (len(b_values),); scalars give a 1-D array.

    The half-integer phase is reduced mod 2r exactly, so its phasors f_p all
    come from one table, the 2r-th roots of unity.  The sum over p is then an
    inverse DFT: (1/r) sum_p f_p exp(2 pi i b p / r) = ifft(f)[b].
    """
    if r < 1:
        raise ValueError("r must be positive")
    p = np.arange(r, dtype=np.int64)
    two_r = 2 * r
    # reduced before the int64 cast, so Python-int coefficients of any size work
    a_res = np.asarray(a % two_r, dtype=np.int64)[..., None]
    c_res = np.asarray(c % two_r, dtype=np.int64)[..., None]
    base = ((p * p) % two_r * a_res + p * c_res) % two_r
    sums = np.fft.ifft(_root_table(two_r)[base], axis=-1)
    return sums if b_values is None else sums[..., _reduced(b_values, r)]


def reciprocate_truncated_sweep(n_target: int, ls, m_terms: int) -> np.ndarray:
    """Truncated reciprocate sums (1/M) sum_{m=0}^{M-1} exp(-2 pi i m^2 N / l),
    M = m_terms, for every l in ls: one _quad_sums row of M phasors per l."""
    ls = _trial_arguments(ls)
    if m_terms < 1:
        raise ValueError("m_terms must be >= 1")
    coeffs = _reduced(n_target, ls)
    return _quad_sums(np.arange(m_terms), coeffs, ls, sign=-1.0) / m_terms


def reciprocate_complete(n_target: int, l: int) -> complex:
    """Complete reciprocate sum: all l terms, (1/l) sum exp(-2 pi i m^2 N / l)."""
    return complex(reciprocate_complete_sweep(n_target, [l])[0])


def reciprocate_complete_sweep(n_target, ls) -> np.ndarray:
    """reciprocate_complete(n_target, l) for every l in ls, bitwise the same:
    one _period_sums row of l terms per l, of which only l // 2 + 1
    (l // 4 + 1 when 4 | l) are exponentiated.

    n_target may be an integer array with one N per l.
    """
    ls = _trial_arguments(ls)
    return _period_sums(_reduced(n_target, ls), ls, sign=-1.0) / ls.astype(float)


def monte_carlo_sum(n_target: int, l: int, sample_count: int, seed: int) -> complex:
    """Average of exp(-2 pi i m^2 N / l) over sample_count indices drawn
    uniformly without replacement from [0, l); deterministic for a given seed.

    Sampled indices are summed in ascending order, so the full index set
    reproduces reciprocate_complete bit for bit.
    """
    if l < 1:
        raise ValueError("l must be positive")
    if not 1 <= sample_count <= l:
        raise ValueError("sample_count must be in [1, l]")
    picks = sorted(random.Random(seed).sample(range(l), sample_count))
    row = _quad_sums(np.array(picks), np.array([n_target % l]), l, sign=-1.0)
    return complex(row[0] / sample_count)


@lru_cache(maxsize=128)
def _dlog_table(n: int) -> tuple[int, ...]:
    """Discrete logs to the smallest primitive root: table[x] = t with g^t = x mod n."""
    g = primitive_root(n)
    table = [0] * n
    acc = 1
    for t in range(n - 1):
        table[acc] = t
        acc = (acc * g) % n
    return tuple(table)


def _char_rows(n: int, ks) -> np.ndarray:
    """The character table of a prime n for the indices ks, one row
    chi_k(x), x in [0, n), per k: zero at x = 0, and at x = g^t the root
    exp(2 pi i k t / (n-1)) gathered from _root_table(n-1) at the exact
    residue (k t) mod (n-1)."""
    t = np.array(_dlog_table(n)[1:], dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    rows = np.zeros((len(ks), n), dtype=complex)
    rows[:, 1:] = _root_table(n - 1)[(ks[:, None] * t) % (n - 1)]
    return rows


@lru_cache(maxsize=256)
def _char_values(chi: CharacterSpec) -> np.ndarray:
    """chi(x) for every x in [0, n): the _char_rows row of chi's index."""
    return _char_rows(chi.modulus, [chi.index])[0]


def character_eval(chi: CharacterSpec, x: int) -> complex:
    """chi(x mod n); zero at x = 0."""
    return complex(_char_values(chi)[x % chi.modulus])


def _ring_sweeps(rows: np.ndarray) -> np.ndarray:
    """n times the inverse DFT of each row of n character values: row k holds
    G(chi_k, beta) for every beta, since
    ifft(v)[beta] = (1/n) sum_x v[x] exp(2 pi i beta x / n)."""
    sweeps = np.fft.ifft(rows, axis=-1)
    sweeps *= rows.shape[-1]
    return sweeps


def ring_gauss_sweep(chi: CharacterSpec) -> np.ndarray:
    """ring_gauss(chi, beta) for every beta in [0, n): _ring_sweeps of chi's
    character table."""
    return _ring_sweeps(_char_values(chi))


def ring_gauss(chi: CharacterSpec, beta: int) -> complex:
    """Gauss sum over Z/nZ: sum_x chi(x) exp(2 pi i beta x / n), n prime.

    The phasors are gathered from the root table at the exact residues
    beta x mod n (the same bits as exponentiating each residue), not from
    ring_gauss_sweep, which this direct sum is checked against.
    """
    n = chi.modulus
    x = np.arange(n, dtype=np.int64)
    phases = _root_table(n)[(x * (beta % n)) % n]
    return complex((_char_values(chi) * phases).sum())
