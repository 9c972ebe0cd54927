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

# Phasors per row block of _real_sums, whose work arrays (41 bytes per
# phasor, about 1.3 MB) are made once per call.  Measured on a 2-vCPU host,
# fresh process per run: at 1 << 14 the N=1001 scan peaked 1.3 MB lower
# (48.5 against 49.8 MB; the kernel that allocated per block peaked at
# 53.0 MB) but the N=201 factor run took 5-8% longer; 1 << 16 raised the
# factor run's peak by 2.6 MB for no time told apart from noise.
_BLOCK_PHASORS = 1 << 15

# Phasors per block of the integer sweeps, so a block's complex arrays stay
# at 128 KB, glibc malloc's default threshold for mapping a block apart from
# its heap.  At 1 << 15 the integer_schemes peak RSS was 2.5 MB higher.
_SWEEP_PHASORS = 1 << 13

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

    int64 stays exact for (m*m) % b and the follow-up multiply while every
    modulus and every |m| is at most _INT64_SAFE_MODULUS; otherwise the same
    expression runs on Python ints in an object array.
    """
    small = np.max(b) <= _INT64_SAFE_MODULUS and np.max(np.abs(m)) <= _INT64_SAFE_MODULUS
    dtype = np.int64 if small else object
    m, c, b = (np.asarray(x, dtype=dtype) for x in (m, c, b))
    return ((m * m) % b * c) % b


def _reduced(x, b) -> np.ndarray:
    """x mod b elementwise, computed in Python ints (exact for integers of any
    size) and returned in b's dtype, where the residues fit."""
    return np.asarray(np.asarray(x, dtype=object) % b, dtype=np.asarray(b).dtype)


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


# Callers sweep one modulus at a time (the verify suites and acceptance
# criteria), so a few cached tables give every hit and a caller's large
# modulus is not kept alive for long.
_TABLE_CACHE = 4


@lru_cache(maxsize=_TABLE_CACHE)
def _root_table(n: int) -> np.ndarray:
    """Read-only table of the n-th roots of unity exp(2 pi i k / n), k in [0, n),
    each entry the bits _phase_exp gives for its residue k."""
    table = _phase_exp(np.arange(n), n)
    table.flags.writeable = False
    return table


def _real_sums(xis, spec: ContinuousSpec, m, weights) -> np.ndarray:
    """Row sums sum_j weights[j] exp[2 pi i (m_j/A + m_j^2/B) xi], one per
    real argument xi, with phases reduced mod 1 in 80-bit precision.

    Rows run in blocks of about _BLOCK_PHASORS phasors through work arrays
    made once per call, so memory does not grow with the grid and no block
    allocates; each row is summed on its own, so results are bitwise
    identical however the grid is chunked.

    The reduction gives the value of np.mod(t, 1): t - trunc(t) is exact
    while |t| < 2^63 (trunc by the int64 cast), and adding 1 to a negative
    remainder rounds once as np.mod does.  Only at t = -0 does the sign bit
    differ (-0 against np.mod's +0); that turn's phasor (1, -0) times a real
    weight has a +0 imaginary part either way, so no sum changes.  A call
    whose phases may reach 2^62 (or are not finite), or that fits in one
    block, reduces with np.mod.
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
    # A call of one block takes np.mod: on a row of 81 phasors the bound and
    # the truncation's four steps cost about 19 us against np.mod's 3 us.
    # The bound keeps every |x * c| < 2^63 with a factor 2 for its own
    # rounding; a NaN in xs makes it NaN, and the test False.
    truncate = len(xs) > rows and (
        max(float(xs.max()), -float(xs.min())) * float(np.abs(coeff).max()) < 2.0**62)
    x_buf = np.empty((rows, 1), dtype=np.longdouble)
    t_buf = np.empty((rows, len(coeff)), dtype=np.longdouble)
    f_buf = np.empty(t_buf.shape)
    k_buf = f_buf.view(np.int64)
    neg_buf = np.empty(t_buf.shape, dtype=bool)
    p_buf = np.empty(t_buf.shape, dtype=complex)
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
        np.copyto(f, t)
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


def _trial_arguments(ls) -> np.ndarray:
    """Trial arguments as a 1-D integer array, all of them positive.

    A sequence becomes int64, or an object array of Python ints when some
    value does not fit (np.asarray would make such a list float64).
    """
    if not isinstance(ls, np.ndarray):
        try:
            ls = np.array(ls, dtype=np.int64)
        except OverflowError:
            ls = np.array(ls, dtype=object)
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


def _quad_sums(m, coeffs, moduli, sign: float = 1.0, weights=None) -> np.ndarray:
    """Row sums sum_j weights[j] exp(sign 2 pi i m_j^2 c / n), one per residue
    coefficient c in coeffs, with one modulus n per row or one shared by all.

    Each row is summed on its own (the pairwise order of a 1-D sum),
    _SWEEP_PHASORS phasors at a time.  With a shared modulus, a positive
    sign and at least n phasors to make, they are gathered from
    _root_table(n) (the bits exponentiating each residue gives).
    """
    shared = np.ndim(moduli) == 0
    table = None
    if shared and sign > 0 and moduli <= min(_INT64_SAFE_MODULUS, len(coeffs) * len(m)):
        table = _root_table(moduli)
    out = np.empty(len(coeffs), dtype=complex)
    for block in _blocks([len(m)] * len(coeffs)):
        b = moduli if shared else moduli[block, None]
        res = _quad_residues(m, coeffs[block, None], b)
        phasors = _phase_exp(res, b, sign) if table is None else table[res]
        out[block] = (phasors if weights is None else weights * phasors).sum(axis=1)
    return out


def discrete_sum(n_target: int, l: int, w: WeightProfile) -> complex:
    """Continuous sum restricted to the integer argument l: weighted exp[2 pi i m^2 l / N]."""
    return complex(discrete_sweep(n_target, [l], w)[0])


def discrete_sweep(n_target: int, ls, w: WeightProfile) -> np.ndarray:
    """discrete_sum(n_target, l, w) for every l in ls, bitwise the same: one
    _quad_sums row of 2M+1 weighted terms per l, all of modulus N."""
    if n_target < 1:
        raise ValueError("n_target and l must be positive")
    coeffs = _reduced(_trial_arguments(ls), n_target)
    return _quad_sums(w.indices(), coeffs, n_target, weights=w.weights())


def standard_gauss(a, b: int) -> complex | np.ndarray:
    """Standard quadratic Gauss sum G(a, b): sum over one period b of exp(2 pi i m^2 a / b).

    `a` may be an integer array; the result then has a's shape, one sum per
    element, each a _quad_sums row of b terms with the bits of a scalar call.
    """
    if b < 1:
        raise ValueError("b must be positive")
    out = _quad_sums(np.arange(b), _reduced(a, b).reshape(-1), b)
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


def reciprocate_complete_sweep(n_target: int, ls) -> np.ndarray:
    """reciprocate_complete(n_target, l) for every l in ls, bitwise the same.

    Term l - m has the residue of term m, since (l - m)^2 = m^2 (mod l), so
    only the terms m <= l // 2 are exponentiated, for runs of l holding
    _SWEEP_PHASORS of them.  Each l's terms are then laid out in the order
    m = 0 .. l-1 (its half, then the half mirrored) and summed on their own,
    so every sum keeps the pairwise order of a 1-D sum over its l terms.
    """
    ls = _trial_arguments(ls)
    halves = (ls // 2 + 1).astype(np.int64)
    out = np.empty(len(ls), dtype=complex)
    for block in _blocks(halves.tolist()):
        b, h = ls[block], halves[block]
        starts = np.cumsum(h) - h
        moduli = np.repeat(b, h)
        m = np.arange(len(moduli)) - np.repeat(starts, h)
        q = _phase_exp(_quad_residues(m, np.repeat(_reduced(n_target, b), h), moduli),
                       moduli, sign=-1.0)
        terms = np.empty(int(b.max()), dtype=complex)
        sums = np.empty(len(b), dtype=complex)
        for i, (l, a, k) in enumerate(zip(b.tolist(), starts.tolist(), h.tolist())):
            row = terms[:l]
            row[:k] = q[a:a + k]
            # m = k .. l-1 take the phasor of l - m = l-k .. 1
            row[k:] = q[a + l - k:a:-1]
            sums[i] = row.sum()
        out[block] = sums / b.astype(float)
    return out


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
