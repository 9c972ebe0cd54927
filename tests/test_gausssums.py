import cmath
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfactor import factorizer as fz
from gaussfactor import gausssums as gs
from gaussfactor.decomposition import recommend_weight_width

W10 = gs.WeightProfile(10.0, 40)
SPEC33 = gs.ContinuousSpec(1.0, 33.0)


def broad_profile(n: int, margin: float = 2.0) -> gs.WeightProfile:
    return gs.WeightProfile.for_width(recommend_weight_width(n, margin))


def mod_mul_phase(m: int, c: int, d: int) -> Fraction:
    """Exact phase fraction ((m^2 * c) mod d) / d in [0, 1), in Python ints."""
    return Fraction(((m * m) % d) * (c % d) % d, d)


def one_piece_grid(xis, spec, w):
    """The unblocked kernel: the whole grid x terms phase matrix at once,
    reduced with t - floor(t)."""
    m = w.indices().astype(np.longdouble)
    coeff = m / np.longdouble(spec.a_param) + m * m / np.longdouble(spec.b_param)
    t = np.outer(np.asarray(xis, dtype=np.longdouble), coeff)
    t -= np.floor(t)
    return (np.exp(2j * np.pi * t.astype(float)) * w.weights()).sum(axis=1)


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


class TestWeightProfile:
    def test_normalized_to_one(self):
        for dm, m in ((10.0, 40), (8.0, 32), (3.0, 12), (25.0, 100)):
            w = gs.WeightProfile(dm, m)
            assert abs(w.weights().sum() - 1.0) < 1e-12

    def test_positive_and_symmetric(self):
        w = W10.weights()
        assert (w > 0).all()
        assert np.allclose(w, w[::-1], rtol=0, atol=0)

    def test_default_truncation(self):
        assert gs.WeightProfile.for_width(10.0).m_max == 40
        assert gs.WeightProfile.for_width(10.2).m_max == 41

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.WeightProfile(0.0, 10)
        with pytest.raises(ValueError):
            gs.WeightProfile(5.0, 0)

    @pytest.mark.parametrize("dm", [math.inf, -math.inf, math.nan])
    def test_non_finite_width_rejected(self, dm):
        with pytest.raises(ValueError, match="finite and positive"):
            gs.WeightProfile(dm, 10)

    @pytest.mark.parametrize("dm", [1e-300, 2e-170, 5e-324])
    def test_width_whose_square_underflows_rejected(self, dm):
        with pytest.raises(ValueError, match="square underflows to 0"):
            gs.WeightProfile(dm, 1)

    def test_smallest_accepted_widths_keep_their_weights(self):
        # the smallest widths whose square does not underflow
        for dm in (1e-160, 2.3e-162, 1e-3):
            w = gs.WeightProfile(dm, 2)
            raw = w.raw_weight(w.indices())
            amp = 1.0 / math.sqrt(gs.TWO_PI * dm**2)
            assert raw[2] == amp and w.weights().tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("dm", [1e-160, 2.3e-162, 1.4e-154, 1.5e-154, 1e-3, 0.7, 10.0, 284.25])
    def test_weights_keep_their_words_without_warning(self, dm):
        # widths below about 1.5e-154 overflow (mu / dm)^2 to inf, a 0 weight
        w = gs.WeightProfile(dm, 3)
        mu = np.linspace(-3.0, 3.0, 13)
        with np.errstate(over="ignore"):
            old = 1.0 / math.sqrt(gs.TWO_PI * dm**2) * np.exp(-0.5 * (mu / dm) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(bits(w.raw_weight(mu)), bits(old))
            w.weights()

    @pytest.mark.parametrize("a, b", [(math.nan, 33.0), (1.0, math.nan), (math.inf, 33.0),
                                      (1.0, math.inf), (1.0, -33.0)])
    def test_nan_continuous_parameters_rejected(self, a, b):
        with pytest.raises(ValueError, match="A and B must be finite and positive"):
            gs.ContinuousSpec(a, b)


class TestContinuousSum:
    def test_zero_argument_is_one(self):
        assert abs(gs.continuous_sum(0.0, SPEC33, W10) - 1.0) < 1e-13

    def test_n33_local_maxima_at_factors(self):
        for l in (3, 11):
            at = abs(gs.continuous_sum(float(l), SPEC33, W10)) ** 2
            for off in (-0.02, -0.01, 0.01, 0.02):
                assert at > abs(gs.continuous_sum(l + off, SPEC33, W10)) ** 2

    def test_a8_suppresses_factor_peak(self):
        spec8 = gs.ContinuousSpec(8.0, 33.0)
        at3 = abs(gs.continuous_sum(3.0, spec8, W10)) ** 2
        nearby = max(
            abs(gs.continuous_sum(3.0 + off, spec8, W10)) ** 2
            for off in np.arange(0.01, 0.31, 0.01)
        )
        assert at3 < 1.2 * nearby

    def test_a_33_over_7_behaves_like_a1(self):
        spec7 = gs.ContinuousSpec(33.0 / 7.0, 33.0)
        at3 = abs(gs.continuous_sum(3.0, spec7, W10)) ** 2
        at3_ref = abs(gs.continuous_sum(3.0, SPEC33, W10)) ** 2
        assert abs(at3 - at3_ref) < 1e-3
        for off in (-0.02, -0.01, 0.01, 0.02):
            assert at3 > abs(gs.continuous_sum(3.0 + off, spec7, W10)) ** 2

    def test_periodicity(self):
        for xi in (0.37, 2.0, 5.81, 13.5):
            a = gs.continuous_sum(xi, SPEC33, W10)
            b = gs.continuous_sum(xi + 33.0, SPEC33, W10)
            assert abs(a - b) < 1e-12

    def test_grid_matches_scalar(self):
        xis = np.arange(2.0, 4.0, 0.13)
        grid = gs.continuous_sum_grid(xis, SPEC33, W10)
        for x, v in zip(xis, grid):
            assert v == gs.continuous_sum(float(x), SPEC33, W10)


class TestBlockedKernel:
    # signed zeros, negative and |xi| ~ 1e6 arguments, integers and halves
    XIS = np.concatenate(
        [[0.0, -0.0, -3.0, -2.5, -1e6 - 0.37, 1e6 + 0.123, 987654.321],
         np.linspace(-40.0, 40.0, 1000)]
    )

    @pytest.mark.parametrize("budget", [1, 81 * 3, 1000, gs._BLOCK_PHASORS])
    def test_bitwise_equal_to_one_piece(self, budget, monkeypatch):
        # 1007 rows: never a whole number of blocks of 3, 12 or 404 rows
        monkeypatch.setattr(gs, "_BLOCK_PHASORS", budget)
        for spec in (SPEC33, gs.ContinuousSpec(33.0 / 7.0, 33.0)):
            got = gs.continuous_sum_grid(self.XIS, spec, W10)
            assert np.array_equal(bits(got), bits(one_piece_grid(self.XIS, spec, W10)))

    def test_terms_above_budget(self):
        w = gs.WeightProfile(5000.0, 20_000)
        assert 2 * w.m_max + 1 > gs._BLOCK_PHASORS  # one row per block
        xis = self.XIS[:7]
        got = gs.continuous_sum_grid(xis, SPEC33, w)
        assert np.array_equal(bits(got), bits(one_piece_grid(xis, SPEC33, w)))

    def test_empty_grid(self):
        assert gs.continuous_sum_grid(np.array([]), SPEC33, W10).shape == (0,)

    @staticmethod
    def traced_peak(call) -> tuple[int, np.ndarray]:
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, out

    @staticmethod
    def working_set_bound(out: np.ndarray, terms: int) -> int:
        """The output, 25 bytes per block phasor (the shared phase and phasor
        buffer, the float64 turns and the sign mask), and a stated slack:
        two NumPy cast buffers of np.getbufsize() longdoubles (t -= k casts
        the int64 turns, np.copyto the phases), the (rows, 1) argument
        column, eight rows of `terms` longdoubles for the coefficients and
        their temporaries, and 16 KiB of small objects."""
        rows = max(1, gs._BLOCK_PHASORS // terms)
        slack = 2 * np.getbufsize() * 16 + 16 * (rows + 8 * terms) + 16 * 1024
        return out.nbytes + 25 * rows * terms + slack

    @pytest.mark.parametrize("n, xis, w", [
        (1001, 2.0 + 0.004 * np.arange(100_000), gs.WeightProfile.for_width(4.0)),
        (201, 1.0 + 0.01 * np.arange(20001), broad_profile(201)),
    ])
    def test_working_set_is_25_bytes_a_block_phasor(self, n, xis, w):
        # with the phases and the phasors in arrays of their own, a block
        # phasor took 41 bytes: about 510 KB more than this bound allows
        m, weights = w.indices(), w.weights()
        peak, out = self.traced_peak(
            lambda: gs._real_sums(xis, gs.ContinuousSpec(1.0, float(n)), m, weights))
        assert peak <= self.working_set_bound(out, len(m))

    def test_peak_memory_bounded_at_n201(self):
        # the one-piece kernel peaks near 1 GB here (20001 x 1139 phases)
        w = broad_profile(201)
        xis = 1.0 + 0.01 * np.arange(20001)
        peak, out = self.traced_peak(
            lambda: gs.continuous_sum_grid(xis, gs.ContinuousSpec(1.0, 201.0), w))
        assert peak <= self.working_set_bound(out, 2 * w.m_max + 1)


def mod_reference(xis, spec, m, weights, rows=64):
    """The kernel's former formula: each row block's longdouble phases
    reduced by np.mod(t, 1), then np.exp(2j * pi * t), weighted and summed
    one row at a time."""
    m = np.asarray(m, dtype=np.longdouble)
    coeff = m / np.longdouble(spec.a_param) + m * m / np.longdouble(spec.b_param)
    xs = np.asarray(xis, dtype=np.longdouble)
    out = np.empty(len(xs), dtype=complex)
    for start in range(0, len(xs), rows):
        t = np.mod(np.outer(xs[start:start + rows], coeff), 1)
        out[start:start + rows] = (np.exp(2j * np.pi * t.astype(float)) * weights).sum(axis=1)
    return out


# xi one ulp off a multiple of B = 33 puts every A = 1 phase m xi + m^2 xi / B
# just below or just above an integer
NEAR_33 = np.array([np.nextafter(33.0 * k, d) for k in range(-3, 4) for d in (-np.inf, np.inf)])

# (A, xis): a grid of three blocks of W10's 81 terms, then calls of one
# block (at most 404 rows), which took np.mod while only calls of more than
# one block truncated
KERNEL_GRIDS = [
    *(pytest.param(a, np.concatenate([
        [0.0, -0.0, -3.0, -2.5, -1e6 - 0.37, 1e6 + 0.123, 987654.321],
        NEAR_33, np.linspace(-40.0, 40.0, 1001)]), id=str(a)) for a in (1.0, 0.37)),
    *(pytest.param(a, np.array(x, dtype=float), id=f"{a}-{name}") for a in (1.0, 0.37)
      for name, x in [("0.0", [0.0]), ("-0.0", [-0.0]), ("-3", [-3.0]), ("12.345", [12.345]),
                      ("1e8", [1e8]), ("-1e12", [-1e12]),
                      ("61-points", np.linspace(-40.0, 40.0, 61)), ("empty", [])]),
]


class TestKernelBitwise:
    """_real_sums must give the words of the np.mod and np.exp formula.

    The kernel reduces phases by int64 truncation (in calls whose phases
    stay below 2^62, else by np.mod) and writes phasors with cos and sin.  NumPy picks its SIMD sin, cos and exp loops
    per build and CPU, so this is checked on the kernel's real grids, not
    assumed: a build whose sin/cos differ from its complex exp fails here,
    and the continuous outputs would then move.
    """

    @staticmethod
    def differing_words(xis, spec, w: gs.WeightProfile) -> int:
        m, weights = w.indices(), w.weights()
        got = gs._real_sums(xis, spec, m, weights)
        return int(np.count_nonzero(bits(got) != bits(mod_reference(xis, spec, m, weights))))

    def test_n201_margin2_factor_grid(self):
        # the grid of `factor --scheme continuous --n 201` with margin-2
        # weights: 20001 x 1139 phasors
        w = broad_profile(201)
        xis = 1.0 + 0.01 * np.arange(20001)
        assert self.differing_words(xis, gs.ContinuousSpec(1.0, 201.0), w) == 0

    def test_33_term_scan_grid(self):
        # the shape of `scan --n 1001 --dm 4`: 33 terms on a long fine grid
        w = gs.WeightProfile.for_width(4.0)
        assert 2 * w.m_max + 1 == 33
        xis = 2.0 + 0.004 * np.arange(60_000)
        assert self.differing_words(xis, gs.ContinuousSpec(1.0, 1001.0), w) == 0

    @pytest.mark.parametrize("a_param, xis", KERNEL_GRIDS)
    def test_signed_zeros_negative_and_near_integer_phases(self, a_param, xis):
        spec = gs.ContinuousSpec(a_param, 33.0)
        assert self.differing_words(xis, spec, W10) == 0
        m = W10.indices().astype(np.longdouble)
        turns = np.mod(np.outer(NEAR_33.astype(np.longdouble), m + m * m / 33), 1)
        assert turns.max() > 1 - 1e-12 and 0 < turns[turns > 0].min() < 1e-12

    def test_phases_past_2_63_take_np_mod(self, monkeypatch):
        # int64 truncation is wrong here (other values and an "invalid value
        # encountered in cast" warning), so this grid must reduce with np.mod;
        # blocks of 2 rows, so the one-block rule does not decide it
        monkeypatch.setattr(gs, "_BLOCK_PHASORS", 2 * 33)
        w = gs.WeightProfile.for_width(4.0)
        xis = np.arange(1e18, 1.000000000000001e18, 128.0)
        spec = gs.ContinuousSpec(1.0, 33.0)
        m = w.indices()
        assert xis.max() * float(np.max(m + m * m / 33.0)) > 2.0**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.differing_words(xis, spec, w) == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    def test_n201_call_does_not_fault_per_block(self):
        # allocating each block's temporaries afresh cost about 200,000 minor
        # page faults here: glibc gave the memory back to the OS after each
        # block and the next block faulted it in again.  A fresh interpreter
        # runs the call, since earlier tests move malloc's trim thresholds.
        code = (
            "import resource, numpy as np\n"
            "from gaussfactor import gausssums as gs\n"
            "from gaussfactor.decomposition import recommend_weight_width\n"
            "w = gs.WeightProfile.for_width(recommend_weight_width(201, 2.0))\n"
            "xis = 1.0 + 0.01 * np.arange(20001)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "gs.continuous_sum_grid(xis, gs.ContinuousSpec(1.0, 201.0), w)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.dirname(os.path.dirname(gs.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert int(run.stdout) < 20_000


class TestPhaseExpBitwise:
    """Every integer-argument phasor comes from _phase_exp's cos/sin writer;
    it must carry the bits of the complex exponential it replaced, for both
    signs.  At residue 0 with sign -1 the complex product gives the argument
    a +0 imaginary part, which the writer reproduces by adding +0.0; without
    that step the phasor there has a -0 imaginary part."""

    @staticmethod
    def differing_words(moduli, sign) -> int:
        n = np.repeat(moduli, moduli)
        k = np.arange(len(n)) - np.repeat(np.cumsum(moduli) - moduli, moduli)
        got = gs._phase_exp(k, n, sign)
        ref = np.exp(sign * 2j * np.pi * (k / n))
        return int(np.count_nonzero(bits(got) != bits(ref)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_residue_below_3000(self, sign):
        for start in range(1, 3000, 300):
            assert self.differing_words(np.arange(start, min(start + 300, 3000)), sign) == 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_moduli_above_1e5(self, sign):
        assert self.differing_words(np.array([100_003, 262_144, 531_441, 999_983]), sign) == 0


class TestQuadResidues:
    def test_indices_past_the_int64_square_take_python_ints(self):
        # m * m wraps in int64 once |m| passes about 3.04e9, whatever the modulus
        m = np.array([3_100_000_000, -3_100_000_000, 2**40, -(2**40) - 1, 5, 0])
        for b in (7, 1_000_003, gs._INT64_SAFE_MODULUS):
            c = 123_456_789 % b
            expect = [(int(v) ** 2 % b) * c % b for v in m]
            assert gs._quad_residues(m, c, b).tolist() == expect

    def test_small_arguments_stay_int64(self):
        res = gs._quad_residues(np.arange(-5, 6), 3, gs._INT64_SAFE_MODULUS)
        assert res.dtype == np.int64


class TestPrecisionCheck:
    def test_short_longdouble_refused_integer_sums_kept(self, monkeypatch):
        monkeypatch.setattr(gs, "_LONGDOUBLE_NMANT", 52)
        with pytest.raises(gs.PrecisionError, match="80-bit"):
            gs.continuous_sum(1.0, SPEC33, W10)
        with pytest.raises(gs.PrecisionError):
            gs.continuous_sum_grid(np.array([1.0, 2.0]), SPEC33, W10)
        assert abs(gs.reciprocate_complete(15, 5)) == pytest.approx(1.0)
        assert gs.discrete_sum(39, 39, W10) == pytest.approx(1.0)
        assert gs.standard_gauss(1, 4) == pytest.approx(2 + 2j)


# The precision range of the continuous kernel: its phase error in turns is
# at most about PHASE_ERROR_CONSTANT * 2^-63 * max|xi| * max|m/A + m^2/B|
# (the longdouble roundings of the coefficient and of xi times it), plus the
# float64 rounding of the turns and of 2 pi times them.  Over these cases
# the largest measured constant was 0.043 (N = 100003, k = 10^9); three
# roundings of at most 2^-64 each give at most 1.5 a priori.
PHASE_ERROR_CONSTANT = 1 / 16


class TestPrecisionRange:
    """With A = 1 and B = N the sum has period N in xi, and at xi = l + kN
    it is the exact-residue discrete_sweep(N, l): a reference at any size."""

    @pytest.mark.parametrize("n, dm", [(33, 2.0), (1001, 4.0), (100003, 4.0)])
    @pytest.mark.parametrize("k", [0, 10**6, 10**9])
    def test_within_the_stated_bound_of_the_discrete_sum(self, n, dm, k):
        w = gs.WeightProfile(dm, math.ceil(4 * dm))
        ls = np.arange(1, 401)
        xis = (ls + k * n).astype(float)  # exact: below 2^53
        got = gs.continuous_sum_grid(xis, gs.ContinuousSpec(1.0, float(n)), w)
        dev = np.abs(got - gs.discrete_sweep(n, ls, w)).max()
        m = w.indices().astype(float)
        turns = 2.0**-63 * xis.max() * np.abs(m + m * m / n).max()
        bound = 2 * math.pi * (PHASE_ERROR_CONSTANT * turns + 2.0**-53)
        assert dev <= bound, (dev, bound)


class TestDiscreteSum:
    def test_argument_equal_to_modulus(self):
        for n in (5, 33, 1911):
            assert abs(gs.discrete_sum(n, n, W10) - 1.0) < 1e-12

    def test_factor_enhancement_39(self):
        v = abs(gs.discrete_sum(39, 3, W10)) ** 2
        assert abs(v - 3 / 39) < 1e-3

    def test_nonfactor_vanishes_42(self):
        w = broad_profile(42)
        assert abs(gs.discrete_sum(42, 5, w)) ** 2 < 1e-6

    def test_periodic_in_l(self):
        for l in (1, 4, 17):
            assert gs.discrete_sum(39, l, W10) == gs.discrete_sum(39, l + 39, W10)

    def test_17_digit_modulus_via_exact_phase_oracle(self):
        n = 10**17 + 9
        w = gs.WeightProfile(3.0, 12)
        for l in (3, 12345678901234567):
            expect = sum(
                wt * cmath.exp(2j * cmath.pi * float(mod_mul_phase(abs(int(m)), l, n)))
                for m, wt in zip(w.indices(), w.weights())
            )
            assert abs(gs.discrete_sum(n, l, w) - expect) < 1e-12


class TestStandardGauss:
    def test_single_term(self):
        assert gs.standard_gauss(1, 1) == 1.0

    def test_b4(self):
        assert abs(gs.standard_gauss(1, 4) - (2 + 2j)) < 1e-12

    def test_3_5_direct(self):
        expect = sum(cmath.exp(2j * cmath.pi * (m * m * 3 % 5) / 5) for m in range(5))
        assert abs(gs.standard_gauss(3, 5) - expect) < 1e-12
        assert abs(gs.standard_gauss(3, 5) - (-math.sqrt(5))) < 1e-9

    def test_shift_invariance(self):
        for a, b in ((1, 7), (3, 12), (5, 9), (0, 4)):
            assert gs.standard_gauss(a + b, b) == gs.standard_gauss(a, b)

    @pytest.mark.parametrize("b", [1, 2, 7, 12, 101, 8200])
    def test_array_matches_scalar_bits(self, b):
        # 8200 > _SWEEP_PHASORS, so each row is a block of its own
        a = np.array([[0, 1, 2, 3], [b - 1, b + 5, -7, 10**6 + 3]])
        got = gs.standard_gauss(a, b)
        assert got.shape == a.shape and got.dtype == complex
        expect = np.array([[gs.standard_gauss(int(x), b) for x in row] for row in a])
        assert bits(got).tolist() == bits(expect).tolist()

    def test_array_keeps_shape_and_scalars_give_complex(self):
        assert gs.standard_gauss(np.arange(6).reshape(2, 3, 1), 5).shape == (2, 3, 1)
        assert gs.standard_gauss(np.array([], dtype=np.int64), 5).shape == (0,)
        assert isinstance(gs.standard_gauss(3, 5), complex)
        assert isinstance(gs.standard_gauss(np.int64(3), 5), complex)

    def test_python_int_coefficients_reduced_exactly(self):
        a = np.array([10**20 + 1, 2**70 + 3], dtype=object)
        assert gs.standard_gauss(a, 13).tolist() == [
            gs.standard_gauss((10**20 + 1) % 13, 13), gs.standard_gauss((2**70 + 3) % 13, 13)
        ]

    @pytest.mark.parametrize("b", [0, -3])
    def test_rejects_b_below_one(self, b):
        with pytest.raises(ValueError, match="b must be positive"):
            gs.standard_gauss(1, b)
        with pytest.raises(ValueError, match="b must be positive"):
            gs.standard_gauss(np.array([1, 2]), b)

    def test_huge_modulus_phases_exact(self):
        # same residue pattern as a small case; values must agree
        n = 10**15
        v = gs.reciprocate_truncated_sweep(n, [4], 4)[0]
        w = gs.reciprocate_truncated_sweep(n % 4, [4], 4)[0]
        assert v == w


class TestFiniteW:
    def test_odd_r(self):
        assert abs(abs(gs.finite_w(1, 3, 0)) - 1 / math.sqrt(3)) < 1e-12

    def test_even_r_zero_row(self):
        assert abs(gs.finite_w(1, 2, 0)) < 1e-12

    def test_2_4_1_direct(self):
        expect = sum(cmath.exp(2j * cmath.pi * ((2 * p * p + p) % 4) / 4) for p in range(4)) / 4
        assert abs(gs.finite_w(2, 4, 1) - expect) < 1e-12
        assert abs(gs.finite_w(2, 4, 1)) < 1e-12

    def test_periodic_in_m(self):
        for q, r in ((1, 5), (3, 8), (2, 7)):
            for m in range(r):
                assert gs.finite_w(q, r, m) == gs.finite_w(q, r, m + r)


class TestWtilde:
    def test_unit_modulus_cases(self):
        assert abs(abs(gs.wtilde(1, 0, 1, 3)) ** 2 - 1 / 3) < 1e-12
        assert abs(abs(gs.wtilde(1, 5, 1, 3)) ** 2 - 1 / 3) < 1e-12

    def test_even_parity_case(self):
        val = abs(gs.wtilde(2, 0, 0, 2)) ** 2
        assert min(abs(val - 0.0), abs(val - 1.0)) < 1e-12
        assert val < 1e-12  # qr/2 + m = 1 is odd

    def test_direct_oracle(self):
        for a, b, c, r in ((1, 0, 1, 3), (3, 2, 1, 5), (2, 1, 0, 4), (5, 3, 7, 8)):
            expect = sum(
                cmath.exp(1j * cmath.pi * (p * p * a + 2 * b * p + p * c) / r)
                for p in range(r)
            ) / r
            assert abs(gs.wtilde(a, b, c, r) - expect) < 1e-12

    def test_b_sweep_matches_scalar(self):
        sweep = gs.wtilde_b_sweep(3, 1, 7)
        for b in range(7):
            assert abs(sweep[b] - gs.wtilde(3, b, 1, 7)) < 1e-14


def wtilde_brute(a, c, r, b_values):
    """wtilde at each b, summed term by term: (1/r) sum_p exp(i pi k / r) with
    the phase numerator k reduced mod 2r in int64."""
    p = np.arange(r, dtype=np.int64)
    return np.array([
        np.exp(1j * np.pi * ((p * p * a + 2 * b * p + p * c) % (2 * r)) / r).sum() / r
        for b in b_values
    ])


class TestWtildeTables:
    @pytest.mark.parametrize("r", [1, 2, 7, 64, 1000, 2999])
    def test_cached_tables_give_the_exponentiated_bits(self, r):
        # the cached root table of order 2r is exponentiating each residue,
        # and the inverse-DFT sweep stays within rounding of the term sums
        expect = np.exp(2j * np.pi * (np.arange(2 * r) / (2 * r)))
        assert bits(gs._root_table(2 * r)).tolist() == bits(expect).tolist()
        for b_values in (None, np.array([0, 2 % r, r - 1, 5 * r + 3, -1])):
            b_list = range(r) if b_values is None else b_values
            for a, c in ((1, 0), (3, 5), (2 * r - 1, 2 * r - 1)):
                got = gs.wtilde_b_sweep(a, c, r, b_values)
                assert np.max(np.abs(got - wtilde_brute(a, c, r, b_list))) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 13, 14, 5998])
    def test_root_table_is_the_phase_exp_bits(self, n):
        expect = gs._phase_exp(np.arange(n), n)
        assert bits(gs._root_table(n)).tolist() == bits(expect).tolist()

    def test_sweep_memory_is_linear_in_r(self):
        # an r x r shift matrix at r = 2999 alone is 144 MB
        gs._root_table.cache_clear()
        tracemalloc.start()
        try:
            gs.wtilde_b_sweep(1, 0, 2999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_cached_table_is_read_only(self):
        with pytest.raises(ValueError):
            gs._root_table(14)[0] = 0.0

    def test_one_cache_entry_per_table(self):
        # the +1 table a shared-modulus sweep gathers from is the one the
        # wtilde and ring callers ask for; the sign -1 table is a second one
        gs._root_table.cache_clear()
        gs.standard_gauss(np.arange(1, 40), 13)
        gs._root_table(13)
        gs.reciprocate_complete_sweep(5, [13] * gs._SHARED_ROWS)
        info = gs._root_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
        gs._root_table.cache_clear()


class TestReciprocate:
    def test_divisor_gives_unity(self):
        for n, l in ((15, 3), (1911, 21), (100, 10)):
            for m_terms in (1, 3, 8):
                assert gs.reciprocate_truncated_sweep(n, [l], m_terms)[0] == 1.0

    def test_15_2_two_terms(self):
        assert abs(gs.reciprocate_truncated_sweep(15, [2], 2)[0]) < 1e-12

    def test_truncated_with_all_terms_is_complete(self):
        complete = gs.reciprocate_complete(1911, 12)
        assert gs.reciprocate_truncated_sweep(1911, [12], 12)[0] == complete

    def test_complete_single_term(self):
        assert gs.reciprocate_complete(1911, 1) == 1.0

    def test_n1911_values(self):
        assert abs(gs.reciprocate_complete(1911, 21) - 1.0) < 1e-12
        assert abs(abs(gs.reciprocate_complete(1911, 12)) - math.sqrt(0.5)) < 1e-12

    def test_depends_on_n_mod_l_only(self):
        for n, l in ((1911, 12), (100, 7), (39, 5)):
            assert gs.reciprocate_complete(n, l) == gs.reciprocate_complete(n % l + l, l)

    def test_rejects_zero_l(self):
        with pytest.raises(ValueError):
            gs.reciprocate_truncated_sweep(15, [0], 3)


class TestMonteCarlo:
    def test_divisor_always_unity(self):
        for seed in (0, 1, 99):
            assert gs.monte_carlo_sum(1911, 21, 5, seed) == 1.0

    def test_full_sample_reproduces_complete_bitwise(self):
        for n, l in ((1911, 50), (39, 17)):
            for seed in (0, 7):
                assert gs.monte_carlo_sum(n, l, l, seed) == gs.reciprocate_complete(n, l)

    def test_seeded_nonfactor_below_half(self):
        assert abs(gs.monte_carlo_sum(1911, 100, 20, seed=1)) < 0.5

    def test_deterministic(self):
        a = gs.monte_carlo_sum(1911, 100, 20, seed=5)
        b = gs.monte_carlo_sum(1911, 100, 20, seed=5)
        assert a == b

    def test_rejects_oversized_sample(self):
        with pytest.raises(ValueError):
            gs.monte_carlo_sum(15, 4, 5, seed=0)


class TestRingGauss:
    def test_quadratic_character_mod_3(self):
        chi = gs.CharacterSpec(3, 1)
        expect = cmath.exp(2j * cmath.pi / 3) - cmath.exp(4j * cmath.pi / 3)
        got = gs.ring_gauss(chi, 1)
        assert abs(got - expect) < 1e-12
        assert abs(got - 1j * math.sqrt(3)) < 1e-12

    def test_modulus_sqrt_n(self):
        for n in (5, 13, 31):
            for k in range(1, n - 1):
                chi = gs.CharacterSpec(n, k)
                for beta in range(1, n):
                    assert abs(abs(gs.ring_gauss(chi, beta)) - math.sqrt(n)) < 1e-10

    def test_trivial_character(self):
        for n in (5, 11):
            chi = gs.CharacterSpec(n, 0)
            assert abs(gs.ring_gauss(chi, 3) - (-1.0)) < 1e-10

    def test_reduction_identity(self):
        for n in (7, 19):
            for k in range(1, n - 1):
                chi = gs.CharacterSpec(n, k)
                g1 = gs.ring_gauss(chi, 1)
                for beta in range(1, n):
                    lhs = gs.ring_gauss(chi, beta)
                    rhs = gs.character_eval(chi, beta).conjugate() * g1
                    assert abs(lhs - rhs) < 1e-10

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            gs.CharacterSpec(15, 1)

    def test_cached_roots_give_the_exponentiated_bits(self):
        # the root-table gather against exponentiating each residue
        for n in (3, 13, 199):
            x = np.arange(n, dtype=np.int64)
            for k in (1, n - 2):
                chi = gs.CharacterSpec(n, k)
                for beta in (-1, 0, 1, 2, n // 2, n + 3, 10**12 + 7):
                    phases = np.exp(2j * np.pi * (((x * (beta % n)) % n) / n))
                    expect = complex((gs._char_values(chi) * phases).sum())
                    assert gs.ring_gauss(chi, beta) == expect
        with pytest.raises(ValueError):
            gs._root_table(13)[1] = 0.0


def old_char_values(n: int, k: int) -> np.ndarray:
    """The character table of chi_k mod n as it was built one character at a
    time, before the block gather."""
    t = np.array(gs._dlog_table(n)[1:], dtype=np.int64)
    vals = np.zeros(n, dtype=complex)
    vals[1:] = gs._root_table(n - 1)[(k * t) % (n - 1)]
    return vals


PRIMES_BELOW_200 = [n for n in range(3, 200) if gs.is_prime(n)]


class TestCharacterBlocks:
    """The ring suite's blocks of characters: their rows, row sums and
    inverse FFT rows give the bits of one-character calls."""

    @pytest.mark.parametrize("n", PRIMES_BELOW_200)
    def test_rows_sums_and_sweeps_match_one_character_calls(self, n):
        ks = np.arange(n - 1)
        rows = gs._char_rows(n, ks)
        g1 = (rows * gs._root_table(n)).sum(axis=1)
        sweeps = gs._ring_sweeps(rows)
        for k in ks.tolist():
            chi = gs.CharacterSpec(n, k)
            old = old_char_values(n, k)
            assert bits(rows[k]).tolist() == bits(old).tolist()
            assert g1[k] == gs.ring_gauss(chi, 1)
            assert bits(sweeps[k]).tolist() == bits(n * np.fft.ifft(old)).tolist()
            assert bits(sweeps[k]).tolist() == bits(gs.ring_gauss_sweep(chi)).tolist()

    def test_block_split_does_not_change_bits(self):
        n, ks = 199, np.arange(1, 198)
        whole = gs._ring_sweeps(gs._char_rows(n, ks))
        parts = np.concatenate([gs._ring_sweeps(gs._char_rows(n, ks[i:i + 41]))
                                for i in range(0, len(ks), 41)])
        assert bits(whole).tolist() == bits(parts).tolist()


class TestCharacterEval:
    def test_anchor_values(self):
        chi = gs.CharacterSpec(7, 2)
        assert gs.character_eval(chi, 0) == 0
        assert abs(gs.character_eval(chi, 1) - 1.0) < 1e-12

    def test_multiplicative_table(self):
        for n, k in ((5, 1), (5, 2), (13, 3)):
            chi = gs.CharacterSpec(n, k)
            for x in range(n):
                for y in range(n):
                    lhs = gs.character_eval(chi, x * y)
                    rhs = gs.character_eval(chi, x) * gs.character_eval(chi, y)
                    assert abs(lhs - rhs) < 1e-12


# -- integer sweeps ----------------------------------------------------------
#
# The per-argument expressions the sweeps replaced, kept as the reference:
# residues reduced exactly (int64 up to the switch, Python ints above it),
# one exponential per residue, one 1-D sum per argument.


def per_l_residues(m, coeff, modulus):
    c = coeff % modulus
    if modulus <= gs._INT64_SAFE_MODULUS:
        mm = np.asarray(m, dtype=np.int64)
        return ((mm * mm) % modulus * c) % modulus
    return np.array([((int(v) * int(v)) % modulus * c) % modulus for v in m], dtype=object)


def per_l_phasors(residues, modulus, sign=1.0):
    frac = np.asarray(residues, dtype=float) / modulus
    return np.exp(sign * 2j * np.pi * frac)


def per_l_truncated(n, l, m_terms):
    res = per_l_residues(np.arange(m_terms), n, l)
    return complex(per_l_phasors(res, l, sign=-1.0).sum() / m_terms)


def per_l_discrete(n, l, w):
    res = per_l_residues(w.indices(), l, n)
    return complex(np.sum(w.weights() * per_l_phasors(res, n)))


# six odd N in [1e5, 1e6] (a prime, a prime power, smooth and two-factor
# numbers) plus the paper's 15, 1911 and the 881-argument 777777
SWEEP_NS = (15, 1911, 100001, 100003, 250001, 531441, 739375, 777777, 999999)
BLOCKS = (1, 7, gs._SWEEP_PHASORS)


class TestIntegerSweepsBitwise:
    @pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(gs, "_SWEEP_PHASORS", request.param)
        return request.param

    @pytest.mark.parametrize("n", SWEEP_NS)
    def test_complete_and_truncated(self, n, block):
        ls = range(1, math.isqrt(n) + 1)
        expect = [per_l_truncated(n, l, l) for l in ls]
        assert np.array_equal(bits(gs.reciprocate_complete_sweep(n, ls)), bits(np.array(expect)))
        for m_terms in (1, 3, 20, 33):
            expect = [per_l_truncated(n, l, m_terms) for l in ls]
            got = gs.reciprocate_truncated_sweep(n, ls, m_terms)
            assert np.array_equal(bits(got), bits(np.array(expect))), m_terms

    @pytest.mark.parametrize("n", (39, 42, 200, 401, 598))
    def test_lines_with_margin2_weights(self, n, block):
        w = broad_profile(n)
        ls = range(1, n + 1)
        expect = np.array([per_l_discrete(n, l, w) for l in ls])
        assert np.array_equal(bits(gs.discrete_sweep(n, ls, w)), bits(expect))

    def test_unsorted_and_repeated_arguments(self, block):
        ls = [9, 1, 30, 9, 2, 17]
        expect = np.array([per_l_truncated(1911, l, l) for l in ls])
        assert np.array_equal(bits(gs.reciprocate_complete_sweep(1911, ls)), bits(expect))

    def test_empty_ranges(self, block):
        for got in (gs.reciprocate_complete_sweep(15, range(1, 1)),
                    gs.reciprocate_truncated_sweep(15, [], 3),
                    gs.discrete_sweep(15, range(0), W10)):
            assert got.shape == (0,) and got.dtype == complex

    def test_per_l_functions_are_one_element_sweeps(self):
        w = broad_profile(42)
        assert gs.reciprocate_complete(1911, 12) == per_l_truncated(1911, 12, 12)
        assert gs.reciprocate_truncated_sweep(1911, [12], 5)[0] == per_l_truncated(1911, 12, 5)
        assert gs.discrete_sum(42, 5, w) == per_l_discrete(42, 5, w)

    @pytest.mark.parametrize("call", [
        lambda: gs.reciprocate_complete_sweep(15, [3, 0]),
        lambda: gs.reciprocate_truncated_sweep(15, [-1], 3),
        lambda: gs.reciprocate_truncated_sweep(15, [3], 0),
        lambda: gs.discrete_sweep(0, [1], W10),
        lambda: gs.discrete_sweep(15, [2, 0], W10),
    ])
    def test_bad_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()


def reference_phasors(n, l, ms, sign):
    """exp(sign 2 pi i m^2 n / l) from Python-int residues and exact
    fractions; float(Fraction(r, l)) is r / l correctly rounded, which the
    float64 division gives too for r and l below 2^53."""
    fracs = np.array([float(Fraction(int(m) ** 2 * n % l, l)) for m in ms])
    return np.exp(sign * 2j * np.pi * fracs)


SWITCH = gs._INT64_SAFE_MODULUS
# moduli on both sides of the int64 / Python-int switch, and far above it
moduli = (st.integers(1, 60) | st.integers(SWITCH - 40, SWITCH + 40)
          | st.integers(SWITCH, 2**52))
targets = st.integers(1, 10**19)


class TestSweepsAgainstExactResidues:
    @given(n=targets, ls=st.lists(moduli, max_size=6), m_terms=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_truncated(self, n, ls, m_terms):
        expect = [complex(reference_phasors(n, l, range(m_terms), -1.0).sum() / m_terms)
                  for l in ls]
        got = gs.reciprocate_truncated_sweep(n, ls, m_terms)
        assert np.array_equal(bits(got), bits(np.array(expect, dtype=complex)))

    @given(n=targets, ls=st.lists(st.integers(1, 300), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_complete(self, n, ls):
        expect = [complex(reference_phasors(n, l, range(l), -1.0).sum() / l) for l in ls]
        got = gs.reciprocate_complete_sweep(n, ls)
        assert np.array_equal(bits(got), bits(np.array(expect, dtype=complex)))

    @given(n=moduli, ls=st.lists(st.integers(1, 10**19), max_size=6),
           m_max=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_discrete(self, n, ls, m_max):
        w = gs.WeightProfile(m_max / 4, m_max)
        expect = [complex(np.sum(w.weights() * reference_phasors(l, n, w.indices(), 1.0)))
                  for l in ls]
        got = gs.discrete_sweep(n, ls, w)
        assert np.array_equal(bits(got), bits(np.array(expect, dtype=complex)))

    def test_python_int_route_above_the_switch(self):
        l = 5_000_000_007
        assert l > SWITCH
        expect = complex(reference_phasors(1911, l, range(20), -1.0).sum() / 20)
        assert gs.reciprocate_truncated_sweep(1911, [l], 20)[0] == expect


def full_row_sum(c: int, b: int, sign: float) -> complex:
    """sum_{m=0}^{b-1} exp(sign 2 pi i m^2 c / b) with every one of the b
    terms exponentiated, in the order m = 0 .. b-1, as one 1-D sum."""
    return complex(reference_phasors(c, b, range(b), sign).sum())


# periods with 4 | b (the quarter layout), b = 2 mod 4 and odd b (the
# mirrored layout), and the smallest ones where a layout is a single term
periods = st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16, 18, 27, 64, 100]) | st.integers(1, 700)
# coefficients before reduction, on both sides of the int64 / Python-int switch
coefficients = (st.integers(0, 10**4) | st.integers(SWITCH - 40, SWITCH + 40)
                | st.integers(2**63 - 40, 2**63 + 40) | st.integers(0, 10**30))


class TestPeriodSums:
    """_period_sums exponentiates only the distinct terms of a period and
    lays the row out again; each path has the bits of the full row."""

    @given(b=periods, cs=st.lists(coefficients, max_size=12), sign=st.sampled_from([1.0, -1.0]),
           block=st.sampled_from([1, 7, gs._SWEEP_PHASORS]))
    @settings(max_examples=80, deadline=None)
    def test_shared_modulus(self, b, cs, sign, block):
        coeffs = np.array([c % b for c in cs], dtype=np.int64)
        with mock.patch.object(gs, "_SWEEP_PHASORS", block):
            got = gs._period_sums(coeffs, b, sign)
        expect = np.array([full_row_sum(c % b, b, sign) for c in cs], dtype=complex)
        assert np.array_equal(bits(got), bits(expect))

    @given(rows=st.lists(st.tuples(coefficients, periods | st.sampled_from([4, 5, 12])),
                         max_size=40),
           sign=st.sampled_from([1.0, -1.0]), block=st.sampled_from([1, 7, gs._SWEEP_PHASORS]),
           shared_rows=st.sampled_from([1, 3, gs._SHARED_ROWS, 10**9]))
    @settings(max_examples=80, deadline=None)
    def test_one_modulus_per_row(self, rows, sign, block, shared_rows):
        # moduli repeated often enough that some take the 2-D path and the
        # rest the row-by-row one
        moduli = np.array([b for _, b in rows], dtype=np.int64)
        coeffs = np.array([c % b for c, b in rows], dtype=np.int64)
        with mock.patch.multiple(gs, _SWEEP_PHASORS=block, _SHARED_ROWS=shared_rows):
            got = gs._period_sums(coeffs, moduli, sign)
        expect = np.array([full_row_sum(c % b, b, sign) for c, b in rows], dtype=complex)
        assert np.array_equal(bits(got), bits(expect))

    @pytest.mark.parametrize("b", [3_000_000, 3_400_003])
    def test_either_side_of_the_one_step_residue(self, b):
        # m^2 (b - 1) passes 2^63 between b = 3.0e6 and 3.4e6 (m <= b // 2):
        # below it one int64 residue, above it the two-step one; the
        # reference's two steps are exact while b^2 < 2^63
        c = np.array([1, b - 1], dtype=np.int64)
        got = gs._period_sums(c, np.full(2, b), -1.0)
        m = np.arange(b, dtype=np.int64)
        for i, ci in enumerate(c.tolist()):
            res = (m * m % b) * ci % b
            row = np.exp(-2j * np.pi * (res / b))
            assert bits(got[i:i + 1]).tolist() == bits(np.array([row.sum()])).tolist()

    @pytest.mark.parametrize("m, c, b", [
        (np.arange(-1500, 1501), 2999, 3000),
        (np.array([3_036_000_000, -3_036_000_000, 1, 0]), 0, 1),
        (np.array([1_700_001, 1_699_999, 7]), 3_400_002, 3_400_003),
        (np.array([2**40, 5]), 10**12 + 38, 10**12 + 39)])
    def test_residue_routes_agree(self, m, c, b):
        expect = [int(v) ** 2 * c % b for v in m.tolist()]
        assert gs._quad_residues(m, c, b).tolist() == expect

    @given(delta_m=st.floats(0.05, 1e4), m_max=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_weights_are_symmetric_bit_for_bit(self, delta_m, m_max):
        # discrete_sweep computes the terms m >= 0 only and mirrors them
        w = gs.WeightProfile(delta_m, m_max).weights()
        assert bits(w).tolist() == bits(w[::-1]).tolist()


class TestReduced:
    """_reduced takes an int64 remainder when x and b are int64, and Python
    ints otherwise; both give x mod b exactly."""

    @pytest.mark.parametrize("x", [2**63 - 1, 2**63, 10**30, -(2**63), -(10**30), 0, 1911])
    def test_against_python_ints(self, x):
        ls = np.array([1, 2, 3, 7, 1000, 2**31 - 1, 2**62 + 3, 2**63 - 1], dtype=np.int64)
        got = gs._reduced(x, ls)
        assert got.dtype == np.int64
        assert got.tolist() == [x % int(l) for l in ls]

    def test_arrays_of_x_and_a_scalar_modulus(self):
        x = np.array([2**63 - 1, -(2**63), 5, -5], dtype=np.int64)
        assert gs._reduced(x, 1_000_003).tolist() == [int(v) % 1_000_003 for v in x]
        big = np.array([2**63, 10**30, -(10**30)], dtype=object)
        assert gs._reduced(big, 97).tolist() == [int(v) % 97 for v in big]
        assert gs._reduced([1, 2**64 + 5], 7).tolist() == [1, (2**64 + 5) % 7]

    @pytest.mark.parametrize("n", [2**63 - 1, 2**63, 10**30])
    def test_sweeps_and_flags_at_large_n(self, n):
        ls = np.arange(1, 200)
        residues = [n % int(l) for l in ls]
        assert bits(gs.reciprocate_complete_sweep(n, ls)).tolist() == bits(
            gs.reciprocate_complete_sweep(np.array(residues), ls)).tolist()
        assert fz._divides(n, ls).tolist() == [r == 0 for r in residues]
        codes = fz._flag_codes(n, ls)
        assert codes.tolist() == fz._flag_codes(np.array(residues) + ls, ls).tolist()


class TestCompleteSweepArrays:
    def test_one_n_per_l_has_the_bits_of_one_call_per_n(self):
        ns = np.array([15, 1911, 100001, 2**63 - 25, 4, 9])
        ls = np.array([4, 12, 317, 1000, 3, 3])
        got = gs.reciprocate_complete_sweep(ns, ls)
        expect = [gs.reciprocate_complete_sweep(int(n), [int(l)])[0] for n, l in zip(ns, ls)]
        assert bits(got).tolist() == bits(np.array(expect)).tolist()


class TestPackageExports:
    def test_all_is_explicit_and_exports_no_modules(self):
        import types

        import gaussfactor

        assert len(set(gaussfactor.__all__)) == len(gaussfactor.__all__)
        for name in gaussfactor.__all__:
            assert not isinstance(getattr(gaussfactor, name), types.ModuleType), name
        assert {"discrete_sweep", "reciprocate_complete_sweep",
                "reciprocate_truncated_sweep"} <= set(gaussfactor.__all__)


class TestAbs2:
    """abs2 has the bits of Python's abs(v) ** 2, which the CSV and JSON
    samples, the lines scheme and the N-slit spike heights were built from
    one element at a time."""

    @staticmethod
    def python_abs2(values: np.ndarray) -> np.ndarray:
        return np.array([abs(v) ** 2 for v in values.tolist()])

    def test_bits_of_the_python_expression_on_seeded_values(self):
        rng = np.random.default_rng(27)
        size = 60_000
        # magnitudes from subnormal to 1e150 (abs(v) ** 2 raises past 1e154)
        scale = 10.0 ** rng.uniform(-320, 150, size)
        v = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
        edge = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, math.inf, -math.inf, math.nan])
        pairs = np.empty((len(edge), len(edge)), dtype=complex)
        pairs.real, pairs.imag = edge[:, None], edge[None, :]
        v = np.concatenate([v, pairs.ravel()])
        got, expect = gs.abs2(v), self.python_abs2(v)
        nan = np.isnan(expect)
        assert (np.isnan(got) == nan).all()
        assert bits(got[~nan]).tolist() == bits(expect[~nan]).tolist()

    def test_bits_of_the_python_expression_on_a_scan(self):
        xis = np.linspace(2.0, 32.0, 5_001)
        v = gs.continuous_sum_grid(xis, SPEC33, W10)
        assert bits(gs.abs2(v)).tolist() == bits(self.python_abs2(v)).tolist()
