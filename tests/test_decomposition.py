import math

import numpy as np
import pytest
from scipy.integrate import quad

from gaussfactor import decomposition as dc
from gaussfactor import gausssums as gs

W10 = gs.WeightProfile(10.0, 40)


def quad_shape_oracle(m, xi, q, r, spec, w):
    """Adaptive quadrature of the shape integral over the weight's support."""

    def integrand(mu, part):
        val = (
            w.raw_weight(mu)
            * np.exp(2j * np.pi * (xi / spec.a_param - m / r) * mu)
            * np.exp(2j * np.pi * (xi - q * spec.b_param / r) / spec.b_param * mu * mu)
        )
        return val.real if part == "re" else val.imag

    lim = 8 * w.delta_m
    re, _ = quad(integrand, -lim, lim, args=("re",), limit=300)
    im, _ = quad(integrand, -lim, lim, args=("im",), limit=300)
    return complex(re, im)


def shape_integral(m, xi, q, r, spec, w):
    """The closed-form I_m^(r) at one xi, read from the m range of _shape_integrals."""
    ms, shapes = dc._shape_integrals(np.array([xi]), q, r, spec, w)
    return complex(shapes[0, list(ms).index(m)])


class TestShapeIntegrals:
    def test_unity_at_center(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        # xi = B/r puts m_bar = B/A = 33 and delta = 0
        assert abs(shape_integral(33, 3.0, 1, 11, spec, W10) - 1.0) < 1e-12

    def test_gaussian_tail(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        ms, shapes = dc._shape_integrals(np.array([3.0]), 1, 11, spec, W10)
        assert np.all(np.abs(shapes[0, np.abs(ms - 33) >= 25]) < 1e-12)
        # the m range ends where |I_m| falls below the cutoff: its end terms
        # are at or above it, and the modulus one step further out is below
        sigma = 11 / (math.sqrt(2.0) * math.pi * W10.delta_m)
        assert abs(shapes[0, 0]) >= dc._SHAPE_CUTOFF and abs(shapes[0, -1]) >= dc._SHAPE_CUTOFF
        for m in (ms[0] - 1, ms[-1] + 1):
            assert math.exp(-(((m - 33) / sigma) ** 2)) < dc._SHAPE_CUTOFF

    def test_matches_quadrature_oracle(self):
        spec = gs.ContinuousSpec(1.0, 51.0)
        xi = 7 * 51 / 35 + 3 / 35
        m_bar = 7 * 51 + 35 * (3 / 35)
        for m in range(int(m_bar) - 3, int(m_bar) + 4):
            closed = shape_integral(m, xi, 7, 35, spec, W10)
            oracle = quad_shape_oracle(m, xi, 7, 35, spec, W10)
            assert abs(closed - oracle) < 1e-8, m

    def test_range_covers_every_point(self):
        # the rows of an array call are the one-point rows on a wider m range,
        # whose extra terms are all below the cutoff
        spec = gs.ContinuousSpec(1.0, 51.0)
        xis = np.linspace(9.7, 10.7, 7)
        ms, shapes = dc._shape_integrals(xis, 7, 35, spec, W10)
        for xi, row in zip(xis, shapes):
            ms1, one = dc._shape_integrals(np.array([xi]), 7, 35, spec, W10)
            at = np.searchsorted(ms, ms1)
            assert np.array_equal(ms[at], ms1)
            assert np.array_equal(row[at], one[0])
            assert np.all(np.abs(np.delete(row, at)) < dc._SHAPE_CUTOFF)


class TestDecomposedSum:
    @pytest.mark.parametrize("b,q,r", [(33, 1, 11), (33, 1, 3), (51, 7, 35)])
    def test_exact_representation(self, b, q, r):
        spec = gs.ContinuousSpec(1.0, float(b))
        center = q * b / r
        for xi in np.linspace(center - 0.5, center + 0.5, 50):
            direct = gs.continuous_sum(float(xi), spec, W10)
            decomp = dc.decomposed_sum(float(xi), q, r, spec, W10)
            assert abs(direct - decomp) < 1e-6

    @pytest.mark.parametrize("b,q,r", [(33, 1, 11), (33, 1, 3), (51, 7, 35)])
    def test_array_matches_scalar_calls(self, b, q, r):
        spec = gs.ContinuousSpec(1.0, float(b))
        center = q * b / r
        xis = np.linspace(center - 0.5, center + 0.5, 50)
        got = dc.decomposed_sum(xis, q, r, spec, W10)
        assert got.shape == xis.shape and got.dtype == complex
        for xi, value in zip(xis.tolist(), got.tolist()):
            one = dc.decomposed_sum(xi, q, r, spec, W10)
            assert type(one) is complex
            assert abs(one - value) < 1e-13
        grid = dc.decomposed_sum(xis.reshape(5, 10), q, r, spec, W10)
        assert grid.shape == (5, 10) and np.array_equal(grid.reshape(-1), got)
        assert dc.decomposed_sum(xis[:0], q, r, spec, W10).shape == (0,)

    def test_single_term_dominates_at_peak(self):
        spec = gs.ContinuousSpec(1.0, 51.0)
        xi = 10.2
        # xi = B/5 puts m_bar = 51, with sigma0 = 5 / (sqrt(2) pi delta_m) < 0.3
        ms, shapes = dc._shape_integrals(np.array([xi]), 1, 5, spec, W10)
        assert ms[np.argmax(np.abs(shapes[0]))] == 51
        single = gs.finite_w(1, 5, 51) * shape_integral(51, xi, 1, 5, spec, W10)
        full = dc.decomposed_sum(xi, 1, 5, spec, W10)
        assert abs(single - full) < 0.01 * abs(full)

    def test_destructive_interference_off_peak(self):
        spec = gs.ContinuousSpec(1.0, 51.0)
        peak = abs(gs.continuous_sum(10.2, spec, W10))
        off = abs(gs.continuous_sum(10.2 + 3 / 35, spec, W10))
        assert off < 0.5 * peak
        assert abs(dc.decomposed_sum(10.2 + 3 / 35, 7, 35, spec, W10) - gs.continuous_sum(10.2 + 3 / 35, spec, W10)) < 1e-6

    def test_n33_peak_value_via_decomposition(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        direct = gs.continuous_sum(3.0, spec, W10)
        decomp = dc.decomposed_sum(3.0, 1, 11, spec, W10)
        assert abs(direct - decomp) < 1e-6


class TestLatticeTerms:
    def test_bitwise_equal_to_floor_reduction(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        m_values = np.concatenate([np.arange(41, 121), np.arange(-120, -40)])
        m = m_values.astype(np.longdouble)
        for xi in (-7.25, -0.0, 0.0, 3.0, 3.01, 12345.678):
            t = (m / np.longdouble(spec.a_param) + m * m / np.longdouble(spec.b_param)) * np.longdouble(xi)
            t -= np.floor(t)
            ref = (W10.raw_weight(m_values.astype(float)) * np.exp(2j * np.pi * t.astype(float))).sum()
            got = complex(gs._real_sums([xi], spec, m_values, W10.raw_weight(m_values.astype(float)))[0])
            assert np.array([got]).view(np.uint64).tolist() == np.array([ref]).view(np.uint64).tolist()


class TestRecommendWeightWidth:
    def test_examples(self):
        assert abs(dc.recommend_weight_width(33, 1.0) - 33 / math.sqrt(8)) < 1e-12
        assert abs(dc.recommend_weight_width(33, 2.0) - 66 / math.sqrt(8)) < 1e-12

    def test_width_10_below_margin_one_for_n33(self):
        # delta_m = 10 sits under even the margin-1 width for N = 33
        assert dc.recommend_weight_width(33, 1.0) > 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dc.recommend_weight_width(33, 0.5)
        with pytest.raises(ValueError):
            dc.recommend_weight_width(0, 2.0)
