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


class TestPeakDescriptor:
    def test_fields_consistent(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        pk = dc.PeakDescriptor.at(3.05, 1, 11, spec, W10)
        assert abs(pk.location_xi - 3.0) < 1e-12
        assert abs(pk.delta - 0.05) < 1e-12
        assert abs(pk.m_bar - (33.0 + 11 * 0.05)) < 1e-12
        assert abs(pk.sigma0**2 - 121 / (2 * math.pi**2 * 100)) < 1e-12
        assert abs(pk.d_coef - 4 * math.pi * 100 / 33) < 1e-12

    def test_width_law_enforced(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        pk = dc.PeakDescriptor.at(3.17, 1, 11, spec, W10)
        assert abs(pk.sigma - pk.sigma0 * math.sqrt(1 + (pk.d_coef * pk.delta) ** 2)) < 1e-14
        with pytest.raises(ValueError):
            dc.PeakDescriptor(1, 11, 3.0, 0.0, 33.0, pk.sigma0, pk.d_coef, pk.sigma0 * 2)


class TestShapeFunction:
    def test_unity_at_center(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        pk = dc.PeakDescriptor.at(3.0, 1, 11, spec, W10)
        assert pk.m_bar == 33.0
        assert abs(dc.shape_function(33, pk, spec, W10) - 1.0) < 1e-12

    def test_gaussian_tail(self):
        spec = gs.ContinuousSpec(1.0, 33.0)
        pk = dc.PeakDescriptor.at(3.0, 1, 11, spec, W10)
        assert abs(dc.shape_function(33 + 25, pk, spec, W10)) < 1e-12

    def test_matches_quadrature_oracle(self):
        spec = gs.ContinuousSpec(1.0, 51.0)
        xi = 7 * 51 / 35 + 3 / 35
        pk = dc.PeakDescriptor.at(xi, 7, 35, spec, W10)
        for m in range(int(pk.m_bar) - 3, int(pk.m_bar) + 4):
            closed = dc.shape_function(m, pk, spec, W10)
            oracle = quad_shape_oracle(m, xi, 7, 35, spec, W10)
            assert abs(closed - oracle) < 1e-8, m


class TestDecomposedSum:
    @pytest.mark.parametrize("b,q,r", [(33, 1, 11), (33, 1, 3), (51, 7, 35)])
    def test_exact_representation(self, b, q, r):
        spec = gs.ContinuousSpec(1.0, float(b))
        center = q * b / r
        for xi in np.linspace(center - 0.5, center + 0.5, 50):
            direct = gs.continuous_sum(float(xi), spec, W10)
            decomp = dc.decomposed_sum(float(xi), q, r, spec, W10)
            assert abs(direct - decomp) < 1e-6

    def test_single_term_dominates_at_peak(self):
        spec = gs.ContinuousSpec(1.0, 51.0)
        xi = 10.2
        pk = dc.PeakDescriptor.at(xi, 1, 5, spec, W10)
        assert pk.sigma0 < 0.3 and pk.m_bar == 51.0
        single = gs.finite_w(1, 5, 51) * dc.shape_function(51, pk, spec, W10)
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
