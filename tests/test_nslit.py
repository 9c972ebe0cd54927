import cmath
import math
import random

import pytest

from gaussfactor import nslit


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            nslit.NSlitConfig(0, 3)
        with pytest.raises(ValueError):
            nslit.NSlitConfig(15, 0)
        nslit.NSlitConfig(15, 3)


class TestGreenSum:
    def test_single_slit_modulus(self):
        for l in (1, 3, 4):
            cfg = nslit.NSlitConfig(1, l)
            for xi in (0.0, 0.3, 2.7):
                assert abs(abs(nslit.green_sum(xi, cfg)) - math.sqrt(1 / l)) < 1e-12

    def test_factor_spike(self):
        cfg = nslit.NSlitConfig(15, 3)
        spike = abs(nslit.green_sum(0.5, cfg))
        background = abs(nslit.green_sum(0.17, cfg))
        assert spike > 3 * background

    def test_decomposition_identity(self):
        rng = random.Random(4)
        for _ in range(250):
            n = rng.randint(1, 60)
            l = rng.randint(1, 11)
            xi = rng.uniform(-3.0, l + 3.0)
            cfg = nslit.NSlitConfig(n, l)
            direct = nslit.green_sum(xi, cfg)
            related = nslit.relating_phase(xi, cfg) * nslit.decomposed_green(xi, cfg)
            assert abs(direct - related) < 1e-9
            assert abs(abs(direct) - abs(nslit.decomposed_green(xi, cfg))) < 1e-9

    def test_divisor_leaves_no_remainder(self):
        # N = k*l exactly: the decomposition is the pure comb piece
        cfg = nslit.NSlitConfig(15, 3)
        for xi in (0.5, 1.5, 0.25):
            main = nslit._w_slit(xi, 3, 3) * nslit.comb_factor(xi - 1.5, 5)
            assert abs(nslit.decomposed_green(xi, cfg) - main) < 1e-12

    def test_remainder_term_count(self):
        # 15 = 3*4 + 3: remainder holds the r = 3 leftover slits
        cfg = nslit.NSlitConfig(15, 4)
        k, r = divmod(15, 4)
        assert (k, r) == (3, 3)
        xi = 0.4
        main = nslit._w_slit(xi, 4, 4) * nslit.comb_factor(xi - 2.0, 3)
        remainder = nslit.decomposed_green(xi, cfg) - main
        expect = cmath.exp(-2j * math.pi * 3 * (xi - 2.0)) * nslit._w_slit(xi, 4, 3)
        assert abs(remainder - expect) < 1e-12


class TestSpikeProfile:
    def test_factor_spreads_vanish(self):
        assert nslit.spike_profile(nslit.NSlitConfig(15, 3)).relative_spread < 1e-6
        assert nslit.spike_profile(nslit.NSlitConfig(15, 5)).relative_spread < 1e-6

    def test_nonfactor_spread_large(self):
        assert nslit.spike_profile(nslit.NSlitConfig(15, 4)).relative_spread > 0.05

    def test_positions_are_half_integers(self):
        prof = nslit.spike_profile(nslit.NSlitConfig(15, 5))
        assert prof.positions == (0.5, 1.5, 2.5, 3.5, 4.5)
        assert 0.0 <= prof.relative_spread <= 1.0

    def test_even_slit_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nslit.spike_profile(nslit.NSlitConfig(16, 3))

    def test_equal_unit_spike_heights_for_odd_divisor(self):
        # the half-integer row of the single-period sum has unit intensity
        for l in (3, 5, 7, 9, 31):
            for q in range(l):
                assert abs(abs(nslit._w_slit(q + 0.5, l, l)) ** 2 - 1.0) < 1e-10


class TestFactorTest:
    def test_examples(self):
        assert [r.l for r in nslit.nslit_factor_test(15, 7) if r.is_factor_flag] == [3, 5]
        assert [r.l for r in nslit.nslit_factor_test(9, 8) if r.is_factor_flag] == [3]
        assert not any(r.is_factor_flag for r in nslit.nslit_factor_test(7, 6))

    def test_soundness_sweep(self):
        for n in range(3, 100, 2):
            for row in nslit.nslit_factor_test(n, math.isqrt(n)):
                if row.is_factor_flag:
                    assert row.divides, (n, row)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            nslit.nslit_factor_test(30, 5)
