import cmath
import math
import random

import numpy as np
import pytest

from gaussfactor import nslit
from gaussfactor.gausssums import _SWEEP_PHASORS


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            nslit.NSlitConfig(0, 3)
        with pytest.raises(ValueError):
            nslit.NSlitConfig(15, 0)
        nslit.NSlitConfig(15, 3)


def old_green_sum(xi: float, cfg: nslit.NSlitConfig) -> complex:
    """green_sum at one point as it was computed before it took arrays."""
    n = np.arange(cfg.n_slits, dtype=float)
    ph = np.pi * (xi - n) ** 2 / cfg.l_talbot
    return complex(np.exp(1j * ph).sum() / math.sqrt(cfg.l_talbot))


def complex_bits(values) -> list[int]:
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


class TestGreenSumRows:
    # one point per block (N > _SWEEP_PHASORS), several points per block with
    # a short last block, and a single slit
    @pytest.mark.parametrize("n_slits, l, count", [(_SWEEP_PHASORS + 7, 11, 5), (201, 7, 101),
                                                   (15, 3, 1000), (1, 4, 9)])
    def test_rows_have_the_scalar_bits(self, n_slits, l, count):
        cfg = nslit.NSlitConfig(n_slits, l)
        xs = np.random.default_rng(n_slits).uniform(-3.0, 3.0 + l, count)
        xs[:2] = (0.5, l / 2.0)
        got = nslit.green_sum(xs, cfg)
        assert got.shape == (count,)
        assert complex_bits(got) == complex_bits([old_green_sum(float(x), cfg) for x in xs])
        assert nslit.green_sum(float(xs[2]), cfg) == got[2]
        assert isinstance(nslit.green_sum(0.25, cfg), complex)

    def test_spreads_have_the_pointwise_bits(self):
        for n in list(range(1, 80, 2)) + [1001]:
            for l in range(1, math.isqrt(n) + 1):
                cfg = nslit.NSlitConfig(n, l)
                heights = [abs(old_green_sum(q + 0.5, cfg)) ** 2 for q in range(l)]
                comb = [abs(old_green_sum(l / 2.0 + s, cfg)) ** 2 for s in range(l)]
                top = max(max(heights), max(comb))
                spread = 0.0 if top == 0.0 else (top - min(heights)) / top
                prof = nslit.spike_profile(cfg)
                assert prof.heights == tuple(heights)
                assert prof.relative_spread.hex() == spread.hex(), (n, l)


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
