"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins.  Criterion 2's literal global-maximum claim is
unattainable (see the xfail test for the measured counterexample); its
operative content is covered by the companion test.
"""

import math
import random
import time

import numpy as np
import pytest

from gaussfactor import (
    CharacterSpec,
    Classification,
    ContinuousSpec,
    WeightProfile,
    character_eval,
    decomposed_sum,
    envelope_background,
    factor_lines_discrete,
    factor_reciprocate,
    finite_w,
    g1b_closed,
    gab_closed,
    is_prime,
    nslit_factor_test,
    pocket_rescale,
    predict_finite_w_modulus,
    predict_reciprocate_modulus,
    reciprocate_complete,
    reciprocity_transform,
    report_from_series,
    ring_gauss,
    scan_series,
    spike_profile,
    standard_gauss,
    wtilde_b_sweep,
)
from gaussfactor import NSlitConfig, continuous_sum, verify
from gaussfactor.decomposition import recommend_weight_width

W10 = WeightProfile(10.0, 40)


def broad(n: int) -> WeightProfile:
    return WeightProfile.for_width(recommend_weight_width(n, 2.0))


def series_for(n: int, w: WeightProfile, lo: float, hi: float, step: float = 0.01):
    return scan_series(ContinuousSpec(1.0, float(n)), w, lo, hi, step, n_label=n)


def test_criterion_01_n33_peak_separation():
    t0 = time.perf_counter()
    s = series_for(33, W10, 1.0, 15.0)
    abs2 = s.abs2()

    def at_and_bg(l):
        idx = int(np.argmin(np.abs(s.xis - l)))
        return abs2[idx], envelope_background(s.xis, abs2, float(l))

    for l in (3, 11):
        at, bg = at_and_bg(l)
        assert at >= 2.0 * bg, (l, at, bg)
    for l in (5, 13):
        at, bg = at_and_bg(l)
        assert at < 1.2 * bg, (l, at, bg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: N=33 factor/non-factor peak separation in {elapsed:.2f}s")


@pytest.mark.xfail(
    reason=(
        "|S_51| on (2, 25] is globally maximal at the integer factor "
        "peak xi=17 (1/sqrt(3) ~ 0.577) and the half-integer peak xi=8.5, both "
        "above the xi=10.2 revival (1/sqrt(5) ~ 0.447) at any weight width; the "
        "operative claim is covered by test_criterion_02_n51_master_curve"
    ),
    strict=True,
)
def test_criterion_02_n51_global_max_as_stated():
    s = series_for(51, W10, 2.0 + 0.005, 25.0, step=0.005)
    xi_max = float(s.xis[int(np.argmax(np.abs(s.values)))])
    assert abs(xi_max - 10.2) <= 0.01


def test_criterion_02_n51_master_curve():
    s = series_for(51, W10, 2.0, 25.0)
    mags = np.abs(s.values)
    # dominant non-integer, non-half-integer revival: localize near 10.2
    window = np.abs(s.xis - 10.2) <= 0.3
    local_argmax = float(s.xis[window][np.argmax(mags[window])])
    assert abs(local_argmax - 10.2) <= 0.01
    assert abs(mags[window].max() - 1 / math.sqrt(5)) < 1e-3
    rescaled = pocket_rescale(s, 35)
    assert abs(local_argmax / rescaled.unit_c - 7.0) <= 0.01
    assert 35 % 7 == 0
    rep = report_from_series(rescaled, "continuous_odd")
    assert 7 in rep.verified_factors
    print("\nACCEPTANCE 2 PASS: N=51 revival at 10.2 maps to the factor 7 of 35 "
          "(the literal global-max variant is a documented expected failure)")


def test_criterion_03_n30_even_scheme():
    w8 = WeightProfile(8.0, 32)
    s = series_for(30, w8, 1.0, 14.0)
    abs2 = s.abs2()
    top = abs2.max()
    for l in (3, 5):
        idx = int(np.argmin(np.abs(s.xis - l)))
        assert abs2[idx] < 1e-3 * top, (l, abs2[idx])
    for l in (10, 12):
        idx = int(np.argmin(np.abs(s.xis - l)))
        bg = envelope_background(s.xis, abs2, float(l))
        assert abs2[idx] >= 2.0 * bg, (l, abs2[idx], bg)
    print("\nACCEPTANCE 3 PASS: N=30 zeros at {3,5}, maxima at {10,12}")


def test_criterion_04_discrete_line_values():
    from gaussfactor import discrete_sum

    n = 39
    w = broad(n)
    for l in (3, 13):
        assert abs(abs(discrete_sum(n, l, w)) ** 2 - l / 39) <= 0.005
    for l in range(2, 39):
        if math.gcd(l, 39) == 1:
            assert abs(abs(discrete_sum(n, l, w)) ** 2 - 1 / 39) <= 0.005

    n = 40
    w = broad(n)
    assert abs(abs(discrete_sum(n, 5, w)) ** 2 - 0.25) <= 0.005
    assert abs(abs(discrete_sum(n, 8, w)) ** 2 - 0.20) <= 0.005
    assert abs(discrete_sum(n, 20, w)) ** 2 < 1e-3
    for l in range(2, 40):
        if math.gcd(l, 40) == 1:
            assert abs(abs(discrete_sum(n, l, w)) ** 2 - 0.05) <= 0.005

    rep41 = factor_lines_discrete(41, broad(41))
    interior = [
        c for c in rep41.candidates
        if 1 < c.l < 41 and c.classification is not Classification.NONFACTOR
    ]
    assert interior == []

    w = broad(42)
    for l in range(2, 42):
        if math.gcd(l, 42) == 1:
            assert abs(discrete_sum(42, l, w)) ** 2 < 1e-3
    print("\nACCEPTANCE 4 PASS: discrete line values for N=39,40,41,42")


def test_criterion_05_reciprocate_1911():
    divisors = {d for d in range(1, 101) if 1911 % d == 0}
    for l in range(1, 101):
        measured = abs(reciprocate_complete(1911, l))
        if l in divisors:
            assert abs(measured - 1.0) < 1e-9, l
        if l == 12:
            assert abs(measured - math.sqrt(0.5)) < 1e-9
        pred = predict_reciprocate_modulus(1911, l)
        assert abs(measured - pred.value) < 1e-9, (l, measured, pred)
    print("\nACCEPTANCE 5 PASS: N=1911 exact curve membership for all l <= 100")


def test_criterion_06_reciprocity_oracle():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(500):
        n = rng.randint(2, 2000)
        l = rng.randint(1, n)
        d = abs(reciprocate_complete(n, l) - reciprocity_transform(n, l))
        worst = max(worst, d)
        assert d < 1e-8, (n, l, d)
    print(f"\nACCEPTANCE 6 PASS: 500 reciprocity pairs, worst deviation {worst:.2e}")


def test_criterion_07_closed_form_oracle():
    worst = 0.0
    for b in range(1, 1001):
        d = abs(standard_gauss(1, b) - g1b_closed(b))
        worst = max(worst, d)
        assert d < 1e-8, b
    for b in range(1, 502, 2):
        m2 = np.arange(b, dtype=np.int64)
        m2 = (m2 * m2) % b
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            brute = complex(np.exp(2j * np.pi * ((a * m2) % b) / b).sum())
            d = abs(brute - gab_closed(a, b))
            worst = max(worst, d)
            assert d < 1e-8, (a, b)
    print(f"\nACCEPTANCE 7 PASS: closed forms vs brute force, worst deviation {worst:.2e}")


def test_criterion_08_window_sum_theorem():
    for r in range(1, 65):
        for a in range(1, 2 * r):
            if math.gcd(a, r) != 1:
                continue
            for c in range(0, 2 * r):
                if (a * r - c) % 2 != 0:
                    continue
                vals = np.abs(wtilde_b_sweep(a, c, r)) ** 2
                assert np.max(np.abs(vals - 1.0 / r)) < 1e-10, (a, c, r)
    for r in range(2, 51, 2):
        for q in range(1, r):
            if math.gcd(q, r) != 1:
                continue
            for m in range(r):
                assert abs(abs(finite_w(q, r, m)) - predict_finite_w_modulus(q, r, m)) < 1e-10
    print("\nACCEPTANCE 8 PASS: |wtilde|^2 = 1/r for r <= 64 and even-r parity table to r = 50")


def test_criterion_09_ring_gauss():
    for n in range(3, 200):
        if not is_prime(n):
            continue
        root_n = math.sqrt(n)
        for k in range(1, n - 1):
            chi = CharacterSpec(n, k)
            g1 = ring_gauss(chi, 1)
            assert abs(abs(g1) - root_n) < 1e-8
            for beta in range(2, n):
                g = ring_gauss(chi, beta)
                assert abs(abs(g) - root_n) < 1e-8, (n, k, beta)
                assert abs(g - character_eval(chi, beta).conjugate() * g1) < 1e-8
    print("\nACCEPTANCE 9 PASS: ring Gauss moduli and reduction identity for primes <= 199")


def test_criterion_10_decomposition():
    for b, q, r in ((33, 1, 11), (51, 7, 35)):
        spec = ContinuousSpec(1.0, float(b))
        center = q * b / r
        worst = 0.0
        for xi in np.linspace(center - 0.5, center + 0.5, 50):
            d = abs(decomposed_sum(float(xi), q, r, spec, W10) - continuous_sum(float(xi), spec, W10))
            worst = max(worst, d)
            assert d < 1e-6, (b, q, r, xi)
    print("\nACCEPTANCE 10 PASS: Poisson representation matches direct sums to 1e-6")


def test_criterion_11_nslit():
    assert spike_profile(NSlitConfig(15, 3)).relative_spread < 1e-6
    assert spike_profile(NSlitConfig(15, 5)).relative_spread < 1e-6
    assert spike_profile(NSlitConfig(15, 4)).relative_spread > 0.05
    for n in range(3, 202, 2):
        report = nslit_factor_test(n, math.isqrt(n))
        for c in report.candidates:
            if c.classification is not Classification.NONFACTOR:
                assert n % c.l == 0, (n, c.l)
    print("\nACCEPTANCE 11 PASS: equal-spike criterion exact and sound to N = 201")


def test_criterion_12_reciprocate_soundness_sweep():
    for n in range(3, 202, 2):
        rep = factor_reciprocate(n, n)
        expect = [d for d in range(2, n + 1) if n % d == 0]
        assert rep.verified_factors == expect, n
    print("\nACCEPTANCE 12 PASS: exact divisor sets for all odd N <= 201")


def test_criterion_13_verify_all_under_60s():
    t0 = time.perf_counter()
    results = verify.run()
    elapsed = time.perf_counter() - t0
    for r in results:
        assert r.passed, (r.name, r.detail)
    assert elapsed < 60.0, elapsed
    print(f"\nACCEPTANCE 13 PASS: verify --suite all green in {elapsed:.1f}s")
