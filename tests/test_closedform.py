import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfactor import closedform as cf
from gaussfactor import gausssums as gs
from gaussfactor.decomposition import recommend_weight_width


def brute_gab(a: int, b: int) -> complex:
    m = np.arange(b, dtype=np.int64)
    return complex(np.exp(2j * np.pi * ((m * m % b) * (a % b) % b) / b).sum())


class TestG1b:
    def test_examples(self):
        assert abs(cf.g1b_closed(4) - (2 + 2j)) < 1e-12
        assert cf.g1b_closed(2) == 0
        assert abs(cf.g1b_closed(5) - brute_gab(1, 5)) < 1e-9

    def test_sweep_small(self):
        for b in range(1, 300):
            assert abs(cf.g1b_closed(b) - gs.standard_gauss(1, b)) < 1e-8


def g1b_by_class(b: int) -> complex:
    """The class-keyed expression g1b_closed replaced."""
    root = math.sqrt(b)
    return (complex(root, root), complex(root, 0.0), 0j, complex(0.0, root))[b % 4]


class TestG1bBitwise:
    def test_same_bits_as_the_class_table(self):
        bs = list(range(1, 20_001)) + [10**17 + k for k in range(8)] + [2**61 - 1]
        got = np.array([cf.g1b_closed(b) for b in bs])
        expect = np.array([g1b_by_class(b) for b in bs])
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()


class TestGab:
    def test_examples(self):
        assert abs(cf.gab_closed(3, 5) - brute_gab(3, 5)) < 1e-9
        assert abs(cf.gab_closed(3, 5) - (-math.sqrt(5))) < 1e-9
        for b in (3, 7, 15, 33):
            assert cf.gab_closed(1, b) == cf.g1b_closed(b)
        assert abs(cf.gab_closed(4, 3) - 1j * math.sqrt(3)) < 1e-12

    def test_rejects_shared_factor_and_even_b(self):
        with pytest.raises(ValueError):
            cf.gab_closed(6, 9)
        with pytest.raises(ValueError):
            cf.gab_closed(3, 8)

    def test_sweep(self):
        for b in range(1, 150, 2):
            for a in range(1, b):
                if math.gcd(a, b) == 1:
                    assert abs(cf.gab_closed(a, b) - brute_gab(a, b)) < 1e-8


class TestClosedFormArrays:
    """Array calls give the bits of scalar calls, element by element."""

    def test_gab_dense_range(self):
        pairs = [(a, b) for b in range(1, 300, 2) for a in range(-b, 2 * b) if math.gcd(a, b) == 1]
        a, b = (np.array(x) for x in zip(*pairs))
        expect = np.array([cf.gab_closed(x, y) for x, y in pairs])
        got = cf.gab_closed(a, b)
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()

    def test_g1b_and_broadcast(self):
        bs = np.arange(1, 20_001)
        expect = np.array([cf.g1b_closed(b) for b in range(1, 20_001)])
        assert cf.g1b_closed(bs).view(np.uint64).tolist() == expect.view(np.uint64).tolist()

    def test_scalars_are_complex(self):
        for value in (cf.g1b_closed(7), cf.g1b_closed(2**64 + 3), cf.gab_closed(3, 7),
                      cf.gab_closed(3 - 2**63, 2**64 + 3), cf.gab_closed(np.int64(2), 9)):
            assert type(value) is complex

    def test_python_ints_past_int64(self):
        bs = [2**63 + 1, 2**64 + 3, 10**20 + 7, 2**61 - 1, 5]
        a_s = [2, 3 - 2**63, 10**19 + 1, 6, 4]
        pairs = [(a, b) for a, b in zip(a_s, bs) if math.gcd(a, b) == 1]
        a, b = (np.array(x, dtype=object) for x in zip(*pairs))
        for got, expect in ((cf.gab_closed(a, b), [cf.gab_closed(x, y) for x, y in pairs]),
                            (cf.g1b_closed(b), [cf.g1b_closed(y) for _, y in pairs])):
            assert got.view(np.uint64).tolist() == np.array(expect).view(np.uint64).tolist()

        got = cf.gab_closed(np.arange(1, 7)[:, None], np.array([7, 13]))
        assert got.shape == (6, 2)
        assert got[2, 1] == cf.gab_closed(3, 13)

    def test_array_rejections(self):
        with pytest.raises(ValueError, match="share a factor"):
            cf.gab_closed(np.array([1, 6]), 9)
        with pytest.raises(ValueError, match="odd and positive"):
            cf.gab_closed(np.array([3, 1]), np.array([5, 8]))
        with pytest.raises(ValueError, match="positive"):
            cf.g1b_closed(np.array([3, 0]))


class TestFactorOut:
    def test_examples(self):
        assert cf.factor_out(15, 40) == (5, 3, 8)
        assert cf.factor_out(1, 77) == (1, 1, 77)
        assert cf.factor_out(21, 1911) == (21, 1, 91)

    def test_gauss_sum_identity(self):
        rng = random.Random(3)
        for _ in range(200):
            b = rng.randint(1, 300)
            a = rng.randint(0, 3 * b)
            p, ar, br = cf.factor_out(a, b)
            assert abs(gs.standard_gauss(a, b) - p * gs.standard_gauss(ar, br)) < 1e-9


# |S_N(l)|^2 * N / gcd(l, N) by the class of N / gcd(l, N), as the scalar
# predictor keyed it
OLD_CLASS_WEIGHT = {0: 2.0, 1: 1.0, 2: 0.0, 3: 1.0}


def discrete_by_class(n: int, l: int) -> float:
    """The scalar discrete predictor as it was before its array formula."""
    p = math.gcd(l, n)
    if p == 1:
        return OLD_CLASS_WEIGHT[n % 4] / n
    return p * OLD_CLASS_WEIGHT[(n // p) % 4] / n


class TestDiscretePredictor:
    def test_examples(self):
        values, shared = cf.predict_discrete_moduli2(39, [2])
        assert abs(values[0] - 1 / 39) < 1e-15 and shared[0] == 1
        values, shared = cf.predict_discrete_moduli2(40, [5, 20])
        assert abs(values[0] - 0.25) < 1e-15 and shared[0] == 5
        assert values[1] == 0.0 and shared[1] == 20

    def test_against_brute_force_broad_weights(self):
        for n in (39, 40, 41, 42):
            w = gs.WeightProfile.for_width(recommend_weight_width(n, 2.0))
            ls = range(1, n + 1)
            predicted, _ = cf.predict_discrete_moduli2(n, ls)
            for l, p in zip(ls, predicted):
                measured = abs(gs.discrete_sum(n, l, w)) ** 2
                assert abs(measured - p) < 5e-4

    def test_rejections(self):
        with pytest.raises(ValueError, match="n_target must be positive"):
            cf.predict_discrete_moduli2(0, [1])
        with pytest.raises(ValueError, match="l must be positive"):
            cf.predict_discrete_moduli2(41, [3, 0])


class TestDiscretePredictorArray:
    def test_every_small_n_and_l(self):
        for n in range(1, 301):
            ls = range(1, n + 1)
            values, shared = cf.predict_discrete_moduli2(n, ls)
            expect = np.array([discrete_by_class(n, l) for l in ls])
            assert values.view(np.uint64).tolist() == expect.view(np.uint64).tolist(), n
            assert shared.tolist() == [math.gcd(l, n) for l in ls], n

    @pytest.mark.parametrize("n, ls", [
        (10**17 + 3, list(range(1, 300)) + [10**17 + 3]),
        (2**61 - 1, [1, 2, 3, 10**12 + 1]),
        (10**20, [1, 2, 7, 8, 10**19, 2**64 + 1]),
        (10**20 + 1, [7, 10**19 + 3, 2**64 + 1, 137]),
        # int64 l whose shared factor times 4 passes int64
        (3 * (2**62 + 1), [2**62 + 1, 3, 2**62 + 2, 2**63 - 1]),
    ])
    def test_past_int64(self, n, ls):
        values, shared = cf.predict_discrete_moduli2(n, ls)
        expect = np.array([discrete_by_class(n, l) for l in ls])
        assert values.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert [int(s) for s in shared] == [math.gcd(l, n) for l in ls]

    @given(n=st.integers(1, 10**25), ls=st.lists(st.integers(1, 10**22), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_sampled_pairs(self, n, ls):
        values, shared = cf.predict_discrete_moduli2(n, ls)
        expect = np.array([discrete_by_class(n, l) for l in ls], dtype=float)
        assert values.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert [int(s) for s in shared] == [math.gcd(l, n) for l in ls]

    def test_empty(self):
        values, shared = cf.predict_discrete_moduli2(15, [])
        assert values.shape == shared.shape == (0,)


class TestFiniteWPredictor:
    def test_examples(self):
        for m in range(5):
            assert abs(cf.predict_finite_w_modulus(1, 3, m) - math.sqrt(1 / 3)) < 1e-15
        assert cf.predict_finite_w_modulus(1, 2, 0) == 0.0
        assert abs(cf.predict_finite_w_modulus(1, 4, 0) - abs(gs.finite_w(1, 4, 0))) < 1e-12

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            cf.predict_finite_w_modulus(2, 4, 1)

    def test_table_matches_brute_force(self):
        for r in range(1, 21):
            for q in range(1, r + 1):
                if math.gcd(q, r) != 1:
                    continue
                for m in range(r):
                    assert (
                        abs(cf.predict_finite_w_modulus(q, r, m) - abs(gs.finite_w(q, r, m)))
                        < 1e-10
                    )


def finite_w_by_parity(q: int, r: int, m: int) -> float:
    """The scalar parity table predict_finite_w_modulus replaced."""
    if r % 2 == 1:
        return math.sqrt(1.0 / r)
    half = (r * q) // 2
    if half % 2 == 0:
        return math.sqrt(2.0 / r) if m % 2 == 0 else 0.0
    return 0.0 if m % 2 == 0 else math.sqrt(2.0 / r)


class TestFiniteWPredictorArray:
    def test_every_coprime_q_r_and_m(self):
        # q and r up to 64, m over two periods and below zero
        for r in range(1, 65):
            qs = np.array([q for q in range(-r, 65) if math.gcd(q, r) == 1])
            ms = np.arange(-r, 2 * r)
            got = cf.predict_finite_w_modulus(qs[:, None], r, ms)
            expect = np.array([[finite_w_by_parity(q, r, m) for m in ms.tolist()]
                               for q in qs.tolist()])
            assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist(), r

    def test_scalars_are_floats_with_the_table_bits(self):
        for q, r, m in ((1, 3, 0), (1, 2, 0), (1, 4, 0), (3, 4, 1), (1, 2**64 + 2, 1),
                        (7, 2**64 + 1, 2), (2**63 - 1, 2**62, 5), (2**70 + 1, 2**66, -3)):
            got = cf.predict_finite_w_modulus(q, r, m)
            assert type(got) is float and got == finite_w_by_parity(q, r, m), (q, r, m)

    def test_array_rejections(self):
        with pytest.raises(ValueError, match="coprime"):
            cf.predict_finite_w_modulus(np.array([1, 2]), 4, 0)
        with pytest.raises(ValueError, match="r must be positive"):
            cf.predict_finite_w_modulus(1, np.array([3, 0]), 0)


class TestReciprocityTransform:
    def test_trivial(self):
        for n in (7, 100, 1911):
            assert abs(cf.reciprocity_transform(n, 1) - 1.0) < 1e-9

    def test_n1911_shared_factor_point(self):
        assert abs(abs(cf.reciprocity_transform(1911, 12)) - math.sqrt(0.5)) < 1e-9

    def test_random_pairs_match_complete_sum(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(2, 800)
            l = rng.randint(1, n)
            diff = abs(cf.reciprocity_transform(n, l) - gs.reciprocate_complete(n, l))
            assert diff < 1e-9, (n, l, diff)


def transform_by_complex_arithmetic(n: int, l: int) -> complex:
    """The transform as one Python complex expression over G(l, 4N) summed
    from all of its 4N terms."""
    b = 4 * n
    g = complex(np.exp(2j * np.pi * (np.array([m * m * l % b for m in range(b)]) / b)).sum())
    return cmath.exp(-1j * math.pi / 4) / (2.0 * math.sqrt(2.0 * l * n)) * g


class TestReciprocityTransformArrays:
    PAIRS = [(1, 1), (2, 1), (7, 3), (100, 64), (1911, 12), (1911, 1911), (2000, 1999), (333, 4)]

    def test_scalar_calls_have_the_bits_of_the_complex_expression(self):
        for n, l in self.PAIRS:
            got = cf.reciprocity_transform(n, l)
            assert isinstance(got, complex)
            expect = transform_by_complex_arithmetic(n, l)
            assert (got.real, got.imag) == (expect.real, expect.imag), (n, l)

    def test_arrays_broadcast_with_the_bits_of_scalar_calls(self):
        ns = np.array([n for n, _ in self.PAIRS])
        ls = np.array([l for _, l in self.PAIRS])
        got = cf.reciprocity_transform(ns, ls)
        expect = np.array([cf.reciprocity_transform(n, l) for n, l in self.PAIRS])
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        grid = cf.reciprocity_transform(ns[:, None], ls[None, :3])
        assert grid.shape == (len(ns), 3)
        assert grid[4:5, 2].view(np.uint64).tolist() == np.array(
            [cf.reciprocity_transform(1911, 3)]).view(np.uint64).tolist()
        assert cf.reciprocity_transform(np.array([], dtype=np.int64), 3).shape == (0,)

    @pytest.mark.parametrize("n, l", [(0, 1), (5, 0), (np.array([3, -1]), 1)])
    def test_rejects_nonpositive(self, n, l):
        with pytest.raises(ValueError, match="positive"):
            cf.reciprocity_transform(n, l)


class TestReciprocatePredictor:
    def test_examples(self):
        assert cf.predict_reciprocate_modulus(1911, 21).value == 1.0
        p = cf.predict_reciprocate_modulus(1911, 12)
        assert abs(p.value - math.sqrt(0.5)) < 1e-15
        assert p.shared_factor == 3 and p.rule == "shared-M0"
        assert cf.predict_reciprocate_modulus(1911, 10).value == 0.0
        assert abs(abs(gs.reciprocate_complete(1911, 10))) < 1e-12

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            cf.predict_reciprocate_modulus(40, 5)

    def test_full_sweep_small_odd(self):
        for n in range(3, 202, 2):
            for l in range(1, n + 1):
                measured = abs(gs.reciprocate_complete(n, l))
                assert abs(measured - cf.predict_reciprocate_modulus(n, l).value) < 1e-9

    def test_sampled_sweep_to_2001(self):
        rng = random.Random(23)
        for n in range(203, 2002, 2):
            ls = {rng.randint(1, n) for _ in range(4)}
            ls |= {d for d in range(2, 50) if n % d == 0}
            for l in ls:
                measured = abs(gs.reciprocate_complete(n, l))
                assert abs(measured - cf.predict_reciprocate_modulus(n, l).value) < 1e-9


def reciprocate_by_class(n: int, l: int) -> tuple[float, str, int | None]:
    """The scalar predictor as it was before its array formula: a value
    table keyed by the residue class of k = l / gcd(l, N)."""
    s = math.gcd(l, n)
    k = l // s
    shared = s if s > 1 else None
    if k == 1:
        return 1.0, "factor", shared
    value = (math.sqrt(2.0 / k), math.sqrt(1.0 / k), 0.0, math.sqrt(1.0 / k))[k % 4]
    return value, f"{'coprime' if s == 1 else 'shared'}-M{k % 4}", shared


class TestReciprocatePredictorArray:
    CASES = [(n, range(1, n + 3)) for n in range(1, 302, 2)] + [
        (1911, range(1, 2000)), (10**17 + 3, range(1, 500)),
        (2**61 - 1, [1, 2, 3, 10**12 + 1]), (10**20 + 1, [7, 10**19 + 3, 2**64 + 1]),
    ]

    @pytest.mark.parametrize("n, ls", CASES[-4:] + [CASES[5], CASES[60]])
    def test_same_bits_as_the_class_table(self, n, ls):
        values, shared = cf.predict_reciprocate_moduli(n, list(ls))
        old = [reciprocate_by_class(n, l) for l in ls]
        expect = np.array([v for v, _, _ in old])
        assert values.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert [int(s) for s in shared] == [math.gcd(l, n) for l in ls]
        for l, (value, rule, s) in zip(ls, old):
            p = cf.predict_reciprocate_modulus(n, l)
            assert (p.value, p.rule, p.shared_factor) == (value, rule, s)
            assert math.copysign(1.0, p.value) == 1.0

    def test_every_small_odd_n(self):
        for n, ls in self.CASES[:151]:
            values, _ = cf.predict_reciprocate_moduli(n, ls)
            expect = np.array([reciprocate_by_class(n, l)[0] for l in ls])
            assert values.view(np.uint64).tolist() == expect.view(np.uint64).tolist(), n

    def test_one_n_per_l(self):
        ns = np.array([3, 1911, 1911, 10**17 + 3, 9, 2**63 - 25])
        ls = np.array([3, 12, 21, 10**12 + 1, 6, 2**40])
        values, shared = cf.predict_reciprocate_moduli(ns, ls)
        for i, (n, l) in enumerate(zip(ns.tolist(), ls.tolist())):
            v, s = cf.predict_reciprocate_moduli(n, [l])
            assert values[i:i + 1].view(np.uint64).tolist() == v.view(np.uint64).tolist()
            assert int(shared[i]) == int(s[0]) == math.gcd(n, l)

    def test_rejections(self):
        with pytest.raises(ValueError, match="odd"):
            cf.predict_reciprocate_moduli(40, [1, 2])
        with pytest.raises(ValueError, match="odd"):
            cf.predict_reciprocate_moduli(np.array([41, 40]), [1, 2])
        with pytest.raises(ValueError, match="l must be positive"):
            cf.predict_reciprocate_moduli(41, [3, 0])


class TestWtildeModulus2:
    def test_examples(self):
        # |wtilde|^2 = 1/r when gcd(a, r) = 1 and a*r - c is even; with
        # a = 2q, c = 0 and even r it is 0 or 2/r by the parity of qr/2 + b
        assert abs(abs(gs.wtilde(1, 0, 1, 3)) ** 2 - 1 / 3) < 1e-15
        assert abs(abs(gs.wtilde(2, 1, 0, 2)) ** 2 - 1.0) < 1e-15
        assert abs(abs(gs.wtilde(1, 2, 1, 5)) ** 2 - 1 / 5) < 1e-15

    def test_b_independence_matches_brute(self):
        for r in range(1, 25):
            for a in range(1, 2 * r):
                if math.gcd(a, r) != 1:
                    continue
                for c in (a * r % 2, a * r % 2 + 2):
                    vals = np.abs(gs.wtilde_b_sweep(a, c, r)) ** 2
                    assert np.max(np.abs(vals - 1 / r)) < 1e-10
