import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfactor import numtheory as nt


@lru_cache(maxsize=256)
def _squares_mod(b: int) -> frozenset[int]:
    return frozenset((x * x) % b for x in range(b))


def qr_indicator(a: int, b: int) -> nt.SymbolValue:
    """Literal existence-of-x quadratic-residue indicator, the brute-force
    oracle for jacobi_symbol on prime b.

    +1 when some x satisfies b | (a - x^2) and gcd(a, b) = 1, 0 when b | a,
    -1 otherwise.  Exhaustive over x in [0, b).
    """
    if a % b == 0:
        return nt.SymbolValue.DIVISOR
    if (a % b) in _squares_mod(b) and math.gcd(a, b) == 1:
        return nt.SymbolValue.RESIDUE
    return nt.SymbolValue.NON_RESIDUE


def test_jacobi_examples():
    assert nt.jacobi_symbol(1, 3) == 1
    assert nt.jacobi_symbol(3, 3) == 0
    assert nt.jacobi_symbol(2, 5) == -1


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        nt.jacobi_symbol(3, 8)


def test_jacobi_zero_iff_shared_factor():
    for b in range(1, 200, 2):
        for a in range(b):
            expect_zero = math.gcd(a, b) > 1 or (a == 0 and b > 1)
            assert (nt.jacobi_symbol(a, b) == 0) == expect_zero


def test_jacobi_periodic_in_upper_argument():
    for b in (3, 9, 15, 21, 45, 77, 225):
        for a in range(-2 * b, 2 * b, 7):
            assert nt.jacobi_symbol(a, b) == nt.jacobi_symbol(a % b, b)


def test_jacobi_matches_qr_indicator_on_primes_to_2000():
    for b in range(3, 2001, 2):
        if not nt.is_prime(b):
            continue
        for a in range(b):
            assert nt.jacobi_symbol(a, b) == qr_indicator(a, b), (a, b)


class TestJacobiArray:
    """The array form runs its own recursion; every element must be the value
    of a scalar call, which stays exact on Python ints of any size."""

    def test_dense_range_matches_scalar(self):
        for b in range(1, 300, 2):
            a = np.arange(-b, 3 * b)
            expect = [int(nt.jacobi_symbol(x, b)) for x in range(-b, 3 * b)]
            got = nt.jacobi_symbol(a, b)
            assert got.dtype == np.int64 and got.tolist() == expect, b

    def test_broadcast_shapes(self):
        a = np.arange(12).reshape(3, 4)
        b = np.array([[5], [7], [9]])
        got = nt.jacobi_symbol(a, b)
        assert got.shape == (3, 4)
        assert got.tolist() == [[int(nt.jacobi_symbol(int(x), int(y))) for x, y in zip(ra, rb)]
                                for ra, rb in zip(a, np.broadcast_to(b, a.shape))]
        assert nt.jacobi_symbol(np.array([], dtype=np.int64), 3).shape == (0,)

    def test_rejects_even_or_nonpositive_modulus(self):
        for b in ([3, 8], [3, -3], [0]):
            with pytest.raises(ValueError, match="odd and positive"):
                nt.jacobi_symbol(np.ones(len(b), dtype=np.int64), np.array(b))

    # odd moduli and numerators on both sides of the int64 limit
    limit = 2**63
    odd = (st.integers(0, 300) | st.integers(limit // 2 - 50, limit // 2 + 50)
           | st.integers(0, 2**70)).map(lambda x: 2 * x + 1)
    numerators = st.integers(-(2**70), 2**70) | st.integers(limit - 50, limit + 50)

    @given(pairs=st.lists(st.tuples(numerators, odd), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_sample_across_the_int64_limit(self, pairs):
        a, b = (list(x) for x in zip(*pairs))
        expect = [int(nt.jacobi_symbol(x, y)) for x, y in pairs]
        assert nt.jacobi_symbol(a, b).tolist() == expect


def test_qr_indicator_examples():
    for b in (2, 3, 10, 17, 100):
        assert qr_indicator(1, b) == 1
    assert qr_indicator(2, 5) == -1  # squares mod 5 are {0, 1, 4}
    assert qr_indicator(10, 5) == 0


def test_qr_indicator_matches_exhaustive_definition():
    for b in range(1, 60):
        squares = {(x * x) % b for x in range(b)}
        for a in range(-b, 2 * b):
            got = qr_indicator(a, b)
            if a % b == 0:
                assert got == 0
            elif (a % b) in squares and math.gcd(a, b) == 1:
                assert got == 1
            else:
                assert got == -1


def test_is_prime_examples():
    assert nt.is_prime(41)
    assert not nt.is_prime(1)
    assert 1911 == 3 * 7 * 7 * 13
    assert not nt.is_prime(1911)


def test_is_prime_against_sieve():
    limit = 5000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    for n in range(limit + 1):
        assert nt.is_prime(n) == bool(sieve[n]), n


def test_is_prime_within_ten_thousand_of_a_million_against_a_sieve():
    # trial division used to hand over to Miller-Rabin at 10^6; a composite
    # of the segment has a factor f <= isqrt(hi) < lo, so crossing out the
    # multiples of every such f leaves the primes
    lo, hi = 10**6 - 10**4, 10**6 + 10**4
    segment = bytearray([1]) * (hi - lo + 1)
    for f in range(2, math.isqrt(hi) + 1):
        first = -lo % f
        segment[first::f] = bytearray(len(segment[first::f]))
    for n in range(lo, hi + 1):
        assert nt.is_prime(n) == bool(segment[n - lo]), n


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong (Miller-Rabin) test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


# Each the least composite that passes the strong test to the first k prime
# bases, and fails it at the next; the last fails only at 37.
@pytest.mark.parametrize("n, k", [
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 8), (3825123056546413051, 11)])
def test_strong_pseudoprimes_are_composite(n, k):
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert all(strong_probable_prime(n, a) for a in bases[:k])
    assert not strong_probable_prime(n, bases[k])
    assert not nt.is_prime(n)


def test_is_prime_large_values():
    assert nt.is_prime(2**61 - 1)
    assert not nt.is_prime(2**61 + 1)
    assert nt.is_prime(1_000_003)
    assert not nt.is_prime(10**12 + 1)


def test_primitive_root_examples():
    assert nt.primitive_root(3) == 2
    assert nt.primitive_root(5) == 2
    assert nt.primitive_root(2) == 1
    with pytest.raises(ValueError):
        nt.primitive_root(15)


def test_primitive_root_generates_full_group():
    for n in range(3, 200):
        if not nt.is_prime(n):
            continue
        g = nt.primitive_root(n)
        seen = set()
        acc = 1
        for _ in range(n - 1):
            seen.add(acc)
            acc = (acc * g) % n
        assert seen == set(range(1, n))
