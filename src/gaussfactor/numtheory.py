"""Integer arithmetic substrate: the Jacobi symbol, primality and primitive
roots.

All functions are pure and operate on Python ints, so nothing here loses
precision for moduli in the 13-17 digit range; the Jacobi symbol also takes
integer arrays, as int64 or, past its range, as Python ints.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class SymbolValue(IntEnum):
    """Value of a quadratic-residue symbol; behaves as the int -1, 0 or +1."""

    NON_RESIDUE = -1
    DIVISOR = 0
    RESIDUE = 1


def jacobi_symbol(a, b):
    """Jacobi symbol (a/b) for odd b >= 1; equals the Legendre symbol for prime b.

    Zero exactly when gcd(a, b) > 1.  Integer arrays broadcast against each
    other and give an int64 array of -1, 0 and +1, one scalar call's value
    per element (_jacobi_array).
    """
    if np.ndim(a) or np.ndim(b):
        return _jacobi_array(a, b)
    if b < 1 or b % 2 == 0:
        raise ValueError("lower argument must be odd and positive")
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    if b != 1:
        return SymbolValue.DIVISOR
    return SymbolValue(result)


def _jacobi_array(a, b) -> np.ndarray:
    """The binary recursion of jacobi_symbol, run on every element at once.

    Each pass strips the twos of the live numerators, applies the
    reciprocity sign and swaps (a, b) -> (b mod a, a); elements whose
    numerator reached zero leave the live set with their value.  No product
    is formed, so int64 is exact for any int64 input; integers past that
    range run as Python ints in object arrays.
    """
    try:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    except OverflowError:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=object), np.asarray(b, dtype=object))
    if np.any(b < 1) or np.any(b % 2 == 0):
        raise ValueError("lower argument must be odd and positive")
    out = np.zeros(a.shape, dtype=np.int64)
    live = np.arange(a.size)
    b = b.ravel()
    a = a.ravel() % b
    sign = np.ones(a.size, dtype=np.int8)
    while live.size:
        done = a == 0
        if done.any():
            out.flat[live[done]] = np.where(b[done] == 1, sign[done], 0)
            keep = ~done
            live, a, b, sign = live[keep], a[keep], b[keep], sign[keep]
        flip = (b % 8 == 3) | (b % 8 == 5)
        even = a % 2 == 0
        while even.any():
            np.floor_divide(a, 2, out=a, where=even)
            np.negative(sign, out=sign, where=even & flip)
            even = a % 2 == 0
        np.negative(sign, out=sign, where=(a % 4 == 3) & (b % 4 == 3))
        a, b = b % a, a
    return out


# Witnesses giving a deterministic Miller-Rabin test below 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Primality test, deterministic for n < 2^64.

    Trial division below 1e6, Miller-Rabin with a fixed witness set above.
    """
    if n < 2:
        return False
    if n < _TRIAL_LIMIT:
        if n < 4:
            return True
        if n % 2 == 0:
            return False
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    if n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (desk-scale inputs)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(n: int) -> int:
    """Smallest generator of (Z/nZ)* for prime n."""
    if not is_prime(n):
        raise ValueError(f"{n} is not prime")
    if n == 2:
        return 1
    order = n - 1
    prime_divs = _prime_factors(order)
    for g in range(2, n):
        if all(pow(g, order // p, n) != 1 for p in prime_divs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")
