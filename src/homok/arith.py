"""Small integer helpers shared across the package.

Everything here is exact integer arithmetic on Python ints; nothing imports
from the rest of the package.
"""

from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (inputs here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f <= isqrt(n):
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization ``{p: multiplicity}`` of ``n >= 1``."""
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n >= 1``, sorted ascending."""
    if n < 1:
        raise ValueError(f"divisors expects a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def vp(n: int, p: int) -> int:
    """p-adic valuation of ``n != 0``."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"valuation base must be >= 2, got {p}")
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v

