"""The d-th order of an integer k: the gcd of ``u**d - 1`` over all
integers ``u`` congruent to 1 mod k.

Two routes are provided on purpose. ``higher_order`` evaluates the closed
form (multiplicative in d, with explicit prime-power values) and is what the
rest of the package uses; ``higher_order_oracle`` folds the defining gcd
over exactly |d| terms, which a forward-difference argument shows is enough,
and exists purely to keep the closed form honest in tests.
"""

from __future__ import annotations

from math import gcd

from .arith import is_prime
from .groups import GroupSpecError


# the largest |d| the oracle folds; above it the fold is refused up front
ORACLE_MAX_TERMS = 512


class OracleStabilizationError(RuntimeError):
    """The degree needs more terms than the oracle's budget of
    ``ORACLE_MAX_TERMS``."""


def _validate_k(k: int) -> None:
    if k < 1:
        raise GroupSpecError(f"order is defined for k >= 1, got {k}")


def higher_order_oracle(d: int, k: int) -> int:
    """The d-th order of k straight from the definition.

    Folds ``gcd`` over ``u**|d| - 1`` for ``u = 1 + i*k``, i = 1..|d| (the
    order is insensitive to the sign of d). Raises
    ``OracleStabilizationError`` up front if |d| exceeds
    ``ORACLE_MAX_TERMS``.

    These |d| terms are exact: ``P(i) = (1 + i*k)**|d| - 1`` is an integer
    polynomial in i of degree |d| with ``P(0) = 0``, so by Newton's forward
    differences every ``P(n)``, n any integer, is an integer combination of
    ``P(0), ..., P(|d|)``. Those values therefore share their gcd with P
    over all ``u = 1 (mod k)``, negative i included.
    """
    _validate_k(k)
    if d == 0:
        return 0
    e = abs(d)
    if e > ORACLE_MAX_TERMS:
        raise OracleStabilizationError(
            f"gcd for d={d} needs {e} terms, over the budget of "
            f"{ORACLE_MAX_TERMS}"
        )
    return gcd(*((1 + i * k) ** e - 1 for i in range(1, e + 1)))


def higher_order(d: int, k: int) -> int:
    """The d-th order of k.

    ``d = 0`` gives 0 (every ``u**0 - 1`` vanishes, the value generates the
    full relation group); otherwise the (p^s)-th orders ``k * gcd(p, k)^s``
    over the prime powers of |d| multiply out to k * r, r the part of |d|
    on the primes of k (by gcds, d is never factored), with a factor 2
    made ``gcd(4, k + 2)``.
    """
    _validate_k(k)
    if d == 0:
        return 0
    rest, r = abs(d), 1
    while (g := gcd(rest, k)) > 1:
        rest, r = rest // g, r * g
    return k * (r // 2 * gcd(4, k + 2) if r % 2 == 0 else r)


def vp_factorial(n: int, p: int) -> int:
    """p-adic valuation of n! by Legendre's sum of floored quotients."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total
