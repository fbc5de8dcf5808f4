"""The d-th order of an integer k: the gcd of ``u**d - 1`` over all
integers ``u`` congruent to 1 mod k.

Two routes are provided on purpose. ``higher_order`` evaluates the closed
form (multiplicative in d, with explicit prime-power values) and is what the
rest of the package uses; ``higher_order_oracle`` computes the defining gcd
term by term until it stabilizes and exists purely to keep the closed form
honest in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import factorize, is_prime

__all__ = [
    "OraclePolicy",
    "OracleStabilizationError",
    "higher_order",
    "higher_order_oracle",
    "o_prime_power",
    "vp_factorial",
]


@dataclass(frozen=True)
class OraclePolicy:
    """Stopping rule for the term-by-term gcd: take at least ``min_terms``
    terms, stop once ``stable_window`` consecutive terms leave the gcd
    unchanged, and give up at ``max_terms``."""

    min_terms: int = 16
    stable_window: int = 8
    max_terms: int = 512

    def __post_init__(self):
        if not 1 <= self.min_terms <= self.max_terms:
            raise ValueError("need 1 <= min_terms <= max_terms")
        if self.stable_window < 1:
            raise ValueError("stable_window must be >= 1")


class OracleStabilizationError(RuntimeError):
    """The defining gcd did not stabilize within the configured budget."""


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"order is defined for k >= 1, got {k}")


def higher_order_oracle(d: int, k: int, policy: OraclePolicy = OraclePolicy()) -> int:
    """The d-th order of k straight from the definition.

    Folds ``gcd`` over ``u**|d| - 1`` for ``u = 1 + k, 1 + 2k, ...`` (the
    order is insensitive to the sign of d). Raises
    ``OracleStabilizationError`` if the fold is still moving at
    ``max_terms``, or up front if ``max_terms`` is below |d| + 1.

    The stopping window may close only after |d| + 1 terms (or
    ``min_terms``, if more). Modulo a prime p not dividing k, the first
    |d| + 1 values of ``u`` are distinct (or cover every residue), and at
    most |d| residues solve ``x**|d| = 1``, so no such p survives them; the
    window then only settles the valuations of the primes of k.
    """
    _validate_k(k)
    if d == 0:
        return 0
    e = abs(d)
    if policy.max_terms < e + 1:
        raise OracleStabilizationError(
            f"gcd for d={d} needs at least {e + 1} terms, over the budget "
            f"of {policy.max_terms}"
        )
    min_terms = max(policy.min_terms, e + 1)
    value = 0
    unchanged = 0
    for i in range(1, policy.max_terms + 1):
        u = 1 + i * k
        new = gcd(value, u**e - 1)
        unchanged = unchanged + 1 if new == value else 0
        value = new
        if i >= min_terms and unchanged >= policy.stable_window:
            return value
    raise OracleStabilizationError(
        f"gcd for d={d}, k={k} still changing after {policy.max_terms} terms"
    )


def o_prime_power(p: int, s: int, k: int) -> int:
    """The (p**s)-th order of k in closed form."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    _validate_k(k)
    if p == 2:
        return k * gcd(2, k) ** (s - 1) * gcd(4, k + 2)
    return k * gcd(p, k) ** s


def higher_order(d: int, k: int) -> int:
    """The d-th order of k.

    ``d = 0`` gives 0 (every ``u**0 - 1`` vanishes, the value generates the
    full relation group); ``d = 1`` gives k; otherwise the normalized values
    ``o_d(k)/k`` multiply over the prime powers in ``|d|``.
    """
    _validate_k(k)
    if d == 0:
        return 0
    out = k
    for p, s in factorize(abs(d)).items():
        out *= o_prime_power(p, s, k) // k
    return out


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
