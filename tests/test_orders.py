"""The d-th order of k: closed form against the defining gcd."""

from functools import reduce
from math import gcd

import pytest

import homok.orders
from homok.arith import factorize
from homok.orders import (
    OracleStabilizationError,
    higher_order,
    higher_order_oracle,
    vp_factorial,
)


def test_oracle_matches_literal_fold():
    # the third order of 3 straight from the definition: gcd(4^3-1, 7^3-1, ...)
    literal = reduce(gcd, [(1 + 3 * i) ** 3 - 1 for i in range(1, 50)])
    assert literal == 9
    assert higher_order_oracle(3, 3) == 9


def test_known_values():
    assert higher_order(1, 9) == 9
    assert higher_order(2, 9) == 9
    assert higher_order(3, 9) == 27
    assert higher_order(6, 9) == 27
    assert higher_order(2, 15) == 15
    assert higher_order(2, 2) == 8
    assert higher_order(4, 2) == 16
    assert higher_order(2, 4) == 8
    assert higher_order(5, 1) == 1


def test_degree_zero_and_sign():
    assert higher_order(0, 7) == 0
    assert higher_order_oracle(0, 7) == 0
    for d in range(1, 9):
        for k in (1, 2, 5, 9, 12):
            assert higher_order(d, k) == higher_order(-d, k)


def test_first_order_is_identity():
    for k in range(1, 60):
        assert higher_order(1, k) == k


def _short_fold(d, k):
    """The oracle's fold one term short: |d| - 1 terms."""
    return reduce(gcd, [(1 + i * k) ** abs(d) - 1 for i in range(1, abs(d))], 0)


# 36, 66 and 100: the primes 37, 67 and 101 (p - 1 | d) divide the first
# p - 1 terms of the fold. The cells in TIGHT need every one of the |d|
# terms: |d| - 1 of them give a wrong gcd.
TIGHT = [(2, 1), (2, 3), (4, 6), (6, 8), (-6, 15), (28, 1), (28, 30)]


@pytest.mark.parametrize(
    "d", list(range(1, 13)) + [15, 16, 18, 24, 28, 36, 66, 100, -6, -8, -66]
)
def test_closed_form_matches_oracle(d):
    for k in range(1, 41):
        assert higher_order(d, k) == higher_order_oracle(d, k), (d, k)


@pytest.mark.parametrize("d, k", TIGHT)
def test_closed_form_matches_oracle_on_tight_cells(d, k):
    assert higher_order_oracle(d, k) == higher_order(d, k)
    assert _short_fold(d, k) != higher_order(d, k)


def _prime_power_product(d, k):
    """o_d(k) as the product of the (p^s)-th orders of k over the prime
    powers p^s of |d|, each ``k * gcd(p, k)^s`` (for p = 2,
    ``k * gcd(2, k)^(s-1) * gcd(4, k + 2)``) divided by k, times k."""
    out = k
    for p, s in factorize(abs(d)).items():
        if p == 2:
            out *= gcd(2, k) ** (s - 1) * gcd(4, k + 2)
        else:
            out *= gcd(p, k) ** s
    return out


def test_closed_form_is_the_product_over_the_prime_powers_of_d():
    for d in range(-150, 151):
        if d:
            for k in range(1, 101):
                assert higher_order(d, k) == _prime_power_product(d, k), (d, k)


def test_a_huge_degree_is_not_factored(monkeypatch):
    # only the primes of d that divide k count; 10**17 + 3 is prime to 12,
    # and trial division of it would run for minutes
    def refuse(n):
        raise AssertionError(f"higher_order factored {n}")

    monkeypatch.setattr(homok.orders, "factorize", refuse, raising=False)
    big = 10**17 + 3
    assert higher_order(big, 3) == 3
    assert higher_order(-(2**5) * 3**4 * big, 12) == 12 * (2**4 * 2) * 3**4
    assert higher_order(2 * big, 4) == 4 * gcd(4, 6)


def test_oracle_refuses_a_budget_below_the_degree():
    for d in (512, -512):
        assert higher_order_oracle(d, 3) == higher_order(d, 3)
    for d in (513, 600):
        with pytest.raises(
            OracleStabilizationError, match=f"needs {d} terms.*budget of 512"
        ):
            higher_order_oracle(d, 3)


def test_k_divides_order_and_order_divides_multiples():
    for d in range(1, 20):
        for k in range(1, 30):
            o = higher_order(d, k)
            assert o % k == 0
            assert higher_order(2 * d, k) % o == 0
            assert higher_order(3 * d, k) % o == 0


def test_order_validation():
    with pytest.raises(ValueError):
        higher_order(2, 0)
    with pytest.raises(ValueError):
        higher_order_oracle(2, -1)


def test_vp_factorial():
    assert vp_factorial(10, 2) == 8
    assert vp_factorial(10, 5) == 2
    assert vp_factorial(100, 5) == 24
    assert vp_factorial(0, 3) == 0
    fact = 1
    for n in range(1, 21):
        fact *= n
        for p in (2, 3, 5, 7):
            v = 0
            m = fact
            while m % p == 0:
                v += 1
                m //= p
            assert vp_factorial(n, p) == v
    with pytest.raises(ValueError):
        vp_factorial(-1, 2)
    with pytest.raises(ValueError):
        vp_factorial(5, 6)
