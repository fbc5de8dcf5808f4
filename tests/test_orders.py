"""The d-th order of k: closed form against the defining gcd."""

from functools import reduce
from math import gcd

import pytest

from homok.orders import (
    OraclePolicy,
    OracleStabilizationError,
    higher_order,
    higher_order_oracle,
    o_prime_power,
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


# 36, 66 and 100: the primes 37, 67 and 101 (p - 1 | d) divide the first
# p - 1 terms of the fold, so a floor of 16 terms (36) or of 64 terms (66,
# 100) let the window stop on a wrong gcd
@pytest.mark.parametrize(
    "d", list(range(1, 13)) + [15, 16, 18, 24, 36, 66, 100, -6, -8, -66]
)
def test_closed_form_matches_oracle(d):
    for k in range(1, 41):
        assert higher_order(d, k) == higher_order_oracle(d, k), (d, k)


def test_oracle_refuses_a_budget_below_the_degree():
    with pytest.raises(OracleStabilizationError, match="at least 601 terms"):
        higher_order_oracle(600, 3)
    with pytest.raises(OracleStabilizationError, match="budget of 9"):
        higher_order_oracle(-10, 3, OraclePolicy(min_terms=1, max_terms=9))
    roomy = OraclePolicy(min_terms=1, max_terms=64)
    assert higher_order_oracle(-10, 3, roomy) == higher_order(-10, 3)


def test_k_divides_order_and_order_divides_multiples():
    for d in range(1, 20):
        for k in range(1, 30):
            o = higher_order(d, k)
            assert o % k == 0
            assert higher_order(2 * d, k) % o == 0
            assert higher_order(3 * d, k) % o == 0


def test_o_prime_power_validation():
    with pytest.raises(ValueError):
        o_prime_power(4, 1, 3)
    with pytest.raises(ValueError):
        o_prime_power(3, 0, 3)
    with pytest.raises(ValueError):
        higher_order(2, 0)
    with pytest.raises(ValueError):
        higher_order_oracle(2, -1)


def test_oracle_policy():
    with pytest.raises(ValueError):
        OraclePolicy(min_terms=0)
    with pytest.raises(ValueError):
        OraclePolicy(min_terms=10, max_terms=5)
    with pytest.raises(ValueError):
        OraclePolicy(stable_window=0)
    # a budget too small to ever see a stable window
    tight = OraclePolicy(min_terms=1, stable_window=50, max_terms=3)
    with pytest.raises(OracleStabilizationError):
        higher_order_oracle(2, 6, tight)


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
