"""The blind oracles must agree with each other and pin down the
structured code paths they exist to keep honest."""

import itertools
import random
from math import gcd, prod

import pytest

from homok.arith import divisors
from homok.groups import Group, cyclic_subgroups
from homok.oracles import (
    count_homogeneous_tables,
    count_homogeneous_tables_product,
    invariants_match_profile,
    order_profile,
    span_in_ambient,
)
from homok.orders import higher_order
from homok.snf import cokernel_invariants, subgroup_basis, subgroup_invariants


class TestCounting:
    def test_backtracking_matches_literal_filter(self):
        specs = [(2,), (3,), (4,), (2, 2), (5,), (6,)]
        for spec in specs:
            group = Group(spec)
            for degree in range(4):
                for modulus in range(1, 5):
                    if modulus**group.order > 500_000:
                        continue
                    fast = count_homogeneous_tables(group, degree, modulus)
                    slow = count_homogeneous_tables_product(group, degree, modulus)
                    assert fast == slow, (spec, degree, modulus)

    def test_counts_follow_subgroup_structure(self):
        group = Group((3, 3))
        records = cyclic_subgroups(group)
        assert len(records) == 5
        expected = prod(
            gcd(higher_order(1, rec.subgroup_order), 3) for rec in records
        )
        assert expected == 81
        assert count_homogeneous_tables(group, 1, 3) == 81

    def test_negative_degree_counts(self):
        group = Group((4,))
        for modulus in (2, 3, 4, 6):
            fast = count_homogeneous_tables(group, -1, modulus)
            slow = count_homogeneous_tables_product(group, -1, modulus)
            assert fast == slow

    def test_literal_filter_refuses_big_products(self):
        with pytest.raises(ValueError, match="limit"):
            count_homogeneous_tables_product(Group((3, 3)), 1, 10)


class TestSpan:
    def test_diagonal_line(self):
        span = span_in_ambient([[1, 1]], [3, 3])
        assert span == {(0, 0), (1, 1), (2, 2)}

    def test_standard_basis_fills_ambient(self):
        span = span_in_ambient([[1, 0], [0, 1]], [2, 4])
        assert len(span) == 8

    def test_no_rows_means_trivial(self):
        assert span_in_ambient([], [5, 5]) == {(0, 0)}

    def test_ambient_limit(self):
        with pytest.raises(ValueError, match="limit"):
            span_in_ambient([[1, 1]], [500, 500])

    def test_bad_modulus(self):
        with pytest.raises(ValueError, match=">= 1"):
            span_in_ambient([[1]], [0])


class TestProfiles:
    def test_full_group_census(self):
        elements = list(itertools.product(range(2), range(4)))
        profile = order_profile(elements, [2, 4])
        assert profile == {1: 1, 2: 4, 4: 8}
        assert invariants_match_profile((2, 4), profile)
        # Z/8 has the same order but only two involutions-or-less
        assert not invariants_match_profile((8,), profile)

    def test_random_spans_match_smith_invariants(self):
        rng = random.Random(20260822)
        pools = [[2, 4], [3, 3], [2, 6], [9], [5, 5], [2, 2, 2], [12], [3, 9],
                 [2, 4, 8], [3, 9, 27], [4, 4, 2], [9, 3, 3]]
        for _ in range(120):
            moduli = rng.choice(pools)
            rows = [
                [rng.randrange(m) for m in moduli]
                for _ in range(rng.randrange(1, 4))
            ]
            span = span_in_ambient(rows, moduli)
            sub = subgroup_invariants(rows, moduli)
            assert prod(sub) == len(span)
            assert invariants_match_profile(sub, order_profile(span, moduli))
            basis = subgroup_basis(rows, moduli)
            assert span_in_ambient([list(v) for v, _ in basis], moduli) == span
            for vec, order in basis:
                assert len(span_in_ambient([list(vec)], moduli)) == order
            assert tuple(order for _, order in basis) == sub

            quo = cokernel_invariants(rows, moduli)
            ambient = list(itertools.product(*(range(m) for m in moduli)))
            assert prod(quo) * len(span) == len(ambient)
            exponent = 1
            for m in moduli:
                exponent = exponent * m // gcd(exponent, m)
            killed = {}
            for e in divisors(exponent):
                hits = sum(
                    1
                    for x in ambient
                    if tuple((e * c) % m for c, m in zip(x, moduli)) in span
                )
                killed[e] = hits // len(span)
            assert invariants_match_profile(quo, killed)
