"""Group arithmetic, the cyclic-subgroup scan and census, and primary
decomposition."""

import random
from collections import Counter
from math import gcd, prod

import pytest

import homok.groups
from homok.groups import (
    CapExceededError,
    Group,
    GroupSpecError,
    InternalInvariantError,
    RationalResidue,
    all_abelian_groups,
    cyclic_subgroup_census,
    cyclic_subgroup_count,
    cyclic_subgroups,
    element_order,
    generated_record_index,
    invariant_factors_from_orders,
    parse_group_spec,
    sylow_decompose,
)
from homok.snf import cokernel_invariants


def brute_cyclic_subgroups(group):
    """Independent enumeration: the set of subgroups <g> over all g."""
    subs = set()
    for g in group.elements():
        members = set()
        h = group.zero
        while True:
            members.add(h)
            h = group.add(h, g)
            if h == group.zero:
                members.add(h)
                break
        subs.add(frozenset(members))
    return subs


def record_members(group, rec):
    """Element indices of the subgroup a record names: the multiples
    0..o-1 of its canonical generator."""
    gen = rec.canonical_generator
    return [group.element_index(group.scale(m, gen)) for m in range(rec.subgroup_order)]


def test_parse_group_spec():
    assert parse_group_spec("3,9").factor_orders == (3, 9)
    assert parse_group_spec(" 2 , 4 ").factor_orders == (2, 4)
    assert parse_group_spec("1").order == 1


@pytest.mark.parametrize("bad", ["", "  ", "3,,9", "0,2", "-3", "a", "3;9", "2.5"])
def test_parse_group_spec_rejects(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_order_cap():
    with pytest.raises(CapExceededError):
        parse_group_spec("100001")
    with pytest.raises(CapExceededError):
        Group((101, 1009))
    assert Group((101, 1009), cap=110_000).order == 101909


def test_canonical_invariants():
    assert Group((2, 3)).invariant_factors == (6,)
    assert Group((6, 4)).invariant_factors == (2, 12)
    assert Group((1,)).invariant_factors == ()
    assert Group((1,)).canonical_spec == "1"
    assert Group((12, 10)).canonical_spec == "2,60"


def test_element_indexing_roundtrip():
    g = Group((3, 9))
    for idx, el in enumerate(g.elements()):
        assert g.element_index(el) == idx
        assert g.element_at(idx) == el
    with pytest.raises(ValueError):
        g.element_index((3, 0))
    with pytest.raises(ValueError):
        g.element_at(27)


def test_element_arithmetic():
    g = Group((4, 6))
    assert g.add((3, 5), (2, 4)) == (1, 3)
    assert g.scale(-1, (1, 2)) == (3, 4)
    assert g.scale(7, (2, 3)) == (2, 3)


def test_element_order_values():
    g = Group((12,))
    orders = {x: element_order(g, (x,)) for x in range(12)}
    assert orders[0] == 1
    assert orders[6] == 2
    assert orders[4] == 3
    assert orders[3] == 4
    assert orders[2] == 6
    assert orders[1] == 12


@pytest.mark.parametrize("spec", ["8", "3,9", "2,2,2", "4,6"])
def test_element_order_property(spec):
    g = parse_group_spec(spec)
    for el in g.elements():
        o = element_order(g, el)
        assert g.exponent % o == 0
        assert g.scale(o, el) == g.zero
        for d in range(1, o):
            if o % d == 0:
                assert g.scale(d, el) != g.zero


def test_cyclic_subgroups_of_3_9():
    g = Group((3, 9))
    records = cyclic_subgroups(g)
    assert len(records) == 8  # brute force below agrees
    assert brute_cyclic_subgroups(g) == {
        frozenset(g.element_at(i) for i in record_members(g, rec)) for rec in records
    }
    # sorted by order then generator, lex-least generator is canonical
    keys = [(rec.subgroup_order, rec.canonical_generator) for rec in records]
    assert keys == sorted(keys)
    assert records[0].canonical_generator == (0, 0)
    assert records[0].subgroup_order == 1
    for rec in records:
        o = element_order(g, rec.canonical_generator)
        assert o == rec.subgroup_order
        members = record_members(g, rec)
        assert len(set(members)) == o
        gens_in_members = [
            g.element_at(i)
            for i in members
            if element_order(g, g.element_at(i)) == o
        ]
        assert min(gens_in_members) == rec.canonical_generator


def test_cyclic_subgroups_of_9():
    recs = cyclic_subgroups(Group((9,)))
    assert [(r.subgroup_order, r.canonical_generator) for r in recs] == [
        (1, (0,)),
        (3, (3,)),
        (9, (1,)),
    ]


@pytest.mark.parametrize("spec", ["2,2", "12", "3,9", "2,4", "5,5"])
def test_generated_record_index(spec):
    g = parse_group_spec(spec)
    records = cyclic_subgroups(g)
    for el in g.elements():
        rec = records[generated_record_index(g, el)]
        members = set()
        h = g.zero
        o = element_order(g, el)
        for _ in range(o):
            members.add(g.element_index(h))
            h = g.add(h, el)
        assert members == set(record_members(g, rec))


def test_cyclic_subgroup_counts():
    assert cyclic_subgroup_count(Group((2, 2))) == 4
    assert cyclic_subgroup_count(Group((1,))) == 1
    # a cyclic group has one subgroup per divisor
    assert cyclic_subgroup_count(Group((12,))) == 6


def totient(m):
    return sum(1 for u in range(1, m + 1) if gcd(u, m) == 1)


def test_census_matches_an_element_walk_and_the_scan():
    """On every abelian group of order <= 500: c_m is the number of
    elements of order m (a brute-force walk) over phi(m), and the scan's
    records have exactly these orders."""
    groups = all_abelian_groups(500)
    assert len(groups) == 1012
    for g in groups:
        walked = Counter(element_order(g, x) for x in g.elements())
        assert all(n % totient(m) == 0 for m, n in walked.items())
        expected = tuple(sorted((m, n // totient(m)) for m, n in walked.items()))
        census = cyclic_subgroup_census(g)
        assert census == expected, g
        assert [m for m, _ in census] == [m for m in range(1, g.exponent + 1)
                                          if g.exponent % m == 0]
        scanned = Counter(rec.subgroup_order for rec in cyclic_subgroups(g))
        assert tuple(sorted(scanned.items())) == census, g


def test_census_needs_no_element(monkeypatch):
    """The census, the count and the Sylow complements' counts never scan;
    the census does not depend on the presentation."""

    def refuse(group):
        raise AssertionError(f"scanned {group.spec}")

    monkeypatch.setattr(homok.groups, "_subgroup_scan", refuse)
    assert cyclic_subgroup_census(Group((1,))) == ((1, 1),)
    assert cyclic_subgroup_census(Group((12,))) == tuple(
        (m, 1) for m in (1, 2, 3, 4, 6, 12)
    )
    assert cyclic_subgroup_census(Group((6, 10))) == cyclic_subgroup_census(
        Group((2, 30))
    )
    assert cyclic_subgroup_count(Group((2,) * 16)) == 2**16
    assert cyclic_subgroup_count(Group((3,) * 10)) == (3**10 - 1) // 2 + 1
    # complements 3,9 (1 + 4 + 3 subgroups) and 2,4 (1 + 3 + 2)
    assert [p.q_complement for p in sylow_decompose(Group((4, 6, 9)))] == [8, 6]


def test_census_refuses_counts_that_do_not_split(monkeypatch):
    group = Group((5,))  # built before the patch: Group() takes no gcd
    cyclic_subgroup_census.cache_clear()
    # one element killed by 5 besides 0: not a multiple of phi(5) = 4
    monkeypatch.setattr(homok.groups, "gcd", lambda a, b: 2 if a > 1 else 1)
    with pytest.raises(InternalInvariantError, match="do not split"):
        cyclic_subgroup_census(group)


def test_invariant_factors_from_orders():
    assert invariant_factors_from_orders([2, 3, 6]) == (6, 6)
    assert invariant_factors_from_orders([6, 4]) == (2, 12)
    assert invariant_factors_from_orders([1, 1, 1]) == ()
    assert invariant_factors_from_orders([0, 6, 0, 4]) == (2, 12, 0, 0)
    assert invariant_factors_from_orders([]) == ()


@pytest.mark.parametrize("seed", range(12))
def test_invariant_factors_match_smith_route(seed):
    rng = random.Random(0x0D0 + seed)
    orders = [rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(1, 5))]
    fast = tuple(d for d in invariant_factors_from_orders(orders) if d)
    assert fast == cokernel_invariants([], orders)


def test_sylow_decompose_12():
    parts = sylow_decompose(Group((12,)))
    assert [(p.prime, p.p_part.spec, p.complement.spec) for p in parts] == [
        (2, "4", "3"),
        (3, "3", "4"),
    ]
    assert [p.q_complement for p in parts] == [2, 3]
    assert sylow_decompose(Group((1,))) == []


@pytest.mark.parametrize("spec", ["6,4", "12,10", "3,9", "30"])
def test_sylow_recombination(spec):
    g = parse_group_spec(spec)
    parts = sylow_decompose(g)
    assert prod(p.p_part.order for p in parts) == g.order
    collected = []
    for part in parts:
        assert part.p_part.order * part.complement.order == g.order
        assert gcd(part.p_part.order, part.complement.order) == 1
        collected.extend(part.p_part.factor_orders)
    assert invariant_factors_from_orders(collected) == g.invariant_factors


def test_rational_residue():
    assert RationalResidue.of(7, 3) == RationalResidue(1, 3)
    assert RationalResidue.of(-1, 3) == RationalResidue(2, 3)
    assert RationalResidue.of(4, 6) == RationalResidue(2, 3)
    assert RationalResidue.of(6, 3).is_zero()
    assert RationalResidue(1, 4) + RationalResidue(3, 4) == RationalResidue(0, 1)
    assert -RationalResidue(1, 4) == RationalResidue(3, 4)
    assert 5 * RationalResidue(1, 10) == RationalResidue(1, 2)
    assert RationalResidue(2, 5).order == 5
    assert str(RationalResidue(2, 5)) == "2/5"
    for bad in [(2, 4), (3, 3), (1, 0), (-1, 2), (0, 5)]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            RationalResidue(*bad)


def test_all_abelian_groups_up_to_16():
    groups = all_abelian_groups(16)
    assert len(groups) == 25
    assert len(set(groups)) == 25
    for g in groups:
        assert g.order <= 16
        assert g.spec == g.canonical_spec  # canonical presentation
    assert [g.spec for g in groups if g.order == 16] == [
        "2,2,2,2",
        "2,2,4",
        "2,8",
        "4,4",
        "16",
    ]


def test_group_equality_and_hash():
    assert Group((2, 3)) == Group((2, 3))
    assert Group((2, 3)) != Group((6,))
    assert hash(Group((2, 3))) == hash(Group((2, 3)))
    assert Group(()).factor_orders == (1,)
