"""Graded presentations, projection, and hom invariants."""

import random
from math import gcd, prod

import pytest

import homok.bracket
from homok.arith import factorize
from homok.bracket import (
    GradedPresentation,
    Target,
    graded_presentation,
    hom_invariants,
    project_element,
    sylow_decomposition_invariants,
)
from homok.groups import (
    CyclicSubgroupRecord,
    Group,
    InternalInvariantError,
    all_abelian_groups,
    cyclic_subgroup_count,
    cyclic_subgroups,
    element_order,
)
from homok.orders import higher_order


def test_z9_presentations_by_degree():
    g = Group((9,))
    assert graded_presentation(g, 1).moduli == (1, 3, 9)
    assert graded_presentation(g, 2).moduli == (1, 3, 9)
    assert graded_presentation(g, 3).moduli == (1, 9, 27)
    assert graded_presentation(g, -1).moduli == (1, 3, 9)
    assert graded_presentation(g, 0).moduli == (0, 0, 0)


def test_presentation_matches_closed_form_orders():
    for spec in [(6,), (3, 9), (2, 2), (12, 10)]:
        g = Group(spec)
        for d in (0, 1, 2, 5, -2):
            pres = graded_presentation(g, d)
            for rec, modulus in pres.summands:
                assert modulus == higher_order(d, rec.subgroup_order)


def test_census_moduli_align_with_the_scanned_records():
    """The moduli come from the census; term by term they are the d-th
    orders of the scan's record orders."""
    for g in all_abelian_groups(200):
        records = cyclic_subgroups(g)
        for d in (0, 1, 2, -1):
            pres = graded_presentation(g, d)
            assert pres.moduli == tuple(
                higher_order(d, rec.subgroup_order) for rec in records
            ), (g, d)
            assert pres.summands == tuple(zip(records, pres.moduli))


def test_summands_refuse_records_that_disagree_with_the_census(monkeypatch):
    g = Group((3, 3))
    pres = GradedPresentation(g, 1, graded_presentation(g, 1).moduli, 0)
    wrong = (CyclicSubgroupRecord((0, 0), 1),) * 5
    monkeypatch.setattr(homok.bracket, "cyclic_subgroups", lambda group: wrong)
    with pytest.raises(InternalInvariantError, match="disagree with the census"):
        pres.summands


def test_size_of_many_summands():
    g = Group((2,) * 16)
    assert graded_presentation(g, 1).size() == 2 ** (2**16 - 1)
    assert graded_presentation(g, 2).size() == higher_order(2, 2) ** (2**16 - 1)


def test_free_rank_counts_cyclic_subgroups():
    g = Group((2, 4))
    pres = graded_presentation(g, 0)
    assert pres.free_rank == cyclic_subgroup_count(g) == 6
    assert graded_presentation(g, 3).free_rank == 0


def test_presentations_are_cached():
    g = Group((3, 9))
    assert graded_presentation(g, 2) is graded_presentation(Group((3, 9)), 2)


def test_size():
    assert graded_presentation(Group((9,)), 2).size() == 27
    with pytest.raises(ValueError):
        graded_presentation(Group((9,)), 0).size()


class TestProjection:
    def test_worked_example_positive_degree(self):
        pres = graded_presentation(Group((9,)), 2)
        assert project_element(pres, (4,)) == (2, 7)  # 4^2 = 16 = 7 mod 9
        assert project_element(pres, (3,)) == (1, 1)
        assert project_element(pres, (0,)) == (0, 0)

    def test_worked_example_negative_degree(self):
        pres = graded_presentation(Group((9,)), -1)
        assert project_element(pres, (4,)) == (2, 7)  # 4 * 7 = 1 mod 9

    def test_degree_zero_rejected(self):
        pres = graded_presentation(Group((9,)), 0)
        with pytest.raises(ValueError):
            project_element(pres, (1,))

    def test_projection_twists_by_nth_power(self):
        rng = random.Random(5)
        for spec, d in [((9,), 2), ((3, 9), 1), ((15,), 3), ((5, 25), -1)]:
            g = Group(spec)
            pres = graded_presentation(g, d)
            elems = list(g.elements())
            for _ in range(25):
                x = elems[rng.randrange(g.order)]
                o = element_order(g, x)
                n = rng.choice([m for m in range(1, o + 1) if gcd(m, o) == 1])
                idx, c = project_element(pres, x)
                idx2, c2 = project_element(pres, g.scale(n, x))
                assert idx2 == idx
                assert c2 == (pow(n, d, pres.moduli[idx]) * c) % pres.moduli[idx]


class TestHomInvariants:
    def test_scalar_target_worked_examples(self):
        assert hom_invariants(graded_presentation(Group((9,)), 2)) == (3, 9)
        assert hom_invariants(graded_presentation(Group((3, 9)), 1)) == (
            3, 3, 3, 3, 9, 9, 9,
        )
        assert hom_invariants(graded_presentation(Group((1,)), 1)) == ()

    def test_integer_target(self):
        assert hom_invariants(graded_presentation(Group((9,)), 2), Target.Z) == ()
        free = hom_invariants(graded_presentation(Group((2, 4)), 0), Target.Z)
        assert free == (0,) * 6

    def test_degree_zero_needs_integer_target(self):
        with pytest.raises(ValueError):
            hom_invariants(graded_presentation(Group((9,)), 0), Target.QZ)

    def test_chain_divisibility(self):
        for spec, d in [((3, 9), 2), ((30,), 1), ((2, 2, 3), 3), ((8, 3), -2)]:
            inv = hom_invariants(graded_presentation(Group(spec), d))
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0 and a > 1

    def test_hom_counts_into_cyclic_targets(self):
        # invariant factors and raw moduli present the same group, so the
        # number of homomorphisms into each Z/m must agree
        for spec, d in [((3, 9), 1), ((12,), 2), ((5, 5), 3), ((18,), -1)]:
            pres = graded_presentation(Group(spec), d)
            inv = hom_invariants(pres)
            for m in range(1, 13):
                direct = prod(gcd(a, m) for a in pres.moduli)
                via_inv = prod(gcd(a, m) for a in inv)
                assert direct == via_inv


class TestSylowAssembly:
    def test_worked_example(self):
        g = Group((6,))
        assert hom_invariants(graded_presentation(g, 1)) == (6, 6)
        assert sylow_decomposition_invariants(g, 1) == (6, 6)

    def test_assembly_agrees_with_direct(self):
        groups = [(6,), (12,), (3, 9), (2, 2, 3), (30,), (4, 9, 5), (45,)]
        for spec in groups:
            g = Group(spec)
            for d in (1, 2, 3, 6, -1):
                direct = hom_invariants(graded_presentation(g, d))
                assert sylow_decomposition_invariants(g, d) == direct

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            sylow_decomposition_invariants(Group((6,)), 0)


def test_moduli_primes_stay_inside_group_primes():
    # makes inverse powers mod the modulus legitimate during projection
    for spec in [(9,), (3, 9), (30,), (8, 5)]:
        g = Group(spec)
        group_primes = set(factorize(g.order))
        for d in (1, 2, 4, 9, -3):
            for m in graded_presentation(g, d).moduli:
                assert set(factorize(m)) <= group_primes
