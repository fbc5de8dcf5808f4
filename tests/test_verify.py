"""Runner behavior for the verification suites, faults that each suite
must catch, and the cheap suites run in full (the expensive ones are
exercised by the acceptance module)."""

from math import prod

import pytest

import homok.cocyclic
from homok import verify
from homok.arith import factorize
from homok.groups import invariant_factors_from_orders


def test_registry_names():
    assert verify.available_suites() == (
        "lemma211",
        "lemma212",
        "prop29",
        "thm213",
        "cor214",
        "thm216",
        "prop32",
        "ados",
        "ados-odd",
        "presentations",
    )


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nonsense")


def test_fail_fast_stops_at_first_failure(monkeypatch):
    def synthetic():
        yield True, "fine"
        yield False, "first bad"
        yield False, "second bad"

    monkeypatch.setitem(verify.SUITES, "synthetic", synthetic)
    stopped = verify.run_suite("synthetic")
    assert stopped == verify.SuiteResult(2, "first bad")
    assert not stopped.passed


def test_factorial_valuation_suite():
    result = verify.run_suite("lemma212")
    assert result.passed
    assert result.checks > 3000


def test_order_identity_suite():
    result = verify.run_suite("lemma211")
    assert result.passed
    assert result.checks > 90_000


def test_counting_suite():
    result = verify.run_suite("prop29")
    assert result.passed
    assert result.checks == 390


def test_duality_suite():
    result = verify.run_suite("cor214")
    assert result.passed
    assert result.checks == 2 * 389


def test_ados_suite():
    result = verify.run_suite("ados")
    assert result.passed
    assert result.checks == 35


def test_ados_reads_the_f_p_rank(monkeypatch):
    # sk1_invariants takes the ADOS count in closed form, so the suite must
    # read the lattice's own rank: one monomial row fewer is one more
    # quotient factor on (3)^3
    real = homok.cocyclic._monomial_rows
    monkeypatch.setattr(homok.cocyclic, "_monomial_rows", lambda g: real(g)[1:])
    result = verify.run_suite("ados")
    assert not result.passed
    assert result.counterexample.startswith("G = (3)^3:")


def test_thm216_counts_only_what_sk1_does_not_read_off_the_lattice():
    # of order <= 200: 278 mixed orders, 8 elementary groups of rank >= 3,
    # and 61 cyclic p-groups (the trivial group among them) and 8 groups
    # C_p x C_(p^b), b >= 2, whose lattice is the whole group; for any other
    # p-group sk1_invariants is lattice_chains itself
    result = verify.run_suite("thm216")
    assert result.passed
    assert result.checks == 278 + 8 + 61 + 8


def test_a_wrong_whole_group_rule_fails_thm216(monkeypatch):
    # hmg merged into one cyclic factor: on a rule group coc is hmg, so the
    # order check of sk1_invariants still holds and only the lattice tells;
    # the groups before (4), of order 1, 2 and 3, have at most one factor,
    # and (2,2) reads its own lattice
    real = homok.cocyclic.hom_invariants
    monkeypatch.setattr(
        homok.cocyclic,
        "hom_invariants",
        lambda pres, target: invariant_factors_from_orders([prod(real(pres, target))]),
    )
    homok.cocyclic.sk1_invariants.cache_clear()
    try:
        result = verify.run_suite("thm216")
    finally:
        homok.cocyclic.sk1_invariants.cache_clear()
    assert not result.passed
    assert result.counterexample.startswith("G = 4:")


def test_a_wrong_route_fails_thm216(monkeypatch):
    # (4,4) sent to the whole-group rule: sk1_invariants answers by the rule
    # and thm216 checks it, since the route it reads is no longer the lattice
    real = homok.cocyclic.sk1_route

    def wrong(group):
        if group.invariant_factors == (4, 4):
            return homok.cocyclic.Route.WHOLE
        return real(group)

    monkeypatch.setattr(homok.cocyclic, "sk1_route", wrong)
    monkeypatch.setattr(verify, "sk1_route", wrong)
    homok.cocyclic.sk1_invariants.cache_clear()
    try:
        result = verify.run_suite("thm216")
    finally:
        homok.cocyclic.sk1_invariants.cache_clear()
    assert not result.passed
    assert result.counterexample.startswith("G = 4,4:")


def test_a_wrong_closed_form_fails_thm216(monkeypatch):
    # one factor moved from the quotient to the lattice: the order check of
    # sk1_invariants still holds, only the comparison with the rank tells
    real = homok.cocyclic.comb
    monkeypatch.setattr(homok.cocyclic, "comb", lambda n, k: real(n, k) + 1)
    homok.cocyclic.sk1_invariants.cache_clear()
    try:
        result = verify.run_suite("thm216")
    finally:
        homok.cocyclic.sk1_invariants.cache_clear()
    assert not result.passed
    assert result.counterexample.startswith("G = 2,2,2:")


def test_ados_odd_reads_the_lattice(monkeypatch):
    # one more factor p in the lattice's quotient whenever the smallest
    # prime p of the moduli has p + 1 cyclic subgroups of order p and p^2
    # is a modulus, that is a Sylow p-subgroup of rank 2 and exponent above
    # p; sk1_invariants decides (3,9) and (3,27) by a rule, so a suite that
    # read it would pass them and fail first on (9,9)
    real = homok.cocyclic.lattice_invariants

    def one_more_factor(rows, moduli):
        quotient, coc = real(rows, moduli)
        p = min((m for m in moduli if m > 1), default=0)
        if moduli.count(p) == p + 1 and p * p in moduli:
            quotient = invariant_factors_from_orders([*quotient, p])
        return quotient, coc

    monkeypatch.setattr(homok.cocyclic, "lattice_invariants", one_more_factor)
    result = verify.run_suite("ados-odd")
    assert not result.passed
    assert result.counterexample.startswith("G = 3,9:")


def test_presentations_compare_each_mixed_presentation_own_lattice(monkeypatch):
    # a fault only in the rows of a non-canonical mixed-order presentation;
    # sk1_invariants assembles such a group from canonical p-parts and would
    # never build these rows, so the suite must read each one's own lattice
    real = homok.cocyclic._coc_basis_rows

    def no_rows_off_canonical(group):
        mixed = len(factorize(group.order)) > 1
        if mixed and group.factor_orders != group.invariant_factors:
            return []
        return real(group)

    monkeypatch.setattr(homok.cocyclic, "_coc_basis_rows", no_rows_off_canonical)
    result = verify.run_suite("presentations")
    assert not result.passed
    assert "presented as" in result.counterexample
