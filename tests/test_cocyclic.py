"""Cocyclic subgroups, the generator lattice, and the quotient invariants."""

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from math import gcd, isqrt, prod

import pytest

import homok.cocyclic
from homok import snf
from homok.cocyclic import (
    Route,
    _coc_basis_rows,
    _monomial_rows,
    cocyclic_subgroups,
    lattice_chains,
    sk1_invariants,
    sk1_route,
)
from homok.groups import (
    DEFAULT_CAP,
    Group,
    _partitions,
    all_abelian_groups,
    cyclic_subgroup_count,
    cyclic_subgroups,
    element_order,
    invariant_factors_from_orders,
)
from homok.oracles import span_in_ambient


def brute_kernels(group: Group):
    """Character kernels straight from the definition: for every phi in the
    dual (one coefficient per factor), the set of g with sum phi_i g_i
    vanishing in Q/Z."""
    e = group.exponent
    kernels = set()
    factors = group.factor_orders
    for phi in itertools.product(*(range(n) for n in factors)):
        members = []
        for idx, g in enumerate(group.elements()):
            val = sum(p * x * (e // n) for p, x, n in zip(phi, g, factors)) % e
            if val == 0:
                members.append(idx)
        kernels.add(tuple(members))
    return kernels


def add(group: Group, a, b):
    """``a + b`` in ``group``, coordinatewise."""
    return tuple((x + y) % n for x, y, n in zip(a, b, group.factor_orders))


def pairing(group: Group, chi, g) -> int:
    """The character indexed by ``chi`` at ``g``, ``sum_i chi_i g_i / n_i``
    in Q/Z, as its numerator over the exponent e."""
    e = group.exponent
    return sum(c * x * (e // n) for c, x, n in zip(chi, g, group.factor_orders)) % e


def kernel_members(group: Group, k) -> tuple[int, ...]:
    """Element indices g with k.character(g) = 0, by direct evaluation."""
    return tuple(
        idx
        for idx, g in enumerate(group.elements())
        if pairing(group, k.character, g) == 0
    )


def test_character_pairing_is_perfect():
    """Indexing characters (and so kernels) by elements rests on the
    pairing: additive in g, and no two elements give the same character."""
    g = Group((3, 9))
    assert pairing(g, (1, 0), (1, 0)) == 3
    assert pairing(g, (0, 1), (0, 3)) == 3
    assert pairing(g, (0, 0), (2, 7)) == 0
    table = {}
    for chi in g.elements():
        table[chi] = tuple(pairing(g, chi, x) for x in g.elements())
        for a in g.elements():
            for b in [(1, 1), (2, 8)]:
                assert pairing(g, chi, add(g, a, b)) == (
                    pairing(g, chi, a) + pairing(g, chi, b)
                ) % g.exponent
    assert len(set(table.values())) == g.order


def full_lattice_rows(group: Group):
    """Every character of every brute-force kernel, extended by zero, in the
    coordinates of ``+ Z/|C|`` (value a/|C| at the canonical generator of C
    gives coordinate a).

    A character of K is the restriction of some phi in the dual of G, so
    looping over all phi and all kernels covers every character of every
    kernel (with repeats)."""
    e = group.exponent
    factors = group.factor_orders
    records = cyclic_subgroups(group)
    rows = set()
    for members in brute_kernels(group):
        member_set = set(members)
        for phi in itertools.product(*(range(n) for n in factors)):
            row = []
            for rec in records:
                x = rec.canonical_generator
                if group.element_index(x) not in member_set:
                    row.append(0)
                    continue
                val = sum(p * xi * (e // n) for p, xi, n in zip(phi, x, factors))
                # val / e in Q/Z has denominator dividing |C|
                row.append(val * rec.subgroup_order // e % rec.subgroup_order)
            rows.add(tuple(row))
    return rows


class TestEnumeration:
    def test_counts(self):
        assert len(cocyclic_subgroups(Group((9,)))) == 3
        assert len(cocyclic_subgroups(Group((3, 3)))) == 5

    def test_sizes(self):
        sizes = sorted(k.size for k in cocyclic_subgroups(Group((9,))))
        assert sizes == [1, 3, 9]
        sizes = sorted(k.size for k in cocyclic_subgroups(Group((3, 3))))
        assert sizes == [3, 3, 3, 3, 9]  # no faithful character off cyclic

    def test_matches_brute_force_kernels(self):
        for spec in [(9,), (3, 3), (2, 2), (12,), (3, 9), (2, 4)]:
            g = Group(spec)
            ours = [kernel_members(g, k) for k in cocyclic_subgroups(g)]
            assert len(set(ours)) == len(ours)
            assert set(ours) == brute_kernels(g)

    def test_count_equals_cyclic_subgroup_count(self):
        for g in all_abelian_groups(40):
            assert len(cocyclic_subgroups(g)) == cyclic_subgroup_count(g)

    def test_trivial_kernel_only_for_cyclic(self):
        has_zero = lambda g: any(k.size == 1 for k in cocyclic_subgroups(g))
        assert has_zero(Group((9,)))
        assert not has_zero(Group((3, 3)))

    def test_kernels_are_subgroups_of_the_stated_index(self):
        for spec in [(3, 9), (2, 4), (5, 5)]:
            g = Group(spec)
            elems = list(g.elements())
            for k in cocyclic_subgroups(g):
                members = kernel_members(g, k)
                member_set = set(members)
                for a in members:
                    for b in members:
                        s = add(g, elems[a], elems[b])
                        assert g.element_index(s) in member_set
                assert len(members) == k.size
                assert k.size * k.quotient_order == g.order
                assert element_order(g, k.character) == k.quotient_order

    def test_smallest_kernel_first(self):
        sizes = [k.size for k in cocyclic_subgroups(Group((3, 9)))]
        assert sizes == sorted(sizes)


class TestCocyclicVector:
    # on Z/9 the columns are the subgroups of order 1, 3, 9; the identity
    # character of a kernel K, extended by zero, is 1/|C| at every C in K
    def test_worked_example_full_group(self):
        g = Group((9,))
        moduli = [rec.subgroup_order for rec in cyclic_subgroups(g)]
        span = span_in_ambient(_coc_basis_rows(g), moduli)
        assert (0, 1, 1) in span
        assert (0, 1, 1) in full_lattice_rows(g)

    def test_worked_example_proper_kernel(self):
        g = Group((9,))
        moduli = [rec.subgroup_order for rec in cyclic_subgroups(g)]
        span = span_in_ambient(_coc_basis_rows(g), moduli)
        assert (0, 1, 0) in span
        assert (0, 1, 0) in full_lattice_rows(g)


def fixed_factor(group: Group, k):
    """The factor whose row ``_coc_basis_rows`` leaves out for kernel k:
    the first i with the character's coefficient a unit mod n_i, or None."""
    return next(
        (i for i, (y, n) in enumerate(zip(k.character, group.factor_orders))
         if gcd(y, n) == 1),
        None,
    )


def coordinate_rows(group: Group, members_of, drop: bool):
    """Per kernel and factor i, the i-th coordinate character restricted to
    the kernel, at every column; ``members_of(k)`` decides which column
    generators lie in k. With ``drop``, each kernel's fixed factor is
    skipped."""
    columns = cyclic_subgroups(group)
    rows = []
    for k in cocyclic_subgroups(group):
        members = members_of(k)
        inside = [rec.canonical_generator in members for rec in columns]
        skip = fixed_factor(group, k) if drop else None
        for i, n in enumerate(group.factor_orders):
            if i == skip:
                continue
            rows.append([
                (rec.canonical_generator[i] * rec.subgroup_order // n)
                % rec.subgroup_order if hit else 0
                for rec, hit in zip(columns, inside)
            ])
    return rows


class TestGeneratorMatrix:
    def test_shape_and_spot_rows(self):
        g = Group((9,))
        rows = _coc_basis_rows(g)
        # one row per (kernel, factor), less the row of a unit coefficient:
        # the trivial kernel (character 1) keeps none
        assert len(rows) == 2
        assert all(len(r) == 3 for r in rows)
        assert rows == [[0, 1, 0], [0, 1, 1]]  # smallest kernel first

    def test_rows_are_cocyclic_vectors(self):
        # the rows are extended characters (so their span lies inside the
        # full lattice), and every extended character of every kernel lies
        # in their span: the two spans are equal
        for spec in [(9,), (3, 3), (3, 9), (2, 4), (2, 2, 2)]:
            g = Group(spec)
            moduli = [rec.subgroup_order for rec in cyclic_subgroups(g)]
            full = full_lattice_rows(g)
            rows = _coc_basis_rows(g)
            assert len(rows) == sum(
                len(g.factor_orders) - (fixed_factor(g, k) is not None)
                for k in cocyclic_subgroups(g)
            )
            assert {tuple(r) for r in rows} <= full
            assert full <= span_in_ambient(rows, moduli)

    def test_rows_match_the_definition(self):
        # independent of the pairing table: a column is inside a kernel when
        # its generator is among the kernel's members, found by evaluating
        # the character on every element
        for g in all_abelian_groups(200):
            elements = list(g.elements())

            def members_of(k):
                return {elements[idx] for idx in kernel_members(g, k)}

            assert _coc_basis_rows(g) == coordinate_rows(g, members_of, True), g.spec

    def test_dropped_rows_leave_the_lattice_unchanged(self):
        # oracle for the drop rule: the full row set (every factor for every
        # kernel) and the reduced one give the same pair of chains
        changed = 0
        for g in all_abelian_groups(200):
            moduli = [rec.subgroup_order for rec in cyclic_subgroups(g)]
            gens = [rec.canonical_generator for rec in cyclic_subgroups(g)]

            def members_of(k):
                return {x for x in gens if pairing(g, k.character, x) == 0}

            full = coordinate_rows(g, members_of, False)
            rows = _coc_basis_rows(g)
            if len(rows) == len(full):
                continue
            changed += 1
            assert snf.lattice_invariants(rows, moduli) == snf.lattice_invariants(
                full, moduli
            ), g.spec
        # every group has a character with a unit coefficient (the trivial
        # group's only row, of its factor 1, is dropped too)
        assert changed == 389


def gf_rank(rows, p):
    """Row rank over the field with p elements (p prime)."""
    mat = [[x % p for x in row] for row in rows]
    rank, cols = 0, len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestQuotientInvariants:
    def test_cyclic_groups_have_trivial_quotient(self):
        for n in (1, 3, 9, 15, 45, 99):
            report = sk1_invariants(Group((n,)))
            assert report.quotient_invariants == ()
            assert report.hmg_invariants == report.coc_invariants

    def test_rank_two_elementary_groups_trivial(self):
        for p in (3, 5, 7):
            assert sk1_invariants(Group((p, p))).quotient_invariants == ()

    def test_elementary_3_cube(self):
        report = sk1_invariants(Group((3, 3, 3)))
        assert report.quotient_invariants == (3, 3, 3)
        assert report.theorem_applies

    def test_elementary_5_cube(self):
        report = sk1_invariants(Group((5, 5, 5)))
        assert report.quotient_invariants == (5,) * 10

    def test_elementary_case_agrees_with_field_rank(self):
        # for (Z/p)^r the ambient moduli are p at every nontrivial line, so
        # the quotient is (Z/p)^(lines - rank) and a plain field rank of the
        # general rows is an independent oracle; from rank 3 on sk1 takes a
        # closed form, and lattice_chains the degree-p monomial rows, which
        # must span the same F_p space
        specs = [
            (3, 3), (3, 3, 3), (5, 5), (5, 5, 5), (7, 7),
            (2, 2, 2), (2,) * 5, (2,) * 6, (3,) * 4, (3,) * 5, (5,) * 4,
            (7, 7, 7), (3, 1, 3, 3), (1, 2, 2, 2),
        ]
        for spec in specs:
            g = Group(spec)
            p = g.exponent
            lines = cyclic_subgroup_count(g) - 1
            general = [row[1:] for row in _coc_basis_rows(g)]
            rank = gf_rank(general, p)
            assert sk1_invariants(g).quotient_invariants == (p,) * (lines - rank)
            if len(g.invariant_factors) >= 3:
                monomial = [row[1:] for row in _monomial_rows(g)]
                assert gf_rank(monomial, p) == rank == gf_rank(general + monomial, p)

    def test_worked_mixed_example(self):
        report = sk1_invariants(Group((15,)))
        assert report.quotient_invariants == ()
        assert report.theorem_applies
        assert report.q_counts == {3: 2, 5: 2}

    def test_even_groups_are_flagged(self):
        report = sk1_invariants(Group((2, 2)))
        assert not report.theorem_applies

    def test_hmg_and_coc_bookkeeping(self):
        for spec in [(9,), (3, 3), (3, 9), (5, 5), (2, 2, 3)]:
            r = sk1_invariants(Group(spec))
            assert prod(r.hmg_invariants) == prod(r.coc_invariants) * prod(
                r.quotient_invariants
            )

    def test_column_generators_cannot_move_the_answer(self, monkeypatch):
        # re-base every column (and every kernel's character) on the largest
        # generator of its cyclic subgroup, keeping orders and positions:
        # the quotient and lattice chains must not move
        specs = [(3, 3, 3), (9, 3), (5, 25), (2, 4, 4), (3, 15)]
        base = {spec: sk1_invariants(Group(spec)) for spec in specs}

        def largest_generators(group):
            out = []
            for rec in cyclic_subgroups(group):
                multiples = (
                    group.scale(m, rec.canonical_generator)
                    for m in range(rec.subgroup_order)
                )
                largest = max(
                    h for h in multiples if element_order(group, h) == rec.subgroup_order
                )
                out.append(replace(rec, canonical_generator=largest))
            return tuple(out)

        assert any(
            largest_generators(Group(spec)) != cyclic_subgroups(Group(spec))
            for spec in specs
        )
        monkeypatch.setattr(homok.cocyclic, "cyclic_subgroups", largest_generators)
        sk1_invariants.cache_clear()
        cocyclic_subgroups.cache_clear()
        try:
            for spec in specs:
                alt = sk1_invariants(Group(spec))
                assert alt.quotient_invariants == base[spec].quotient_invariants
                assert alt.coc_invariants == base[spec].coc_invariants
        finally:
            sk1_invariants.cache_clear()
            cocyclic_subgroups.cache_clear()

    def test_never_reaches_the_generic_smith(self, monkeypatch):
        # (quotient, lattice) chains as the Hermite + Smith route gave them
        expected = {
            (3, 9, 9): ((3,) * 15 + (9,) * 2, (3,) * 18 + (9,) * 24),
            (2, 4, 4, 4): ((2,) * 26 + (4,) * 14, (2,) * 25 + (4,) * 24),
            (6, 6): ((), (3,) + (6,) * 15),
        }

        def refuse(*args, **kwargs):
            raise AssertionError("sk1 reached the generic Smith form")

        monkeypatch.setattr(snf, "smith_normal_form", refuse)
        sk1_invariants.cache_clear()
        try:
            for spec, chains in expected.items():
                report = sk1_invariants(Group(spec))
                assert (report.quotient_invariants, report.coc_invariants) == chains
        finally:
            sk1_invariants.cache_clear()

    @staticmethod
    def _built(monkeypatch, spec):
        """``sk1_invariants`` of a fresh ``Group(spec)``, and the groups it
        built a cyclic subgroup list or lattice rows of."""
        seen = []

        def recording(fn):
            def wrapper(group):
                seen.append(group)
                return fn(group)
            return wrapper

        for name in ("cyclic_subgroups", "_coc_basis_rows", "_monomial_rows"):
            monkeypatch.setattr(
                homok.cocyclic, name, recording(getattr(homok.cocyclic, name))
            )
        sk1_invariants.cache_clear()
        cocyclic_subgroups.cache_clear()
        try:
            report = sk1_invariants(Group(spec))
        finally:
            sk1_invariants.cache_clear()
            cocyclic_subgroups.cache_clear()
        return report, set(seen)

    def test_mixed_order_builds_only_p_group_lattices(self, monkeypatch):
        # a mixed order is assembled from its Sylow parts: no cyclic
        # subgroup list or lattice row of the whole group is built, and the
        # elementary (3,3,3) part takes the closed form; only (4,4) reaches
        # its lattice
        report, seen = self._built(monkeypatch, (3, 3, 3, 4, 4))
        # (3)^3 ten times (10 cyclic subgroups of (4,4)) and (2) fourteen
        # times (14 of (3)^3), canonicalised
        assert report.quotient_invariants == (3,) * 16 + (6,) * 14
        assert seen == {Group((4, 4))}

    def test_rank_two_with_a_factor_p_builds_no_lattice(self, monkeypatch):
        # C_(p^b) and C_p x C_(p^b), b >= 2, take the whole group as their
        # lattice, also as Sylow parts of a mixed order
        for spec in [(2, 32768), (7, 49), (9973,), (3, 5, 25, 7)]:
            report, seen = self._built(monkeypatch, spec)
            assert report.quotient_invariants == ()
            assert report.coc_invariants == report.hmg_invariants
            assert seen == set(), spec
        _, seen = self._built(monkeypatch, (7, 7))
        assert seen == {Group((7, 7))}

    def test_whole_group_rule_equals_the_lattice(self):
        specs = [(2, 2**b) for b in range(2, 16)]
        specs += [(3, 3**b) for b in range(2, 10)]
        specs += [(5, 5**b) for b in range(2, 7)]
        specs += [(7, 7**b) for b in range(2, 5)]
        specs += [(p, p * p) for p in (11, 13, 31)]
        specs += [(2**16,), (3**10,), (5**7,), (9973,)]
        for spec in specs:
            report = sk1_invariants(Group(spec))
            chains = (report.quotient_invariants, report.coc_invariants)
            assert chains == lattice_chains(Group(spec)), spec

    def test_elementary_rank_three_builds_no_lattice(self, monkeypatch):
        report, seen = self._built(monkeypatch, (2,) * 6)
        assert report.quotient_invariants == (2,) * (63 - 21)
        assert seen == set()

    def test_closed_form_equals_the_f_p_rank(self):
        # no published formula covers p = 2; lattice_chains ranks the
        # degree-p monomial rows over F_p
        specs = [(2,) * k for k in range(3, 13)] + [(3,) * k for k in range(3, 8)]
        specs += [(5, 5, 5), (5,) * 4, (7, 7, 7), (11,) * 3, (13,) * 3]
        for spec in specs:
            report = sk1_invariants(Group(spec))
            chains = (report.quotient_invariants, report.coc_invariants)
            assert chains == lattice_chains(Group(spec)), spec

    def test_json_shape(self):
        doc = sk1_invariants(Group((9, 3, 5))).to_json_dict()
        assert doc["group"] == "3,45"
        assert doc["theorem_4_1_applies"] is True
        assert set(doc) == {
            "group", "hmg", "coc", "sk1", "theorem_4_1_applies", "q_counts",
        }
        assert doc["q_counts"] == {"3": 2, "5": 8}


def sk1_chains(group: Group):
    report = sk1_invariants(group)
    return report.quotient_invariants, report.coc_invariants


class TestSylowComparison:
    """``sk1_invariants`` against the whole group's lattice, ``lattice_chains``."""

    def test_mixed_prime_worked_example(self):
        group = Group((3, 3, 3, 5))
        report = sk1_invariants(group)
        assert sk1_chains(group) == lattice_chains(group)
        assert report.quotient_invariants == (3,) * 6
        parts = {
            part.prime: sk1_invariants(part.p_part).quotient_invariants
            for part in report.sylow_parts
        }
        assert parts == {3: (3, 3, 3), 5: ()}
        assert report.q_counts == {3: 2, 5: 14}

    def test_assembly_matches_direct_on_a_sample(self):
        for spec in [(15,), (45,), (3, 3), (2, 2, 3), (12,), (27, 5), (3, 3, 5)]:
            assert sk1_chains(Group(spec)) == lattice_chains(Group(spec))

    def test_a_wrong_lattice_assembly_is_caught(self, monkeypatch):
        # the right order as one cyclic summand: |hmg| = |coc| * |quotient|
        # still holds, and on (3,3,5) both p-part quotients are trivial, so
        # only the lattice chains tell
        real = homok.cocyclic.sylow_assembly

        def one_summand(parts, chain):
            return invariant_factors_from_orders([prod(real(parts, chain))])

        monkeypatch.setattr(homok.cocyclic, "sylow_assembly", one_summand)
        sk1_invariants.cache_clear()
        try:
            got = sk1_chains(Group((3, 3, 5)))
        finally:
            sk1_invariants.cache_clear()
        direct = lattice_chains(Group((3, 3, 5)))
        assert got[0] == direct[0] == ()
        assert got != direct


def p_groups_under_the_cap():
    """Every nontrivial abelian p-group of order <= ``DEFAULT_CAP``."""
    sieve = bytearray([1]) * (DEFAULT_CAP + 1)
    sieve[:2] = b"\0\0"
    for n in range(2, isqrt(DEFAULT_CAP) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, DEFAULT_CAP + 1, n)))
    for p in itertools.compress(range(DEFAULT_CAP + 1), sieve):
        k = 1
        while p**k <= DEFAULT_CAP:
            for part in _partitions(k):
                yield Group(tuple(p**e for e in sorted(part)))
            k += 1


class TestRoute:
    def test_census_under_the_cap(self):
        # a group that moves to a rule, or a rule that stops firing, changes
        # these counts; q bands as in ROADMAP's lattice census, untimed
        routes, bands = Counter(), Counter()
        for group in p_groups_under_the_cap():
            route = sk1_route(group)
            routes[route, min(len(group.invariant_factors), 3)] += 1
            if route is Route.LATTICE:
                q = cyclic_subgroup_count(group)
                bands[bisect_left((212, 635, 1121, 5000), q)] += 1
        assert routes == {
            (Route.WHOLE, 1): 9700,
            (Route.WHOLE, 2): 43,
            (Route.LATTICE, 2): 141,
            (Route.LATTICE, 3): 942,
            (Route.ELEMENTARY, 3): 43,
        }
        assert sum(routes.values()) == 10_869
        assert bands == {0: 257, 1: 200, 2: 115, 3: 310, 4: 201}
