"""Cocyclic subgroups, the generator lattice, and the quotient invariants."""

import itertools
from dataclasses import replace
from math import prod

import pytest

import homok.cocyclic
from homok import snf
from homok.cocyclic import (
    _coc_basis_rows,
    cocyclic_subgroups,
    sk1_invariants,
    sk1_sylow_check,
)
from homok.groups import (
    Group,
    all_abelian_groups,
    cyclic_subgroup_count,
    cyclic_subgroups,
    element_order,
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
                assert pairing(g, chi, g.add(a, b)) == (
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
            for k in cocyclic_subgroups(g):
                members = kernel_members(g, k)
                member_set = set(members)
                for a in members:
                    for b in members:
                        s = g.add(g.element_at(a), g.element_at(b))
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


class TestGeneratorMatrix:
    def test_shape_and_spot_rows(self):
        g = Group((9,))
        rows = _coc_basis_rows(g)
        assert len(rows) == 3  # one row per (kernel, factor)
        assert all(len(r) == 3 for r in rows)
        assert rows == [[0, 0, 0], [0, 1, 0], [0, 1, 1]]  # smallest kernel first

    def test_rows_are_cocyclic_vectors(self):
        # the rows are extended characters (so their span lies inside the
        # full lattice), and every extended character of every kernel lies
        # in their span: the two spans are equal
        for spec in [(9,), (3, 3), (3, 9), (2, 4), (2, 2, 2)]:
            g = Group(spec)
            moduli = [rec.subgroup_order for rec in cyclic_subgroups(g)]
            full = full_lattice_rows(g)
            rows = _coc_basis_rows(g)
            assert len(rows) == len(cocyclic_subgroups(g)) * g.rank
            assert {tuple(r) for r in rows} <= full
            assert full <= span_in_ambient(rows, moduli)

    def test_rows_match_the_definition(self):
        # independent of the pairing table: a column is inside a kernel when
        # its generator is among the kernel's members, found by evaluating
        # the character on every element
        for g in all_abelian_groups(200):
            columns = cyclic_subgroups(g)
            want = []
            for k in cocyclic_subgroups(g):
                members = set(kernel_members(g, k))
                inside = [g.element_index(rec.canonical_generator) in members
                          for rec in columns]
                for i, n in enumerate(g.factor_orders):
                    want.append([
                        (rec.canonical_generator[i] * rec.subgroup_order // n)
                        % rec.subgroup_order if hit else 0
                        for rec, hit in zip(columns, inside)
                    ])
            assert _coc_basis_rows(g) == want, g.spec


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
        # the quotient is (Z/p)^(lines - rank) and a plain field rank is an
        # independent oracle
        for spec in [(3, 3), (3, 3, 3), (5, 5), (5, 5, 5), (7, 7)]:
            g = Group(spec)
            p = spec[0]
            lines = cyclic_subgroup_count(g) - 1
            nontrivial = [row[1:] for row in _coc_basis_rows(g)]
            corank = lines - gf_rank(nontrivial, p)
            assert sk1_invariants(g).quotient_invariants == (p,) * corank

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

        monkeypatch.setattr(snf, "_smith", refuse)
        sk1_invariants.cache_clear()
        try:
            for spec, chains in expected.items():
                report = sk1_invariants(Group(spec))
                assert (report.quotient_invariants, report.coc_invariants) == chains
        finally:
            sk1_invariants.cache_clear()

    def test_json_shape(self):
        doc = sk1_invariants(Group((9, 3, 5))).to_json_dict()
        assert doc["group"] == "3,45"
        assert doc["theorem_4_1_applies"] is True
        assert set(doc) == {
            "group", "hmg", "coc", "sk1", "theorem_4_1_applies", "q_counts",
        }
        assert doc["q_counts"] == {"3": 2, "5": 8}


class TestSylowComparison:
    def test_mixed_prime_worked_example(self):
        cmp = sk1_sylow_check(Group((3, 3, 3, 5)))
        assert cmp.equal
        assert cmp.direct == cmp.assembled == (3,) * 6
        parts = {p: (inv, q) for p, inv, q in cmp.per_prime}
        assert parts[3] == ((3, 3, 3), 2)
        assert parts[5] == ((), 14)

    def test_assembly_matches_direct_on_a_sample(self):
        for spec in [(15,), (45,), (3, 3), (2, 2, 3), (12,), (27, 5), (3, 3, 5)]:
            assert sk1_sylow_check(Group(spec)).equal
