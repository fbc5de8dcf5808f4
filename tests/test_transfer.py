"""Transfer construction, audit, and the composition laws."""

import random
from math import gcd, lcm, prod

import pytest

from homok.bracket import graded_presentation
from homok.functions import FunctionTable, from_generator_values
from homok.groups import Group, RationalResidue, element_order
from homok.transfer import (
    InducedGradedMap,
    InducedMapUndefined,
    NotHomogeneousError,
    OddOrderRequired,
    TransferError,
    _audit_relations,
    induced_graded_map,
    preimage_sum,
    pullback,
    transfer_apply,
)

Q = RationalResidue.of


def scaling_map(group: Group, mult: int) -> FunctionTable:
    values = tuple(group.scale(mult, g) for g in group.elements())
    return FunctionTable(group, 1, values, group)


def degree_one_map(group: Group, codomain: Group, images) -> FunctionTable:
    """Fill a degree-1 table from one image per cyclic-subgroup record."""
    pres = graded_presentation(group, 1)
    return from_generator_values(pres, tuple(images), codomain)


def random_degree_one_map(rng, src: Group, dst: Group) -> FunctionTable:
    pres = graded_presentation(src, 1)
    elems = list(dst.elements())
    images = []
    for rec, _ in pres.summands:
        pool = [g for g in elems if rec.subgroup_order % element_order(dst, g) == 0]
        images.append(rng.choice(pool))
    return degree_one_map(src, dst, images)


def all_homs(moduli):
    """Every coordinate tuple on a bracket with the given moduli."""
    import itertools

    pools = [[Q(a, m) for a in range(m)] for m in moduli]
    return itertools.product(*pools)


@pytest.fixture(scope="module")
def mapping():
    g3, g9 = Group((3,)), Group((9,))
    t = FunctionTable(g3, 1, tuple((3 * x % 9,) for (x,) in g3.elements()), g9)
    return induced_graded_map(t)


class TestScalingEmbeddingExample:
    """x -> 3x from Z/3 into Z/9 at degree 1, worked end to end."""

    def test_images_and_sections(self, mapping):
        assert mapping.images == ((0, 0), (1, 1))
        # target summands 0 and 1 are hit, the order-9 summand 2 is missed
        assert mapping.sections == ((0, 0), (1, 1), None)

    def test_kernel_is_trivial(self, mapping):
        assert mapping.kernel_size == 1

    def test_transfer_of_one_third(self, mapping):
        f = (Q(0, 1), Q(1, 3))
        assert transfer_apply(mapping, f) == (Q(0, 1), Q(1, 3), Q(0, 1))

    def test_fast_equals_literal_everywhere(self, mapping):
        for f in all_homs(mapping.source.moduli):
            fast = transfer_apply(mapping, f)
            for j in range(len(mapping.target.moduli)):
                assert preimage_sum(mapping, f, j) == fast[j]

    def test_injective_table_gives_injective_transfer(self, mapping):
        zero = tuple(Q(0, 1) for _ in mapping.target.moduli)
        kernel = [f for f in all_homs(mapping.source.moduli)
                  if transfer_apply(mapping, f) == zero]
        assert len(kernel) == 1

    def test_pullback(self, mapping):
        g = (Q(0, 1), Q(1, 3), Q(1, 9))
        assert pullback(mapping, g) == (Q(0, 1), Q(1, 3))


class TestRefusals:
    def test_squaring_on_z5_at_degree_two_fails_the_audit(self):
        g5 = Group((5,))
        sq = FunctionTable(g5, 2, tuple((x * x % 5,) for (x,) in g5.elements()), g5)
        with pytest.raises(InducedMapUndefined, match=r"relation"):
            induced_graded_map(sq)

    def test_degree_minus_one_can_fail_the_audit(self):
        # t(x) = c/x mod 5 is homogeneous of degree -1, yet
        # [t(2x)] = 2^(d*d)*[t(x)] differs from 2^d*[t(x)] unless c = 0
        g5 = Group((5,))
        refused = 0
        for c in range(5):
            values = tuple((c * pow(x, -1, 5) % 5 if x else 0,) for (x,) in g5.elements())
            try:
                induced_graded_map(FunctionTable(g5, -1, values, g5))
            except InducedMapUndefined:
                refused += 1
        assert refused == 4

    def test_identity_at_degree_three_passes_the_audit(self):
        g3 = Group((3,))
        t = FunctionTable(g3, 3, tuple(g3.elements()), g3)
        m = induced_graded_map(t)
        assert m.kernel_size == 1
        assert m.images == ((0, 0), (1, 1))

    def test_even_order_source_refused(self):
        g4 = Group((4,))
        t = FunctionTable(g4, 1, tuple(g4.elements()), g4)
        with pytest.raises(OddOrderRequired):
            induced_graded_map(t)

    def test_degree_zero_refused(self):
        g3 = Group((3,))
        t = FunctionTable(g3, 0, ((0,), (0,), (0,)), Group((1,)))
        with pytest.raises(TransferError, match="degree-0"):
            induced_graded_map(t)

    def test_scalar_valued_table_refused(self):
        g3 = Group((3,))
        t = FunctionTable(g3, 1, (Q(0, 1), Q(1, 3), Q(2, 3)), None)
        with pytest.raises(TransferError, match="group-valued"):
            induced_graded_map(t)

    def test_inhomogeneous_table_refused(self):
        g9 = Group((9,))
        vals = [(0,)] * 9
        vals[1] = (1,)
        vals[2] = (5,)  # should be 2*1 = 2 at degree 1
        t = FunctionTable(g9, 1, tuple(vals), g9)
        with pytest.raises(NotHomogeneousError):
            induced_graded_map(t)


class TestIdentityAndUnits:
    def test_pullback_of_identity_is_identity(self):
        g = Group((3, 9))
        t = FunctionTable(g, 1, tuple(g.elements()), g)
        m = induced_graded_map(t)
        coords = tuple(Q(1, a) if a > 1 else Q(0, 1) for a in m.source.moduli)
        assert pullback(m, coords) == coords
        assert m.kernel_size == 1

    def test_unit_scaling_is_injective(self):
        g9 = Group((9,))
        t = scaling_map(g9, 2)
        m = induced_graded_map(t)
        assert m.kernel_size == 1
        zero = tuple(Q(0, 1) for _ in m.target.moduli)
        kernel = [f for f in all_homs(m.source.moduli)
                  if transfer_apply(m, f) == zero]
        assert len(kernel) == 1


class TestCompositionLaws:
    POOL = [(3,), (9,), (5,), (3, 3), (15,), (3, 9), (7,), (27,)]

    def instances(self):
        rng = random.Random(20260822)
        for _ in range(30):
            src = Group(rng.choice(self.POOL))
            dst = Group(rng.choice(self.POOL))
            yield rng, induced_graded_map(random_degree_one_map(rng, src, dst))

    def random_hom(self, rng, moduli):
        return tuple(Q(rng.randrange(m), m) for m in moduli)

    def test_pullback_after_transfer_is_kernel_size(self):
        for rng, m in self.instances():
            for _ in range(5):
                f = self.random_hom(rng, m.source.moduli)
                expected = tuple(m.kernel_size * v for v in f)
                assert pullback(m, transfer_apply(m, f)) == expected

    def test_transfer_after_pullback_case_formula(self):
        for rng, m in self.instances():
            for _ in range(5):
                g = self.random_hom(rng, m.target.moduli)
                out = transfer_apply(m, pullback(m, g))
                for j, v in enumerate(out):
                    if m.sections[j] is None:
                        assert v.is_zero()
                    else:
                        assert v == m.kernel_size * g[j]

    def test_fast_equals_literal_on_small_brackets(self):
        checked = 0
        for rng, m in self.instances():
            if prod(m.source.moduli) > 3000:
                continue
            f = self.random_hom(rng, m.source.moduli)
            fast = transfer_apply(m, f)
            for j in range(len(m.target.moduli)):
                assert preimage_sum(m, f, j) == fast[j]
            checked += 1
        assert checked >= 10

    def test_kernel_size_matches_brute_force(self):
        for rng, m in self.instances():
            if prod(m.source.moduli) > 3000:
                continue
            import itertools

            def in_kernel(vec):
                image = [0] * len(m.target.moduli)
                for y, (j, v) in zip(vec, m.images):
                    image[j] += y * v
                return all(c % mj == 0 for c, mj in zip(image, m.target.moduli))

            count = sum(
                map(in_kernel, itertools.product(*(range(a) for a in m.source.moduli)))
            )
            assert count == m.kernel_size


class TestSectionIndependence:
    """Any valid section choice yields the same transfer (the kernel
    multiplier absorbs the difference between preimages)."""

    def alternative_sections(self, m: InducedGradedMap):
        import itertools

        options = []
        for j, sec in enumerate(m.sections):
            if sec is None:
                options.append([None])
                continue
            mj = m.target.moduli[j]
            alts = [
                (i, pow(v, -1, mj) if mj > 1 else 0)
                for i, (ji, v) in enumerate(m.images)
                if ji == j
            ]
            options.append(alts)
        return itertools.product(*options)

    def test_projection_with_shared_targets(self):
        g33, g3 = Group((3, 3)), Group((3,))
        t = FunctionTable(g33, 1, tuple((x,) for x, _ in g33.elements()), g3)
        m = induced_graded_map(t)
        # three source summands land on the full target summand
        shared = [j for j, _ in m.images].count(1)
        assert shared == 3 and m.kernel_size == 27
        for sections in self.alternative_sections(m):
            variant = InducedGradedMap(
                m.source, m.target, m.images, tuple(sections), m.kernel_size
            )
            for f in all_homs(m.source.moduli):
                assert transfer_apply(variant, f) == transfer_apply(m, f)

    def test_coordinate_embedding(self):
        g33 = Group((3, 3))
        t = FunctionTable(
            g33, 1, tuple((x, 0) for x, _ in g33.elements()), g33
        )
        m = induced_graded_map(t)
        rng = random.Random(7)
        for sections in self.alternative_sections(m):
            variant = InducedGradedMap(
                m.source, m.target, m.images, tuple(sections), m.kernel_size
            )
            for _ in range(20):
                f = tuple(Q(rng.randrange(a), a) for a in m.source.moduli)
                assert transfer_apply(variant, f) == transfer_apply(m, f)


def test_zero_map_transfers_to_zero():
    g = Group((3, 3))
    t = FunctionTable(g, 1, tuple(g.zero for _ in g.elements()), g)
    m = induced_graded_map(t)
    f = tuple(Q(1, a) if a > 1 else Q(0, 1) for a in m.source.moduli)
    assert all(v.is_zero() for v in transfer_apply(m, f))


def test_literal_summation_respects_the_limit():
    g = Group((3, 3, 3))
    t = FunctionTable(g, 1, tuple(g.elements()), g)
    m = induced_graded_map(t)
    f = tuple(Q(0, 1) for _ in m.source.moduli)
    with pytest.raises(TransferError, match="exceeds the limit"):
        preimage_sum(m, f, 0, limit=100)


def value_at(table, x):
    """The value of ``table`` at the element x of its domain."""
    return table.values[table.domain.element_index(x)]


def brute_projection(pres, w):
    """``project_element`` by search: the summand whose canonical generator
    x has w = n*x for some n prime to o, and the coordinate n^d."""
    group = pres.group
    for idx, (rec, modulus) in enumerate(pres.summands):
        x, o = rec.canonical_generator, rec.subgroup_order
        for n in range(1, o + 1):
            if gcd(n, o) == 1 and group.scale(n, x) == w:
                return idx, pow(n, pres.degree, modulus)
    raise AssertionError(f"{w} lies in no cyclic subgroup")


def reference_audit(table, target, d):
    """Every relation [n*g] = n^d*[g] checked at every element g of the
    source, in index order, with values projected by search: the
    element-by-element scan that ``_audit_relations`` must agree with."""
    dom = table.domain
    proj = {w: brute_projection(target, w) for w in set(table.values)}
    for g in dom.elements():
        o = element_order(dom, g)
        j0, c0 = proj[value_at(table, g)]
        m0 = target.moduli[j0]
        for n in range(1, lcm(o, m0) + 1):
            if gcd(n, o) != 1:
                continue
            j1, c1 = proj[value_at(table, dom.scale(n, g))]
            m1 = target.moduli[j1]
            rhs = (pow(n, d, m0) * c0) % m0
            ok = c1 == rhs if j0 == j1 else c1 % m1 == 0 and rhs == 0
            if not ok:
                raise InducedMapUndefined(
                    f"relation [n*g] = n^d*[g] breaks at g={g}, n={n}, "
                    f"degree {d}: target coordinates ({j1}, {c1}) vs "
                    f"({j0}, {rhs})"
                )


def audit_outcome(audit, table):
    """None when ``audit`` passes ``table``, else its refusal text."""
    target = graded_presentation(table.codomain, table.degree)
    try:
        audit(table, target, table.degree)
    except InducedMapUndefined as exc:
        return str(exc)
    return None


class TestAuditOrbitReduction:
    """``_audit_relations`` checks one generator per cyclic subgroup; it
    must pass and refuse exactly the maps the per-element scan does, with
    the same text."""

    SOURCES = [(3,), (5,), (9,), (3, 3), (15,), (3, 9), (25,), (27,), (5, 5)]
    TARGETS = [(3,), (5,), (9,), (25,), (3, 3), (15,), (27,), (3, 9)]

    def maps(self):
        rng = random.Random(20261019)
        for d in (1, 2, 3, -1, -2):
            for src in map(Group, self.SOURCES):
                pres = graded_presentation(src, d)
                for dst in map(Group, self.TARGETS):
                    elems = list(dst.elements())
                    for _ in range(3):
                        images = [
                            rng.choice(
                                [y for y in elems if a % element_order(dst, y) == 0]
                            )
                            for _, a in pres.summands
                        ]
                        yield from_generator_values(pres, images, dst)

    def test_outcomes_match_the_element_scan(self):
        passed = refused = 0
        for t in self.maps():
            outcome = audit_outcome(_audit_relations, t)
            assert outcome == audit_outcome(reference_audit, t), (
                t.domain, t.codomain, t.degree
            )
            if t.degree == 1:
                assert outcome is None
            passed += outcome is None
            refused += outcome is not None
        assert passed > 200 and refused > 200

    def test_value_lookups_bounded_by_the_cyclic_subgroups(self, monkeypatch):
        """With the scans warm, the audit computes no n*x and checks no
        value: it projects each value on a generator orbit once, by the
        target index that the table's construction found. The per-element
        scan needs far more."""
        g, h = Group((81,)), Group((27,))
        t = from_generator_values(
            graded_presentation(g, 1), [(0,), (9,), (3,), (1,), (1,)], h
        )
        assert audit_outcome(_audit_relations, t) is None
        calls = 0

        def counted(real):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(Group, "scale", counted(Group.scale))
        monkeypatch.setattr(Group, "element_index", counted(Group.element_index))
        assert audit_outcome(_audit_relations, t) is None
        assert calls == 0
        calls = 0
        assert audit_outcome(reference_audit, t) is None
        assert calls > 2 * g.order
