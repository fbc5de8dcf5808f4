"""Transfer construction, audit, and the composition laws."""

import random
from math import prod

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
