"""Function tables: homogeneity checking and generator values."""

import random
from math import gcd, lcm

import pytest

from homok.bracket import graded_presentation
from homok.functions import (
    FunctionTable,
    HomogeneityReport,
    _scale_power,
    from_generator_values,
    is_homogeneous,
)
from homok.groups import Group, RationalResidue, cyclic_subgroups, element_order

Q = RationalResidue.of


def value_at(table, x):
    """The value of ``table`` at the element x of its domain."""
    return table.values[table.domain.element_index(x)]


def generator_values(pres, table):
    """The values of ``table`` at the canonical generators of the summands
    of ``pres``, in summand order."""
    return tuple(value_at(table, rec.canonical_generator) for rec, _ in pres.summands)


def value_order(codomain, degree, v):
    """A value's order, computed directly from the value."""
    if codomain is not None:
        return element_order(codomain, v)
    return 1 if degree == 0 else v.order


class TestTableValidation:
    def test_value_count(self):
        with pytest.raises(ValueError, match="order"):
            FunctionTable(Group((3,)), 1, (Q(0, 1), Q(1, 3)))

    def test_nonzero_degree_must_vanish_at_zero(self):
        with pytest.raises(ValueError, match="vanish"):
            FunctionTable(Group((3,)), 2, (Q(1, 3), Q(0, 1), Q(0, 1)))

    def test_scalar_value_kinds(self):
        with pytest.raises(ValueError, match="rational residues"):
            FunctionTable(Group((3,)), 1, (0, 1, 2))
        with pytest.raises(ValueError, match="integers"):
            FunctionTable(Group((3,)), 0, (Q(0, 1), Q(0, 1), Q(0, 1)))

    def test_group_values_checked(self):
        with pytest.raises(ValueError):
            FunctionTable(Group((3,)), 1, ((0,), (1,), (0, 0)), Group((9,)))


class TestHomogeneity:
    def test_squaring_is_homogeneous_of_degree_two(self):
        g = Group((9,))
        t = FunctionTable(g, 2, tuple((x * x % 9,) for (x,) in g.elements()), g)
        assert is_homogeneous(t)

    def test_squaring_fails_degree_one_with_witness(self):
        g = Group((9,))
        vals = tuple(Q(x * x, 9) for (x,) in g.elements())
        report = is_homogeneous(FunctionTable(g, 1, vals))
        assert not report
        assert report.witness == ((1,), 2)
        assert "n=2" in report.detail

    def test_orbit_span_catches_order_inflation(self):
        # a bijection Z/3 x Z/3 -> Z/9 respecting n*x for n = 1, 2 only;
        # n = 4 fixes every argument yet quadruples the claimed value, so
        # homogeneity must fail even though the naive range n < 3 passes
        g = Group((3, 3))
        h = Group((9,))
        vals = ((0,), (1,), (2,), (3,), (4,), (7,), (6,), (5,), (8,))
        report = is_homogeneous(FunctionTable(g, 1, vals, h))
        assert not report
        x, n = report.witness
        assert element_order(h, vals[g.element_index(x)]) > 3
        assert n % 3 == 1 or n % 3 == 2

    def test_zero_tables_are_homogeneous(self):
        g, h = Group((3, 9)), Group((5,))
        for d in (0, 1, 3, -2):
            scalar = (0 if d == 0 else Q(0, 1),) * g.order
            assert is_homogeneous(FunctionTable(g, d, scalar))
            zeros = ((0,),) * h.order
            assert is_homogeneous(FunctionTable(h, d, zeros, Group((10,))))

    def test_degree_zero_means_constant_on_generator_orbits(self):
        g = Group((9,))
        vals = [0] * 9
        for (x,) in g.elements():
            vals[x] = element_order(g, (x,))
        assert is_homogeneous(FunctionTable(g, 0, tuple(vals)))
        vals[2] += 1  # 2 generates the same subgroup as 1
        assert not is_homogeneous(FunctionTable(g, 0, tuple(vals)))

    def test_negative_degree(self):
        g = Group((9,))
        pres = graded_presentation(g, -1)
        t = from_generator_values(pres, [Q(0, 1), Q(0, 1), Q(1, 9)])
        assert is_homogeneous(t)
        assert value_at(t, (4,)) == Q(7, 9)  # the inverse of 4 mod 9


class TestCoordinates:
    def test_worked_example(self):
        pres = graded_presentation(Group((9,)), 2)
        values = (Q(0, 1), Q(0, 1), Q(1, 9))
        t = from_generator_values(pres, values)
        assert value_at(t, (4,)) == Q(7, 9)  # 4^2 / 9
        assert value_at(t, (3,)) == Q(0, 1)
        assert generator_values(pres, t) == values
        # 3/9 = 1/3 does sit inside the order-3 summand
        t = from_generator_values(pres, [Q(0, 1), Q(1, 3), Q(4, 9)])
        assert is_homogeneous(t)
        assert value_at(t, (3,)) == Q(1, 3)

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for spec, d in [((9,), 2), ((3, 9), 1), ((15,), -1), ((5, 5), 3)]:
            g = Group(spec)
            pres = graded_presentation(g, d)
            for _ in range(10):
                values = []
                for _, modulus in pres.summands:
                    k = rng.randrange(modulus)
                    values.append(Q(k, modulus))
                t = from_generator_values(pres, values)
                assert is_homogeneous(t)
                assert generator_values(pres, t) == tuple(values)

    def test_degree_zero_coordinates(self):
        g = Group((2, 4))
        pres = graded_presentation(g, 0)
        coords = tuple(range(len(pres.summands)))
        t = from_generator_values(pres, coords)
        assert is_homogeneous(t)
        assert generator_values(pres, t) == coords


class TestGeneratorValues:
    def test_fills_whole_orbits(self):
        g3, g9 = Group((3,)), Group((9,))
        pres = graded_presentation(g3, 1)
        t = from_generator_values(pres, [(0,), (3,)], g9)
        assert t.values == ((0,), (3,), (6,))

    def test_value_count_checked(self):
        pres = graded_presentation(Group((9,)), 1)
        with pytest.raises(ValueError, match="generator values"):
            from_generator_values(pres, [Q(0, 1)])

    def test_value_order_must_divide_modulus(self):
        pres = graded_presentation(Group((9,)), 1)
        with pytest.raises(ValueError, match="not dividing"):
            from_generator_values(pres, [Q(0, 1), Q(1, 9), Q(0, 1)])

    def test_degree_zero_constant_orbits(self):
        pres = graded_presentation(Group((9,)), 0)
        t = from_generator_values(pres, [5, -2, 11])
        assert value_at(t, (0,)) == 5
        assert value_at(t, (3,)) == value_at(t, (6,)) == -2
        assert all(value_at(t, (x,)) == 11 for x in (1, 2, 4, 5, 7, 8))


class TestCombination:
    def test_coordinates_add(self):
        pres = graded_presentation(Group((9,)), 2)
        f = from_generator_values(pres, [Q(0, 1), Q(0, 1), Q(1, 9)])
        g = from_generator_values(pres, [Q(0, 1), Q(1, 3), Q(2, 9)])
        combo = FunctionTable(
            f.domain, 2, tuple(2 * a + 3 * b for a, b in zip(f.values, g.values))
        )
        want = tuple(
            2 * a + 3 * b
            for a, b in zip(generator_values(pres, f), generator_values(pres, g))
        )
        assert is_homogeneous(combo)
        assert generator_values(pres, combo) == want


def test_homogeneous_count_on_a_tiny_group_by_enumeration():
    # every scalar table on Z/3 at degree 1 with denominator dividing 3:
    # 3 choices at each generator orbit slot but tied together, so exactly
    # gcd(o_1(3), 3) = 3 homogeneous tables
    import itertools

    g = Group((3,))
    found = 0
    for a, b in itertools.product(range(3), repeat=2):
        t = FunctionTable(g, 1, (Q(0, 1), Q(a, 3), Q(b, 3)))
        if is_homogeneous(t):
            found += 1
            assert (2 * a) % 3 == b
    assert found == 3


def test_value_orders_bounded_by_argument_orders_degree_one():
    rng = random.Random(17)
    g = Group((3, 9))
    pres = graded_presentation(g, 1)
    values = []
    for rec, modulus in pres.summands:
        k = rng.randrange(modulus)
        values.append(Q(k, modulus))
    t = from_generator_values(pres, values)
    for x in g.elements():
        o = element_order(g, x)
        assert o % value_at(t, x).order == 0


def reference_is_homogeneous(table: FunctionTable) -> HomogeneityReport:
    """The identity checked at every element of the domain, in index order:
    the element-by-element scan that ``is_homogeneous`` must agree with."""
    g, c, d = table.domain, table.codomain, table.degree
    for x in g.elements():
        o = element_order(g, x)
        fx = value_at(table, x)
        span = o
        for n in range(1, o + 1):
            if gcd(n, o) == 1:
                span = lcm(span, value_order(c, d, value_at(table, g.scale(n, x))))
        for n in range(1, span + 1):
            if gcd(n, o) != 1:
                continue
            fnx = value_at(table, g.scale(n, x))
            if d >= 0:
                ok = fnx == _scale_power(c, n, d, fx, value_order(c, d, fx))
            else:
                ok = _scale_power(c, n, -d, fnx, value_order(c, d, fnx)) == fx
            if not ok:
                return HomogeneityReport(
                    False,
                    (x, n),
                    f"identity fails at x={x}, n={n}: f(nx)={fnx}, f(x)={fx}",
                )
    return HomogeneityReport(True)


def orbit_extended_table(group, degree, codomain, pick) -> FunctionTable:
    """A table with a value ``pick(o)`` at each canonical generator x (zero
    at 0 for a nonzero degree), set to n^d times that value at n*x wherever
    the power is defined (and to the value itself where it is not).
    Homogeneous when each value's order suits its orbit, otherwise it fails
    somewhere on the orbit."""
    values = [None] * group.order
    for rec in cyclic_subgroups(group):
        x, o = rec.canonical_generator, rec.subgroup_order
        y = pick(o)
        if o == 1 and degree != 0:  # a nonzero degree forces f(0) = 0
            y = codomain.zero if codomain else Q(0, 1)
        for n in range(1, o + 1):
            if gcd(n, o) != 1:
                continue
            try:
                vo = value_order(codomain, degree, y)
                v = _scale_power(codomain, n, degree, y, vo)
            except ValueError:
                v = y
            values[group.element_index(group.scale(n, x))] = v
    return FunctionTable(group, degree, tuple(values), codomain)


def perturbed(rng, table: FunctionTable, pick) -> FunctionTable:
    """``table`` with one value changed at an element that is not the
    canonical generator of its cyclic subgroup (None if every element is)."""
    canonical = {rec.canonical_generator for rec in cyclic_subgroups(table.domain)}
    elems = list(table.domain.elements())
    spots = [i for i, x in enumerate(elems) if x not in canonical]
    if not spots:
        return None
    values = list(table.values)
    i = rng.choice(spots)
    o = element_order(table.domain, elems[i])
    new = pick(o)
    values[i] = new if new != values[i] else pick(table.domain.exponent * 2)
    return FunctionTable(table.domain, table.degree, tuple(values), table.codomain)


class TestOrbitReduction:
    """``is_homogeneous`` checks one generator per cyclic subgroup; its
    report must be the per-element scan's, witness and text included."""

    GROUPS = [(9,), (3, 9), (5, 25), (2, 4), (3, 3, 3), (15,), (1,), (2, 2, 2)]
    CODOMAINS = [(9,), (3, 3), (5,), (2, 4), (25,), (15,), (27,)]

    def pickers(self, rng, degree, codomain):
        """Value choosers: orders that fit the orbit, then orders that may
        not (denominators 2*o and 5*o, or anywhere in the codomain)."""
        if codomain is None and degree == 0:
            return [lambda o: rng.randrange(-3, 4)]
        if codomain is None:
            return [
                lambda o: Q(rng.randrange(o), o),
                lambda o: Q(rng.randrange(2 * o), 2 * o),
                lambda o: Q(rng.randrange(5 * o), 5 * o),
            ]
        elems = list(codomain.elements())
        fitting = lambda o: rng.choice(
            [y for y in elems if o % element_order(codomain, y) == 0]
        )
        return [fitting, lambda o: rng.choice(elems)]

    def tables(self):
        rng = random.Random(20261019)
        kinds = [(None, d) for d in (1, -1, 2, 3, -2)] + [(None, 0)]
        kinds += [("group", d) for d in (0, 1, -1, 2, 3, -2)]
        for spec in self.GROUPS:
            group = Group(spec)
            for kind, d in kinds:
                for _ in range(3):
                    codomain = (
                        Group(rng.choice(self.CODOMAINS)) if kind else None
                    )
                    for pick in self.pickers(rng, d, codomain):
                        t = orbit_extended_table(group, d, codomain, pick)
                        yield t
                        changed = perturbed(rng, t, pick)
                        if changed is not None:
                            yield changed

    def test_reports_match_the_element_scan(self):
        seen = failing = 0
        for t in self.tables():
            report = is_homogeneous(t)
            assert report == reference_is_homogeneous(t), (t.domain, t.degree)
            seen += 1
            failing += not report
        assert seen > 600
        assert 0.25 * seen < failing < 0.9 * seen

    def test_value_lookups_bounded_by_the_cyclic_subgroups(self, monkeypatch):
        """With the scan warm, ``is_homogeneous`` reads each value through
        the generator orbits and scales it at most once per multiplier n:
        no more group operations than the subgroups have elements, where
        the per-element scan needs far more."""
        g, h = Group((81,)), Group((27,))
        t = from_generator_values(
            graded_presentation(g, 1), [(0,), (9,), (3,), (1,), (1,)], h
        )
        assert is_homogeneous(t)
        calls = 0

        def counted(real):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(Group, "scale", counted(Group.scale))
        monkeypatch.setattr(Group, "element_index", counted(Group.element_index))
        assert is_homogeneous(t)
        bound = sum(rec.subgroup_order for rec in cyclic_subgroups(g))
        assert calls <= bound
        calls = 0
        assert reference_is_homogeneous(t)
        assert calls > bound
