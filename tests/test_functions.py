"""Function tables: homogeneity checking and coordinate forms."""

import random
import subprocess
import sys

import pytest

from homok.bracket import Target, graded_presentation
from homok.functions import (
    FunctionTable,
    from_coordinates,
    from_generator_values,
    is_homogeneous,
    to_coordinates,
)
from homok.groups import Group, RationalResidue, element_order

Q = RationalResidue.of


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
        t = from_coordinates(pres, (0, 0, 1), 9)
        assert is_homogeneous(t)
        assert t.value_at((4,)) == Q(7, 9)  # the inverse of 4 mod 9


class TestCoordinates:
    def test_worked_example(self):
        pres = graded_presentation(Group((9,)), 2)
        t = from_coordinates(pres, (0, 0, 1), 9)
        assert t.value_at((4,)) == Q(7, 9)  # 4^2 / 9
        assert t.value_at((3,)) == Q(0, 1)
        assert to_coordinates(t) == (Q(0, 1), Q(0, 1), Q(1, 9))

    def test_ill_fitting_coordinate_rejected(self):
        pres = graded_presentation(Group((9,)), 2)
        with pytest.raises(ValueError, match="homomorphism"):
            from_coordinates(pres, (0, 1, 0), 9)
        # 3/9 = 1/3 does sit inside the order-3 summand
        t = from_coordinates(pres, (0, 3, 0), 9)
        assert t.value_at((3,)) == Q(1, 3)

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
                assert to_coordinates(t) == tuple(values)

    def test_degree_zero_coordinates(self):
        g = Group((2, 4))
        pres = graded_presentation(g, 0)
        coords = tuple(range(len(pres.summands)))
        t = from_coordinates(pres, coords, Target.Z)
        assert is_homogeneous(t)
        assert to_coordinates(t) == coords
        with pytest.raises(ValueError, match="Target.Z|integer"):
            from_coordinates(pres, coords, Target.QZ)

    def test_nonzero_degree_needs_concrete_modulus(self):
        pres = graded_presentation(Group((9,)), 1)
        with pytest.raises(ValueError, match="modulus"):
            from_coordinates(pres, (0, 0, 1), Target.QZ)

    def test_check_flag_runs_the_audit(self):
        pres = graded_presentation(Group((9,)), 2)
        t = from_coordinates(pres, (0, 3, 4), 9, check=True)
        assert is_homogeneous(t)

    def test_failed_audit_raises_under_optimize(self):
        # the audit reports failure; -O strips asserts, so the check must
        # survive it
        script = (
            "import sys, homok.functions as fn\n"
            "from homok.bracket import graded_presentation\n"
            "from homok.groups import Group, InternalInvariantError\n"
            "fn.is_homogeneous = lambda t: fn.HomogeneityReport(False, None, 'forced')\n"
            "pres = graded_presentation(Group((9,)), 2)\n"
            "try:\n"
            "    fn.from_coordinates(pres, (0, 3, 4), 9, check=True)\n"
            "except InternalInvariantError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(3)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "not homogeneous: forced" in proc.stdout
        assert "from_coordinates" in proc.stdout

    def test_to_coordinates_rejects_inhomogeneous(self):
        g = Group((9,))
        vals = [Q(0, 1)] * 9
        vals[1] = Q(1, 9)
        vals[2] = Q(5, 9)
        with pytest.raises(ValueError, match="not homogeneous"):
            to_coordinates(FunctionTable(g, 1, tuple(vals)))


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
        assert t.value_at((0,)) == 5
        assert t.value_at((3,)) == t.value_at((6,)) == -2
        assert all(t.value_at((x,)) == 11 for x in (1, 2, 4, 5, 7, 8))


class TestCombination:
    def test_coordinates_add(self):
        pres = graded_presentation(Group((9,)), 2)
        f = from_coordinates(pres, (0, 0, 1), 9)
        g = from_coordinates(pres, (0, 3, 2), 9)
        combo = FunctionTable(
            f.domain, 2, tuple(2 * a + 3 * b for a, b in zip(f.values, g.values))
        )
        want = tuple(
            (2 * a + 3 * b) for a, b in zip(to_coordinates(f), to_coordinates(g))
        )
        assert to_coordinates(combo) == want


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
        assert o % t.value_at(x).order == 0
