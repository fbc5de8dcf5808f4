"""Exact linear algebra: Smith form, cokernels, subgroup bases."""

import random
from fractions import Fraction
from math import lcm, prod

import pytest

import homok.snf
from homok.arith import factorize
from homok.snf import (
    cokernel_invariants,
    determinant,
    identity_matrix,
    invert_unimodular,
    lattice_invariants,
    matmul,
    smith_diagonal,
    smith_normal_form,
    subgroup_basis,
    subgroup_invariants,
)


def fraction_det(mat):
    """Reference determinant by straight Gaussian elimination over Q."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    assert det.denominator == 1
    return int(det)


def closure(rows, moduli):
    """Brute-force subgroup of Z/m1 x ... x Z/mq spanned by the rows."""
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(x % m for x, m in zip(r, moduli)) for r in rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_smith_normal_form_worked_example():
    m = [[4, 6], [2, 8]]
    u, s, v = smith_normal_form(m)
    assert [s[0][0], s[1][1]] == [2, 10]
    assert s[0][1] == s[1][0] == 0
    assert matmul(matmul(u, m), v) == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


def test_smith_zero_and_identity():
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert smith_diagonal(identity_matrix(3)) == [1, 1, 1]


@pytest.mark.parametrize("seed", range(8))
def test_smith_properties_random(seed):
    rng = random.Random(0xABE1 + seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    u, s, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [s[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert smith_diagonal(m) == diag


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_against_fraction_elimination(n):
    rng = random.Random(100 + n)
    for _ in range(25):
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == fraction_det(m)


def random_unimodular(rng, n):
    """Identity under random elementary row operations and sign flips."""
    m = identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = rng.randint(-5, 5)
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
    return m


def test_invert_unimodular():
    m = [[2, 3], [1, 2]]  # det 1
    inv = invert_unimodular(m)
    assert matmul(m, inv) == identity_matrix(2)
    rng = random.Random(0x1D)
    for n in range(1, 7):
        for _ in range(10):
            m = random_unimodular(rng, n)
            inv = invert_unimodular(m)
            assert matmul(inv, m) == matmul(m, inv) == identity_matrix(n)
    with pytest.raises(ValueError, match="singular"):
        invert_unimodular([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular([[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="square"):
        invert_unimodular([[1, 0, 0], [0, 1, 0]])


def test_cokernel_worked_example():
    # (Z/3 x Z/9) / <(0,3)> has invariant factors (3, 3)
    assert cokernel_invariants([[0, 3]], [3, 9]) == (3, 3)


def test_cokernel_trivial_cases():
    assert cokernel_invariants([], [3, 9]) == (3, 9)
    assert cokernel_invariants([[1, 0], [0, 1]], [3, 9]) == ()
    assert cokernel_invariants([], [1]) == ()
    assert cokernel_invariants([], [2, 3]) == (6,)


def test_subgroup_worked_example():
    assert subgroup_invariants([[0, 3]], [3, 9]) == (3,)
    basis = subgroup_basis([[0, 3]], [3, 9])
    assert basis == [((0, 3), 3)]


def test_input_validation():
    with pytest.raises(ValueError):
        cokernel_invariants([[1]], [2, 2])
    with pytest.raises(ValueError):
        cokernel_invariants([], [0, 2])
    for moduli in ([3, 3], [1, 7], [2, 4]):
        with pytest.raises(ValueError):
            lattice_invariants([[1, 0], [1, 0, 0]], moduli)


@pytest.mark.parametrize("seed", range(10))
def test_quotient_and_subgroup_orders_multiply(seed):
    rng = random.Random(0xC0C0 + seed)
    q = rng.randint(1, 3)
    moduli = [rng.choice([1, 2, 3, 4, 6, 9]) for _ in range(q)]
    rows = [[rng.randint(0, 30) for _ in range(q)] for _ in range(rng.randint(0, 3))]
    sub = closure(rows, moduli)
    quot = cokernel_invariants(rows, moduli)
    subinv = subgroup_invariants(rows, moduli)
    assert prod(quot) * len(sub) == prod(moduli)
    assert prod(subinv) == len(sub)
    # the returned basis spans exactly the same subgroup
    basis = subgroup_basis(rows, moduli)
    assert closure([list(vec) for vec, _ in basis], moduli) == sub
    assert tuple(order for _, order in basis) == subinv
    for vec, order in basis:
        assert len(closure([list(vec)], moduli)) == order


def stacked_smith_chain(rows, moduli):
    """Quotient chain the long way: the Smith form of ``rows`` on top of
    ``diag(moduli)``, unit factors dropped."""
    q = len(moduli)
    relations = [[m if i == j else 0 for j in range(q)] for i, m in enumerate(moduli)]
    return tuple(d for d in smith_diagonal([list(r) for r in rows] + relations) if d != 1)


@pytest.mark.parametrize("seed", range(32))
def test_lattice_invariants_match_smith_and_subgroup_basis(seed):
    rng = random.Random(0x1A77 + seed)
    q = rng.randint(1, 6)
    if seed >= 24:  # prime exponent p: every modulus 1 or p, at least one p
        p = (2, 3, 5, 7)[seed % 4]
        q = rng.randint(2, 7)
        moduli = [p] + [rng.choice((1, p)) for _ in range(q - 1)]
        rng.shuffle(moduli)
    elif seed % 2:  # one prime: every modulus a power of it, units included
        p = rng.choice([2, 3, 5])
        moduli = [p ** rng.randint(0, 3) for _ in range(q)]
    else:  # mixed primes and units
        moduli = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 18, 25, 36]) for _ in range(q)]
    rows = [[rng.randint(-40, 40) for _ in range(q)] for _ in range(rng.randint(0, 5))]
    if seed in (25, 26):
        rows = []
    if rows and seed % 3 == 0:
        rows.append([0] * q)
    if rows and seed % 4 == 0:
        rows.append(list(rows[0]))
        rows.append([x * rng.randint(2, 5) for x in rows[-1]])
    quotient, subgroup = lattice_invariants(rows, moduli)
    assert quotient == stacked_smith_chain(rows, moduli)
    assert subgroup == tuple(order for _, order in subgroup_basis(rows, moduli))
    assert (cokernel_invariants(rows, moduli), subgroup_invariants(rows, moduli)) == (
        quotient,
        subgroup,
    )


def test_lattice_invariants_edge_cases():
    assert lattice_invariants([], []) == ((), ())
    assert lattice_invariants([], [1, 1]) == ((), ())
    assert lattice_invariants([[5, 7]], [1, 1]) == ((), ())
    assert lattice_invariants([[0, 0], [0, 0]], [4, 6]) == ((2, 12), ())
    assert lattice_invariants([], [9, 27, 3]) == ((3, 9, 27), ())
    # (Z/9)^2 / <(3, 0), (3, 0), (0, 0)>: the subgroup is Z/3
    assert lattice_invariants([[3, 0], [3, 0], [0, 0]], [9, 9]) == ((3, 9), (3,))
    # full ambient group generated: everything in the subgroup
    assert lattice_invariants([[1, 0], [0, 1]], [8, 12]) == ((), (4, 24))
    # prime exponent: a vector space over F_p, unit columns dropped
    assert lattice_invariants([], [3, 3]) == ((3, 3), ())
    assert lattice_invariants([], [1, 7]) == ((7,), ())
    assert lattice_invariants([[4, -2, 1], [1, 1, -2]], [3, 1, 3]) == ((3,), (3,))
    # rows cleared to zero before a pivot row keep their place, so the next
    # pivot search resumes at that row's index
    assert lattice_invariants([[3, 3, 3], [3, 6, 5]], [8, 27, 9]) == ((3,), (9, 72))
    assert lattice_invariants([[8, 6, 5], [3, 2, 0]], [27, 8, 4]) == ((2,), (4, 108))
    # one prime of exponent p (a rank over F_p) next to one of a higher power
    # (a fold over Z/p^n)
    assert lattice_invariants([[1, 3]], [2, 9]) == ((3,), (6,))
    assert lattice_invariants([], [2, 9]) == ((18,), ())
    assert lattice_invariants([[3, 3, 2]], [6, 9, 4]) == ((3, 12), (6,))
    assert lattice_invariants([[1, 6, 2], [4, 3, 0]], [6, 9, 4]) == ((12,), (3, 6))
    rows = [[2, 0, 1], [0, 3, 2], [3, 3, 3]]
    assert lattice_invariants(rows, [6, 9, 4]) == ((3,), (6, 12))


def test_each_fold_sees_one_prime_power(monkeypatch):
    # mixed moduli are folded one prime at a time, so every pivot is a
    # power of that prime and no extended gcd is needed
    seen = []
    real = homok.snf._hermite_basis

    def spy(rows, moduli, *rest):
        seen.append(factorize(lcm(*moduli)))
        return real(rows, moduli, *rest)

    monkeypatch.setattr(homok.snf, "_hermite_basis", spy)
    rows = [[1, 3, 6, 5], [0, 6, 4, 10]]
    assert lattice_invariants(rows, [2, 9, 12, 25]) == ((60,), (3, 30))
    assert [list(f) for f in seen] == [[2], [3], [5]]

