"""Cocyclic subgroups (kernels of characters), the lattice they generate
inside the scalar homogeneous-function group, and the quotient invariants.

For a finite abelian G, the degree-1 scalar homogeneous functions form
``+ C^`` over the cyclic subgroups C (one character of C per summand,
identified with Z/|C| through the canonical generator). Extending a
character of a cocyclic subgroup K by zero off K gives a homogeneous
function; the subgroup those generate, and the quotient by it, are computed
here. For odd |G| the quotient is the SK1 invariant of the integral group
ring.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb, gcd, prod
from operator import mul

from .arith import factorize, is_prime
from .bracket import Target, graded_presentation, hom_invariants
from .groups import (
    Group,
    GroupElement,
    InternalInvariantError,
    SylowPart,
    cyclic_subgroups,
    sylow_assembly,
    sylow_decompose,
)
from .snf import IntMatrix, lattice_invariants

# Not called here any more; perfbench/tests/test_perfbench.py checks that
# the tracer patches this caller-side binding, so it stays until that test
# moves to lattice_invariants.
from .snf import cokernel_invariants  # noqa: F401


@dataclass(frozen=True)
class CocyclicSubgroup:
    """The kernel K of the character ``chi(g) = sum_i chi_i g_i / n_i``:
    the (cyclic) quotient order ``|G/K|`` is the order of ``chi``."""

    character: GroupElement
    quotient_order: int
    size: int


@lru_cache(maxsize=None)
def cocyclic_subgroups(group: Group) -> tuple[CocyclicSubgroup, ...]:
    """All subgroups K with G/K cyclic, smallest first.

    Every such K is the kernel of a character, and ker chi depends only on
    the cyclic subgroup <chi> of the dual. Under the pairing above the dual
    is G itself on the same factors, so the kernels are indexed by the
    canonical generators of G's cyclic subgroups: no character scan needed.
    """
    records = sorted(cyclic_subgroups(group), key=lambda rec: -rec.subgroup_order)
    return tuple(
        CocyclicSubgroup(
            rec.canonical_generator,
            rec.subgroup_order,
            group.order // rec.subgroup_order,
        )
        for rec in records
    )


def _coc_basis_rows(group: Group) -> IntMatrix:
    """Per kernel K and per factor i, the extension by zero of the i-th
    coordinate character ``g -> g_i / n_i`` restricted to K.

    Restriction from the dual of G onto the dual of K is onto, and the
    coordinate characters generate the dual of G, so these rows generate
    the whole cocyclic lattice. At a column whose cyclic subgroup C (with
    generator x of order c) lies in K, that is chi(x) = 0, the entry is
    ``x_i * c / n_i`` mod c; elsewhere it is 0.

    For each kernel K = ker chi_y, the row of the first factor i with y_i a
    unit mod n_i is left out: with u * y_i = 1 (mod n_i), the character
    ``u * chi_y = e_i + sum_{j != i} u * y_j * e_j`` vanishes on K, so e_i
    restricted to K is a combination of K's other rows.

    Kernels and columns are indexed by the same generators, and the test
    "<x> lies in ker chi_y", ``sum_i y_i x_i e / n_i = 0 (mod e)``, is
    symmetric in x and y: each pair is tested once, and a row is filled
    only at the columns inside its kernel.
    """
    e = group.exponent
    factors = group.factor_orders
    weights = [e // n for n in factors]
    records = cyclic_subgroups(group)
    q = len(records)
    gens = [rec.canonical_generator for rec in records]
    # inside[j * q + l]: <gens[l]> lies in the kernel indexed by gens[j]
    inside = bytearray(q * q)
    for j, y in enumerate(gens):
        weighted = list(map(mul, y, weights))
        hits = bytes(sum(map(mul, weighted, x)) % e == 0 for x in gens[j:])
        inside[j * q + j : (j + 1) * q] = hits
        inside[j * q + j :: q] = hits
    # entries[i][l]: the i-th coordinate character at column l
    entries = [
        [(x[i] * rec.subgroup_order // n) % rec.subgroup_order
         for x, rec in zip(gens, records)]
        for i, n in enumerate(factors)
    ]
    column_of = {x: l for l, x in enumerate(gens)}
    rows: IntMatrix = []
    for k in cocyclic_subgroups(group):
        j = column_of[k.character]
        mask = inside[j * q : (j + 1) * q]
        columns = list(compress(range(q), mask))
        fixed = next(
            (i for i, (y, n) in enumerate(zip(k.character, factors))
             if gcd(y, n) == 1),
            None,
        )
        for i, values in enumerate(entries):
            if i == fixed:
                continue
            row = [0] * q
            for l, v in zip(columns, compress(values, mask)):
                row[l] = v
            rows.append(row)
    return rows


def _monomial_rows(group: Group) -> IntMatrix:
    """For a group of prime exponent p: the degree-p monomials in the
    coordinates of order p, each evaluated mod p at every column's generator.

    Over F_p the indicator of ker chi is ``1 - chi^(p-1)`` and ``x^p = x``,
    so each row ``psi * 1_K`` of ``_coc_basis_rows`` is
    ``psi - psi * chi^(p-1)``, a degree-p form: the C(p+k-1, p) monomials
    span the same F_p space as its rows. Each degree is built from the
    one below by multiplying with one coordinate, in nondecreasing index
    order, so every monomial appears once.
    """
    p = group.exponent
    gens = [rec.canonical_generator for rec in cyclic_subgroups(group)]
    coords = [
        [x[i] for x in gens] for i, n in enumerate(group.factor_orders) if n == p
    ]
    # (values, index of the last coordinate multiplied in)
    level = [(column, i) for i, column in enumerate(coords)]
    for _ in range(p - 1):
        level = [
            ([a * b % p for a, b in zip(values, coords[i])], i)
            for values, last in level
            for i in range(last, len(coords))
        ]
    return [values for values, _ in level]


def lattice_chains(group: Group) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(quotient, coc)`` of the whole group's lattice in ``+ Z/|C|``, from
    the general rows, or the monomial rows for a prime exponent and rank at
    least 3: the reference of ``thm216`` for every route of ``sk1_route``
    but the lattice, and the computed side of ``ados`` and ``ados-odd``.
    It picks its rows by itself, so a wrong route cannot hide here."""
    moduli = [rec.subgroup_order for rec in cyclic_subgroups(group)]
    # on rank 2 the monomials save at most half the rows and cost about p^3
    if is_prime(group.exponent) and len(group.invariant_factors) >= 3:
        rows = _monomial_rows(group)
    else:
        rows = _coc_basis_rows(group)
    return lattice_invariants(rows, moduli)


@dataclass(frozen=True)
class SK1Report:
    """Invariant factors of the scalar homogeneous functions, the cocyclic
    lattice inside them, and the quotient; the quotient is the SK1 of the
    integral group ring exactly when the order is odd."""

    group: Group
    hmg_invariants: tuple[int, ...]
    coc_invariants: tuple[int, ...]
    quotient_invariants: tuple[int, ...]
    theorem_applies: bool
    sylow_parts: tuple[SylowPart, ...]

    @property
    def q_counts(self) -> dict[int, int]:
        return {part.prime: part.q_complement for part in self.sylow_parts}

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.canonical_spec,
            "hmg": list(self.hmg_invariants),
            "coc": list(self.coc_invariants),
            "sk1": list(self.quotient_invariants),
            "theorem_4_1_applies": self.theorem_applies,
            "q_counts": {str(p): q for p, q in sorted(self.q_counts.items())},
        }


class Route(enum.Enum):
    """How ``sk1_invariants`` reads a group's coc and quotient chains."""

    SYLOW = "sylow"  # assembled from the Sylow parts (thm216)
    ELEMENTARY = "elementary"  # the ADOS count on (Z/p)^k, k >= 3
    WHOLE = "whole"  # the lattice is the whole group
    LATTICE = "lattice"  # the group's own lattice, ``lattice_chains``


def sk1_route(group: Group) -> Route:
    """The one place that picks ``group``'s route: two or more primes
    assemble, and a p-group takes a rule of ``sk1_invariants`` where one
    covers it and reads its own lattice otherwise. ``thm216`` checks every
    route but the lattice against ``lattice_chains``."""
    inv = group.invariant_factors
    if len(factorize(group.order)) > 1:
        return Route.SYLOW
    if len(inv) >= 3:
        return Route.ELEMENTARY if is_prime(group.exponent) else Route.LATTICE
    if len(inv) == 2:
        # the whole-group rule holds on (p, p) too, but perfbench's tracer
        # test needs `sk1 --group 7,7` to reach the lattice (ROADMAP item 1(a1))
        whole = is_prime(inv[0]) and inv[0] != inv[1]
        return Route.WHOLE if whole else Route.LATTICE
    return Route.WHOLE


@lru_cache(maxsize=None)
def sk1_invariants(group: Group) -> SK1Report:
    """The quotient of scalar homogeneous functions by the cocyclic lattice.

    ``sk1_route`` picks one route per group. An order with two or more
    primes assembles the coc and quotient chains from its Sylow parts
    (thm216). A p-group reads them off its own lattice unless one of two
    rules decides them:

    - On (Z/p)^k, k >= 3, coc is (Z/p)^c with c = C(p+k-1, p): the
      degree-p monomials span it over F_p (``_monomial_rows``), and the c
      reduced ones are independent functions, fixed by their values at the
      generators as f(mx) = m f(x).
    - On C_(p^b) and C_p x C_(p^b), b >= 2, the lattice L is the whole group
      A of homogeneous functions, so coc is hmg and the quotient is trivial
      (ADOS, Invent. Math. 87, 1987). The proof below covers b = 1 as well;
      ``sk1_route`` says why (p, p) still reads its lattice.
      Pair A = + over C of C^ with + over C of C: then
      L^perp = {(c_C) : c_C in C, sum over C in K of c_C = 0 for each
      cocyclic K}, and L = A iff L^perp = 0. At rank <= 2, G/K is cyclic
      iff K is not inside pG, so each cyclic C not inside pG is cocyclic,
      and all its proper subgroups lie in pG. Cyclic G: the subgroups form
      one chain, each cocyclic, and induction up the chain gives c = 0.
      G = C_p x C_(p^b): pG is cyclic, with subgroups P_0 < ... < P_(b-1),
      and the non-cyclic subgroups are K_j = G[p^j], j = 1..b, all
      cocyclic. Induct on j: a cyclic C not inside pG of order p^j has
      c_C = -(sum over i < j of c_(P_i)) = 0, and the K_j condition minus
      the K_(j-1) condition (K_0 = 0) leaves c_(P_j) = 0.

    hmg comes from the census either way. Even orders are computed too but
    flagged: the group-ring identification is only available for odd
    groups.
    """
    parts = sylow_decompose(group)
    hmg = hom_invariants(graded_presentation(group, 1), Target.QZ)
    match sk1_route(group):
        case Route.SYLOW:
            quotient = sylow_assembly(
                parts, lambda g: sk1_invariants(g).quotient_invariants
            )
            coc = sylow_assembly(parts, lambda g: sk1_invariants(g).coc_invariants)
        case Route.ELEMENTARY:
            p, k = group.exponent, len(group.invariant_factors)
            c, q = comb(p + k - 1, p), (p**k - 1) // (p - 1)
            quotient, coc = (p,) * (q - c), (p,) * c
        case Route.WHOLE:
            quotient, coc = (), hmg
        case Route.LATTICE:
            quotient, coc = lattice_chains(group)
    # one power per distinct factor: (2)^16 has 65 535 in hmg
    hmg_order, coc_order, quotient_order = (
        prod(map(pow, counts, counts.values()))
        for counts in map(Counter, (hmg, coc, quotient))
    )
    if hmg_order != coc_order * quotient_order:
        raise InternalInvariantError(
            f"order bookkeeping broke on {group.spec}: "
            "|hmg| != |coc| * |quotient|"
        )
    return SK1Report(
        group=group,
        hmg_invariants=hmg,
        coc_invariants=coc,
        quotient_invariants=quotient,
        theorem_applies=group.order % 2 == 1,
        sylow_parts=tuple(parts),
    )
