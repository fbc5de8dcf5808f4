"""Brute-force oracles.

Everything here recomputes results of the main modules from first
principles — literal enumeration, closures, order censuses — so the tests
can compare the fast paths against something with no shared code. Nothing
in this module may import from ``bracket``, ``cocyclic``, ``orders`` or
``snf``.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .arith import divisors
from .groups import Group, element_order


def _constraints(group: Group, degree: int, modulus: int):
    """All value constraints forced by homogeneity, grouped by the larger
    element index so a depth-first scan can check them as soon as both
    endpoints have values.

    Each constraint is ``(i, j, t, flipped)``: ``v[j] == t*v[i] (mod m)``
    when not flipped, ``t*v[j] == v[i] (mod m)`` when flipped. Periods:
    n*x repeats mod o(x) and multipliers repeat mod m, so n up to
    lcm(o(x), m) exhausts all integer instances of the identity.
    """
    seen = set()
    grouped: list[list[tuple[int, int, int, bool]]] = [
        [] for _ in range(group.order)
    ]
    e = abs(degree)
    for i, x in enumerate(group.elements()):
        o = element_order(group, x)
        for n in range(1, lcm(o, modulus) + 1):
            if gcd(n, o) != 1:
                continue
            j = group.element_index(group.scale(n, x))
            t = pow(n, e, modulus)
            con = (i, j, t, degree < 0)
            if (t == 1 and i == j) or con in seen:
                continue
            seen.add(con)
            grouped[max(i, j)].append(con)
    return grouped


def count_homogeneous_tables(group: Group, degree: int, modulus: int) -> int:
    """Number of homogeneous functions into Z/``modulus``, by backtracking
    over value assignments with the constraint graph — no order formulas."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    grouped = _constraints(group, degree, modulus)
    order = group.order
    values = [0] * order

    def ok(k: int) -> bool:
        for i, j, t, flipped in grouped[k]:
            if flipped:
                if (t * values[j] - values[i]) % modulus:
                    return False
            elif (values[j] - t * values[i]) % modulus:
                return False
        return True

    def walk(k: int) -> int:
        if k == order:
            return 1
        if k == 0 and degree != 0:
            values[0] = 0
            return walk(1) if ok(0) else 0
        total = 0
        for v in range(modulus):
            values[k] = v
            if ok(k):
                total += walk(k + 1)
        return total

    return walk(0)


def count_homogeneous_tables_product(
    group: Group, degree: int, modulus: int, limit: int = 500_000
) -> int:
    """Same count by filtering the full value-table product — exponential,
    only for cross-checking the backtracking oracle on tiny cells."""
    if modulus**group.order > limit:
        raise ValueError(
            f"{modulus}^{group.order} tables exceed the limit of {limit}"
        )
    flat = [c for per_index in _constraints(group, degree, modulus) for c in per_index]
    count = 0
    for values in itertools.product(range(modulus), repeat=group.order):
        if degree != 0 and values[0] != 0:
            continue
        if all(
            ((t * values[j] - values[i]) if flipped else (values[j] - t * values[i]))
            % modulus == 0
            for i, j, t, flipped in flat
        ):
            count += 1
    return count


def span_in_ambient(
    rows, moduli, limit: int = 100_000
) -> frozenset[tuple[int, ...]]:
    """Subgroup of ``+ Z/moduli`` generated by the rows, as an explicit
    element set (breadth-first closure)."""
    ambient = 1
    for m in moduli:
        if m < 1:
            raise ValueError(f"ambient moduli must be >= 1, got {m}")
        ambient *= m
    if ambient > limit:
        raise ValueError(f"ambient of size {ambient} exceeds the limit of {limit}")
    gens = [tuple(x % m for x, m in zip(row, moduli)) for row in rows]
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = tuple((a + b) % m for a, b, m in zip(e, g, moduli))
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return frozenset(seen)


def order_profile(elements, moduli) -> dict[int, int]:
    """For each divisor e of the ambient exponent, how many of the given
    elements are killed by e. This census pins down the isomorphism type
    of any subgroup or quotient involved."""
    exponent = lcm(*moduli) if moduli else 1
    profile = {}
    for e in divisors(exponent):
        profile[e] = sum(
            1
            for x in elements
            if all((e * c) % m == 0 for c, m in zip(x, moduli))
        )
    return profile


def invariants_match_profile(invariants, profile: dict[int, int]) -> bool:
    """Does ``+ Z/d_i`` show exactly this kill census? (Counts at every
    divisor of the exponent determine a finite abelian group.)"""
    for e, count in profile.items():
        expect = 1
        for d in invariants:
            expect *= gcd(d, e)
        if expect != count:
            return False
    return True
