"""Homogeneous functions as total value tables.

A table of degree d satisfies ``f(n*x) = n^d * f(x)`` for every n coprime to
the order of x (for negative d the defining identity is
``n^|d| * f(n*x) = f(x)``). Values live in the scalar group Q/Z (degree
nonzero), in Z (degree zero), or in another finite abelian group when the
table describes a map used to induce transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .bracket import GradedPresentation
from .groups import (
    Group,
    GroupElement,
    QZ_ZERO,
    RationalResidue,
    cyclic_subgroups,
    element_order,
    element_scan,
    subgroup_orbits,
)


@dataclass(frozen=True)
class FunctionTable:
    """Total function on ``domain``, one value per element in index order.

    ``codomain=None`` means scalar values: rational residues for nonzero
    degree, plain integers for degree zero. Otherwise values are elements
    of the codomain group, checked once here, where the check also gives
    ``value_indices``: their indices in the codomain.
    """

    domain: Group
    degree: int
    values: tuple
    codomain: Group | None = None
    value_indices: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.domain.order:
            raise ValueError(
                f"table has {len(self.values)} values for a group of order "
                f"{self.domain.order}"
            )
        if self.codomain is None:
            for v in self.values:
                _checked_order(None, self.degree, v)
        else:
            indices = tuple(map(self.codomain.element_index, self.values))
            object.__setattr__(self, "value_indices", indices)
        if self.degree != 0:
            zero = self.codomain.zero if self.codomain else QZ_ZERO
            if self.values[0] != zero:
                raise ValueError(
                    "a nonzero-degree table must vanish at 0 "
                    "(forced by f(0) = n^d f(0))"
                )


def _checked_order(codomain: Group | None, degree: int, v) -> int:
    """The order of a value that enters from outside, checked first."""
    if codomain is not None:
        return element_order(codomain, v)
    if degree == 0:
        if not isinstance(v, int):
            raise ValueError(f"degree-0 scalar values must be integers, got {v!r}")
        return 1
    if not isinstance(v, RationalResidue):
        raise ValueError(f"scalar values must be rational residues, got {v!r}")
    return v.order


def _value_orders(table: FunctionTable) -> list[int]:
    """The order of each value of a built table, by domain index: a group
    value's is its cyclic subgroup's order in the codomain's element scan."""
    if table.codomain is None:
        return [1 if table.degree == 0 else v.order for v in table.values]
    records = cyclic_subgroups(table.codomain)
    record_of, _ = element_scan(table.codomain)
    return [records[record_of[k]].subgroup_order for k in table.value_indices]


def _scale_power(codomain: Group | None, n: int, e: int, v, vo: int):
    """``n^e * v`` for a value v of order vo, with the exponent reduced
    modulo vo, so negative exponents work whenever n is invertible there."""
    if vo == 1:
        return v
    if codomain is not None:
        return codomain.scale(pow(n, e, vo), v)
    return RationalResidue.of(pow(n, e, vo) * v.num, vo)


@dataclass(frozen=True)
class HomogeneityReport:
    homogeneous: bool
    witness: tuple[GroupElement, int] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.homogeneous


def is_homogeneous(table: FunctionTable) -> HomogeneityReport:
    """Check the defining identity exactly, reporting the first violation.

    For each x the identity is checked for n coprime to o(x) up to
    L(x) = lcm(o(x), orders of the values on the generator orbit of x):
    both sides of the identity are L(x)-periodic in n (the argument n*x
    repeats mod o(x), the multiplier n^d repeats mod each value order), so
    the finite range decides the identity for all integers n.

    Only the canonical generator of each cyclic subgroup is checked. If the
    identity holds at x, it holds at every generator m*x of <x>: for d >= 0,
    f(n*mx) = (nm)^d*f(x) = n^d*f(mx); for d < 0 the same computation with
    an m' = m (mod o(x)) prime to the value orders, so that m'^|d| can be
    cancelled. The elements that fail therefore come in whole orbits, and
    the lex-least generator, visited in element-index order, is the first
    failing element of the domain: the report is the one an element-by-
    element scan would give.
    """
    c, d, values = table.codomain, table.degree, table.values
    orders = _value_orders(table)
    for _, x, o, orbit in subgroup_orbits(table.domain):
        j = orbit[1 % o]
        fx = values[j]
        span = lcm(o, *(orders[k] for k in orbit.values()))
        for n in range(1, span + 1):
            if gcd(n, o) != 1:
                continue
            k = orbit[n % o]
            fnx = values[k]
            if d >= 0:
                ok = fnx == _scale_power(c, n, d, fx, orders[j])
            else:
                ok = _scale_power(c, n, -d, fnx, orders[k]) == fx
            if not ok:
                return HomogeneityReport(
                    False,
                    (x, n),
                    f"identity fails at x={x}, n={n}: f(nx)={fnx}, f(x)={fx}",
                )
    return HomogeneityReport(True)


def from_generator_values(
    pres: GradedPresentation, values, codomain: Group | None = None
) -> FunctionTable:
    """Build the table with the given value at each canonical generator,
    extended by ``f(n*x) = n^d * value``.

    ``values`` has one entry per summand of the presentation. Each value's
    order must divide the summand modulus (else no homogeneous extension
    exists); for degree 0 values are integers, constant on each orbit.
    """
    d = pres.degree
    summands = pres.summands
    if len(values) != len(summands):
        raise ValueError(
            f"expected {len(summands)} generator values, got {len(values)}"
        )
    orders = []
    for (rec, modulus), v in zip(summands, values):
        vo = _checked_order(codomain, d, v)
        if modulus % vo:
            raise ValueError(
                f"value {v} has order {vo}, not dividing the summand "
                f"modulus {modulus} at generator {rec.canonical_generator}"
            )
        orders.append(vo)
    out: list = [None] * pres.group.order
    for i, _, _, orbit in subgroup_orbits(pres.group):
        for n, j in orbit.items():  # n = 0 only for o = 1: n^d * v = v
            out[j] = _scale_power(codomain, n, d, values[i], orders[i])
    return FunctionTable(pres.group, d, tuple(out), codomain)

