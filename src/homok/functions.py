"""Homogeneous functions as total value tables.

A table of degree d satisfies ``f(n*x) = n^d * f(x)`` for every n coprime to
the order of x (for negative d the defining identity is
``n^|d| * f(n*x) = f(x)``). Values live in the scalar group Q/Z (degree
nonzero), in Z (degree zero), or in another finite abelian group when the
table describes a map used to induce transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .bracket import GradedPresentation, Target, graded_presentation
from .groups import (
    Group,
    GroupElement,
    QZ_ZERO,
    RationalResidue,
    cyclic_subgroups,
    element_order,
    subgroup_orbits,
)


@dataclass(frozen=True)
class FunctionTable:
    """Total function on ``domain``, one value per element in index order.

    ``codomain=None`` means scalar values: rational residues for nonzero
    degree, plain integers for degree zero. Otherwise values are elements
    of the codomain group.
    """

    domain: Group
    degree: int
    values: tuple
    codomain: Group | None = None

    def __post_init__(self):
        if len(self.values) != self.domain.order:
            raise ValueError(
                f"table has {len(self.values)} values for a group of order "
                f"{self.domain.order}"
            )
        for v in self.values:
            _validate_value(self.codomain, self.degree, v)
        if self.degree != 0:
            zero = self.codomain.zero if self.codomain else QZ_ZERO
            if self.values[0] != zero:
                raise ValueError(
                    "a nonzero-degree table must vanish at 0 "
                    "(forced by f(0) = n^d f(0))"
                )

    def value_at(self, g: GroupElement):
        return self.values[self.domain.element_index(g)]


def _validate_value(codomain: Group | None, degree: int, v) -> None:
    if codomain is not None:
        codomain.validate_element(v)
    elif degree == 0:
        if not isinstance(v, int):
            raise ValueError(f"degree-0 scalar values must be integers, got {v!r}")
    elif not isinstance(v, RationalResidue):
        raise ValueError(f"scalar values must be rational residues, got {v!r}")


def _value_order(codomain: Group | None, degree: int, v) -> int:
    if codomain is not None:
        return element_order(codomain, v)
    if degree == 0:
        return 1
    return v.order


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


def generator_orbits(table: FunctionTable):
    """Per cyclic subgroup of the domain, visited in element-index order of
    the canonical generators: ``(x, o, orbit)`` with x the lex-least
    generator, o its order and ``orbit[n % o] = f(n*x)`` for every n in
    1..o prime to o, read through the element scan's generator orbits.
    """
    records = cyclic_subgroups(table.domain)
    for i, orbit in subgroup_orbits(table.domain):
        x, o = records[i].canonical_generator, records[i].subgroup_order
        yield x, o, {n % o: table.values[j] for n, j in orbit}


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
    c = table.codomain
    d = table.degree
    for x, o, orbit in generator_orbits(table):
        fx = orbit[1 % o]
        orders = {r: _value_order(c, d, v) for r, v in orbit.items()}
        span = lcm(o, *orders.values())
        for n in range(1, span + 1):
            if gcd(n, o) != 1:
                continue
            fnx = orbit[n % o]
            if d >= 0:
                ok = fnx == _scale_power(c, n, d, fx, orders[1 % o])
            else:
                ok = _scale_power(c, n, -d, fnx, orders[n % o]) == fx
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
        _validate_value(codomain, d, v)
        vo = _value_order(codomain, d, v)
        if modulus % vo:
            raise ValueError(
                f"value {v} has order {vo}, not dividing the summand "
                f"modulus {modulus} at generator {rec.canonical_generator}"
            )
        orders.append(vo)
    out: list = [None] * pres.group.order
    for i, orbit in subgroup_orbits(pres.group):
        for n, j in orbit:
            out[j] = _scale_power(codomain, n, d, values[i], orders[i])
    return FunctionTable(pres.group, d, tuple(out), codomain)


def from_coordinates(pres: GradedPresentation, coords, target) -> FunctionTable:
    """Scalar table from integer homomorphism coordinates.

    For nonzero degree, ``target`` is a modulus m >= 1 and coordinate i
    denotes the residue coords[i]/m; well-definedness demands
    ``coords[i] * modulus_i == 0 mod m``. For degree 0 pass ``Target.Z``
    and plain integers.
    """
    if len(coords) != len(pres.summands):
        raise ValueError(
            f"expected {len(pres.summands)} coordinates, got {len(coords)}"
        )
    if pres.degree == 0:
        if target is not Target.Z:
            raise ValueError("degree-0 tables take integer values; pass Target.Z")
        values = [int(c) for c in coords]
    else:
        if target is Target.Z or target is Target.QZ:
            raise ValueError(
                "nonzero degree needs a concrete target modulus, e.g. the "
                "group exponent"
            )
        m = int(target)
        if m < 1:
            raise ValueError(f"target modulus must be >= 1, got {m}")
        values = []
        for (rec, modulus), c in zip(pres.summands, coords):
            if (int(c) * modulus) % m:
                raise ValueError(
                    f"coordinate {c} at modulus {modulus} does not define a "
                    f"homomorphism into Z/{m}"
                )
            values.append(RationalResidue.of(int(c), m))
    return from_generator_values(pres, values)


def to_coordinates(table: FunctionTable) -> tuple:
    """Per-summand values read at the canonical generators.

    Requires a homogeneous table; also re-checks that each value's order
    divides its summand modulus (an inconsistent table cannot come from
    homomorphism coordinates).
    """
    report = is_homogeneous(table)
    if not report.homogeneous:
        raise ValueError(f"table is not homogeneous: {report.detail}")
    pres = graded_presentation(table.domain, table.degree)
    out = []
    for rec, modulus in pres.summands:
        v = table.value_at(rec.canonical_generator)
        if table.degree != 0:
            vo = _value_order(table.codomain, table.degree, v)
            if modulus % vo:
                raise ValueError(
                    f"value order {vo} at {rec.canonical_generator} exceeds "
                    f"summand modulus {modulus}"
                )
        out.append(v)
    return tuple(out)

