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
    InternalInvariantError,
    QZ_ZERO,
    RationalResidue,
    element_order,
    parse_group_spec,
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
            self._validate_value(v)
        if self.degree != 0:
            zero = self.codomain.zero if self.codomain else QZ_ZERO
            if self.values[0] != zero:
                raise ValueError(
                    "a nonzero-degree table must vanish at 0 "
                    "(forced by f(0) = n^d f(0))"
                )

    def _validate_value(self, v) -> None:
        if self.codomain is not None:
            self.codomain.validate_element(v)
        elif self.degree == 0:
            if not isinstance(v, int):
                raise ValueError(f"degree-0 scalar values must be integers, got {v!r}")
        elif not isinstance(v, RationalResidue):
            raise ValueError(f"scalar values must be rational residues, got {v!r}")

    def value_at(self, g: GroupElement):
        return self.values[self.domain.element_index(g)]

    def is_zero(self) -> bool:
        zero = self.zero_value()
        return all(v == zero for v in self.values)

    def zero_value(self):
        if self.codomain is not None:
            return self.codomain.zero
        return 0 if self.degree == 0 else QZ_ZERO


def zero_table(domain: Group, degree: int, codomain: Group | None = None) -> FunctionTable:
    zero = codomain.zero if codomain else (0 if degree == 0 else QZ_ZERO)
    return FunctionTable(domain, degree, (zero,) * domain.order, codomain)


def _value_order(table: FunctionTable, v) -> int:
    if table.codomain is not None:
        return element_order(table.codomain, v)
    if table.degree == 0:
        return 1
    return v.order


def _scale_power(table: FunctionTable, n: int, e: int, v):
    """``n^e * v`` with the exponent reduced modulo the value's order, so
    negative exponents work whenever n is invertible there."""
    if table.codomain is not None:
        o = element_order(table.codomain, v)
        return table.codomain.scale(pow(n, e, o), v)
    if table.degree == 0:
        return v
    if v.den == 1:
        return v
    return RationalResidue.of(pow(n, e, v.den) * v.num, v.den)


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
    """
    g = table.domain
    d = table.degree
    for x in g.elements():
        o = element_order(g, x)
        fx = table.value_at(x)
        span = o
        orbit = [
            (n, table.value_at(g.scale(n, x)))
            for n in range(1, o + 1)
            if gcd(n, o) == 1
        ]
        for _, v in orbit:
            span = lcm(span, _value_order(table, v))
        for n in range(1, span + 1):
            if gcd(n, o) != 1:
                continue
            fnx = table.value_at(g.scale(n, x))
            if d >= 0:
                ok = fnx == _scale_power(table, n, d, fx)
            else:
                ok = _scale_power(table, n, -d, fnx) == fx
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
    group = pres.group
    d = pres.degree
    summands = pres.summands
    if len(values) != len(summands):
        raise ValueError(
            f"expected {len(summands)} generator values, got {len(values)}"
        )
    out: list = [None] * group.order
    probe = zero_table(group, d, codomain)
    for (rec, modulus), v in zip(summands, values):
        probe._validate_value(v)
        o = rec.subgroup_order
        if d != 0:
            vo = _value_order(probe, v)
            if modulus % vo:
                raise ValueError(
                    f"value {v} has order {vo}, not dividing the summand "
                    f"modulus {modulus} at generator {rec.canonical_generator}"
                )
        x = rec.canonical_generator
        for n in range(1, o + 1):
            if gcd(n, o) == 1:
                out[group.element_index(group.scale(n, x))] = _scale_power(
                    probe, n, d, v
                )
    return FunctionTable(group, d, tuple(out), codomain)


def from_coordinates(
    pres: GradedPresentation, coords, target, check: bool = False
) -> FunctionTable:
    """Scalar table from integer homomorphism coordinates.

    For nonzero degree, ``target`` is a modulus m >= 1 and coordinate i
    denotes the residue coords[i]/m; well-definedness demands
    ``coords[i] * modulus_i == 0 mod m``. For degree 0 pass ``Target.Z``
    and plain integers. ``check=True`` reruns the full homogeneity audit
    on the result (debug aid; the construction guarantees it).
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
    table = from_generator_values(pres, values)
    if check:
        report = is_homogeneous(table)
        if not report.homogeneous:
            raise InternalInvariantError(
                f"from_coordinates built a table that is not homogeneous: "
                f"{report.detail}"
            )
    return table


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
            vo = _value_order(table, v)
            if modulus % vo:
                raise ValueError(
                    f"value order {vo} at {rec.canonical_generator} exceeds "
                    f"summand modulus {modulus}"
                )
        out.append(v)
    return tuple(out)


def pointwise_combine(tables, weights, check: bool = False) -> FunctionTable:
    """Integer combination ``sum w_i * f_i`` pointwise."""
    tables = list(tables)
    weights = [int(w) for w in weights]
    if not tables:
        raise ValueError("need at least one table")
    if len(tables) != len(weights):
        raise ValueError("one weight per table")
    head = tables[0]
    for t in tables[1:]:
        if t.domain != head.domain or t.degree != head.degree or t.codomain != head.codomain:
            raise ValueError("tables must share domain, degree and codomain")
    values = []
    for i in range(head.domain.order):
        acc = head.zero_value()
        for t, w in zip(tables, weights):
            v = t.values[i]
            if head.codomain is not None:
                acc = head.codomain.add(acc, head.codomain.scale(w, v))
            elif head.degree == 0:
                acc = acc + w * v
            else:
                acc = acc + w * v  # integer times residue
        values.append(acc)
    out = FunctionTable(head.domain, head.degree, tuple(values), head.codomain)
    if check:
        report = is_homogeneous(out)
        if not report.homogeneous:
            raise InternalInvariantError(
                f"pointwise_combine built a table that is not homogeneous: "
                f"{report.detail}"
            )
    return out


def table_to_json_dict(table: FunctionTable) -> dict:
    """JSON form of a scalar table: values as [num, den] pairs in element
    index order (degree 0 uses [value, 1])."""
    if table.codomain is not None:
        raise ValueError("only scalar tables have a JSON table form")
    if table.degree == 0:
        pairs = [[v, 1] for v in table.values]
    else:
        pairs = [[v.num, v.den] for v in table.values]
    return {"group": table.domain.spec, "degree": table.degree, "values": pairs}


def table_from_json_dict(doc: dict, cap: int | None = None) -> FunctionTable:
    kwargs = {} if cap is None else {"cap": cap}
    group = parse_group_spec(str(doc["group"]), **kwargs)
    degree = int(doc["degree"])
    raw = doc["values"]
    if degree == 0:
        values = []
        for pair in raw:
            num, den = int(pair[0]), int(pair[1])
            if den != 1:
                raise ValueError("degree-0 values must be integers ([num, 1])")
            values.append(num)
    else:
        values = [RationalResidue.of(int(p[0]), int(p[1])) for p in raw]
    return FunctionTable(group, degree, tuple(values))
