"""The transfer homomorphism induced by a homogeneous map t: G -> G'.

t acts on brackets summand by summand: the class of each source generator
lands in a single target summand with a unit coordinate, so the image is a
direct sum of fully-hit target summands and everything else is missed. The
transfer of a homomorphism f on the source bracket sums f over preimages;
with the monomial structure this collapses to kernel_size * f(section), and
the literal preimage summation is kept alongside as the correctness oracle.

The induced bracket map is only known to be well defined for degree +-1;
for other degrees a per-instance audit checks every defining relation over
its finite period and refuses the construction when one breaks (such t
exist: squaring on Z/5 at degree 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .bracket import GradedPresentation, graded_presentation, project_element
from .functions import FunctionTable, is_homogeneous
from .groups import QZ_ZERO, InternalInvariantError, RationalResidue


class TransferError(ValueError):
    """Base for refused transfer constructions."""


class OddOrderRequired(TransferError):
    pass


class NotHomogeneousError(TransferError):
    pass


class InducedMapUndefined(TransferError):
    """The bracket relations of the source do not map into relations of the
    target: t does not induce a map on brackets at this degree."""


@dataclass(frozen=True)
class InducedGradedMap:
    """t on brackets, in coordinates.

    ``images[i] = (j, v)``: the i-th source summand generator maps to v
    times the j-th target generator, v a unit mod the target modulus.
    ``sections[j]``: None when the image misses summand j, else
    ``(i, c)`` with the least source summand index i hitting j and c the
    coordinate whose image is exactly the j-th target generator.
    """

    source: GradedPresentation
    target: GradedPresentation
    images: tuple[tuple[int, int], ...]
    sections: tuple[tuple[int, int] | None, ...]
    kernel_size: int


def induced_graded_map(table: FunctionTable) -> InducedGradedMap:
    """Build and audit the bracket map of a homogeneous t: G -> G'."""
    if table.codomain is None:
        raise TransferError("transfer needs a group-valued table")
    if table.degree == 0:
        raise TransferError("degree-0 brackets are infinite; no transfer here")
    if table.domain.order % 2 == 0:
        raise OddOrderRequired(
            f"transfer requires an odd-order source, |G| = {table.domain.order}"
        )
    report = is_homogeneous(table)
    if not report.homogeneous:
        raise NotHomogeneousError(report.detail)

    d = table.degree
    source = graded_presentation(table.domain, d)
    target = graded_presentation(table.codomain, d)

    codomain = table.codomain
    value_proj = {
        codomain.element_index(w): project_element(target, w)
        for w in set(table.values)
    }

    images = tuple(
        value_proj[codomain.element_index(table.value_at(rec.canonical_generator))]
        for rec, _ in source.summands
    )

    _audit_relations(table, target, d, value_proj)

    # Structure: every hit target summand is fully hit (unit coordinate),
    # and the source summand order kills the image coordinate.
    for (rec, a), (j, v) in zip(source.summands, images):
        mj = target.moduli[j]
        if mj > 1 and gcd(v, mj) != 1:
            raise InternalInvariantError("image coordinate is not a unit")
        if a % mj:
            raise InternalInvariantError(
                "source summand order does not kill its image"
            )

    hit = sorted({j for j, _ in images})
    image_size = prod(target.moduli[j] for j in hit)
    total = source.size()
    if total % image_size:
        raise InternalInvariantError("image size does not divide the source")
    kernel_size = total // image_size

    sections: list[tuple[int, int] | None] = [None] * len(target.summands)
    for i, (j, v) in enumerate(images):
        if sections[j] is None:
            mj = target.moduli[j]
            sections[j] = (i, pow(v, -1, mj) if mj > 1 else 0)

    return InducedGradedMap(source, target, images, tuple(sections), kernel_size)


def _audit_relations(
    table: FunctionTable, target: GradedPresentation, d: int, value_proj: dict
) -> None:
    """Exhaustively check that every defining relation [n*g] - n^d*[g] of
    the source bracket maps to a relation of the target bracket.

    For fixed g both sides are periodic in n with period
    lcm(o(g), target modulus at [t(g)]), so the finite range decides all
    integers n. Degree +-1 always passes (the map is functorial there);
    other degrees genuinely can fail. ``value_proj`` carries the projection
    of every value of the table, keyed by codomain element index.
    """
    g_dom = table.domain
    codomain = table.codomain
    for g in g_dom.elements():
        o = 1
        for x, n in zip(g, g_dom.factor_orders):
            o = lcm(o, n // gcd(n, x))
        j0, c0 = value_proj[codomain.element_index(table.value_at(g))]
        m0 = target.moduli[j0]
        span = lcm(o, m0)
        for n in range(1, span + 1):
            if gcd(n, o) != 1:
                continue
            j1, c1 = value_proj[
                codomain.element_index(table.value_at(g_dom.scale(n, g)))
            ]
            m1 = target.moduli[j1]
            rhs = (pow(n, d, m0) * c0) % m0
            if j0 == j1:
                ok = c1 == rhs
            else:
                ok = c1 % m1 == 0 and rhs == 0
            if not ok:
                raise InducedMapUndefined(
                    f"relation [n*g] = n^d*[g] breaks at g={g}, n={n}, "
                    f"degree {d}: target coordinates ({j1}, {c1}) vs "
                    f"({j0}, {rhs})"
                )


def _validate_hom(coords, moduli, what: str) -> list[RationalResidue]:
    coords = list(coords)
    if len(coords) != len(moduli):
        raise ValueError(f"{what} needs {len(moduli)} coordinates")
    for v, m in zip(coords, moduli):
        if not isinstance(v, RationalResidue):
            raise ValueError(f"{what} coordinates must be rational residues")
        if m % v.order:
            raise ValueError(
                f"{what} coordinate {v} has order {v.order}, not dividing {m}"
            )
    return coords


def transfer_apply(mapping: InducedGradedMap, f) -> tuple[RationalResidue, ...]:
    """The transfer of f: sum of f over preimages, in closed form.

    At a missed target summand the preimage of the generator is empty and
    the (empty) sum is zero; at a hit summand with section (i, c) every
    preimage point contributes the same value, giving
    kernel_size * c * f_i.
    """
    f = _validate_hom(f, mapping.source.moduli, "source homomorphism")
    out = []
    for j, sec in enumerate(mapping.sections):
        if sec is None:
            out.append(QZ_ZERO)
            continue
        i, c = sec
        val = (mapping.kernel_size * c) * f[i]
        mj = mapping.target.moduli[j]
        if mj % val.order:
            raise InternalInvariantError("transfer left the target lattice")
        out.append(val)
    return tuple(out)


def pullback(mapping: InducedGradedMap, g) -> tuple[RationalResidue, ...]:
    """Composition with t: (t* g)([x]) = g([t(x)]), coordinatewise."""
    g = _validate_hom(g, mapping.target.moduli, "target homomorphism")
    return tuple(v * g[j] for j, v in mapping.images)


def preimage_sum(
    mapping: InducedGradedMap, f, target_index: int, limit: int = 2_000_000
) -> RationalResidue:
    """Literal definition of the transfer at the target generator
    ``e_{target_index}``: enumerate the whole source bracket group and sum
    f over the exact preimage. Exists to keep ``transfer_apply`` honest;
    cost is the bracket size, hence the guard."""
    f = _validate_hom(f, mapping.source.moduli, "source homomorphism")
    src_moduli = mapping.source.moduli
    tgt_moduli = mapping.target.moduli
    total = prod(src_moduli)
    if total > limit:
        raise TransferError(
            f"literal preimage summation over {total} elements exceeds the "
            f"limit of {limit}"
        )
    want = [0] * len(tgt_moduli)
    if tgt_moduli[target_index] > 1:
        want[target_index] = 1
    want = tuple(want)

    # mixed-radix counter over the source bracket, image updated in place
    vec = [0] * len(src_moduli)
    image = [0] * len(tgt_moduli)
    acc = QZ_ZERO
    matches = 0
    while True:
        if tuple(image) == want:
            contrib = QZ_ZERO
            for y, fv in zip(vec, f):
                contrib = contrib + y * fv
            acc = acc + contrib
            matches += 1
        pos = len(vec) - 1
        while pos >= 0:
            vec[pos] += 1
            j, v = mapping.images[pos]
            image[j] = (image[j] + v) % tgt_moduli[j]
            if vec[pos] < src_moduli[pos]:
                break
            vec[pos] = 0
            pos -= 1
        else:
            break
    expected = mapping.kernel_size if mapping.sections[target_index] else 0
    if matches != expected:
        raise InternalInvariantError("preimage count disagrees with kernel size")
    return acc
