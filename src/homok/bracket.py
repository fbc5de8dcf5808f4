"""The degree-d bracket of a finite abelian group: the free group on the
elements modulo the relations ``[n*x] - n^d*[x]``.

Structurally this is one cyclic summand per cyclic subgroup, of order the
d-th order of the subgroup order, and every computation here works on that
summand list directly. Degree 0 is the free case: one Z summand per cyclic
subgroup. The moduli depend only on how many cyclic subgroups there are of
each order, so they come from the census of the invariant factors; the
records (which name generators) are read from the element scan only when
asked for.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

from .groups import (
    CyclicSubgroupRecord,
    Group,
    GroupElement,
    InternalInvariantError,
    cyclic_subgroup_census,
    cyclic_subgroups,
    generated_record_index,
    invariant_factors_from_orders,
    sylow_decompose,
)
from .orders import higher_order


class Target(enum.Enum):
    """Scalar targets for hom computations: the divisible scalar target
    (sentinel for "any cyclic target of exponent-divisible order") and the
    integers (for degree 0 only)."""

    QZ = "Q/Z"
    Z = "Z"


@dataclass(frozen=True)
class GradedPresentation:
    """Degree-d bracket of ``group``: one cyclic summand per cyclic subgroup.

    ``moduli[i]`` is the d-th order of the i-th subgroup's order, in the
    canonical cyclic-subgroup order (by order, then generator). For
    ``degree == 0`` the bracket is free: moduli are all 0 and ``free_rank``
    is the cyclic subgroup count; otherwise ``free_rank`` is 0 and all
    moduli are >= 1. ``summands`` names the generators and runs the element
    scan on first use.
    """

    group: Group
    degree: int
    moduli: tuple[int, ...]
    free_rank: int

    @cached_property
    def summands(self) -> tuple[tuple[CyclicSubgroupRecord, int], ...]:
        """``(record, modulus)`` pairs; the scan's record orders must be the
        census the moduli were built from."""
        records = cyclic_subgroups(self.group)
        orders = [rec.subgroup_order for rec in records]
        census = cyclic_subgroup_census(self.group)
        if orders != [m for m, c in census for _ in range(c)]:
            raise InternalInvariantError(
                f"cyclic subgroup orders of {self.group.spec} from the scan "
                "disagree with the census"
            )
        return tuple(zip(records, self.moduli))

    def size(self) -> int:
        """Number of elements of the bracket group (degree != 0 only)."""
        if self.degree == 0:
            raise ValueError("the degree-0 bracket is infinite")
        return prod(self.moduli)


@lru_cache(maxsize=None)
def graded_presentation(group: Group, degree: int) -> GradedPresentation:
    """Moduli from the cyclic-subgroup census and the closed-form d-th
    orders: ``higher_order`` once per subgroup order, repeated once per
    subgroup of that order."""
    moduli = tuple(
        modulus
        for m, c in cyclic_subgroup_census(group)
        for modulus in itertools.repeat(higher_order(degree, m), c)
    )
    free_rank = len(moduli) if degree == 0 else 0
    return GradedPresentation(group, degree, moduli, free_rank)


def project_element(pres: GradedPresentation, g: GroupElement) -> tuple[int, int]:
    """Image of the bracket class of ``g``: the index of the summand for
    ``<g>`` and the coordinate ``n**d mod modulus``, where ``g = n*x`` for
    the canonical generator ``x``.

    Any valid ``n`` gives the same coordinate: n is unique mod o(x), and
    the modulus divides ``n**d``'s period. Degree 0 has no finite
    coordinate and is rejected.
    """
    if pres.degree == 0:
        raise ValueError("project_element needs a nonzero degree")
    group = pres.group
    idx = generated_record_index(group, g)
    rec, modulus = pres.summands[idx]
    x = rec.canonical_generator
    o = rec.subgroup_order
    n = next(
        m for m in range(1, o + 1) if gcd(m, o) == 1 and group.scale(m, x) == g
    )
    return idx, pow(n, pres.degree, modulus)


def hom_invariants(pres: GradedPresentation, target=Target.QZ) -> tuple[int, ...]:
    """Invariant factors of the homogeneous-function group of this degree
    into ``target``.

    ``target`` is ``Target.QZ`` (scalar case), ``Target.Z`` (degree 0
    only), or an invariant-factor chain of a finite abelian target. With a
    finite target the summands contribute ``gcd(a_i, b_j)`` over all pairs.
    A trailing-zeros chain result (only from degree 0) lists free ranks.
    """
    if pres.degree == 0:
        if target is not Target.Z:
            raise ValueError(
                "degree-0 homogeneous functions are taken with values in Z; "
                "pass Target.Z"
            )
        return (0,) * pres.free_rank
    if target is Target.Z:
        return ()  # no nonzero maps from a finite group into Z
    if target is Target.QZ:
        return invariant_factors_from_orders(pres.moduli)
    chain = tuple(int(b) for b in target)
    if any(b < 1 for b in chain):
        raise ValueError(f"finite target must have positive factors, got {chain}")
    pairs = [gcd(a, b) for a in pres.moduli for b in chain]
    return invariant_factors_from_orders(pairs)


def sylow_decomposition_invariants(group: Group, degree: int) -> tuple[int, ...]:
    """Scalar hom invariants assembled the long way round: one copy of each
    primary part's bracket per cyclic subgroup of its complement.

    An independent pipeline to ``hom_invariants(..., Target.QZ)``: the two
    must agree for every group and nonzero degree.
    """
    if degree == 0:
        raise ValueError("the primary decomposition route needs a nonzero degree")
    collected: list[int] = []
    for part in sylow_decompose(group):
        pres = graded_presentation(part.p_part, degree)
        collected.extend(list(pres.moduli) * part.q_complement)
    return invariant_factors_from_orders(collected)
