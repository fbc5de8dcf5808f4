"""Finite abelian groups presented as ``Z/n1 x ... x Z/nk``.

Elements are plain tuples of residues. How many cyclic subgroups there are
of each order follows from the factor orders alone
(``cyclic_subgroup_census``), and everything that needs only those counts
(brackets, their moduli and sizes, ``cyclic_subgroup_count``, the Sylow
complements' counts) reads them from there without touching an element.

The cyclic-subgroup scan is kept for the paths that name elements: group
listings, the cocyclic lattice columns, ``generated_record_index``,
function tables and transfers. Every element generates exactly one cyclic
subgroup, and the scan claims each element exactly once, so its cost is
the sum of the subgroup orders rather than ``|G|^2``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from .arith import factorize, vp

DEFAULT_CAP = 100_000

GroupElement = tuple[int, ...]


class GroupSpecError(ValueError):
    """Malformed group specification string."""


class CapExceededError(RuntimeError):
    """The requested group is larger than the configured order cap."""


class InternalInvariantError(RuntimeError):
    """A result failed an internal consistency check: a bug, not bad input."""


@dataclass(frozen=True)
class RationalResidue:
    """An element of Q/Z stored as a reduced fraction ``num/den`` in [0, 1).

    The denominator is exactly the additive order, so ``den == 1`` means the
    zero residue.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("denominator must be positive")
        if not 0 <= self.num < self.den:
            raise ValueError("residue must be reduced into [0, 1)")
        if gcd(self.num, self.den) != 1 and self.num != 0:
            raise ValueError(f"{self.num}/{self.den} is not in lowest terms")
        if self.num == 0 and self.den != 1:
            raise ValueError("zero residue must be written 0/1")

    @staticmethod
    def of(num: int, den: int) -> "RationalResidue":
        if den == 0:
            raise ZeroDivisionError("residue denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        return RationalResidue(num // g, den // g)

    @property
    def order(self) -> int:
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "RationalResidue") -> "RationalResidue":
        return RationalResidue.of(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalResidue":
        return RationalResidue.of(-self.num, self.den)

    def __sub__(self, other: "RationalResidue") -> "RationalResidue":
        return self + (-other)

    def __rmul__(self, n: int) -> "RationalResidue":
        if not isinstance(n, int):
            return NotImplemented
        return RationalResidue.of(n * self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


QZ_ZERO = RationalResidue(0, 1)


class Group:
    """``Z/n1 x ... x Z/nk`` with the factors exactly as presented.

    Two groups compare equal iff their presented factor tuples are equal;
    the canonical invariant-factor chain is computed once on construction
    (prime by prime from the factor orders) and shared by everything
    downstream.
    """

    __slots__ = ("factor_orders", "invariant_factors", "order", "exponent")

    def __init__(self, factor_orders, cap: int = DEFAULT_CAP):
        factors = tuple(int(n) for n in factor_orders)
        if not factors:
            factors = (1,)
        if any(n < 1 for n in factors):
            raise GroupSpecError(f"factor orders must be >= 1, got {factors}")
        order = prod(factors)
        if order > cap:
            raise CapExceededError(
                f"group order {order} exceeds the cap of {cap}"
            )
        self.factor_orders = factors
        self.order = order
        self.exponent = lcm(*factors)
        self.invariant_factors = invariant_factors_from_orders(factors)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.factor_orders == other.factor_orders

    def __hash__(self) -> int:
        return hash(self.factor_orders)

    def __repr__(self) -> str:
        return f"Group({self.spec!r})"

    @property
    def spec(self) -> str:
        return ",".join(str(n) for n in self.factor_orders)

    @property
    def canonical_spec(self) -> str:
        if not self.invariant_factors:
            return "1"
        return ",".join(str(n) for n in self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.factor_orders)

    # -- elements ---------------------------------------------------------

    @property
    def zero(self) -> GroupElement:
        return (0,) * len(self.factor_orders)

    def elements(self):
        """All elements in index order (row-major, last coordinate fastest)."""
        return itertools.product(*(range(n) for n in self.factor_orders))

    def element_index(self, g: GroupElement) -> int:
        self.validate_element(g)
        idx = 0
        for x, n in zip(g, self.factor_orders):
            idx = idx * n + x
        return idx

    def element_at(self, idx: int) -> GroupElement:
        if not 0 <= idx < self.order:
            raise ValueError(f"element index {idx} out of range")
        out = []
        for n in reversed(self.factor_orders):
            out.append(idx % n)
            idx //= n
        return tuple(reversed(out))

    def validate_element(self, g: GroupElement) -> None:
        if len(g) != len(self.factor_orders) or any(
            not 0 <= x < n for x, n in zip(g, self.factor_orders)
        ):
            raise ValueError(f"{g} is not an element of Z/{self.spec}")

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factor_orders))

    def scale(self, m: int, a: GroupElement) -> GroupElement:
        return tuple((m * x) % n for x, n in zip(a, self.factor_orders))


def parse_group_spec(text: str, cap: int = DEFAULT_CAP) -> Group:
    """Parse ``"n1,n2,..."`` into a group, e.g. ``"2,4"`` for Z/2 x Z/4."""
    if not isinstance(text, str) or not text.strip():
        raise GroupSpecError("empty group specification")
    factors = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdigit():
            raise GroupSpecError(
                f"bad factor {token!r} in group spec {text!r}: "
                "expected comma-separated positive integers"
            )
        n = int(token)
        if n < 1:
            raise GroupSpecError(f"factor {n} in {text!r} must be >= 1")
        factors.append(n)
    return Group(factors, cap=cap)


def element_order(group: Group, g: GroupElement) -> int:
    group.validate_element(g)
    return lcm(*(n // gcd(n, x) for x, n in zip(g, group.factor_orders)))


@dataclass(frozen=True)
class CyclicSubgroupRecord:
    """One cyclic subgroup: its lex-least generator and its order."""

    canonical_generator: GroupElement
    subgroup_order: int


@lru_cache(maxsize=None)
def _subgroup_scan(group: Group):
    raw = []
    claimed = [False] * group.order
    for idx in range(group.order):
        if claimed[idx]:
            continue
        gen = group.element_at(idx)
        o = element_order(group, gen)
        generator_indices = [
            group.element_index(group.scale(m, gen))
            for m in range(1, o + 1)
            if gcd(m, o) == 1
        ]
        for j in generator_indices:
            claimed[j] = True
        raw.append((o, gen, generator_indices))

    raw.sort(key=lambda item: (item[0], item[1]))
    records = []
    generated_by = [0] * group.order
    for pos, (o, gen, generator_indices) in enumerate(raw):
        records.append(CyclicSubgroupRecord(gen, o))
        for j in generator_indices:
            generated_by[j] = pos
    return tuple(records), tuple(generated_by)


def cyclic_subgroups(group: Group) -> tuple[CyclicSubgroupRecord, ...]:
    """All cyclic subgroups, sorted by (order, canonical generator)."""
    return _subgroup_scan(group)[0]


def generated_record_index(group: Group, g: GroupElement) -> int:
    """Index into ``cyclic_subgroups(group)`` of the subgroup ``<g>``."""
    return _subgroup_scan(group)[1][group.element_index(g)]


@lru_cache(maxsize=None)
def cyclic_subgroup_census(group: Group) -> tuple[tuple[int, int], ...]:
    """``((m, c_m), ...)``: the number c_m of cyclic subgroups of order m,
    for every divisor m of the exponent, in ascending order of m.

    No element is visited. #{x : m*x = 0} = prod gcd(m, n_i); inverting
    that over the divisors of m (Moebius) counts the elements of order
    exactly m, and each cyclic subgroup of order m has phi(m) generators.
    The inversion factors over the primes of the exponent: an element has
    order m exactly when its p-part has order p^v_p(m) for every p.
    """
    local = []  # per prime: (p^k, elements of order p^k, phi(p^k)), k = 0..a
    for p, a in sorted(factorize(group.exponent).items()):
        killed = [
            prod(gcd(p**k, n) for n in group.factor_orders) for k in range(a + 1)
        ]
        local.append(
            [(1, 1, 1)]
            + [
                (p**k, killed[k] - killed[k - 1], p**k - p ** (k - 1))
                for k in range(1, a + 1)
            ]
        )
    census = []
    for choice in itertools.product(*local):
        m = prod(pk for pk, _, _ in choice)
        exact = prod(count for _, count, _ in choice)
        phi = prod(t for _, _, t in choice)
        if exact % phi:
            raise InternalInvariantError(
                f"{exact} elements of order {m} in {group.spec} do not split "
                f"into cyclic subgroups of {phi} generators each"
            )
        census.append((m, exact // phi))
    census.sort()
    return tuple(census)


def cyclic_subgroup_count(group: Group) -> int:
    return sum(c for _, c in cyclic_subgroup_census(group))


def invariant_factors_from_orders(orders) -> tuple[int, ...]:
    """Canonical ascending divisor chain of ``+ Z/o`` over the multiset.

    ``0`` entries denote free summands and come back as trailing zeros.
    Works prime-by-prime, so it stays cheap for thousands of orders where
    building a diagonal relation matrix would not.
    """
    free = 0
    per_prime: dict[int, list[int]] = {}
    for o in orders:
        if o < 0:
            raise ValueError(f"summand order must be >= 0, got {o}")
        if o == 0:
            free += 1
            continue
        for p, e in factorize(o).items():
            per_prime.setdefault(p, []).append(e)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    slots = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for j in range(slots):
        d = 1
        for p, exps in per_prime.items():
            if j < len(exps):
                d *= p ** exps[j]
        chain.append(d)
    chain.reverse()
    return tuple(d for d in chain if d != 1) + (0,) * free


@dataclass(frozen=True)
class SylowPart:
    """One primary constituent of a group: the p-part, the complementary
    quotient (both in canonical presentation), and the complement's
    cyclic-subgroup count (from the census, no scan)."""

    prime: int
    p_part: Group
    complement: Group
    q_complement: int


def sylow_decompose(group: Group) -> list[SylowPart]:
    """Primary decomposition; empty for the trivial group."""
    parts = []
    for p in sorted(factorize(group.order)):
        p_orders = []
        c_orders = []
        for n in group.factor_orders:
            pk = p ** vp(n, p) if n % p == 0 else 1
            if pk > 1:
                p_orders.append(pk)
            if n // pk > 1:
                c_orders.append(n // pk)
        p_part = Group(invariant_factors_from_orders(p_orders))
        complement = Group(invariant_factors_from_orders(c_orders))
        parts.append(
            SylowPart(p, p_part, complement, cyclic_subgroup_count(complement))
        )
    return parts


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def all_abelian_groups(max_order: int, min_order: int = 1) -> list[Group]:
    """Every abelian group of order in range, one per isomorphism class,
    in canonical presentation, sorted by (order, invariant factors)."""
    out = []
    for n in range(max(min_order, 1), max_order + 1):
        per_prime = []
        for p, k in sorted(factorize(n).items()):
            per_prime.append([tuple(p**e for e in part) for part in _partitions(k)])
        for combo in itertools.product(*per_prime):
            orders = [o for group_part in combo for o in group_part]
            out.append(Group(invariant_factors_from_orders(orders)))
    out.sort(key=lambda g: (g.order, g.invariant_factors))
    return out
