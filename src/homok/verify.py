"""Verification suites: each re-checks one of the structural results on a
fixed grid and reports counterexamples instead of raising.

Every suite is a generator of ``(ok, detail)`` pairs; the runner counts
checks and stops at the first failure, whose detail is the counterexample.
"""

from __future__ import annotations

import inspect
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from .arith import divisors, factorize, is_prime, vp
from .bracket import graded_presentation, hom_invariants, \
    sylow_decomposition_invariants
from .cocyclic import Route, lattice_chains, sk1_invariants, sk1_route
from .functions import FunctionTable, from_generator_values
from .groups import (
    Group,
    GroupSpecError,
    RationalResidue,
    all_abelian_groups,
    cyclic_subgroups,
    element_order,
    invariant_factors_from_orders,
)
from .oracles import count_homogeneous_tables
from .orders import higher_order, higher_order_oracle, vp_factorial
from .transfer import (
    TransferError,
    induced_graded_map,
    preimage_sum,
    pullback,
    transfer_apply,
)

MAX_K = 60
MAX_D = 24


@dataclass(frozen=True)
class SuiteResult:
    checks: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def order_identities(kmax: int = MAX_K, dmax: int = MAX_D):
    """The eleven arithmetic clauses for the higher orders o_d(k), on the
    grid k <= kmax, d <= dmax (negatives through the symmetry clause)."""
    ks = range(1, kmax + 1)
    ds = range(1, dmax + 1)

    # (1) monotone in both arguments, by divisibility
    for l in ks:
        for k in divisors(l):
            for d in ds:
                ok = higher_order(d, l) % higher_order(d, k) == 0
                yield ok, f"o_{d}({k}) does not divide o_{d}({l})"
    for d in ds:
        for b in divisors(d):
            for k in ks:
                ok = higher_order(d, k) % higher_order(b, k) == 0
                yield ok, f"o_{b}({k}) does not divide o_{d}({k})"

    for d in ds:
        for k in ks:
            odk = higher_order(d, k)
            # (3) k divides o_d(k)
            yield odk % k == 0, f"{k} does not divide o_{d}({k}) = {odk}"
            # (2) primes of o_d(k) divide k
            for p in factorize(odk):
                yield k % p == 0, f"prime {p} of o_{d}({k}) = {odk} misses {k}"
            # (4) primes of o_d(k)/k divide d
            for p in factorize(odk // k):
                yield d % p == 0, f"prime {p} of o_{d}({k})/{k} misses d={d}"
            # (5)/(6) valuations at each prime of k
            for p in factorize(k):
                have = vp(odk, p)
                base = vp(k, p) + vp(d, p)
                if p == 2:
                    yield have >= base, (
                        f"v_2(o_{d}({k})) = {have} < v_2(k)+v_2(d) = {base}"
                    )
                    yield have <= base + 1, (
                        f"v_2(o_{d}({k})) = {have} > v_2(k)+v_2(d)+1 = {base + 1}"
                    )
                    # equality case sharpened: k = 2 mod 4 alone is not
                    # enough, the degree must be even as well
                    want_eq = k % 4 == 2 and d % 2 == 0
                    yield (have == base + 1) == want_eq, (
                        f"v_2 equality case wrong at k={k}, d={d}: "
                        f"v_2(o) = {have}, bound = {base + 1}"
                    )
                else:
                    yield have == base, (
                        f"v_{p}(o_{d}({k})) = {have} != v_{p}(k)+v_{p}(d) = {base}"
                    )

    # (7) submultiplicative over coprime k
    for k in ks:
        for k2 in range(k, kmax + 1):
            if gcd(k, k2) != 1:
                continue
            for d in ds:
                ok = higher_order(d, k * k2) <= higher_order(d, k) * higher_order(d, k2)
                yield ok, f"o_{d}({k * k2}) > o_{d}({k}) * o_{d}({k2})"

    # (8) multiplicative over coprime d, after dividing out k
    for d in ds:
        for d2 in range(d, dmax + 1):
            if gcd(d, d2) != 1:
                continue
            for k in ks:
                ok = higher_order(d * d2, k) * k == higher_order(d, k) * higher_order(
                    d2, k
                )
                yield ok, (
                    f"o_{d * d2}({k})/{k} != (o_{d}({k})/{k}) * (o_{d2}({k})/{k})"
                )

    # (9) prime-power degrees against the independent gcd fold
    prime_powers = [
        (p, s)
        for p in range(2, dmax + 1)
        if is_prime(p)
        for s in range(1, dmax + 1)
        if p**s <= dmax
    ]
    for p, s in prime_powers:
        for k in ks:
            stated = (
                k * gcd(p, k) ** s
                if p % 2
                else k * gcd(2, k) ** (s - 1) * gcd(4, 2 + k)
            )
            sampled = higher_order_oracle(p**s, k)
            yield higher_order(p**s, k) == stated == sampled, (
                f"o_{p**s}({k}): closed form {higher_order(p ** s, k)}, "
                f"stated {stated}, gcd fold {sampled}"
            )

    # (10) lcm and gcd laws in the degree
    for d in ds:
        for d2 in range(d, dmax + 1):
            for k in ks:
                a, b = higher_order(d, k), higher_order(d2, k)
                ok = lcm(a, b) == higher_order(lcm(d, d2), k)
                yield ok, f"lcm(o_{d}({k}), o_{d2}({k})) != o_lcm({k})"
                ok = gcd(a, b) == higher_order(gcd(d, d2), k)
                yield ok, f"gcd(o_{d}({k}), o_{d2}({k})) != o_gcd({k})"

    # (11) sign symmetry
    for d in ds:
        for k in ks:
            yield higher_order(d, k) == higher_order(-d, k), (
                f"o_{d}({k}) != o_{-d}({k})"
            )


def factorial_valuations():
    """Legendre's formula against direct factorials, and the strict bound
    on the digit sums with its exact equality case."""
    primes = [p for p in range(2, 14) if is_prime(p)]
    for p in primes:
        for n in range(31):
            direct = vp(factorial(n), p) if n else 0
            yield vp_factorial(n, p) == direct, (
                f"v_{p}({n}!) = {direct}, formula gives {vp_factorial(n, p)}"
            )
    for p in primes:
        for i in range(2, 257):
            s = vp_factorial(i, p)
            yield s <= i - 1, f"sum_j [{i}/{p}^j] = {s} exceeds {i - 1}"
            power_of_two = p == 2 and i & (i - 1) == 0
            yield (s == i - 1) == power_of_two, (
                f"equality case wrong at p={p}, i={i}: sum = {s}"
            )


def homogeneous_counts():
    """Number of homogeneous tables into Z/m by blind backtracking versus
    the structural product of gcds, for |G| <= 9, 0 <= d <= 4, m <= 6.

    The product runs over the element scan's records, not over the census
    that the brackets are built from, so this suite does not rest on it."""
    for group in all_abelian_groups(9):
        records = cyclic_subgroups(group)
        for d in range(5):
            for m in range(1, 7):
                counted = count_homogeneous_tables(group, d, m)
                expected = prod(
                    gcd(higher_order(d, rec.subgroup_order), m) for rec in records
                )
                yield counted == expected, (
                    f"G = {group.spec}, d = {d}, m = {m}: enumeration found "
                    f"{counted} homogeneous tables, structure predicts {expected}"
                )


def sylow_assembly():
    """Degree-d invariants assembled prime by prime versus computed
    directly, for |G| <= 360 and a spread of degrees."""
    for group in all_abelian_groups(360):
        for d in (1, 2, 3, 6, -1):
            direct = hom_invariants(graded_presentation(group, d))
            assembled = sylow_decomposition_invariants(group, d)
            yield assembled == direct, (
                f"G = {group.spec}, d = {d}: assembled {assembled}, "
                f"direct {direct}"
            )


def degree_one_duality():
    """Degree-1 scalar invariants are exactly the cyclic subgroup orders,
    canonicalized — one dual summand per cyclic subgroup, |G| <= 200.

    The invariants come from the cyclic-subgroup census and the orders from
    the element scan: this suite is the census's oracle."""
    for group in all_abelian_groups(200):
        orders = [rec.subgroup_order for rec in cyclic_subgroups(group)]
        inv = hom_invariants(graded_presentation(group, 1))
        yield inv == invariant_factors_from_orders(orders), (
            f"G = {group.spec}: invariants {inv} do not match the subgroup "
            f"orders {sorted(orders)}"
        )
        yield prod(inv) == prod(orders), (
            f"G = {group.spec}: invariant product != product of subgroup orders"
        )


def cocyclic_assembly():
    """The quotient and coc chains that ``sk1_invariants`` assembles from
    Sylow parts or takes by a rule (every route of ``sk1_route`` but
    ``LATTICE``) equal those of the whole group's lattice for every such
    |G| <= 200."""
    for group in all_abelian_groups(200):
        if sk1_route(group) is Route.LATTICE:
            continue
        report = sk1_invariants(group)
        got = (report.quotient_invariants, report.coc_invariants)
        direct = lattice_chains(group)
        yield got == direct, (
            f"G = {group.spec}: (quotient, coc) {got} by sk1_invariants vs"
            f" {direct} by the lattice"
        )


def ados_formula():
    """Elementary abelian quotients of ``lattice_chains`` against a formula
    from outside this package: for odd p, SK1(Z[(C_p)^k]) is (Z/p)^N with
    N = (p^k - 1)/(p - 1) - C(p + k - 1, p) (Alperin, Dennis, Oliver, Stein,
    "SK_1 of finite abelian groups, I", Invent. Math. 87, 1987), on every
    odd p and k >= 2 with p^k <= 6561 = 3^8 (k = 1 is cyclic, N = 0)."""
    for p in range(3, 82):
        if not is_prime(p):
            continue
        k = 2
        while p**k <= 6561:
            n = (p**k - 1) // (p - 1) - comb(p + k - 1, p)
            got = lattice_chains(Group((p,) * k))[0]
            yield got == (p,) * n, (
                f"G = ({p})^{k}: quotient {got}, ADOS predicts ({p})^{n}"
            )
            k += 1


def ados_odd():
    """Odd groups against two statements from outside this package (ADOS,
    Invent. Math. 87, 1987, as above; R. Oliver, "Whitehead Groups of Finite
    Groups", 1988, ch. 9): for odd |G| <= 400, SK1(Z[G]) = 0 exactly when
    every Sylow subgroup is C_(p^n) or C_p x C_(p^n), that is when G has at
    most two invariant factors and the first of two is squarefree; and
    SK1(Z[C_(p^2) x C_(p^2)]) is (Z/p)^(p-1) for p = 3, 5, 7, 11.
    ``sk1_invariants`` takes most of the vanishing by a rule, so the
    computed side is the whole group's lattice, ``lattice_chains``."""
    for group in all_abelian_groups(400):
        if group.order % 2 == 0:
            continue
        inv = group.invariant_factors
        vanishes = len(inv) < 2 or (
            len(inv) == 2 and max(factorize(inv[0]).values()) == 1)
        got = lattice_chains(group)[0]
        yield (got == ()) == vanishes, (
            f"G = {group.spec}: quotient {got}, ADOS: vanishes = {vanishes}"
        )
    for p in (3, 5, 7, 11):
        got = lattice_chains(Group((p * p, p * p)))[0]
        yield got == (p,) * (p - 1), f"G = ({p * p})^2: quotient {got}"


def _presentations(rng, group: Group):
    """Three seeded presentations of ``group``: its factors split into
    prime powers, some merged back into a coprime factor, and shuffled."""
    parts = [p**k for n in group.factor_orders for p, k in factorize(n).items()]
    for _ in range(3):
        rng.shuffle(parts)
        merged: list[int] = []
        for pk in parts:
            i = next((i for i, m in enumerate(merged) if gcd(m, pk) == 1), None)
            if i is not None and rng.random() < 0.5:
                merged[i] *= pk
            else:
                merged.append(pk)
        rng.shuffle(merged)
        yield Group(merged)


def presentation_invariance(seed: int = 2207):
    """A group's own lattice is read off its presented factors (columns,
    rows and their order), but its chains depend on the group alone: every
    presentation from ``_presentations`` that differs from the canonical
    one, for |G| <= 200, and (27,9,3,9), (27,9,9) against (3,9,9,27),
    (9,9,27), must give the canonical presentation's hmg, coc and sk1."""
    rng = random.Random(seed)
    pairs = [
        (group, other)
        for group in all_abelian_groups(200)
        for other in _presentations(rng, group)
        if other != group
    ]
    pairs += [
        (Group((3, 9, 9, 27)), Group((27, 9, 3, 9))),
        (Group((9, 9, 27)), Group((27, 9, 9))),
    ]
    # not sk1_invariants: it assembles mixed orders from canonical p-parts
    @lru_cache(maxsize=None)
    def chains(g: Group):
        quotient, coc = lattice_chains(g)
        return hom_invariants(graded_presentation(g, 1)), coc, quotient

    for group, other in pairs:
        want, got = chains(group), chains(other)
        same_group = other.invariant_factors == group.invariant_factors
        yield same_group and got == want, (
            f"G = {group.spec} presented as {other.spec}: (hmg, coc, sk1) "
            f"{got}, canonical {want}"
        )


def _random_degree_one_map(rng, src: Group, dst: Group) -> FunctionTable:
    pres = graded_presentation(src, 1)
    elems = list(dst.elements())
    images = []
    for rec, _ in pres.summands:
        pool = [w for w in elems if rec.subgroup_order % element_order(dst, w) == 0]
        images.append(rng.choice(pool))
    return from_generator_values(pres, tuple(images), dst)


def _unit_scaling(rng, group: Group) -> FunctionTable:
    e = group.exponent
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    u = rng.choice(units)
    values = tuple(group.scale(u, x) for x in group.elements())
    return FunctionTable(group, 1, values, group)


def _hom_samples(rng, moduli, exhaustive_below=730):
    total = prod(moduli)
    if total <= exhaustive_below:
        pools = [
            [RationalResidue.of(a, m) for a in range(m)] for m in moduli
        ]
        yield from itertools.product(*pools)
    else:
        for _ in range(5):
            yield tuple(RationalResidue.of(rng.randrange(m), m) for m in moduli)


def transfer_laws(seed: int = 3202608):
    """Composition laws of the transfer on 200 seeded degree-1 maps between
    odd groups of order <= 81 (every 8th instance is an injective unit
    scaling so the injectivity law is exercised non-vacuously)."""
    rng = random.Random(seed)
    pool = [g for g in all_abelian_groups(81) if g.order % 2]
    literal_runs = 0
    for idx in range(200):
        if idx % 8 == 0:
            src = rng.choice(pool)
            table = _unit_scaling(rng, src)
            dst = src
        else:
            src = rng.choice(pool)
            dst = rng.choice(pool)
            table = _random_degree_one_map(rng, src, dst)
        label = f"t: {src.spec} -> {dst.spec} (instance {idx})"
        try:
            m = induced_graded_map(table)
        except TransferError as exc:
            yield False, f"{label}: degree-1 audit refused the map: {exc}"
            continue
        yield True, label

        src_size = prod(m.source.moduli)

        # composing back with the pullback multiplies by the kernel size
        for f in _hom_samples(rng, m.source.moduli):
            back = pullback(m, transfer_apply(m, f))
            want = tuple(m.kernel_size * v for v in f)
            yield back == want, (
                f"{label}: pullback(transfer(f)) != kernel_size * f at f = "
                f"{[str(v) for v in f]}"
            )

        # the other composition scales hit summands and kills missed ones
        for g_coords in _hom_samples(rng, m.target.moduli):
            out = transfer_apply(m, pullback(m, g_coords))
            for j, v in enumerate(out):
                if m.sections[j] is None:
                    ok = v.is_zero()
                else:
                    ok = v == m.kernel_size * g_coords[j]
                yield ok, (
                    f"{label}: transfer(pullback(g)) wrong at target summand "
                    f"{j}: got {v}"
                )

        # the closed form must match the literal preimage summation
        if src_size <= 6000:
            literal_runs += 1
            f = tuple(
                RationalResidue.of(rng.randrange(a), a) for a in m.source.moduli
            )
            fast = transfer_apply(m, f)
            for j in range(len(m.target.moduli)):
                lit = preimage_sum(m, f, j)
                yield lit == fast[j], (
                    f"{label}: literal sum {lit} != closed form {fast[j]} at "
                    f"target summand {j}"
                )

        # injective tables transfer injectively
        if len(set(table.values)) == src.order:
            if src_size <= 6000:
                zero = tuple(RationalResidue(0, 1) for _ in m.target.moduli)
                kernel = sum(
                    1
                    for f in _hom_samples(rng, m.source.moduli, exhaustive_below=src_size)
                    if transfer_apply(m, f) == zero
                )
                yield kernel == 1, (
                    f"{label}: injective table, transfer kernel has {kernel} "
                    f"elements"
                )
            else:
                covered = all(
                    m.sections[j] == (i, m.sections[j][1])
                    for i, (j, _) in enumerate(m.images)
                    if m.source.moduli[i] > 1
                )
                yield m.kernel_size == 1 and covered, (
                    f"{label}: injective table, but kernel_size = "
                    f"{m.kernel_size} or a nontrivial summand is not a section"
                )
    yield literal_runs >= 30, (
        f"only {literal_runs} instances were small enough for the literal "
        f"cross-check"
    )


SUITES = {
    "lemma211": order_identities,
    "lemma212": factorial_valuations,
    "prop29": homogeneous_counts,
    "thm213": sylow_assembly,
    "cor214": degree_one_duality,
    "thm216": cocyclic_assembly,
    "prop32": transfer_laws,
    "ados": ados_formula,
    "ados-odd": ados_odd,
    "presentations": presentation_invariance,
}


def suite_parameters(name: str) -> frozenset[str]:
    """The keyword parameters (kmax, dmax, seed, ...) that a suite takes."""
    try:
        gen = SUITES[name]
    except KeyError:
        raise GroupSpecError(
            f"unknown suite {name!r}; available: {', '.join(SUITES)}"
        ) from None
    return frozenset(inspect.signature(gen).parameters)


def run_suite(name: str, **params) -> SuiteResult:
    """Run one suite up to its first failing check. Extra keyword
    parameters (kmax, dmax, seed, ...) are forwarded when the suite takes
    them; one it does not take is rejected before any check runs."""
    accepted = suite_parameters(name)
    kwargs = {k: v for k, v in params.items() if v is not None}
    for k in kwargs:
        if k not in accepted:
            raise GroupSpecError(f"suite {name!r} does not take a {k!r} parameter")
    checks = 0
    for ok, detail in SUITES[name](**kwargs):
        checks += 1
        if not ok:
            return SuiteResult(checks, detail)
    return SuiteResult(checks)
