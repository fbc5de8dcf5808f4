"""Answer checks for the benchmark, independent of the code under test.

Each check takes the JSON document one CLI call printed and returns a list
of problems (empty when the answer is right). Predictions come from the
factor orders alone:

- canonical spec: invariant factors, merged prime by prime;
- bracket moduli: the number of cyclic subgroups of order m is
  c_m = #{x : o(x) = m} / phi(m), where #{x : m*x = 0} = prod gcd(m, n_i),
  and each contributes one summand of order o_d(m);
- o_d(k): the gcd of (1 + t*k)^|d| - 1 over enough t to settle it;
- SK1 of (C_p)^k: (Z/p)^N with N = (p^k - 1)/(p - 1) - C(p + k - 1, p)
  (Alperin, Dennis, Oliver, Stein, Invent. Math. 87, 1987).

The transfer check is the one exception: it compares the closed form with
the literal preimage summation ``homok.transfer.preimage_sum``.
"""

from __future__ import annotations

from math import comb, gcd, prod

PREIMAGE_LIMIT = 20_000


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Ascending divisor chain of the direct sum of Z/o; zeros (free
    summands) come back as trailing zeros and units are dropped."""
    free = 0
    per_prime: dict[int, list[int]] = {}
    for o in orders:
        if o == 0:
            free += 1
            continue
        for p, e in factorize(o).items():
            per_prime.setdefault(p, []).append(p**e)
    for powers in per_prime.values():
        powers.sort(reverse=True)
    chain = []
    for j in range(max((len(v) for v in per_prime.values()), default=0)):
        d = 1
        for powers in per_prime.values():
            if j < len(powers):
                d *= powers[j]
        chain.append(d)
    return tuple(reversed(chain)) + (0,) * free


def canonical_spec(factors) -> str:
    return ",".join(map(str, invariant_factors(factors))) or "1"


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _mobius(n: int) -> int:
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def _phi(n: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(n).items())


def cyclic_census(factors) -> dict[int, int]:
    """Number of cyclic subgroups of each order m."""
    exponent = 1
    for n in factors:
        exponent = exponent * n // gcd(exponent, n)
    killed = {m: prod(gcd(m, n) for n in factors) for m in _divisors(exponent)}
    census = {}
    for m in killed:
        exact = sum(_mobius(m // k) * killed[k] for k in _divisors(m))
        if exact:
            census[m] = exact // _phi(m)
    return census


def higher_order(d: int, k: int) -> int:
    if d == 0:
        return 0
    value = 0
    for t in range(1, 2 * abs(d) + 16):
        value = gcd(value, (1 + t * k) ** abs(d) - 1)
    return value


def bracket_moduli(factors, d: int) -> list[int]:
    census = cyclic_census(factors)
    return sorted(x for m, c in census.items() for x in [higher_order(d, m)] * c)


def ados_rank(p: int, k: int) -> int:
    return (p**k - 1) // (p - 1) - comb(p + k - 1, p)


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_sk1(doc: dict, factors) -> list[str]:
    problems: list[str] = []
    _expect(problems, "group", doc.get("group"), canonical_spec(factors))
    hmg, coc, sk1 = doc.get("hmg", []), doc.get("coc", []), doc.get("sk1", [])
    _expect(problems, "hmg", tuple(hmg), invariant_factors(bracket_moduli(factors, 1)))
    _expect(problems, "|hmg| = |coc|*|sk1|", prod(hmg), prod(coc) * prod(sk1))
    order = prod(factors)
    _expect(problems, "theorem_4_1_applies", doc.get("theorem_4_1_applies"), order % 2 == 1)
    q_counts = {}
    for p in sorted(factorize(order)):
        complement = [n // p ** factorize(n).get(p, 0) for n in factors]
        q_counts[str(p)] = sum(cyclic_census(complement).values())
    _expect(problems, "q_counts", doc.get("q_counts"), q_counts)
    p = factors[0]
    if len(set(factors)) == 1 and factorize(p) == {p: 1}:
        _expect(problems, "sk1 (ADOS)", sk1, [p] * ados_rank(p, len(factors)))
    return problems


def check_bracket(cmd: str, doc: dict, factors, d: int) -> list[str]:
    """``hmg`` (scalar target) or ``gd`` at degree d."""
    problems: list[str] = []
    moduli = bracket_moduli(factors, d)
    _expect(problems, "group", doc.get("group"), canonical_spec(factors))
    _expect(problems, "degree", doc.get("degree"), d)
    _expect(problems, "invariants", tuple(doc.get("invariants", ())), invariant_factors(moduli))
    if cmd == "gd":
        _expect(problems, "moduli", doc.get("moduli"), moduli)
        if d == 0:
            _expect(problems, "free_rank", doc.get("free_rank"), len(moduli))
        else:
            _expect(problems, "size", doc.get("size"), prod(moduli))
    else:
        _expect(problems, "order", doc.get("order"), prod(moduli))
    return problems


def check_transfer(doc: dict, job: dict) -> list[str]:
    """Bracket moduli from the census; the transfer of f against the
    literal preimage sum wherever the source bracket is small."""
    # imported here: only the worker, not the parent run, has homok on its path
    from homok.functions import FunctionTable
    from homok.groups import RationalResidue, parse_group_spec
    from homok.transfer import induced_graded_map, preimage_sum

    problems: list[str] = []
    source = [int(n) for n in job["source"].split(",")]
    target = [int(n) for n in job["target"].split(",")]
    src_moduli = bracket_moduli(source, job["d"])
    _expect(problems, "source_moduli", sorted(doc.get("source_moduli", [])), src_moduli)
    _expect(problems, "target_moduli", sorted(doc.get("target_moduli", [])),
            bracket_moduli(target, job["d"]))
    if prod(src_moduli) > PREIMAGE_LIMIT:
        return problems
    g_src, g_tgt = parse_group_spec(job["source"]), parse_group_spec(job["target"])
    values = tuple(tuple(v) for v in job["t_values"])
    mapping = induced_graded_map(FunctionTable(g_src, job["d"], values, g_tgt))
    f = tuple(
        RationalResidue.of(c, m) if m > 1 else RationalResidue(0, 1)
        for c, m in zip(job["f_coords"], mapping.source.moduli)
    )
    literal = [str(preimage_sum(mapping, f, j)) for j in range(len(mapping.target.moduli))]
    _expect(problems, "transfer", doc.get("transfer"), literal)
    return problems
