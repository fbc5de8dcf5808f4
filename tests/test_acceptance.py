"""Acceptance gate: every shipped claim re-checked end to end, exact
integer equality throughout, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines as they complete.
"""

import functools
import io
import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import comb, gcd, prod

from homok.arith import divisors, is_prime
from homok.cli import main as cli_main
from homok.cocyclic import lattice_chains, sk1_invariants
from homok.groups import Group, all_abelian_groups
from homok.oracles import span_in_ambient
from homok.orders import higher_order, higher_order_oracle
from homok.snf import (
    cokernel_invariants,
    determinant,
    matmul,
    smith_normal_form,
)
from homok.verify import SUITES, run_suite

START = time.monotonic()


@functools.cache
def _verify_all() -> tuple[int, dict]:
    """``verify --suite all --json``, run once per session: its exit code
    and its report of each suite by name. Criteria 9, 12, 13, 14 and 15
    read it, and the first of them to run pays for it."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["verify", "--suite", "all", "--json"])
    return code, {e["suite"]: e for e in json.loads(out.getvalue())["suites"]}


def _suite_report(name: str) -> dict:
    """One suite's entry in the shared ``verify --suite all`` report; a
    suite missing from it fails its criterion."""
    entry = _verify_all()[1].get(name)
    assert entry is not None, f"suite {name} is missing from verify --suite all"
    return entry


def _report(number: int, ok: bool, label: str, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2}: {status}  {label}  [{seconds:.2f}s]")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_first_order_is_the_order():
    t0 = time.monotonic()
    ok = all(higher_order(1, k) == k for k in range(1, 501))
    ok = ok and all(higher_order_oracle(1, k) == k for k in range(1, 501))
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 1.0, "o_1(k) = k for k <= 500", elapsed)


def test_criterion_02_closed_form_vs_oracle():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 61):
        for d in itertools.chain(range(1, 25), range(-24, 0)):
            if higher_order(d, k) != higher_order_oracle(d, k):
                ok = False
    elapsed = time.monotonic() - t0
    _report(2, ok and elapsed < 60, "closed form = sampled gcd fold, k<=60 |d|<=24", elapsed)


def test_criterion_03_order_identity_clauses():
    t0 = time.monotonic()
    result = run_suite("lemma211")
    elapsed = time.monotonic() - t0
    _report(
        3,
        result.passed and result.checks > 90_000 and elapsed < 60,
        f"eleven order-identity clauses ({result.checks} checks)",
        elapsed,
    )


def test_criterion_04_factorial_valuations():
    t0 = time.monotonic()
    result = run_suite("lemma212")
    elapsed = time.monotonic() - t0
    _report(
        4,
        result.passed and result.checks == 3246,
        f"factorial valuations and digit-sum bound ({result.checks} checks)",
        elapsed,
    )


def test_criterion_05_exhaustive_function_counts():
    t0 = time.monotonic()
    result = run_suite("prop29")
    elapsed = time.monotonic() - t0
    _report(
        5,
        result.passed and result.checks == 390 and elapsed < 300,
        f"exhaustive homogeneous-table counts, |G|<=9 ({result.checks} cells)",
        elapsed,
    )


def test_criterion_06_sylow_assembly_of_brackets():
    t0 = time.monotonic()
    result = run_suite("thm213")
    elapsed = time.monotonic() - t0
    _report(
        6,
        result.passed and elapsed < 300,
        f"primary assembly = direct invariants, |G|<=360 ({result.checks} cases)",
        elapsed,
    )


def test_criterion_07_degree_one_duality():
    t0 = time.monotonic()
    result = run_suite("cor214")
    elapsed = time.monotonic() - t0
    _report(
        7,
        result.passed and result.checks == 2 * 389,
        f"degree-1 invariants = cyclic subgroup orders, |G|<=200 ({result.checks})",
        elapsed,
    )


# -- criterion 8: the quotient in the forced cases --------------------------


def _field_lines(p: int, rank: int) -> list[tuple[int, ...]]:
    """One normalized generator per line of GF(p)^rank (first nonzero 1)."""
    lines = []
    for v in itertools.product(range(p), repeat=rank):
        if not any(v):
            continue
        lead = next(c for c in v if c)
        if lead == 1:
            lines.append(v)
    return lines


def _gf_rank(rows: list[list[int]], p: int) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(inv * x) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _elementary_quotient_corank(p: int, rank: int) -> int:
    """Corank of the span of extended-character vectors inside the span of
    all lines, entirely by finite-field linear algebra — no package
    machinery involved beyond arithmetic."""
    lines = _field_lines(p, rank)
    subgroups = [None]  # None stands for the whole group
    for w in lines:
        subgroups.append(w)  # the hyperplane w . x = 0
    rows = []
    for k in subgroups:
        for chi in itertools.product(range(p), repeat=rank):
            row = []
            for g in lines:
                inside = k is None or sum(a * b for a, b in zip(k, g)) % p == 0
                row.append(sum(a * b for a, b in zip(chi, g)) % p if inside else 0)
            rows.append(row)
    return len(lines) - _gf_rank(rows, p)


def test_criterion_08_forced_quotients():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 101, 2):
        if sk1_invariants(Group((n,))).quotient_invariants != ():
            ok = False
    for p in (3, 5, 7):
        if sk1_invariants(Group((p, p))).quotient_invariants != ():
            ok = False
    corank = _elementary_quotient_corank(3, 3)
    got = sk1_invariants(Group((3, 3, 3))).quotient_invariants
    ok = ok and got == (3,) * corank == (3, 3, 3)
    elapsed = time.monotonic() - t0
    _report(
        8,
        ok,
        f"forced quotient cases; (Z/3)^3 corank {corank} by field rank",
        elapsed,
    )


def test_criterion_09_quotient_sylow_shape():
    # thm216 counts only the groups that sk1 does not read off the lattice:
    # of order <= 200, 278 mixed orders, 8 elementary groups of rank >= 3,
    # and 61 cyclic p-groups (the trivial group among them) and 8 groups
    # C_p x C_(p^b), b >= 2, whose lattice is the whole group; for any other
    # p-group sk1_invariants is lattice_chains itself
    t0 = time.monotonic()

    def chains(group):
        report = sk1_invariants(group)
        return report.quotient_invariants, report.coc_invariants

    ok = all(chains(g) == lattice_chains(g) for g in all_abelian_groups(200))
    mixed = sk1_invariants(Group((3, 3, 3, 5)))
    ok = ok and mixed.quotient_invariants == (3,) * 6
    ok = ok and [
        (part.prime, sk1_invariants(part.p_part).quotient_invariants,
         mixed.q_counts[part.prime])
        for part in mixed.sylow_parts
    ] == [(3, (3, 3, 3), 2), (5, (), 14)]
    thm216 = _suite_report("thm216")
    ok = ok and thm216["passed"] and thm216["checks"] == 278 + 8 + 61 + 8
    elapsed = time.monotonic() - t0
    _report(
        9,
        ok,
        "quotient and lattice assemble over primes, |G|<=200; "
        f"(3,3,3,5) multiplicity 2; thm216 ({thm216['checks']} checks)",
        elapsed,
    )


def test_criterion_10_transfer_laws():
    t0 = time.monotonic()
    result = run_suite("prop32")
    elapsed = time.monotonic() - t0
    _report(
        10,
        result.passed and elapsed < 300,
        f"transfer laws on 200 seeded degree-1 maps ({result.checks} checks)",
        elapsed,
    )


def test_criterion_11_smith_form_properties():
    t0 = time.monotonic()
    rng = random.Random(20260822)
    ok = True
    for _ in range(500):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        mat = [[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(rows)]
        u, s, v = smith_normal_form(mat)
        if matmul(matmul(u, mat), v) != s:
            ok = False
        if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
            ok = False
        diag = [s[i][i] for i in range(min(rows, cols))]
        if any(d < 0 for d in diag):
            ok = False
        for a, b in zip(diag, diag[1:]):
            if (b % a if a else b) != 0:
                ok = False
        if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
            ok = False

    checked = 0
    while checked < 100:
        moduli = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 25]) for _ in range(rng.randrange(1, 4))]
        if prod(moduli) > 200:
            continue
        checked += 1
        gens = [[rng.randrange(m) for m in moduli] for _ in range(rng.randrange(0, 4))]
        span = span_in_ambient(gens, moduli)
        quotient = cokernel_invariants(gens, moduli)
        ambient = list(itertools.product(*(range(m) for m in moduli)))
        if prod(quotient) * len(span) != len(ambient):
            ok = False
        exponent = 1
        for m in moduli:
            exponent = exponent * m // gcd(exponent, m)
        for e in divisors(exponent):
            killed = sum(
                1
                for x in ambient
                if tuple((e * c) % m for c, m in zip(x, moduli)) in span
            ) // len(span)
            if prod(gcd(dd, e) for dd in quotient) != killed:
                ok = False
    elapsed = time.monotonic() - t0
    _report(
        11,
        ok,
        "Smith form on 500 seeded matrices; cokernels vs quotient census",
        elapsed,
    )


def test_criterion_12_cli_determinism():
    t0 = time.monotonic()
    outputs = set()
    for spec in ("3,9,5", "3,9,5", "9,3,5", "5,3,9"):
        proc = subprocess.run(
            [sys.executable, "-m", "homok", "sk1", "--group", spec, "--json"],
            capture_output=True,
            check=True,
        )
        outputs.add(proc.stdout)
    ok = len(outputs) == 1

    code, suites = _verify_all()
    ok = ok and code == 0 and list(suites) == list(SUITES)
    ok = ok and all(entry["passed"] for entry in suites.values())
    total = time.monotonic() - START
    elapsed = time.monotonic() - t0
    _report(
        12,
        ok and total < 900,
        f"byte-identical sk1 output; all suites pass (total {total:.0f}s)",
        elapsed,
    )


def test_criterion_13_elementary_quotient_matches_ados():
    # Alperin, Dennis, Oliver, Stein, "SK_1 of finite abelian groups I"
    # (Invent. Math. 87, 1987): SK_1(Z[(C_p)^k]) is (Z/p)^N with
    # N = (p^k - 1)/(p - 1) - C(p + k - 1, p), a formula from outside this
    # package; sk1_invariants takes it in closed form from rank 3 on, so the
    # computed side is the lattice's own F_p rank (lattice_chains); the
    # ados suite, with every odd p and p^k <= 6561, reads the shared
    # verify --suite all report
    t0 = time.monotonic()
    cases = [
        (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
        (3, 7), (3, 8),
        (5, 2), (5, 3), (5, 4), (5, 5),
        (7, 2), (7, 3), (7, 4),
        (11, 3),
    ]
    ok = True
    for p, k in cases:
        n = (p**k - 1) // (p - 1) - comb(p + k - 1, p)
        if lattice_chains(Group((p,) * k))[0] != (p,) * n:
            ok = False
    ados = _suite_report("ados")
    ok = ok and ados["passed"] and ados["checks"] == 35
    elapsed = time.monotonic() - t0
    _report(
        13,
        ok,
        "elementary F_p-rank quotients = ADOS formula on 3^2..3^8, 5^2..5^5, "
        f"7^2..7^4, 11^3; ados suite ({ados['checks']} checks)",
        elapsed,
    )


def test_criterion_14_odd_quotients_match_ados():
    # Alperin, Dennis, Oliver, Stein (Invent. Math. 87, 1987), and R. Oliver,
    # "Whitehead Groups of Finite Groups" (1988), ch. 9: for odd |G|,
    # SK_1(Z[G]) = 0 exactly when every Sylow subgroup is C_(p^n) or
    # C_p x C_(p^n), and SK_1(Z[C_(p^2) x C_(p^2)]) is (Z/p)^(p-1); the
    # suite's run is the shared verify --suite all
    t0 = time.monotonic()
    result = _suite_report("ados-odd")
    elapsed = time.monotonic() - t0
    _report(
        14,
        result["passed"] and result["checks"] == 256 + 4,
        "SK1 vanishing on the 256 odd groups of order <= 400; "
        "(p^2, p^2) quotients = (p)^(p-1) for p = 3, 5, 7, 11",
        elapsed,
    )


def test_criterion_15_presentation_invariance():
    # the hmg, coc and sk1 chains do not depend on how the group is
    # presented, though the columns, rows and their order do; each
    # presentation's own lattice is computed in process, since the result
    # cache is keyed by the group and sk1_invariants assembles mixed orders
    # from the canonical p-parts; the suite's run is the shared
    # verify --suite all
    t0 = time.monotonic()
    result = _suite_report("presentations")
    elapsed = time.monotonic() - t0
    _report(
        15,
        result["passed"] and result["checks"] == 641,
        "sk1 chains equal on 639 seeded presentations of the groups of "
        "order <= 200; (27,9,3,9) and (27,9,9) against canonical",
        elapsed,
    )


def test_all_is_prime_consistency():
    # tiny guard for the helpers this module leans on
    assert [p for p in range(2, 32) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
