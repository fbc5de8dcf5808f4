"""Acceptance gate: every shipped claim re-checked end to end, exact
integer equality throughout, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines as they complete.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from math import comb, gcd, prod

from homok.arith import divisors, is_prime
from homok.cli import main as cli_main
from homok.cocyclic import sk1_invariants, sk1_sylow_check
from homok.groups import Group, all_abelian_groups
from homok.oracles import span_in_ambient
from homok.orders import higher_order, higher_order_oracle
from homok.snf import (
    cokernel_invariants,
    determinant,
    matmul,
    smith_normal_form,
)
from homok.verify import available_suites, run_suite

START = time.monotonic()


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
        result.passed and elapsed < 60,
        f"eleven order-identity clauses ({result.checks} checks)",
        elapsed,
    )


def test_criterion_04_factorial_valuations():
    t0 = time.monotonic()
    result = run_suite("lemma212")
    elapsed = time.monotonic() - t0
    _report(
        4,
        result.passed,
        f"factorial valuations and digit-sum bound ({result.checks} checks)",
        elapsed,
    )


def test_criterion_05_exhaustive_function_counts():
    t0 = time.monotonic()
    result = run_suite("prop29")
    elapsed = time.monotonic() - t0
    _report(
        5,
        result.passed and elapsed < 300,
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
        result.passed,
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
    t0 = time.monotonic()
    ok = all(sk1_sylow_check(g).equal for g in all_abelian_groups(200))
    mixed = sk1_sylow_check(Group((3, 3, 3, 5)))
    ok = ok and mixed.equal and mixed.direct == (3,) * 6
    ok = ok and mixed.per_prime == ((3, (3, 3, 3), 2), (5, (), 14))
    elapsed = time.monotonic() - t0
    _report(
        9,
        ok,
        "quotient assembles over primes, |G|<=200; (3,3,3,5) multiplicity 2",
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


def test_criterion_12_cli_determinism(capsys):
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

    code = cli_main(["verify", "--suite", "all", "--json"])
    out = capsys.readouterr().out
    with capsys.disabled():
        suites = json.loads(out)["suites"]
        ok = ok and code == 0 and len(suites) == len(available_suites())
        ok = ok and all(entry["passed"] for entry in suites)
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
    # package
    t0 = time.monotonic()
    cases = [
        (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
        (5, 2), (5, 3), (5, 4),
        (7, 2), (7, 3),
    ]
    ok = True
    for p, k in cases:
        n = (p**k - 1) // (p - 1) - comb(p + k - 1, p)
        if sk1_invariants(Group((p,) * k)).quotient_invariants != (p,) * n:
            ok = False
    elapsed = time.monotonic() - t0
    _report(
        13,
        ok,
        "elementary quotients = ADOS formula on 3^2..3^6, 5^2..5^4, 7^2, 7^3",
        elapsed,
    )


def test_all_is_prime_consistency():
    # tiny guard for the helpers this module leans on
    assert [p for p in range(2, 32) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
