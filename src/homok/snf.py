"""Exact integer linear algebra: Smith normal form, determinants, and
invariant factors of quotients and subgroups of ``Z/m1 x ... x Z/mq``.

Matrices are plain ``list[list[int]]`` acting on row vectors; a subgroup of
the ambient group is described by generator rows together with the implicit
relation rows ``m_j * e_j``. ``lattice_invariants`` works one prime p at
a time, on the rows reduced to the p-part of the ambient group: one rank
over F_p when p^2 does not divide the exponent, and otherwise one
triangular fold and two eliminations over ``Z/p^n``. Every one of them
pivots on an entry of least p-adic valuation, so no extended gcd is taken.
The generic Smith form (``smith_normal_form``, one elimination that always
carries its transforms) is off that path: it serves ``smith_diagonal``,
``invert_unimodular`` (V @ U) and ``subgroup_basis``.
"""

from __future__ import annotations

from math import gcd, lcm

from .arith import factorize
from .groups import InternalInvariantError, invariant_factors_from_orders

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(mat: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(U, S, V)`` with ``U @ mat @ V == S`` diagonal,
    diagonal entries nonnegative and each dividing the next.

    The elimination runs on ``[[mat, I], [I, 0]]``: row operations on its
    first r rows carry U along in the right block, and column operations on
    its first c columns carry V along in the bottom block.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    a = [list(row) + [int(i == k) for k in range(nrows)] for i, row in enumerate(mat)]
    a += [[int(j == k) for k in range(ncols)] + [0] * nrows for j in range(ncols)]

    def add_row(dst, src, f):  # row_dst += f * row_src
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]

    def add_col(dst, src, f):  # col_dst += f * col_src
        for row in a:
            row[dst] += f * row[src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # Move the smallest nonzero entry (by absolute value) to the pivot.
        best = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                val = row[j]
                if val and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        clean = True
        for i in range(t + 1, nrows):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    clean = False
        for j in range(t + 1, ncols):
            if a[t][j]:
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    clean = False
        if not clean:
            continue

        # Pivot divides its row and column; force divisibility of the rest.
        offender = next(
            (i for i in range(t + 1, nrows)
             if any(x % a[t][t] for x in a[i][t + 1:ncols])),
            None,
        )
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    return (
        [row[ncols:] for row in a[:nrows]],
        [row[:ncols] for row in a[:nrows]],
        [row[:ncols] for row in a[nrows:]],
    )


def smith_diagonal(mat: IntMatrix) -> list[int]:
    """Diagonal of the Smith form."""
    s = smith_normal_form(mat)[1]
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def invert_unimodular(mat: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix with determinant +-1: if ``U @ mat @ V``
    is the identity, the inverse is ``V @ U``."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("invert_unimodular needs a square matrix")
    u, s, v = smith_normal_form(mat)
    if s != identity_matrix(n):
        raise ValueError(
            "matrix is singular" if s[-1][-1] == 0 else "matrix is not unimodular"
        )
    return matmul(v, u)


def _validate_ambient(rows: IntMatrix, moduli: list[int]) -> None:
    if any(m < 1 for m in moduli):
        raise ValueError(f"ambient moduli must be positive, got {moduli}")
    width = len(moduli)
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"generator row has length {len(row)}, ambient rank is {width}"
            )


def _hermite_basis(rows: IntMatrix, moduli: list[int], pn: int) -> IntMatrix:
    """Upper-triangular row basis of the lattice spanned by ``rows`` together
    with the relation rows ``moduli[j] * e_j``, every modulus a divisor of
    the prime power ``pn``.

    Every pivot is a power of p. An entry that the pivot of its column
    divides is cleared with the pivot row. An entry ``p^v * u`` of lower
    valuation takes the pivot's place instead: its row, scaled by the
    inverse of the unit u mod ``pn``, becomes the pivot row, and the old
    pivot row minus ``pivot / p^v`` times it continues down the columns.
    Entries are kept reduced modulo the ambient moduli throughout -- adding a
    multiple of ``m_j * e_j`` never leaves the lattice, and it keeps the
    arithmetic on word-sized integers even for thousands of generator rows.
    Most rows reduce to zero by subtracting multiples of basis rows, which
    stay sparse, so that step touches only their nonzero entries.
    """
    q = len(moduli)
    basis: list[list[int]] = []
    for c, m in enumerate(moduli):
        row = [0] * q
        row[c] = m
        basis.append(row)
    # nonzero (column, entry) pairs of each basis row
    support = [[(c, m)] for c, m in enumerate(moduli)]

    seen: set[tuple[int, ...]] = set()
    for raw in rows:
        row = [x % m for x, m in zip(raw, moduli)]
        key = tuple(row)
        if key in seen:  # duplicates are common in generator dumps
            continue
        seen.add(key)
        # the iterator reads each entry after the reductions at the
        # columns before it have updated it
        for c, val in enumerate(row):
            if val == 0:
                continue
            brow = basis[c]
            pivot = brow[c]
            if val % pivot == 0:
                f = val // pivot
                for j, b in support[c]:
                    row[j] = (row[j] - f * b) % moduli[j]
            else:
                pv = gcd(val, pivot)  # p^v, as the pivot is a power of p
                unit_inv = pow(val // pv, -1, pn)
                f = pivot // pv
                new_basis = [0] * q
                for j in range(c, q):
                    nj = row[j] * unit_inv % moduli[j]
                    new_basis[j] = nj
                    row[j] = (brow[j] - f * nj) % moduli[j]
                basis[c] = new_basis
                support[c] = [(j, b) for j in range(c, q) if (b := new_basis[j])]
    return basis


def _local_exponents(mat: IntMatrix, p: int, n: int) -> list[int]:
    """p-valuations v of the pivots of ``mat`` over ``Z/p^n``: its row span
    there is ``+ Z/p^(n-v)``, and ``Z^w / rowspan(mat)`` (w its width) has
    p-part ``+ Z/p^v`` plus one ``Z/p^n`` per column never pivoted.

    Elimination over the local ring ``Z/p^n``: pivot on an entry of least
    p-valuation v, scale its row by the inverse of its unit part so the
    pivot reads ``p^v``, and clear the pivot's column with row operations.
    Every entry of the pivot row is then a multiple of ``p^v``, so column
    operations would clear the rest of the row without touching any other
    row: the pivot row splits off and is dropped. No gcds, no column pass,
    and every entry stays below ``p^n``.
    """
    pn = p**n
    rows = [r for r in ([x % pn for x in row] for row in mat) if any(r)]
    exps: list[int] = []
    v, pv, start = 0, 1, 0
    while rows and v < n:  # past p^(n-1) only zero rows can remain
        # every remaining entry is a multiple of p^v; find one that is not a
        # multiple of p^(v+1), which no pivot gives the rows before ``start``
        step = pv * p
        hit = next(
            ((i, j) for i in range(start, len(rows))
             for j, x in enumerate(rows[i]) if x % step),
            None,
        )
        if hit is None:
            v, pv, start = v + 1, step, 0
            continue
        i, j = hit
        prow = rows.pop(i)
        unit_inv = pow(prow[j] // pv, -1, pn)
        support = [(k, x * unit_inv % pn) for k, x in enumerate(prow) if x]
        kept = []
        for r, row in enumerate(rows):
            f = row[j] // pv
            if f:
                for k, b in support:
                    row[k] = (row[k] - f * b) % pn
                if r >= i and not any(row):  # rows before i stay: start = i
                    continue
            kept.append(row)
        rows, start = kept, i
        exps.append(v)
    return exps


def lattice_invariants(
    rows: IntMatrix, moduli: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariant factors of the quotient ``(Z/m1 x ... x Z/mq) / <rows>``
    and of the subgroup ``<rows>`` itself, one prime at a time.

    For each prime power ``p^n`` exactly dividing the exponent of the
    ambient group, its p-part is ``+ Z/l_j`` with ``l_j = gcd(m_j, p^n)``,
    and the p-parts of the quotient and the subgroup are those of the rows
    reduced mod ``l_j``. When n = 1 that is a vector space over F_p, and
    the rank r of the rows on its live columns gives both: ``(p,) * (live -
    r)`` and ``(p,) * r``. Otherwise B, the fold of the rows stacked on
    ``diag(l)``, has prime-power pivots, and the quotient's p-part is read
    off B over ``Z/p^n``. ``x_j -> (p^n / l_j) x_j`` embeds the p-part in
    ``(Z/p^n)^q``, so the subgroup's p-part is the row span of B scaled
    that way; rows of B still equal to their relation ``l_j e_j`` scale to
    0 and are skipped. Each chain is ascending with unit factors dropped.
    """
    _validate_ambient(rows, moduli)
    quotient, subgroup = [], []
    for p, n in factorize(lcm(*moduli)).items():
        pn = p**n
        local = [gcd(m, pn) for m in moduli]
        if n == 1:
            live = [c for c, m in enumerate(local) if m == p]
            rank = len(_local_exponents([[row[c] for c in live] for row in rows], p, 1))
            quotient += [p] * (len(live) - rank)
            subgroup += [p] * rank
            continue
        basis = _hermite_basis(rows, local, pn)
        if any(m % brow[c] for c, (brow, m) in enumerate(zip(basis, local))):
            raise InternalInvariantError(
                "relation row does not lie in the folded lattice"
            )
        pivots = _local_exponents(basis, p, n)
        quotient += [p**v for v in pivots if v] + [pn] * (len(moduli) - len(pivots))
        moved = [brow for c, brow in enumerate(basis) if brow[c] != local[c]]
        scale = [(j, pn // m) for j, m in enumerate(local) if m > 1]
        scaled = [[brow[j] * s for j, s in scale] for brow in moved]
        subgroup += [p ** (n - v) for v in _local_exponents(scaled, p, n)]
    return (
        invariant_factors_from_orders(quotient),
        invariant_factors_from_orders(subgroup),
    )


def cokernel_invariants(rows: IntMatrix, moduli: list[int]) -> tuple[int, ...]:
    """Invariant factors of ``(Z/m1 x ... x Z/mq) / <rows>``: the ascending
    divisor chain with unit factors dropped, multiplying out to the
    quotient order."""
    return lattice_invariants(rows, moduli)[0]


def subgroup_invariants(rows: IntMatrix, moduli: list[int]) -> tuple[int, ...]:
    """Invariant factors of the subgroup of ``Z/m1 x ... x Z/mq`` generated
    by ``rows`` (as an abstract abelian group)."""
    return lattice_invariants(rows, moduli)[1]


def subgroup_basis(
    rows: IntMatrix, moduli: list[int]
) -> list[tuple[tuple[int, ...], int]]:
    """Independent generators for the subgroup spanned by ``rows``.

    Returns ``[(vector, order), ...]`` with orders forming the ascending
    divisor chain; the vectors generate the subgroup as a direct sum of
    cyclic pieces of exactly those orders.

    ``x_j -> (e / m_j) x_j`` embeds the ambient group in ``(Z/e)^q``, e its
    exponent. Stack the rows on ``diag(moduli)`` and scale the stack that
    way to C. If ``U @ C @ V == S``, V is an automorphism of ``(Z/e)^q``
    taking the rows of ``U @ C`` to ``S[i][i] * e_i``: the first q rows of
    ``U @ stack`` have orders ``e / gcd(S[i][i], e)``, and the rest are 0.
    """
    _validate_ambient(rows, moduli)
    q = len(moduli)
    e = lcm(*moduli)
    stack = [[x % m for x, m in zip(row, moduli)] for row in rows]
    stack += [[m * (i == j) for j in range(q)] for i, m in enumerate(moduli)]
    u, s, _ = smith_normal_form(
        [[x * (e // m) for x, m in zip(row, moduli)] for row in stack]
    )
    out = []
    for i, row in enumerate(matmul(u, stack)[:q]):
        order = e // gcd(s[i][i], e)
        if order > 1:
            out.append((tuple(x % m for x, m in zip(row, moduli)), order))
    return out[::-1]
