"""Seeded inputs for the benchmark workloads.

Every workload is a list of operations, each one in-process call of
``homok.cli.main``. The same (workload, seed) always gives the same list;
the seed only reorders the fixed sets of groups and picks presentations,
degrees, maps and coefficients, so the amount of work barely moves with it.

An operation is a dict:

- ``cmd``: the subcommand (``sk1``, ``hmg``, ``gd`` or ``transfer``);
- ``factors``: the factor orders given on the command line;
- ``d``: the degree (``hmg``, ``gd``);
- ``job``: the job document (``transfer``), written to a file before timing;
- ``cold``: for a repeat, the index of the first call it repeats. A repeat
  has the same canonical group, so it must be served from the result cache.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

from checks import factorize, invariant_factors

WORKLOADS = ("sk1-homocyclic", "sk1-elementary", "cli-mix")

# Rank 2, large order, few cyclic subgroups: the O(|G|^2) character scan
# in cocyclic dominates and the Smith step is small. No call of either sk1
# workload takes much over a quarter of a second, so that a run holds many
# samples of each.
SK1_HOMOCYCLIC = (
    (19, 19), (49, 7), (16, 16), (128, 2), (32, 8), (9, 27), (64, 4), (13, 13), (25, 5),
)
# High rank, small exponent: many cyclic subgroups, so the Hermite fold and
# the Smith step (q up to 72 columns) take the largest share.
SK1_ELEMENTARY = (
    (7,) * 3, (2, 4, 4, 4), (2,) * 6, (3, 9, 9), (3, 3, 27),
    (2, 2, 4, 4), (2, 2, 2, 2, 4), (3,) * 4, (5,) * 3, (3, 3, 9),
)
# Warm repeats per sk1 call: enough reads for a median without adding work.
SK1_REPEATS = 3

CLI_MIX_MAX_ORDER = 150
CLI_MIX_DEGREES = (1, 2, -1)
GD_DEGREES = (0, 1, 2, -1)
# gd on large groups: nearly all of the time goes to the element scan. They
# run at degree 0: at other degrees the bracket size of groups this large
# can have more than 4300 digits, which the CLI fails to print (exit 2).
LARGE_GROUPS = ((3,) * 8, (10,) * 4, (2,) * 12, (9973,))
# Degree-1 transfer jobs between odd groups; the pairs are fixed so that
# the cost does not depend on the seed, only the map and f do.
TRANSFER_PAIRS = (
    ((3,), (3,)),
    ((9,), (3,)),
    ((27,), (9,)),
    ((5,), (25,)),
    ((15,), (5,)),
    ((3, 3), (3,)),
    ((25,), (5, 5)),
    ((3, 9), (9,)),
    ((81,), (27,)),
    ((3, 3, 3), (3, 3)),
    ((5, 25), (25,)),
)

TINY = {
    "sk1-homocyclic": ((9, 9), (25, 5)),
    "sk1-elementary": ((3, 3, 3), (5, 5), (3, 9)),
    "cli-mix": 24,
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _sk1_ops(rng: random.Random, groups) -> list[dict]:
    ops = []
    for factors in _shuffled(rng, groups):
        cold = len(ops)
        ops.append({"cmd": "sk1", "factors": _shuffled(rng, factors)})
        for _ in range(SK1_REPEATS):
            ops.append(
                {"cmd": "sk1", "factors": _shuffled(rng, factors), "cold": cold}
            )
    return ops


def abelian_groups(max_order: int) -> list[tuple[int, ...]]:
    """Invariant factors of every abelian group of order <= max_order,
    one per isomorphism class."""
    out = []
    for n in range(1, max_order + 1):
        per_prime = [
            [tuple(p**e for e in part) for part in _partitions(k)]
            for p, k in sorted(factorize(n).items())
        ]
        for combo in itertools.product(*per_prime):
            out.append(invariant_factors([o for part in combo for o in part]) or (1,))
    return out


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _elements(factors):
    return itertools.product(*(range(n) for n in factors))


def _order(g, factors) -> int:
    o = 1
    for x, n in zip(g, factors):
        k = n // gcd(n, x)
        o = o * k // gcd(o, k)
    return o


def transfer_job(rng: random.Random, source, target) -> dict:
    """A random degree-1 homogeneous map source -> target, with random f.

    Each cyclic subgroup <x> of the source gets a value y whose order
    divides o(x), extended by t(n*x) = n*y for n prime to o(x); that is
    exactly the degree-1 identity. One f coordinate per cyclic subgroup.
    """
    elements = list(_elements(source))
    index = {g: i for i, g in enumerate(elements)}
    by_order: dict[int, list] = {}
    for y in _elements(target):
        by_order.setdefault(_order(y, target), []).append(y)
    values: list = [None] * len(elements)
    cycles = 0
    for x in elements:
        if values[index[x]] is not None:
            continue
        cycles += 1
        o = _order(x, source)
        y = rng.choice([y for m, ys in by_order.items() if o % m == 0 for y in ys])
        for n in range(1, o + 1):
            if gcd(n, o) == 1:
                nx = tuple(n * c % m for c, m in zip(x, source))
                values[index[nx]] = [n * c % m for c, m in zip(y, target)]
    return {
        "d": 1,
        "source": ",".join(map(str, source)),
        "target": ",".join(map(str, target)),
        "t_values": values,
        "f_coords": [rng.randrange(1000) for _ in range(cycles)],
    }


def _cli_mix_ops(rng: random.Random, max_order: int, heavy: bool) -> list[list[dict]]:
    blocks = []
    for factors in abelian_groups(max_order):
        block = []
        calls = [("hmg", d) for d in CLI_MIX_DEGREES]
        calls.append(("gd", rng.choice(GD_DEGREES)))
        for cmd, d in calls:
            block.append({"cmd": cmd, "factors": list(factors), "d": d})
            block.append({"cmd": cmd, "factors": _shuffled(rng, factors), "d": d})
        blocks.append(block)
    for factors in LARGE_GROUPS if heavy else ():
        blocks.append(
            [
                {"cmd": "gd", "factors": list(factors), "d": 0},
                {"cmd": "gd", "factors": _shuffled(rng, factors), "d": 0},
            ]
        )
    pairs = TRANSFER_PAIRS if heavy else TRANSFER_PAIRS[:3]
    for source, target in pairs:
        blocks.append([{"cmd": "transfer", "job": transfer_job(rng, source, target)}])
    return blocks


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operations of one pass of ``workload`` for ``seed``.

    ``tiny`` swaps in small groups for the benchmark's own tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    if workload == "sk1-homocyclic":
        return _sk1_ops(rng, TINY[workload] if tiny else SK1_HOMOCYCLIC)
    if workload == "sk1-elementary":
        return _sk1_ops(rng, TINY[workload] if tiny else SK1_ELEMENTARY)
    max_order = TINY[workload] if tiny else CLI_MIX_MAX_ORDER
    ops = []
    for block in _shuffled(rng, _cli_mix_ops(rng, max_order, heavy=not tiny)):
        base = len(ops)
        for k, op in enumerate(block):
            if op["cmd"] != "transfer" and k % 2:
                op["cold"] = base + k - 1
            ops.append(op)
    return ops
