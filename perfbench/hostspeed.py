"""Fixed kernels that measure how fast the host runs right now.

On a shared host the same code runs at speeds up to 2x apart, in stretches
that last longer than a run, and not every kind of work slows alike. The
benchmark samples two kernels throughout a run, between the calls it
times, and scales every time by the kernels' times at the matching quantile
of that run (``factor``):

- ``compute``: integer work of the kind homok's layers do (dict updates,
  tuple arithmetic with gcd, a sort) on fixed data;
- ``cli``: the work around a call, as the command line does it: building an
  argparse parser with nine subcommands, parsing one command line, and a
  JSON document written to a temporary file, renamed, read back and
  removed.

The kernels belong to the benchmark, so a change to homok cannot move them.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from math import gcd
from pathlib import Path
from time import perf_counter

# Each kernel's time on the host the reported times are scaled to: about
# its best on a 2-core x86 VM with Python 3.11. Times are reported as
# seconds on that host.
NOMINAL_S = {"compute": 0.017, "cli": 0.008}


def compute_s() -> float:
    """Seconds one run of the compute kernel takes."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(60000):
        table[i % 997] = (i * 7) % 13
        total += table[i % 997]
    n = 96
    orders: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(n):
            oa, ob = n // gcd(n, a), n // gcd(n, b)
            orders[(a, b)] = oa * ob // gcd(oa, ob)
    ranked = sorted((a * b + total) % 97 for a in range(200) for b in range(200))
    if len(orders) + len(ranked) != n * n + 200 * 200:  # keep every result live
        raise AssertionError("kernel lost work")
    return perf_counter() - start


def cli_s(workdir: Path) -> float:
    """Seconds one run of the cli kernel takes; its files go to ``workdir``."""
    start = perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    for i in range(3):
        parser = argparse.ArgumentParser(prog="kernel", description="a fixed parser")
        sub = parser.add_subparsers(dest="cmd", required=True)
        for name in ("group", "od", "gd", "hmg", "coc", "sk1", "transfer", "verify", "table"):
            p = sub.add_parser(name, help=f"the {name} command")
            p.add_argument("--group", help="factor orders, comma separated")
            p.add_argument("--d", type=int, default=1, help="degree")
            p.add_argument("--json", action="store_true", help="print JSON")
            p.add_argument("--cache", default=None, help="cache directory")
            p.add_argument("--target", default=None, help="target group")
        args = parser.parse_args(["hmg", "--group", "3,9", "--json", "--d=2"])
        doc = {"group": args.group, "d": args.d, "moduli": list(range(300)), "size": str(3**300)}
        for j in range(4):
            fd, tmp = tempfile.mkstemp(dir=workdir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            final = workdir / f"kernel-{i}-{j}.json"
            os.replace(tmp, final)
            with open(final, encoding="utf-8") as fh:
                back = json.load(fh)
            os.unlink(final)
            if back != doc:
                raise AssertionError("kernel lost work")
    return perf_counter() - start


def sample(workdir: Path) -> dict[str, float]:
    """One sample of each kernel, by its name in ``NOMINAL_S``."""
    return {"compute": compute_s(), "cli": cli_s(workdir)}


def factor(samples: list[dict[str, float]], passes: int, weights: dict[str, float]) -> float:
    """Factor that turns times measured in a run into times on the nominal
    host, for work that is a ``weights`` mix of the kernels' kinds.

    The run's ``samples`` are taken between the calls of its ``passes``
    passes, and each call counts with its best time over the passes: about
    the 1/(passes + 1) quantile of the speeds it met. Each kernel is read at
    that same quantile of its samples; the factor is the weighted geometric
    mean of nominal over reading."""
    out = 1.0
    for name, weight in weights.items():
        ordered = sorted(s[name] for s in samples)
        out *= (NOMINAL_S[name] / ordered[int(len(ordered) / (passes + 1))]) ** weight
    return out
