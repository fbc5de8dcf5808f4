"""Benchmark of the homok command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass over a workload runs in a fresh worker process (see worker.py),
one closed loop on one thread: every operation is one in-process call of
``homok.cli.main`` with ``--json``, timed on its own, and every answer is
checked (see checks.py) after the timed loop.

``--trace 0`` runs as many passes as typically fit in ``--seconds`` (at
least one) and reports the end-to-end metrics. Each call counts with its
lowest latency over the passes; ``wall_s`` sums those, the latency metrics
take percentiles of them. ``setup_s`` is the median over fresh interpreters
of starting Python, importing ``homok.cli`` and building its parser. A
shared host runs the same code at speeds up to 2x apart for stretches
longer than a run, so every time is scaled to a nominal host by fixed
kernels sampled during the run (see hostspeed.py).

``--trace 1`` runs one plain pass and one traced pass, and reports the
per-layer metrics of the traced pass and the tracing overhead (traced minus
plain ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

import hostspeed
import inputs
from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_LAUNCHES = 15
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the workers do
# Seconds budgeted per pass: a typical pass at the seed commit on a 2-core
# x86 host, with its worker's start. A run makes --seconds // this many
# passes: a fixed count, so that a faster commit does not get more passes
# and with them lower per-call minima.
PASS_SECONDS = {"sk1-homocyclic": 1.0, "sk1-elementary": 1.25, "cli-mix": 6}
# On a host slow enough that the passes overrun --seconds by this factor,
# the run starts no further pass.
OVERRUN = 1.25
# The kinds of work, as weights of the host-speed kernels, that the first
# calls of each workload do; a cached repeat is parser and cache-file work.
FIRST_CALL_WORK = {
    "sk1-homocyclic": {"compute": 1.0},
    "sk1-elementary": {"compute": 1.0},
    "cli-mix": {"compute": 0.5, "cli": 0.5},
}
CACHED_CALL_WORK = {"cli": 1.0}

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "cached_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def child_env() -> dict:
    """The checkout's sources first, a fixed hash seed, and no inherited
    result-cache directory (it would turn cold calls into cache reads)."""
    env = {k: v for k, v in os.environ.items() if k != "HOMOK_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(limit: float) -> float:
    """Seconds a child may still take before the run's own limit."""
    return max(1.0, limit - perf_counter())


def measure_setup(env: dict, limit: float) -> tuple[list[float], list[float]]:
    """Launch times of fresh interpreters, each followed by a sample of
    the compute kernel."""
    # Output goes to pipes: then the wait for the child selects on them,
    # where a bare wait with a timeout polls in steps of up to 50 ms.
    cmd = [sys.executable, "-c", "import homok.cli as c; c.build_parser()"]
    launch = dict(env=env, check=True, capture_output=True)
    subprocess.run(cmd, timeout=remaining(limit), **launch)  # writes bytecode
    times, kernel_s = [], []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        subprocess.run(cmd, timeout=remaining(limit), **launch)
        times.append(perf_counter() - start)
        kernel_s.append(hostspeed.compute_s())
    return times, kernel_s


def run_worker(args, trace: int, workdir: Path, env: dict, limit: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--workdir", str(workdir),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=remaining(limit)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100 * len(ordered)) - 1)]


def best(passes: list[dict], key: str) -> list[float]:
    """Each call's lowest latency over the passes; every pass of a run
    makes the same calls in the same order."""
    return [min(times) for times in zip(*(p[key] for p in passes))]


def end_to_end(
    passes: list[dict], setup: tuple[list[float], list[float]], first_call_work: dict
) -> dict:
    """Call times are scaled to the nominal host by the host-speed kernels
    sampled during the passes, each launch time by the compute kernel
    sampled right after it."""
    launches, setup_kernel_s = setup
    samples = [s for p in passes for s in p["kernels"]]
    first = hostspeed.factor(samples, len(passes), first_call_work)
    cached = hostspeed.factor(samples, len(passes), CACHED_CALL_WORK)
    cold = [t * first for t in best(passes, "cold_ms")]
    warm = [t * cached for t in best(passes, "warm_ms")]
    print(
        f"host speed: {len(samples)} samples of each kernel, read at their "
        f"1/{len(passes) + 1} quantile; first calls scaled by {first:.4f}, "
        f"cached repeats by {cached:.4f}"
    )
    return {
        "wall_s": (sum(cold) + sum(warm)) / 1000,
        "op_p50_ms": median(cold),
        "op_p99_ms": percentile(cold, 99),
        "cached_p50_ms": median(warm),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "setup_s": hostspeed.NOMINAL_S["compute"]
        * median(t / k for t, k in zip(launches, setup_kernel_s)),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    out = dict(traced["layers"])
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["failed_frac"] = (plain["failed"] + traced["failed"]) / (
        plain["attempted"] + traced["attempted"]
    )
    for name in traced["absent"]:
        print(f"absent at this commit: {name}", file=sys.stderr)
    return out


def measure(args, run_dir: Path) -> tuple[list[dict], dict]:
    env = child_env()
    start = perf_counter()
    limit = start + RUN_LIMIT_S
    if args.trace:
        plain = run_worker(args, 0, run_dir / "plain", env, limit)
        traced = run_worker(args, 1, run_dir / "traced", env, limit)
        return [plain, traced], per_layer(plain, traced)
    setup = measure_setup(env, limit)
    count = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    passes = []
    while len(passes) < count and (
        not passes or perf_counter() - start < OVERRUN * args.seconds
    ):
        passes.append(run_worker(args, 0, run_dir / f"pass-{len(passes)}", env, limit))
    print(
        f"passes: {len(passes)}, calls per pass: {passes[0]['attempted']} "
        f"({len(passes[0]['cold_ms'])} first calls, {len(passes[0]['warm_ms'])} "
        "cached repeats); seconds per pass: "
        + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    )
    return passes, end_to_end(passes, setup, FIRST_CALL_WORK[args.workload])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "homok" / "cli.py").is_file():
        print(f"error: no homok sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / str(os.getpid())
    try:
        passes, metrics = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK.rmdir()

    units = metric_units() if args.trace else END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"wrong answer: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6g} {units[name][0]}")
    if not args.trace:
        print(f"{'failed_frac':<48} {failed / attempted:>16.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
