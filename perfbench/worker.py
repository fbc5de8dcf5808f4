"""One pass over a workload, in a fresh process.

The package keeps memo tables (``lru_cache`` on the subgroup scan, the
cocyclic enumeration, the graded presentation and the default SK1 report),
so a second pass in the same process would time memo reads. Each pass
therefore gets its own process and its own empty result-cache directory.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
--workdir DIR [--tiny]. Prints one JSON line: the pass time, the latency
of every call, peak memory, the failed calls and, when traced, the
per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import inputs
from tracer import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"
# Seconds of calls between two samples of the host-speed kernels.
KERNEL_EVERY_S = 0.5


def _argvs(ops, workdir: Path) -> list[list[str]]:
    """Command lines for the ops; writes the transfer job files."""
    cache = workdir / "cache"
    cache.mkdir(parents=True)
    out = []
    for i, op in enumerate(ops):
        if op["cmd"] == "transfer":
            job = workdir / f"job-{i}.json"
            job.write_text(json.dumps(op["job"]), encoding="utf-8")
            out.append(["transfer", "--job", str(job), "--json"])
            continue
        argv = [op["cmd"], "--group", ",".join(map(str, op["factors"])), "--json"]
        if "d" in op:
            argv.append(f"--d={op['d']}")
        out.append(argv + ["--cache", str(cache)])
    return out


def _problems(op, code, output: str, outputs: list[str]) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if "cold" in op:
        same = output == outputs[op["cold"]]
        return [] if same else ["cached answer differs from the first answer"]
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if op["cmd"] == "sk1":
        return checks.check_sk1(doc, op["factors"])
    if op["cmd"] == "transfer":
        return checks.check_transfer(doc, op["job"])
    return checks.check_bracket(op["cmd"], doc, op["factors"], op["d"])


def run_pass(ops, workdir: Path, trace: bool = False) -> dict:
    """Time every op as one in-process CLI call, then check the answers.
    Between calls, outside their timing, the host-speed kernels are sampled
    about every ``KERNEL_EVERY_S`` seconds. With ``trace`` the result also
    holds the per-layer summary."""
    from homok import cli

    argvs = _argvs(ops, workdir)
    codes, outputs, latency_s = [], [], []
    kernels = [hostspeed.sample(workdir / "kernel")]
    since_kernel = 0.0
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed call
                code = repr(exc)
            latency_s.append(perf_counter() - start)
            codes.append(code)
            outputs.append(out.getvalue())
            since_kernel += latency_s[-1]
            if since_kernel >= KERNEL_EVERY_S:
                kernels.append(hostspeed.sample(workdir / "kernel"))
                since_kernel = 0.0
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems = []
    for i, (op, code, output) in enumerate(zip(ops, codes, outputs)):
        found = _problems(op, code, output, outputs)
        if found:
            problems.append(f"op {i} ({' '.join(argvs[i][:3])}): {'; '.join(found)}")
    result = {
        "wall_s": sum(latency_s),
        "cold_ms": [t * 1000 for op, t in zip(ops, latency_s) if "cold" not in op],
        "warm_ms": [t * 1000 for op, t in zip(ops, latency_s) if "cold" in op],
        "peak_rss_mb": peak_rss_mb,
        "kernels": kernels,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems[:10],
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    ops = inputs.generate(args.workload, args.seed, tiny=args.tiny)
    try:
        result = run_pass(ops, args.workdir, trace=bool(args.trace))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
