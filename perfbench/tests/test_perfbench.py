"""Tests of the benchmark itself: inputs repeat per seed, every metric is
emitted, the answer checks catch wrong answers, and the tracer patches and
restores what it should.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "20", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layers == metric_units()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload):
    first = json.dumps(inputs.generate(workload, 11))
    assert json.dumps(inputs.generate(workload, 11)) == first
    assert json.dumps(inputs.generate(workload, 12)) != first


def test_cli_mix_covers_every_group_once():
    cold = [op for op in inputs.generate("cli-mix", 3) if "cold" not in op]
    hmg = [tuple(op["factors"]) for op in cold if op["cmd"] == "hmg" and op["d"] == 1]
    assert len(hmg) == len(set(hmg)) == len(inputs.abelian_groups(inputs.CLI_MIX_MAX_ORDER))
    assert sum(op["cmd"] == "transfer" for op in cold) == len(inputs.TRANSFER_PAIRS)


def _kernels(compute, cli):
    return [
        {"compute": c * hostspeed.NOMINAL_S["compute"], "cli": k * hostspeed.NOMINAL_S["cli"]}
        for c, k in zip(compute, cli)
    ]


def test_times_are_scaled_to_the_nominal_host():
    passes = [
        {"cold_ms": [10.0, 30.0], "warm_ms": [2.0], "peak_rss_mb": 5.0,
         "kernels": _kernels([1, 2, 2], [4, 4, 8])},
        {"cold_ms": [20.0, 20.0], "warm_ms": [1.0], "peak_rss_mb": 7.0,
         "kernels": _kernels([2, 4, 4], [2, 8, 8])},
    ]
    n = hostspeed.NOMINAL_S["compute"]
    setup = ([0.2, 0.3, 0.8], [2 * n, 3 * n, 4 * n])
    metrics = run.end_to_end(passes, setup, {"compute": 1.0})
    # over two passes each kernel is read at the 1/3 quantile of its six
    # samples: compute at 2x nominal for first calls, cli at 4x for repeats
    assert metrics["wall_s"] == pytest.approx((5 + 10 + 0.25) / 1000)
    assert metrics["op_p50_ms"] == pytest.approx(7.5)
    assert metrics["op_p99_ms"] == pytest.approx(10)
    assert metrics["cached_p50_ms"] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"] == 6.0
    # each launch by the sample right after it: 0.1, 0.1 and 0.2 nominal seconds
    assert metrics["setup_s"] == pytest.approx(0.1)
    mixed = hostspeed.factor(passes[0]["kernels"] + passes[1]["kernels"], 2,
                             {"compute": 0.5, "cli": 0.5})
    assert mixed == pytest.approx((1 / 2 * 1 / 4) ** 0.5)


def test_kernels_sample_every_kind(tmp_path):
    sample = hostspeed.sample(tmp_path / "kernel")
    assert set(sample) == set(hostspeed.NOMINAL_S) and all(t > 0 for t in sample.values())
    assert list((tmp_path / "kernel").iterdir()) == []


def test_ados_rank_matches_known_values():
    assert [checks.ados_rank(3, k) for k in (2, 3, 4, 5, 6)] == [0, 3, 20, 86, 308]
    assert checks.ados_rank(5, 4) == 100 and checks.ados_rank(11, 3) == 55


def _tiny_pass(workload, tmp_path) -> dict:
    return worker.run_pass(inputs.generate(workload, 2, tiny=True), tmp_path / "w")


def test_right_answers_pass(tmp_path):
    for workload in inputs.WORKLOADS:
        result = _tiny_pass(workload, tmp_path / workload)
        assert result["failed"] == 0, result["problems"]


def test_corrupted_sk1_answer_is_counted(tmp_path, monkeypatch):
    from homok import cli

    real = cli.sk1_invariants

    def wrong(group):
        report = real(group)
        return dataclasses.replace(
            report, quotient_invariants=report.quotient_invariants + (group.exponent,)
        )

    monkeypatch.setattr(cli, "sk1_invariants", wrong)
    result = _tiny_pass("sk1-elementary", tmp_path)
    cold = sum(1 for op in inputs.generate("sk1-elementary", 2, tiny=True) if "cold" not in op)
    assert result["failed"] == cold
    assert all("|hmg| = |coc|*|sk1|" in p for p in result["problems"])


def test_corrupted_bracket_answer_is_counted(tmp_path, monkeypatch):
    from homok import cli

    real = cli.hom_invariants
    monkeypatch.setattr(cli, "hom_invariants", lambda pres, target: real(pres, target) + (2,))
    result = _tiny_pass("cli-mix", tmp_path)
    hmg = [op for op in inputs.generate("cli-mix", 2, tiny=True) if op["cmd"] == "hmg"]
    assert result["failed"] == sum(1 for op in hmg if "cold" not in op)
    assert all("invariants" in p for p in result["problems"])


def test_corrupted_transfer_answer_is_counted(tmp_path, monkeypatch):
    from homok import cli
    from homok.groups import RationalResidue

    real = cli.transfer_apply
    monkeypatch.setattr(
        cli, "transfer_apply", lambda mapping, f: (RationalResidue(1, 3),) + real(mapping, f)[1:]
    )
    result = _tiny_pass("cli-mix", tmp_path)
    assert result["failed"] == 3
    assert all("transfer: got" in p for p in result["problems"])


def test_cached_answer_differing_from_the_first_is_counted(tmp_path, monkeypatch):
    from homok import cli

    real_get = cli.ResultCache.get

    def stale(self, key):
        payload = real_get(self, key)
        return None if payload is None else {**payload, "hmg": [7]}

    monkeypatch.setattr(cli.ResultCache, "get", stale)
    ops = inputs.generate("sk1-homocyclic", 2, tiny=True)
    result = worker.run_pass(ops, tmp_path / "w")
    assert result["failed"] == sum(1 for op in ops if "cold" in op)
    assert all("cached answer differs" in p for p in result["problems"])


def test_tracer_patches_caller_side_names_and_restores_them():
    import homok.cocyclic
    import homok.snf

    original = homok.snf.cokernel_invariants
    tracer = Tracer()
    tracer.install()
    try:
        assert homok.cocyclic.cokernel_invariants is not original
        assert homok.cocyclic.cokernel_invariants is homok.snf.cokernel_invariants
    finally:
        tracer.remove()
    assert homok.cocyclic.cokernel_invariants is original
    assert homok.snf.cokernel_invariants is original


def test_self_time_excludes_child_spans(monkeypatch):
    from homok import cli

    monkeypatch.delenv("HOMOK_CACHE_DIR", raising=False)
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sk1", "--group", "7,7", "--json"]) == 0
    finally:
        tracer.remove()
    summary = tracer.summary()
    main_total = sum(e - s for i, s, e, _ in tracer.spans if tracer.names[i] == "cli.main")
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert 0 < summary["cli.main.self_s"] < main_total
    assert summary["cocyclic.cocyclic_subgroups.calls"] >= 1
    assert self_total == pytest.approx(main_total, rel=1e-6)


def test_traced_pass_reports_every_layer(tmp_path):
    result = worker.run_pass(inputs.generate("sk1-homocyclic", 2, tiny=True), tmp_path / "w", trace=True)
    assert result["failed"] == 0
    assert set(result["layers"]) | {"trace.overhead_s", "failed_frac"} == set(metric_units())
    assert result["layers"]["cli.cache_hit_ratio"] == 0.75


def test_missing_function_is_reported_absent(monkeypatch):
    import homok.snf

    monkeypatch.delattr(homok.snf, "subgroup_basis")
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["snf.subgroup_basis"]
    summary = tracer.summary()
    assert "snf.subgroup_basis.calls" not in summary
    assert "snf.cokernel_invariants.calls" in summary
