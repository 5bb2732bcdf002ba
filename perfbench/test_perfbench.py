"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, sim_reps=3, cmp_reps=3, count_scale=min(w.count_scale, 10.0))


def claimcube_bindings() -> dict:
    """Identity of every module-level and class-level binding in claimcube."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "claimcube":
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = id(value)
            if isinstance(value, type):
                for a, v in vars(value).items():
                    found[(name, attr, a)] = id(v)
    return found


def test_benchmark_json_names_the_metrics_the_code_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(run.NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    w = tiny(name)
    inputs = workloads.write_inputs(w, 7, tmp_path)
    result = workloads.measure(w, inputs, 0, trace, tmp_path)
    assert result.correct, result.record["failures"] + result.record["problems"]
    assert result.failed == 0 and result.attempted > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result.metrics) == {m["name"] for m in wanted}
    for name_, value in result.metrics.items():
        assert isinstance(value, (int, float)) and value > 0, name_


def test_inputs_are_a_function_of_the_seed(tmp_path):
    w = workloads.WORKLOADS["large_world"]
    a = workloads.write_inputs(w, 5, tmp_path / "a")
    b = workloads.write_inputs(w, 5, tmp_path / "b")
    c = workloads.write_inputs(w, 6, tmp_path / "c")
    strip = lambda i: (json.loads(i.config.read_text())["model"], i.sim_seed, i.cmp_seed, i.cal_seeds)  # noqa: E731
    assert strip(a) == strip(b)
    assert strip(a) != strip(c)
    counts = json.loads(a.config.read_text())["model"]["expected_counts"]["values"]
    assert math.isclose(sum(counts), 300 * sum(workloads.claimcube.default_params().expected_counts))


def test_rejected_config_fails_every_operation_and_times_none(tmp_path):
    w = tiny("small_mc")
    inputs = workloads.write_inputs(w, 7, tmp_path)
    mapping = json.loads(inputs.config.read_text())
    mapping["model"]["lag_probs"][0] += 0.5
    inputs.config.write_text(json.dumps(mapping))
    result = workloads.measure(w, inputs, 0, False, tmp_path)
    assert not result.correct
    assert result.failed == result.attempted > 0
    timed = [name for name in workloads.END_TO_END if name != "peak_rss_mb"]
    assert all(result.metrics[name] is None for name in timed)
    assert not result.record["samples"]


def test_tampered_output_fails_only_that_command(tmp_path, monkeypatch):
    import claimcube.cli as cli

    write = cli._write_triangle_csv

    def tampered(tri, path):
        if path.name == "triangle_reporting.csv":
            tri = dataclasses.replace(tri, values=tri.values * 2.0)
        write(tri, path)

    monkeypatch.setattr(cli, "_write_triangle_csv", tampered)
    w = tiny("small_mc")
    inputs = workloads.write_inputs(w, 7, tmp_path)
    result = workloads.measure(w, inputs, 0, False, tmp_path)
    assert not result.correct
    assert result.failed == 2  # simulate at 1 worker and at nproc workers
    assert all("triangle known sums differ" in f for f in result.record["failures"])
    assert result.metrics["sim_reps_per_s"] is None and result.metrics["sim_reps_per_s_par"] is None
    assert result.metrics["cmp_reps_per_s"] > 0 and result.metrics["calibrate_s"] > 0
    assert result.attempted - result.failed == sum(len(v) for v in result.record["samples"].values())


def test_output_that_depends_on_the_worker_count_is_a_failure(tmp_path, monkeypatch):
    import claimcube.cli as cli

    run = cli.run_monte_carlo

    def skewed(params, replicates, master_seed, statistics, *, workers=1):
        return run(params, replicates, master_seed + (workers > 1), statistics, workers=workers)

    monkeypatch.setattr(cli, "run_monte_carlo", skewed)
    w = tiny("small_mc")
    inputs = workloads.write_inputs(w, 7, tmp_path)
    result = workloads.measure(w, inputs, 0, False, tmp_path)
    assert result.failed == 1
    assert "output bytes differ" in result.record["failures"][0]
    assert result.metrics["sim_reps_per_s"] > 0 and result.metrics["sim_reps_per_s_par"] is None


def test_traced_run_restores_bindings_and_writes_identical_outputs(tmp_path):
    w = tiny("small_mc")
    inputs = workloads.write_inputs(w, 7, tmp_path)
    ops = workloads.cycle_ops(w, inputs, tmp_path)
    client = workloads.Client()
    untraced = {}
    for op in ops:
        assert client.run(op) is not None, client.failures
        untraced[op.out] = checks.digest(op.out)

    before = claimcube_bindings()
    t = layers.make_tracer()
    t.install()
    try:
        assert claimcube_bindings() != before
        for op in ops:
            assert client.run(op, t) is not None, client.failures
            assert checks.digest(op.out) == untraced[op.out]
    finally:
        assert t.restore() == []
    assert claimcube_bindings() == before
    assert layers.leftover_wrappers() == []
    traced = {s.name for s in t.spans}
    assert {target.name for target in t.targets} <= traced


def test_self_times_add_up_and_pool_work_is_parented_to_the_waiting_span():
    fake = types.ModuleType("fake")

    def leaf(x):
        time.sleep(0.002)
        return x

    def fan(n, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fake.leaf, range(n)))

    fake.leaf, fake.fan = leaf, fan
    t = tracer.Tracer([tracer.Target("fake.leaf", fake, "leaf"), tracer.Target("fake.fan", fake, "fan")], [fake])
    t.install()
    try:
        t.command("serial", lambda: [fake.leaf(i) for i in range(3)])
        t.command("pooled", fake.fan, 4, 2)
    finally:
        assert t.restore() == []
    assert fake.leaf is leaf and fake.fan is fan

    selfs = tracer.self_times(t.spans)
    serial, pooled = [s for s in t.spans if s.name == tracer.COMMAND]
    members = [s for s in t.spans if s.command == serial.command]
    assert len(members) == 4
    assert math.isclose(sum(selfs[s.sid] for s in members), serial.dur, rel_tol=1e-9)

    (fan_span,) = [s for s in t.spans if s.name == "fake.fan"]
    pool_leaves = [s for s in t.spans if s.command == pooled.command and s.name == "fake.leaf"]
    assert len(pool_leaves) == 4
    assert all(s.parent == fan_span.sid for s in pool_leaves)
    assert all(s.tid != threading.get_ident() for s in pool_leaves)
    assert 0 <= selfs[fan_span.sid] < fan_span.dur
