"""The benchmark's workloads and the closed-loop client that drives claimcube's CLI.

Every workload runs the same cycle of commands on its own portfolio:
``simulate`` at 1 worker and at ``nproc`` workers, ``compare``, and
``calibrate`` on three seeds.  The portfolio and the replicate counts decide
which layers dominate the workload's time.  One client issues one command at
a time through ``claimcube.cli.main`` (a closed loop) and checks each
command's output before it issues the next; no command uses more than
``nproc`` worker threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import claimcube  # noqa: E402
import claimcube.cli  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

if Path(claimcube.__file__).resolve().parent != (SRC / "claimcube").resolve():
    raise ImportError(f"claimcube was imported from {claimcube.__file__}, not from {SRC}")

# name -> unit; the key order is the order of BENCHMARK.json's end_to_end list.
END_TO_END = {
    "setup_s": "s",
    "sim_reps_per_s": "rep/s",
    "sim_reps_per_s_par": "rep/s",
    "cmp_reps_per_s": "rep/s",
    "calibrate_s": "s",
    "peak_rss_mb": "MB",
}

CALIBRATE_SEEDS = 3
SETUP_PROBES_PER_CYCLE = 2

# Time of the reference loop below in the fast state of a 2-vCPU Xeon
# (Sapphire Rapids) sandbox.  Timings are scaled to this speed; see
# reference_time().
REFERENCE_S = 1.7e-3

# Fresh interpreter -> import claimcube -> workload config loaded and validated.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import claimcube; "
    "from claimcube.config import load_config; load_config(sys.argv[2])"
)


def reference_time() -> float:
    """Best of 10 runs of a fixed pure-Python loop: the machine's current speed.

    On a shared host the speed of the same code drifts by up to 1.6x over
    seconds to minutes, which no run length averages out.  Each timing is
    therefore scaled by REFERENCE_S over the mean of this reference measured
    just before and just after it; the raw timings go to the run record.
    """
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass(frozen=True)
class Workload:
    name: str
    count_scale: float  # multiplier on the default portfolio's expected claim counts
    sim_reps: int
    cmp_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        # ~2.3k claims and 9k payments per world: fixed per-replicate costs dominate.
        Workload("small_mc", count_scale=1.0, sim_reps=300, cmp_reps=30),
        # Same portfolio; two triangles, two Chain-Ladder fits, 3 CSV rows per replicate.
        Workload("small_compare", count_scale=1.0, sim_reps=100, cmp_reps=300),
        # ~2.7M payments per world: per-payment Gamma draws and memory dominate.
        Workload("large_world", count_scale=300.0, sim_reps=6, cmp_reps=2),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Inputs:
    config: Path
    sim_seed: int
    cmp_seed: int
    cal_seeds: tuple[int, ...]


def write_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's config file and draw its command seeds from ``seed``."""
    from claimcube.presets import default_config, default_params

    rng = random.Random(seed)
    mapping = default_config()
    if workload.count_scale != 1.0:
        counts = default_params().expected_counts * workload.count_scale
        mapping["model"]["expected_counts"] = {"values": counts.tolist()}
    mapping["run"].update(
        replicates=workload.sim_reps,
        master_seed=rng.randrange(2**32),
        output_dir=str(work / "out" / "default"),
    )
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{workload.name}.json"
    config.write_text(json.dumps(mapping, indent=1))
    return Inputs(
        config=config,
        sim_seed=rng.randrange(2**32),
        cmp_seed=rng.randrange(2**32),
        cal_seeds=tuple(rng.randrange(2**32) for _ in range(CALIBRATE_SEEDS)),
    )


def world_size(workload: Workload) -> dict:
    """Bytes of one simulated world, computed from array sizes (not measured)."""
    from claimcube.presets import default_params

    params = default_params()
    n_i, n_j, n_k = params.dims
    cells = n_i * n_j * n_k
    payments = workload.count_scale * float(
        (
            params.expected_counts[:, None, None]
            * params.lag_probs[None, :, None]
            * params.survival[None, None, :]
            * params.pay_prob[None, None, :]
        ).sum()
    )
    return {
        "label": "computed from array sizes, not measured",
        "cells": cells,
        "tensor_bytes": cells * 8,
        "tensors_per_world": 3,
        "expected_payments": payments,
        "payment_draw_bytes": payments * 24,  # Gamma draw + repeated shape + repeated scale
    }


@dataclass(frozen=True)
class Op:
    metric: str  # the end-to-end metric this command feeds; also its trace label
    command: str
    seed: int
    reps: int
    workers: int
    config: Path
    out: Path

    def argv(self) -> list[str]:
        argv = [self.command, "--config", str(self.config), "--seed", str(self.seed), "--out", str(self.out)]
        if self.command != "calibrate":
            argv += ["--replicates", str(self.reps)]
        if self.command == "simulate":
            argv += ["--workers", str(self.workers)]
        return argv

    @property
    def key(self) -> tuple:
        """Commands with equal keys must write byte-identical outputs."""
        return self.command, self.seed, self.reps

    def value(self, wall: float) -> float:
        return wall if self.command == "calibrate" else self.reps / wall


def cycle_ops(workload: Workload, inputs: Inputs, work: Path) -> list[Op]:
    n = nproc()
    out = work / "out"
    cfg = inputs.config
    return [
        Op("sim_reps_per_s", "simulate", inputs.sim_seed, workload.sim_reps, 1, cfg, out / "simulate_w1"),
        Op("sim_reps_per_s_par", "simulate", inputs.sim_seed, workload.sim_reps, n, cfg, out / f"simulate_w{n}"),
        Op("cmp_reps_per_s", "compare", inputs.cmp_seed, workload.cmp_reps, 1, cfg, out / "compare"),
        *(
            Op("calibrate_s", "calibrate", s, 1, 1, cfg, out / f"calibrate_{i}")
            for i, s in enumerate(inputs.cal_seeds)
        ),
    ]


class Client:
    """Issues one operation at a time; times and checks each one.

    A failed operation (nonzero exit, exception, failed output check) is
    counted and leaves no timing sample.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)  # scaled to REFERENCE_S
        self.raw: dict[str, list[float]] = defaultdict(list)  # wall seconds as measured
        self._digests: dict[tuple, str] = {}
        self.references = [reference_time()]  # taken before and after every operation

    def _scale(self) -> float:
        """Factor from wall time to reference speed for the operation that just ended."""
        self.references.append(reference_time())
        return REFERENCE_S / statistics.fmean(self.references[-2:])

    def _record(self, metric: str, wall: float, scale: float, value) -> None:
        self.raw[metric].append(wall)
        self.samples[metric].append(value(wall * scale))

    def setup(self, config: Path) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            error = proc.returncode and f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        except (OSError, subprocess.TimeoutExpired) as exc:
            error = str(exc)
        wall = time.perf_counter() - t0
        scale = self._scale()
        if error:
            self.failures.append(f"setup_s: {error}")
        else:
            self._record("setup_s", wall, scale, float)

    def run(self, op: Op, tracer=None) -> tuple[float, int] | None:
        """Run one command; return (wall seconds, bytes written), or None if it failed."""
        shutil.rmtree(op.out, ignore_errors=True)
        self.attempted += 1
        argv = op.argv()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = claimcube.cli.main(argv)
                    else:
                        rc = tracer.command(op.metric, claimcube.cli.main, argv)
                finally:
                    wall = time.perf_counter() - t0
                    scale = self._scale()
            checks.require(rc == 0, f"exit code {rc}")
            self._check(op)
        except (Exception, SystemExit) as exc:  # one failed operation must not end the run
            self.failures.append(f"{op.metric} ({' '.join(argv)}): {type(exc).__name__}: {exc}")
            return None
        if tracer is None:
            self._record(op.metric, wall, scale, op.value)
        return wall, checks.bytes_in(op.out)

    def _check(self, op: Op) -> None:
        found = checks.digest(op.out)
        expected = self._digests.get(op.key)
        if expected is not None:
            checks.require(found == expected, "output bytes differ from the first run of the same command")
            return
        if op.command == "simulate":
            checks.check_simulate(op.out, op.reps)
        elif op.command == "compare":
            checks.check_compare(op.out, op.reps)
        else:
            checks.check_calibrate(op.out)
        self._digests[op.key] = found


def run_cycle(client: Client, ops, tracer=None) -> tuple[float, int | None]:
    """Run every op once; return summed command wall time and bytes written
    (None when an op failed)."""
    wall, written = 0.0, 0
    for op in ops:
        done = client.run(op, tracer)
        if done is None:
            written = None
        else:
            wall += done[0]
            written = None if written is None else written + done[1]
    return wall, written


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    record: dict


def measure(workload: Workload, inputs: Inputs, seconds: float, trace: bool, work: Path) -> Result:
    """Run whole cycles until ``seconds`` would be exceeded (at least one).

    Untraced, each cycle starts with setup probes and the result holds the
    end-to-end metrics.  Traced, each cycle is run once untraced and once
    traced, and the result holds the per-layer metrics.
    """
    client = Client()
    ops = cycle_ops(workload, inputs, work)
    tracer = layers.make_tracer() if trace else None
    walls = defaultdict(list)  # summed command wall time per cycle
    written = []  # bytes written per untraced cycle
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        if not trace:
            for _ in range(SETUP_PROBES_PER_CYCLE):
                client.setup(inputs.config)
        wall, nbytes = run_cycle(client, ops)
        walls["untraced"].append(wall)
        written.append(nbytes)
        if trace:
            tracer.install()
            try:
                walls["traced"].append(run_cycle(client, ops, tracer)[0])
            finally:
                problems += tracer.restore()
        now = time.perf_counter()
        if now - start + (now - t_cycle) > seconds:
            break

    record = {
        "cycles": len(walls["untraced"]),
        "samples": dict(client.samples),
        "raw_wall_s": dict(client.raw),
        "reference_s": client.references,
    }
    if trace:
        metrics = _per_layer(client, ops[0], tracer, walls, written, work, problems)
        record["cycle_walls"] = dict(walls)
        record["spans"] = tracer.spans
    else:
        metrics = {
            name: layers.median_or_none(client.samples[name]) for name in END_TO_END if name != "peak_rss_mb"
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["failures"] = client.failures
    record["problems"] = problems
    return Result(
        correct=not client.failures and not problems and None not in metrics.values(),
        attempted=client.attempted,
        failed=len(client.failures),
        metrics=metrics,
        record=record,
    )


def _per_layer(client: Client, simulate: Op, tracer, walls, written, work: Path, problems: list) -> dict:
    """Per-layer metrics from the traced cycles, plus a short 1-worker
    ``simulate`` under tracemalloc (peak memory is per world, not per R).
    Appends every tracer fault to ``problems``."""
    memory = layers.make_tracer()
    memory.trace_memory = True
    tracemalloc.start()
    memory.install()
    try:
        client.run(dataclasses.replace(simulate, reps=2, out=work / "out" / "memory"), memory)
    finally:
        problems += memory.restore()
        tracemalloc.stop()
    problems += [f"binding left wrapped: {b}" for b in layers.leftover_wrappers()]
    metrics, unbalanced = layers.layer_metrics(tracer.spans, memory.spans)
    problems += unbalanced
    complete = [n for n in written if n is not None]  # every cycle writes the same bytes
    metrics["cli.bytes_written"] = statistics.median_low(complete) if complete else None
    untraced, traced = layers.median_or_none(walls["untraced"]), layers.median_or_none(walls["traced"])
    metrics["trace.overhead_ratio"] = traced / untraced if traced and untraced else None
    return metrics
