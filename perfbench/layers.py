"""Per-layer metrics of the traced run: which claimcube functions are wrapped,
and how their spans become the per-layer metrics listed in BENCHMARK.json.

The layers are the modules under ``src/claimcube/``.  All spans are recorded
from outside the package, around calls into each module's public functions.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict

from tracer import COMMAND, Target, Tracer, self_times

# name -> unit; the key order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "streams.RandomStream.us_per_call": "us",
    "model.simulate_counts.ms_per_call": "ms",
    "model.simulate_payments.ms_per_call": "ms",
    "model.simulate_payments.ns_per_payment": "ns",
    "model.simulate_payments.payments_per_call": "count",
    "model.simulate_path.retain_ms_per_call": "ms",
    "model.simulate_path.peak_traced_mb": "MB",
    "model.simulate_path.calls_per_command": "count",
    "model.validate_params.calls_per_command": "count",
    "config.parse_config.ms_per_call": "ms",
    "aggregate.reserve_breakdown.ms_per_call": "ms",
    "aggregate.triangle_occurrence.ms_per_call": "ms",
    "aggregate.triangle_reporting.ms_per_call": "ms",
    "aggregate.analytic_reserve_moments.ms_per_call": "ms",
    "aggregate.analytic_reserve_moments.calls_per_command": "count",
    "chainladder.cumulate.ms_per_call": "ms",
    "chainladder.chain_ladder.ms_per_call": "ms",
    "chainladder.chain_ladder.ok_ratio": "ratio",
    "chainladder.compare_2d_3d.self_ms_per_rep": "ms",
    "engine.run_monte_carlo.self_ms_per_rep": "ms",
    "engine.pool_busy_ratio": "ratio",
    "engine.build_risk_report.ms_per_call": "ms",
    "calibrate.calibrated_params.ms_per_call": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}

MIB = 2**20


def _retained(args, kwargs, result):
    return bool(kwargs.get("retain_severities", args[2] if len(args) > 2 else False))


def _payments(args, kwargs, result):
    return int(result[0].sum())  # simulate_payments returns (pay_counts, payments, severities)


def _replicates(args, kwargs, result):
    return int(args[1])


def _replicates_workers(args, kwargs, result):
    return int(args[1]), int(kwargs.get("workers", 1))


def make_tracer() -> Tracer:
    from claimcube import aggregate, calibrate, chainladder, cli, config, engine, model, streams

    targets = [
        Target("streams.RandomStream", streams.RandomStream, "__post_init__"),
        Target("model.simulate_counts", model, "simulate_counts"),
        Target("model.simulate_payments", model, "simulate_payments", note=_payments),
        Target("model.simulate_path", model, "simulate_path", note=_retained, memory=True),
        Target("model.validate_params", model, "validate_params"),
        Target("config.parse_config", config, "parse_config"),
        Target("aggregate.reserve_breakdown", aggregate, "reserve_breakdown"),
        Target("aggregate.triangle_occurrence", aggregate, "triangle_occurrence"),
        Target("aggregate.triangle_reporting", aggregate, "triangle_reporting"),
        Target("aggregate.analytic_reserve_moments", aggregate, "analytic_reserve_moments"),
        Target("chainladder.cumulate", chainladder, "cumulate"),
        Target("chainladder.chain_ladder", chainladder, "chain_ladder"),
        Target("chainladder.compare_2d_3d", chainladder, "compare_2d_3d", note=_replicates),
        Target("engine.run_monte_carlo", engine, "run_monte_carlo", note=_replicates_workers),
        Target("engine.build_risk_report", engine, "build_risk_report"),
        Target("calibrate.calibrated_params", calibrate, "calibrated_params"),
        Target("cli.main", cli, "main"),
    ]
    scope = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "claimcube"]
    return Tracer(targets, scope)


def leftover_wrappers() -> list[str]:
    """Bindings in any claimcube module or class that still hold a tracer wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "claimcube":
            continue
        for attr, value in vars(module).items():
            holders = [(attr, value)]
            if isinstance(value, type):
                holders += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{name}.{a}" for a, v in holders if getattr(v, "__perfbench_wrapper__", False)]
    return found


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def _scaled(value, factor):
    return None if value is None else value * factor


def layer_metrics(spans, memory_spans) -> tuple[dict, list[str]]:
    """Per-layer metrics (all but the two the client measures itself) and the
    list of commands whose self times fail to add up to their wall time.

    Per-call times come from the commands that ran on one thread; in a pool
    thread a span's duration also holds the wait for the GIL, which
    ``engine.pool_busy_ratio`` reports instead.
    """
    selfs = self_times(spans)
    children = defaultdict(list)
    by_command = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
        by_command[span.command].append(span)

    problems = []
    named = defaultdict(list)  # spans of single-threaded commands, by function
    for members in by_command.values():
        if len({s.tid for s in members}) > 1:
            continue
        (root,) = [s for s in members if s.name == COMMAND]
        total = math.fsum(selfs[s.sid] for s in members)
        if not math.isclose(total, root.dur, rel_tol=1e-6):
            problems.append(f"command {root.note}: self times sum to {total}, wall time {root.dur}")
        for span in members:
            named[span.name].append(span)

    def per_call(name, unit=1e3):
        return _scaled(median_or_none(s.dur for s in named[name]), unit)

    def done(name):  # spans of calls that returned, so their note is set
        return [s for s in named[name] if s.ok]

    serial_mc = done("engine.run_monte_carlo")
    pooled_mc = [s for s in spans if s.name == "engine.run_monte_carlo" and s.ok and s.note[1] > 1]
    simulate_commands = {s.command for s in serial_mc}

    def per_simulate(name):
        return _mean(sum(1 for s in by_command[c] if s.name == name) for c in simulate_commands)

    def busy(mc):
        replicate_work = [c for c in children[mc.sid] if c.tid != mc.tid]
        return math.fsum(c.cpu for c in replicate_work) / (mc.note[1] * mc.dur)

    payments = done("model.simulate_payments")
    paid = sum(s.note for s in payments)
    fits = named["chainladder.chain_ladder"]
    traced_mem = [s.mem for s in memory_spans if s.name == "model.simulate_path" and s.ok and not s.note]

    metrics = {
        "streams.RandomStream.us_per_call": per_call("streams.RandomStream", 1e6),
        "model.simulate_counts.ms_per_call": per_call("model.simulate_counts"),
        "model.simulate_payments.ms_per_call": per_call("model.simulate_payments"),
        "model.simulate_payments.ns_per_payment": (
            math.fsum(s.dur for s in payments) / paid * 1e9 if paid else None
        ),
        "model.simulate_payments.payments_per_call": _mean(s.note for s in payments),
        "model.simulate_path.retain_ms_per_call": _scaled(
            median_or_none(s.dur for s in done("model.simulate_path") if s.note), 1e3
        ),
        "model.simulate_path.peak_traced_mb": max(traced_mem) / MIB if traced_mem else None,
        "model.simulate_path.calls_per_command": per_simulate("model.simulate_path"),
        "model.validate_params.calls_per_command": per_simulate("model.validate_params"),
        "config.parse_config.ms_per_call": per_call("config.parse_config"),
        "aggregate.reserve_breakdown.ms_per_call": per_call("aggregate.reserve_breakdown"),
        "aggregate.triangle_occurrence.ms_per_call": per_call("aggregate.triangle_occurrence"),
        "aggregate.triangle_reporting.ms_per_call": per_call("aggregate.triangle_reporting"),
        "aggregate.analytic_reserve_moments.ms_per_call": per_call("aggregate.analytic_reserve_moments"),
        "aggregate.analytic_reserve_moments.calls_per_command": per_simulate("aggregate.analytic_reserve_moments"),
        "chainladder.cumulate.ms_per_call": per_call("chainladder.cumulate"),
        "chainladder.chain_ladder.ms_per_call": per_call("chainladder.chain_ladder"),
        "chainladder.chain_ladder.ok_ratio": sum(s.ok for s in fits) / len(fits) if fits else None,
        "chainladder.compare_2d_3d.self_ms_per_rep": _scaled(
            median_or_none(selfs[s.sid] / s.note for s in done("chainladder.compare_2d_3d")), 1e3
        ),
        "engine.run_monte_carlo.self_ms_per_rep": _scaled(
            median_or_none(selfs[s.sid] / s.note[0] for s in serial_mc), 1e3
        ),
        "engine.pool_busy_ratio": median_or_none(busy(s) for s in pooled_mc),
        "engine.build_risk_report.ms_per_call": per_call("engine.build_risk_report"),
        "calibrate.calibrated_params.ms_per_call": per_call("calibrate.calibrated_params"),
        "cli.main.self_ms": _scaled(_mean(selfs[s.sid] for s in named["cli.main"]), 1e3),
    }
    return metrics, problems
