"""Benchmark of claimcube's CLI: one workload per process, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small_mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

It prints one line per metric with its unit, a line of machine facts, and
as the last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  A record of the run (machine facts,
samples, failures, and the spans of a traced run) is written under
``.perfbench_runs/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("small_mc", "small_compare", "large_world")


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy

    from workloads import nproc

    commit = None  # stays None when the checkout is not itself a git repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "cache_per_cpu0": _cache_sizes(),
        "python": platform.python_version(),
        # numpy Generator streams are only stable within one numpy version (NEP 19).
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def _print_metrics(result, units) -> None:
    for name, unit in units.items():
        print(f"  {name:<54} {result.metrics[name]!r:>24} {unit}")
    error_rate = result.failed / result.attempted
    print(f"  {'error_rate':<54} {error_rate!r:>24} share  ({result.failed} of {result.attempted} failed)")


def _run_one(args) -> int:
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    try:
        inputs = workloads.write_inputs(workload, args.seed, work)
        result = workloads.measure(workload, inputs, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    units = layers.PER_LAYER if args.trace else workloads.END_TO_END
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }
    facts = machine_facts()
    spans = result.record.pop("spans", [])
    records = ROOT / ".perfbench_runs"
    records.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "world_size": workloads.world_size(workload),
        "workload_spec": vars(workload),
        **line,
        **result.record,
    }
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with (records / f"{tag}.spans.jsonl").open("w") as fh:
            for s in spans:
                fh.write(json.dumps(list(vars(s).values())) + "\n")

    print(f"{args.workload} (seed {args.seed}, {result.record['cycles']} cycles, trace {args.trace})")
    _print_metrics(result, units)
    for failure in result.record["failures"] + result.record["problems"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(f"  machine {json.dumps(facts, sort_keys=True)}")
    print(json.dumps(line))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark process exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "claimcube" / "__init__.py").is_file():
        print(f"perfbench: no claimcube sources under {ROOT / 'src'}; run from a claimcube checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
