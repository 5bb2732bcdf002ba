"""Command-line entry points: simulate, calibrate, compare, report.

All outputs are deterministic functions of (configuration, seed): floats are
written at full precision, JSON keys are sorted, and CSV rows follow fixed
orders, so identical runs produce byte-identical files regardless of the
worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from pathlib import Path

from .aggregate import analytic_reserve_moments, triangle_occurrence, triangle_reporting
from .calibrate import calibrated_params
from .chainladder import ESTIMATOR_TARGETS, compare_2d_3d
from .config import config_from_params, load_config, write_config
from .engine import block_replicates, build_risk_report, replicate_path, run_monte_carlo
from .errors import EstimationError, ParameterError

__all__ = ["main"]


def _run_config(args):
    """``--config`` loaded with ``--seed``/``--replicates``/``--out`` applied."""
    overrides = {
        "master_seed": args.seed,
        "replicates": getattr(args, "replicates", None),
        "output_dir": args.out,
    }
    return load_config(args.config, overrides)


def _output_dir(cfg) -> Path:
    """The run's ``--out`` directory, created once its results are computed,
    so that a rejected run leaves nothing behind."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(value: float) -> str:
    return repr(float(value))


def _cell(value: float) -> str:
    """A CSV cell: the value at full precision, or empty when it is NaN (unknown)."""
    return "" if math.isnan(value) else _fmt(value)


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_triangle_csv(tri, path: Path) -> None:
    header = ["row"] + [f"dev{n}" for n in range(tri.values.shape[1])]
    _write_csv(path, header, ([m + 1] + [_cell(v) for v in row] for m, row in enumerate(tri.values)))


def _report_payload(report) -> dict:
    return {
        "replicates": report.replicate_count,
        "mean": report.mean,
        "std_dev": report.std_dev,
        "min": report.minimum,
        "max": report.maximum,
        "value_at_risk": {repr(level): value for level, value in report.value_at_risk.items()},
        "expected_shortfall": {
            repr(level): value for level, value in report.expected_shortfall.items()
        },
        "analytic_mean": report.analytic_mean,
        "analytic_std": report.analytic_std,
    }


def _cmd_simulate(args) -> int:
    cfg = _run_config(args)
    distributions = run_monte_carlo(
        cfg.params, cfg.replicates, cfg.master_seed, cfg.statistics, workers=args.workers
    )
    moments = analytic_reserve_moments(cfg.params)
    out = _output_dir(cfg)

    summary = {
        "master_seed": cfg.master_seed,
        "replicates": cfg.replicates,
        "block_replicates": block_replicates(cfg.params),
        "statistics": {},
    }
    for name in cfg.statistics:
        dist = distributions[name]
        report = build_risk_report(dist, cfg.quantile_levels, moments.get(name))
        summary["statistics"][name] = _report_payload(report)
        _write_csv(
            out / f"{name}_distribution.csv",
            ["rank", "value"],
            ([rank, _fmt(value)] for rank, value in enumerate(dist.samples, start=1)),
        )

    write_config(summary, out / "summary.json")

    first_path = distributions.first_world
    _write_triangle_csv(triangle_occurrence(first_path), out / "triangle_occurrence.csv")
    _write_triangle_csv(triangle_reporting(first_path), out / "triangle_reporting.csv")

    print(f"wrote {len(cfg.statistics)} distributions, summary.json and triangles to {out}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _run_config(args)
    world = replicate_path(cfg.params, cfg.master_seed, 0, retain_severities=True)
    estimated = calibrated_params(world, fallback=cfg.params)
    # The export keeps the default run.output_dir, not --out, so that its
    # bytes do not depend on where it is written.
    exported = config_from_params(
        estimated,
        replicates=cfg.replicates,
        master_seed=cfg.master_seed,
        statistics=cfg.statistics,
        quantile_levels=cfg.quantile_levels,
    )
    target = _output_dir(cfg) / "estimated_config.json"
    write_config(exported, target)
    print(f"wrote estimated parameter configuration to {target}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _run_config(args)
    comparison = compare_2d_3d(cfg.params, cfg.replicates, cfg.master_seed, workers=args.workers)
    out = _output_dir(cfg)
    truth_floats = {target: column.tolist() for target, column in comparison.truths.items()}
    columns = [
        (name, target, comparison.estimates[name].tolist(), truth_floats[target], comparison.notes[name])
        for name, target in ESTIMATOR_TARGETS.items()
    ]
    _write_csv(
        out / "comparison.csv",
        ["replicate", "estimator", "target", "estimate", "truth", "error", "note"],
        (
            [r, name, target, _cell(estimates[r]), _fmt(truths[r]), _cell(estimates[r] - truths[r]), notes[r]]
            for r in range(cfg.replicates)
            for name, target, estimates, truths, notes in columns
        ),
    )
    _write_csv(
        out / "comparison_summary.csv",
        ["estimator", "target", "replicates_ok", "replicates_failed", "bias", "rmse"],
        (
            [s.estimator, s.target, s.replicates_ok, s.replicates_failed, _fmt(s.bias), _fmt(s.rmse)]
            for _, s in sorted(comparison.summary.items())
        ),
    )
    print(f"wrote comparison.csv and comparison_summary.csv to {out}")
    return 0


def _summary_lines(fh) -> list[str]:
    summary = json.load(fh)
    lines = [f"run: seed={summary['master_seed']} replicates={summary['replicates']}"]
    for name, stats in summary["statistics"].items():
        lines += [
            "",
            name,
            f"  mean      {stats['mean']:,.2f}",
            f"  std dev   {stats['std_dev']:,.2f}",
            f"  range     [{stats['min']:,.2f}, {stats['max']:,.2f}]",
        ]
        if stats.get("analytic_mean") is not None:
            lines.append(f"  analytic  mean {stats['analytic_mean']:,.2f}  std {stats['analytic_std']:,.2f}")
        for level in sorted(stats["value_at_risk"], key=float):
            var = stats["value_at_risk"][level]
            es = stats["expected_shortfall"][level]
            lines.append(f"  level {float(level):.2f}  VaR {var:,.2f}  ES {es:,.2f}")
    return lines


def _comparison_lines(fh) -> list[str]:
    lines = ["2D vs 3D comparison"]
    for row in csv.DictReader(fh):
        lines.append(
            f"  {row['estimator']} (target {row['target']}): "
            f"bias {float(row['bias']):,.2f}  rmse {float(row['rmse']):,.2f}  "
            f"ok {row['replicates_ok']}  failed {row['replicates_failed']}"
        )
    return lines


def _render(path: Path, render) -> list[str]:
    """Render one output file of a prior run; a malformed file is named."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            return render(fh)
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: not a claimcube output ({type(exc).__name__}: {exc})") from None


def _cmd_report(args) -> int:
    out = Path(args.out)
    renders = (("summary.json", _summary_lines), ("comparison_summary.csv", _comparison_lines))
    outputs = [(out / name, render) for name, render in renders if (out / name).exists()]
    if not outputs:
        raise ParameterError(f"no summary.json or comparison_summary.csv in {out}; run `claimcube simulate` first")
    print("\n\n".join("\n".join(_render(path, render)) for path, render in outputs))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcube",
        description="Monte Carlo claim reserving on a 3-axis claim model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, replicates=True):
        p.add_argument("--config", required=True, help="configuration file, or 'default'")
        p.add_argument("--seed", type=int, default=None, help="override run.master_seed")
        p.add_argument("--out", default=None, help="override run.output_dir")
        if replicates:  # a replicate sweep, drawn on up to --workers threads
            p.add_argument("--replicates", type=int, default=None, help="override run.replicates")
            p.add_argument("--workers", type=int, default=1, help="worker threads (results identical)")

    p_sim = sub.add_parser("simulate", help="run the MC engine; write distributions and risk report")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="re-simulate one world and export estimated parameters")
    add_common(p_cal, replicates=False)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="score 2D Chain-Ladder estimators against simulated truth")
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = sub.add_parser("report", help="print a human-readable summary of prior outputs")
    p_rep.add_argument("--out", required=True, help="output directory of a previous run")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning: <message>`` line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ParameterError, EstimationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
