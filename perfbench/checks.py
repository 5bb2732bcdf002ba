"""Checks on the files each CLI command writes.  Every check raises CheckFailed.

The first successful run of a command is checked in full; later runs of the
same command and seed (another worker count, another cycle, the traced run)
must reproduce its bytes exactly, which is the README's determinism promise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every file in ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def bytes_in(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir())


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _le(a: float, b: float) -> bool:
    """a <= b up to the rounding of a mean of equal values."""
    return a <= b + 1e-12 * max(abs(a), abs(b))


def check_simulate(out: Path, reps: int) -> None:
    summary = json.loads((out / "summary.json").read_text())
    require(summary["replicates"] == reps, f"summary.json has {summary['replicates']} replicates, want {reps}")
    for name, s in summary["statistics"].items():
        require(
            _le(s["min"], s["mean"]) and _le(s["mean"], s["max"]),
            f"{name}: mean {s['mean']} outside [{s['min']}, {s['max']}]",
        )
        for level, var in s["value_at_risk"].items():
            es = s["expected_shortfall"][level]
            require(_le(var, es), f"{name}: VaR({level}) = {var} > ES = {es}")
        if s["analytic_mean"] is not None:
            # The band of criteria 02/03 with the analytic std as sigma: at a
            # handful of replicates the sample std is itself too noisy to
            # scale a 4-sigma band.
            band = 4.0 * s["analytic_std"] / math.sqrt(reps)
            off = abs(s["mean"] - s["analytic_mean"])
            require(off <= band, f"{name}: |mean - analytic_mean| = {off} > 4 std/sqrt(R) = {band}")
        rows = _rows(out / f"{name}_distribution.csv")
        require(len(rows) == reps, f"{name}_distribution.csv has {len(rows)} rows, want {reps}")
    occurrence = _known_sum(out / "triangle_occurrence.csv")
    reporting = _known_sum(out / "triangle_reporting.csv")
    require(
        math.isclose(occurrence, reporting, rel_tol=1e-9),
        f"triangle known sums differ: occurrence {occurrence!r}, reporting {reporting!r}",
    )


def _known_sum(path: Path) -> float:
    cells = [float(v) for row in _rows(path) for k, v in row.items() if k != "row" and v != ""]
    return math.fsum(cells)


def check_compare(out: Path, reps: int) -> None:
    records = _rows(out / "comparison.csv")
    require(len(records) == 3 * reps, f"comparison.csv has {len(records)} rows, want {3 * reps}")
    summary = _rows(out / "comparison_summary.csv")
    require(len(summary) == 3, f"comparison_summary.csv has {len(summary)} estimators, want 3")
    for row in summary:
        done = int(row["replicates_ok"]) + int(row["replicates_failed"])
        require(done == reps, f"{row['estimator']}: ok + failed = {done}, want {reps}")


def check_calibrate(out: Path) -> None:
    from claimcube.config import load_config
    from claimcube.errors import ParameterError

    try:
        load_config(out / "estimated_config.json")
    except ParameterError as exc:
        raise CheckFailed(f"estimated_config.json does not load: {exc}") from None
