"""Volume-weighted Chain-Ladder on projected triangles, and the 2D/3D study.

The development factor for column n is the volume-weighted ratio

    f_n = sum_m C[m, n+1] / sum_m C[m, n]

over the rows where both cells are known.  Future cells are filled forward
by C[m, n+1] = C[m, n] * f_n and the row reserve is the completed ultimate
minus the latest known cumulative value.  Rows known only at column 0 take
the product of all remaining factors; a row with no known value cannot be
completed and is an :class:`EstimationError` naming the row.

When the expected triangle is multiplicative (every row proportional to one
development pattern, e.g. a stationary portfolio), the factor estimates are
exact ratios of the pattern and Chain-Ladder reproduces the analytic reserve
to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregate import (
    Triangle,
    analytic_reserve_moments,
    reserve_breakdown,
    triangle_occurrence,
    triangle_reporting,
)
from .engine import _replicate_loop, _worlds
from .errors import EstimationError, ParameterError
from .model import ModelParams

__all__ = [
    "ChainLadderResult",
    "Comparison",
    "ComparisonRecord",
    "EstimatorSummary",
    "chain_ladder",
    "compare_2d_3d",
    "cumulate",
]


def cumulate(tri: Triangle) -> Triangle:
    """Prefix-sum an incremental triangle along development; NaNs stay NaN."""
    if tri.form != "incremental":
        raise ParameterError(f"cumulate expects an incremental triangle, got {tri.form!r}")
    vals = tri.values
    cum = np.where(np.isnan(vals), np.nan, np.nancumsum(vals, axis=1))
    return Triangle(cum, tri.orientation, "cumulative", tri.horizon, tri.known_total)


@dataclass(eq=False)
class ChainLadderResult:
    """Factors, completed triangle and reserve estimates of one CL run."""

    development_factors: np.ndarray  # factor [n] maps cumulative column n to n+1
    completed: np.ndarray
    reserve_per_row: np.ndarray
    total_reserve_estimate: float


def chain_ladder(tri: Triangle) -> ChainLadderResult:
    """Estimate development factors and complete a cumulative triangle."""
    if tri.form != "cumulative":
        raise ParameterError(f"chain_ladder expects a cumulative triangle, got {tri.form!r}")
    cum = tri.values
    n_rows, n_cols = cum.shape
    if n_rows < 2:
        raise EstimationError(f"chain ladder needs at least 2 rows, got {n_rows}")

    known = ~np.isnan(cum)
    both = known[:, :-1] & known[:, 1:]
    # Columns and masks as contiguous 1-D rows: each sum below adds the same
    # elements in the same order (numpy's 1-D pairwise sum) as cum[both, n].
    cols, both_cols = cum.T.copy(), both.T.copy()
    factors = np.ones(max(n_cols - 1, 0))
    for n in range(n_cols - 1):
        rows = both_cols[n]
        denom = float(cols[n][rows].sum())
        if denom == 0.0:
            raise EstimationError(
                f"cannot estimate development factor for column {n}: zero cumulative volume"
            )
        factors[n] = float(cols[n + 1][rows].sum()) / denom

    unknown_rows = np.flatnonzero(~known.any(axis=1))
    if unknown_rows.size:
        raise EstimationError(f"cannot complete row {unknown_rows[0] + 1}: it has no known cumulative value")
    latest = n_cols - 1 - np.argmax(known[:, ::-1], axis=1)

    # Fill forward on Python floats (IEEE doubles, so each product is the
    # one numpy would compute), in the same order as a row-by-row loop.
    completed = cum.tolist()
    f = factors.tolist()
    for row, last in zip(completed, latest.tolist()):
        for n in range(last + 1, n_cols):
            row[n] = row[n - 1] * f[n - 1]
    completed = np.array(completed)

    reserve_per_row = completed[:, -1] - cum[np.arange(n_rows), latest]
    return ChainLadderResult(
        development_factors=factors,
        completed=completed,
        reserve_per_row=reserve_per_row,
        total_reserve_estimate=float(reserve_per_row.sum()),
    )


@dataclass(frozen=True)
class ComparisonRecord:
    replicate: int
    estimator: str
    target: str
    estimate: float  # NaN when the estimator failed on this replicate
    truth: float
    note: str = ""

    @property
    def error(self) -> float:
        return self.estimate - self.truth


@dataclass(frozen=True)
class EstimatorSummary:
    estimator: str
    target: str
    replicates_ok: int
    replicates_failed: int
    bias: float
    rmse: float


@dataclass(eq=False)
class Comparison:
    records: list[ComparisonRecord] = field(default_factory=list)
    summary: dict[str, EstimatorSummary] = field(default_factory=dict)


#: Which reserve each estimator addresses.  Chain-Ladder on the reporting
#: triangle only ever sees claims reported by the horizon, so it is scored
#: against the reported reserve; the occurrence triangle and the analytic
#: mean target the total reserve.
ESTIMATOR_TARGETS = {
    "analytic_3d_mean": "total_reserve",
    "chain_ladder_occurrence": "total_reserve",
    "chain_ladder_reporting": "reported_reserve",
}


def _score_replicate(path) -> tuple[dict, dict]:
    """Simulated reserves and the Chain-Ladder ``(estimate, note)`` of one world."""
    breakdown = reserve_breakdown(path)
    truths = {
        "total_reserve": breakdown.total_reserve,
        "reported_reserve": breakdown.reported_reserve,
    }
    estimates = {}
    for name, project in (
        ("chain_ladder_occurrence", triangle_occurrence),
        ("chain_ladder_reporting", triangle_reporting),
    ):
        try:
            estimates[name] = (chain_ladder(cumulate(project(path))).total_reserve_estimate, "")
        except EstimationError as exc:
            estimates[name] = (math.nan, str(exc))
    return truths, estimates


def compare_2d_3d(params: ModelParams, replicates: int, master_seed: int) -> Comparison:
    """Score the 2D Chain-Ladder estimators and the analytic 3D mean
    against the simulated truth, replicate by replicate.

    Chain-Ladder failures (e.g. zero-volume columns) are recorded on the
    affected replicate and excluded from bias/RMSE; they never abort the
    sweep.
    """
    scored = _replicate_loop(
        params, replicates, master_seed, lambda _, block: [_score_replicate(w) for w in _worlds(block)]
    )
    analytic = (analytic_reserve_moments(params)["total_reserve"].mean, "")
    records = []
    for r, (truths, estimates) in enumerate(scored):
        estimates["analytic_3d_mean"] = analytic
        for name, target in ESTIMATOR_TARGETS.items():
            estimate, note = estimates[name]
            records.append(ComparisonRecord(r, name, target, estimate, truths[target], note))

    summary: dict[str, EstimatorSummary] = {}
    for name, target in ESTIMATOR_TARGETS.items():
        own = [rec for rec in records if rec.estimator == name]
        errors = np.array([rec.error for rec in own if not math.isnan(rec.estimate)])
        summary[name] = EstimatorSummary(
            estimator=name,
            target=target,
            replicates_ok=int(errors.size),
            replicates_failed=len(own) - int(errors.size),
            bias=float(errors.mean()) if errors.size else math.nan,
            rmse=float(np.sqrt(np.mean(errors**2))) if errors.size else math.nan,
        )
    return Comparison(records=records, summary=summary)
