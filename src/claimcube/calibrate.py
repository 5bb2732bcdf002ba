"""Moment estimators recovering model parameters from a simulated world.

All estimators are pure, read-only functions of the complete (untruncated)
tensors, and none of them feeds into another: lag probabilities come from
the reporting slice, survival from column totals along the run-off axis,
payment probabilities from payment vs. active counts, and severities from
the retained individual payments.  Together they close the loop
simulate -> estimate -> re-simulate.  They take one world: a block path is a
:class:`~claimcube.errors.ParameterError` naming the function.
"""

from __future__ import annotations

from operator import index

import numpy as np

from .errors import EstimationError, ParameterError
from .model import ModelParams, SimulationPath, _require_world

__all__ = [
    "calibrated_params",
    "estimate_lag_probs",
    "estimate_pay_prob",
    "estimate_severity",
    "estimate_survival",
]


def estimate_lag_probs(path: SimulationPath) -> np.ndarray:
    """Share of reported claims per lag: sum_i N_ij0 / sum_ij N_ij0."""
    _require_world(path, "estimate_lag_probs")
    per_lag = path.claims.counts[:, :, 0].sum(axis=0)
    total = per_lag.sum()
    if total == 0:
        raise EstimationError("cannot estimate lag probabilities: no reported claims")
    return per_lag / total


def estimate_survival(path: SimulationPath) -> np.ndarray:
    """Cumulative survival curve: sum_ij N_ijk / sum_ij N_ij0 (index 0 is 1)."""
    _require_world(path, "estimate_survival")
    per_k = path.claims.counts.sum(axis=(0, 1))
    if per_k[0] == 0:
        raise EstimationError("cannot estimate survival: no reported claims")
    return per_k / per_k[0]


def estimate_pay_prob(path: SimulationPath) -> np.ndarray:
    """Payment frequency per run-off year: sum_ij nu_ijk / sum_ij N_ijk.

    Years with no active claims are NaN (absent), not zero.
    """
    _require_world(path, "estimate_pay_prob")
    if path.claims.pay_counts is None:
        raise EstimationError("path has no payment counts; simulate payments first")
    paid = path.claims.pay_counts.sum(axis=(0, 1)).astype(float)
    active = path.claims.counts.sum(axis=(0, 1)).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(active > 0, paid / active, np.nan)


def estimate_severity(path: SimulationPath) -> tuple[np.ndarray, np.ndarray]:
    """Per-(lag, run-off) sample mean and variance of individual payments.

    Requires a path simulated with ``retain_severities=True``, or one whose
    ``severities`` map (lag, run-off) cells to amounts.  It reads
    ``severities.items()`` once: a retained world replays its amounts run by
    run, so the estimate holds one run of them, not the world.  The variance
    uses the (n-1) denominator; cells without payments, an empty array of
    amounts included, are NaN in both outputs, cells with a single payment
    have a NaN variance.  A key that is not a cell ``(j, k)`` with
    ``0 <= j < J`` and ``0 <= k <= K`` is a :class:`ParameterError` naming it.
    """
    _require_world(path, "estimate_severity")
    if path.severities is None:
        raise EstimationError(
            "path has no retained payments; simulate with retain_severities=True"
        )
    _, n_j, n_k = path.params.dims
    mean = np.full((n_j, n_k), np.nan)
    var = np.full((n_j, n_k), np.nan)
    # The sums and quotients that ndarray.mean() and var(ddof=1) take, bit for
    # bit, without their per-call overhead: a world has hundreds of pools.
    for cell, amounts in path.severities.items():
        try:
            j, k = cell
            j, k = index(j), index(k)
        except (TypeError, ValueError):
            j = k = -1
        if not (0 <= j < n_j and 0 <= k < n_k):
            raise ParameterError(
                f"severities: key {cell!r} is outside the (lag, run-off) cells 0..{n_j - 1} x 0..{n_k - 1}"
            )
        n = amounts.size
        if n == 0:
            continue
        mean[j, k] = np.add.reduce(amounts) / n
        if n >= 2:
            d = amounts - mean[j, k]
            d *= d  # in place, as ndarray.var squares: one pool-sized temporary, not two
            var[j, k] = np.add.reduce(d) / (n - 1)
    return mean, var


def calibrated_params(path: SimulationPath, fallback: ModelParams) -> ModelParams:
    """Bundle all estimates into a parameter set ready for re-simulation.

    Cells whose estimate is absent (no payments observed) fall back to the
    corresponding value of ``fallback``, so the result passes every rule.  A
    severity cell whose estimated mean is not > 0 (its amounts all underflowed
    to 0, as they can at a tiny Gamma shape) counts as absent, for its mean
    and its variance.  Expected ultimate counts have no estimator here and
    are carried over from ``fallback`` unchanged.
    """
    _require_world(path, "calibrated_params")
    pay_prob = estimate_pay_prob(path)
    mean, var = estimate_severity(path)
    absent = ~(mean > 0)  # NaN (no payments) or 0
    return ModelParams(
        occurrence_years=fallback.occurrence_years,
        max_lag=fallback.max_lag,
        max_runoff=fallback.max_runoff,
        expected_counts=fallback.expected_counts,
        lag_probs=estimate_lag_probs(path),
        survival=estimate_survival(path),
        pay_prob=np.where(np.isnan(pay_prob), fallback.pay_prob, pay_prob),
        severity_mean=np.where(absent, fallback.severity_mean, mean),
        severity_var=np.where(absent | np.isnan(var), fallback.severity_var, var),
    )
