"""Projections of a simulated world: triangles, reserves and analytic moments.

Every tensor cell falls into exactly one of three classes relative to the
valuation horizon ``I``:

* known:            i + j + k <= I  (observable at the valuation date),
* IBNR future:      i + j > I      (claim not yet reported; all its payments),
* reported future:  i + j <= I and i + j + k > I  (open claim, payments ahead).

The two 2-D run-off triangles partition exactly the known payments, once by
(occurrence year, j+k) and once by (reporting year i+j, k); nothing is double
counted.  Reserves and triangle grand totals are accumulated with exactly
rounded summation (:func:`math.fsum`), so both projections of the same world
report the bit-identical total.  The exact sums skip the zero cells, which
are +0.0 and cannot change an exactly rounded sum; most cells of a world are
zero.  Cell values use a fixed ascending (i, j, k) accumulation order for
reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SimulationPath

__all__ = [
    "MomentPair",
    "ReserveBreakdown",
    "Triangle",
    "analytic_reserve_moments",
    "mean_claim_size",
    "reserve_breakdown",
    "total_known_payments",
    "triangle_occurrence",
    "triangle_reporting",
]


def _exact_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of ``values``; the +0.0 cells are skipped, as they add nothing."""
    return math.fsum(values[values != 0].tolist())


class _Cells(NamedTuple):
    """Flat indices, ascending over one world's raveled (i, j, k) cells, of
    the three cell classes at horizon I, and the (i, j, k) of the known cells."""

    known: np.ndarray
    ibnr: np.ndarray
    reported_future: np.ndarray
    ibnr_cols: np.ndarray  # the k = 0 cell of each IBNR (i, j) column
    known_ijk: tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=64)
def _classification(n_i: int, n_j: int, n_k: int) -> _Cells:
    """The cell classes of an (n_i, n_j, n_k) world (cached per shape)."""
    i = np.arange(1, n_i + 1)[:, None, None]
    j = np.arange(n_j)[None, :, None]
    k = np.arange(n_k)[None, None, :]
    age = i + j + k
    known = age <= n_i
    ibnr = np.broadcast_to(i + j > n_i, known.shape)
    cells = _Cells(
        known=np.flatnonzero(known),
        ibnr=np.flatnonzero(ibnr),
        reported_future=np.flatnonzero(~ibnr & (age > n_i)),
        ibnr_cols=np.flatnonzero(ibnr & (k == 0)),
        known_ijk=np.nonzero(known),
    )
    for arr in (*cells[:4], *cells.known_ijk):
        arr.flags.writeable = False
    return cells


@dataclass(frozen=True, eq=False)
class Triangle:
    """A 2-D run-off matrix with the unknown region marked NaN, not zero.

    ``values[m-1, n]`` is populated iff ``m + n <= horizon`` (1-based row m,
    0-based development column n).  ``known_total`` is the exactly rounded
    sum of all payments behind the triangle; both projections of one world
    carry the identical value.
    """

    values: np.ndarray
    orientation: str  # "occurrence" | "reporting"
    form: str  # "incremental" | "cumulative"
    horizon: int
    known_total: float | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ReserveBreakdown:
    """Reserve split of one simulated world.

    ``total_reserve`` is defined as ``ibnr_reserve + reported_reserve`` (one
    addition), so the decomposition holds exactly.
    """

    ibnr_count: int
    ibnr_reserve: float
    reported_reserve: float
    total_reserve: float


def _project(payments: np.ndarray, rows: np.ndarray, cols: np.ndarray, known: np.ndarray, horizon: int):
    weights = payments.reshape(-1).take(known)
    flat = rows * horizon + cols
    cells = np.bincount(flat, weights=weights, minlength=horizon * horizon)
    values = cells.reshape(horizon, horizon)
    r = np.arange(horizon)[:, None]
    n = np.arange(horizon)[None, :]
    values[r + n > horizon - 1] = np.nan
    return values, _exact_sum(weights)


def triangle_occurrence(path: SimulationPath) -> Triangle:
    """Incremental triangle of known payments: occurrence year vs j+k."""
    n_i = path.params.occurrence_years
    cells = _classification(*path.params.dims)
    ii, jj, kk = cells.known_ijk
    values, total = _project(path.payments.payments, ii, jj + kk, cells.known, n_i)
    return Triangle(values, "occurrence", "incremental", n_i, total)


def triangle_reporting(path: SimulationPath) -> Triangle:
    """Incremental triangle of known payments: reporting year (i+j) vs k."""
    n_i = path.params.occurrence_years
    cells = _classification(*path.params.dims)
    ii, jj, kk = cells.known_ijk
    values, total = _project(path.payments.payments, ii + jj, kk, cells.known, n_i)
    return Triangle(values, "reporting", "incremental", n_i, total)


def _world_statistics(path: SimulationPath, names) -> dict[str, list]:
    """Per world of ``path`` (one world, or a block with a leading world axis),
    the statistics ``names``, one list entry per world.

    ``ibnr_count`` counts the claims of the IBNR columns at k = 0; the
    reserves and ``known_payments`` are exactly rounded sums over each world's
    cells of the class, gathered for all worlds at once, and ``total_reserve``
    is ``ibnr_reserve + reported_reserve`` (one addition).
    """
    cells = _classification(*path.params.dims)
    z = path.payments.payments.reshape(-1, math.prod(path.params.dims))

    def sums(index: np.ndarray) -> list[float]:
        return [_exact_sum(row) for row in z.take(index, axis=1)]

    stats = {}
    if "ibnr_count" in names:
        counts = path.claims.counts.reshape(len(z), -1)
        stats["ibnr_count"] = counts.take(cells.ibnr_cols, axis=1).sum(axis=1).tolist()
    if "known_payments" in names:
        stats["known_payments"] = sums(cells.known)
    if {"ibnr_reserve", "reported_reserve", "total_reserve"} & set(names):
        ibnr, reported = sums(cells.ibnr), sums(cells.reported_future)
        stats["ibnr_reserve"], stats["reported_reserve"] = ibnr, reported
        stats["total_reserve"] = [a + b for a, b in zip(ibnr, reported)]
    return stats


def total_known_payments(path: SimulationPath) -> float:
    """Exactly rounded sum of all payments in the known region."""
    return _world_statistics(path, ("known_payments",))["known_payments"][0]


def reserve_breakdown(path: SimulationPath) -> ReserveBreakdown:
    """Classify every future payment into the IBNR or reported reserve."""
    stats = _world_statistics(path, ("ibnr_count", "total_reserve"))
    return ReserveBreakdown(**{name: values[0] for name, values in stats.items()})


def mean_claim_size(path: SimulationPath) -> np.ndarray:
    """Mean remaining cost per active claim, by (lag j, run-off year k).

    Entry (j, k) is the total of all payments in run-off years l >= k with
    lag j (over all occurrence years) divided by the number of claims active
    at (j, k).  Cells with no active claims are NaN (absent), not zero.
    """
    z_by_jk = path.payments.payments.sum(axis=0)
    remaining = np.cumsum(z_by_jk[:, ::-1], axis=1)[:, ::-1]
    active = path.claims.counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(active > 0, remaining / active, np.nan)


@dataclass(frozen=True)
class MomentPair:
    """Mean and variance of a reserve quantity."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _suffix_sum(x: np.ndarray, pad: int = 2) -> np.ndarray:
    """out[:, t] = sum over columns >= t, padded with ``pad`` zero tails."""
    n_rows, n_cols = x.shape
    out = np.zeros((n_rows, n_cols + pad))
    out[:, :n_cols] = np.cumsum(x[:, ::-1], axis=1)[:, ::-1]
    return out


def _per_claim_tail_moments(params: ModelParams):
    """First and second moment of one claim's payment stream from year t on.

    A claim with lag j contributes Y(t) = sum_{k>=t} A_k B_k X_k, where A_k
    indicates survival to k (prob eta_k, monotone), B_k an independent
    payment event (prob p_k) and X_k an independent severity.  Hence

        E[Y(t)]   = sum_{k>=t} eta_k b_k,                    b_k = p_k EW_jk
        E[Y(t)^2] = sum_{k>=t} eta_k p_k (Var_jk + EW_jk^2)
                    + 2 sum_{t<=k<l} eta_l b_k b_l

    using A_k A_l = A_l for k < l. Returns arrays indexed [j, t] for
    t = 0..K+1 (t past the horizon gives 0).
    """
    eta = params.survival[None, :]
    b = params.pay_prob[None, :] * params.severity_mean
    b2 = params.pay_prob[None, :] * (params.severity_var + params.severity_mean**2)
    first = _suffix_sum(eta * b)
    square = _suffix_sum(eta * b2)
    c_prev = np.concatenate([np.zeros((b.shape[0], 1)), np.cumsum(b, axis=1)], axis=1)
    cross = _suffix_sum(eta * b * c_prev[:, :-1])
    n_k = b.shape[1]
    t = np.arange(n_k + 1)
    second = square[:, : n_k + 1] + 2.0 * (cross[:, 1 : n_k + 2] - c_prev[:, t] * first[:, 1 : n_k + 2])
    return first[:, : n_k + 1], second


def analytic_reserve_moments(params: ModelParams) -> dict[str, MomentPair]:
    """Closed-form mean and variance of the reserve quantities.

    The Poisson ultimate split multinomially over lags makes the claim
    counts of each (occurrence year, lag) column independent Poisson with
    mean ``expected_counts[i] * lag_probs[j]``; survival and payment stages
    are independent per-claim markings.  Every reserve slice is therefore a
    compound Poisson sum of the per-claim tail stream Y(t) documented in the
    module, giving mean = Lambda * E[Y] and variance = Lambda * E[Y^2] per
    column, additive over columns.

    Returns moment pairs for ``ibnr_count``, ``ibnr_reserve``,
    ``reported_reserve`` and ``total_reserve``.
    """
    n_i, n_j, n_k = params.dims
    lam_col = params.expected_counts[:, None] * params.lag_probs[None, :]
    i_idx = np.arange(1, n_i + 1)[:, None]
    j_idx = np.arange(n_j)[None, :]
    ibnr_cols = (i_idx + j_idx) > n_i

    first, second = _per_claim_tail_moments(params)
    j_grid = np.broadcast_to(j_idx, lam_col.shape)
    t_reported = np.clip(n_i - i_idx - j_idx + 1, 0, n_k)

    ibnr_lam = float(lam_col[ibnr_cols].sum())
    ibnr_mean = float((lam_col * first[j_grid, 0] * ibnr_cols).sum())
    ibnr_var = float((lam_col * second[j_grid, 0] * ibnr_cols).sum())

    rep_mask = ~ibnr_cols
    rep_mean = float((lam_col * first[j_grid, t_reported] * rep_mask).sum())
    rep_var = float((lam_col * second[j_grid, t_reported] * rep_mask).sum())

    return {
        "ibnr_count": MomentPair(ibnr_lam, ibnr_lam),
        "ibnr_reserve": MomentPair(ibnr_mean, ibnr_var),
        "reported_reserve": MomentPair(rep_mean, rep_var),
        "total_reserve": MomentPair(ibnr_mean + rep_mean, ibnr_var + rep_var),
    }
