"""Projections of a simulated world: triangles, reserves and analytic moments.

Every tensor cell falls into exactly one of three classes relative to the
valuation horizon ``I``:

* known:            i + j + k <= I  (observable at the valuation date),
* IBNR future:      i + j > I      (claim not yet reported; all its payments),
* reported future:  i + j <= I and i + j + k > I  (open claim, payments ahead).

The two 2-D run-off triangles partition exactly the known payments, once by
(occurrence year, j+k) and once by (reporting year i+j, k); nothing is double
counted.  Reserves and the known total are exactly rounded sums
(:func:`math.fsum`), all taken in one place, :func:`_world_statistics`, so
both projections of the same world report the bit-identical total.  The
exact sums skip the zero cells, which are +0.0 and cannot change an exactly
rounded sum; most cells of a world are zero.  Cell values use a fixed
ascending (i, j, k) accumulation order for reproducibility.

The triangles and :func:`reserve_breakdown` also take a block path, whose
tensors carry a leading world axis ``(W, I, J, K+1)``.  They then return one
value per world: a triangle stack of shape ``(W, I, I)`` whose members share
one known region (and which carries no known total), and per-world tuples
of reserves.  Each world's values are bit-identical to the ones its own
single-world path gives.  :func:`total_known_payments` and
:func:`mean_claim_size` take one world only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SimulationPath, _is_block, _require_world

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


class _Cells(NamedTuple):
    """The horizon table of an (I, J, K+1) world and the cell classes it
    implies: flat indices, ascending over one world's raveled (i, j, k)
    cells, and where the known cells fall in each triangle."""

    ibnr_column: np.ndarray  # (I, J) mask of the unreported columns: i + j > I
    first_future: np.ndarray  # (I, J): t_ij = clip(I + 1 - i - j, 0, K + 1); known iff k < t_ij
    known: np.ndarray
    ibnr: np.ndarray
    reported_future: np.ndarray
    ibnr_cols: np.ndarray  # the k = 0 cell of each IBNR (i, j) column
    occurrence_bins: np.ndarray  # flat (I, I) triangle cell of each known cell: (i-1, j+k)
    reporting_bins: np.ndarray  # the same for (i+j-1, k)
    unknown: np.ndarray  # (I, I) mask of the triangle cells past the horizon


@lru_cache(maxsize=64)
def _classification(n_i: int, n_j: int, n_k: int) -> _Cells:
    """The horizon table and cell classes of an (n_i, n_j, n_k) world (cached per shape)."""
    i = np.arange(1, n_i + 1)[:, None]
    j = np.arange(n_j)[None, :]
    ibnr_column = i + j > n_i
    first_future = np.clip(n_i + 1 - i - j, 0, n_k)
    known = np.arange(n_k) < first_future[:, :, None]
    ibnr = np.broadcast_to(ibnr_column[:, :, None], known.shape)
    ii, jj, kk = np.nonzero(known)
    cells = _Cells(
        ibnr_column=ibnr_column,
        first_future=first_future,
        known=np.flatnonzero(known),
        ibnr=np.flatnonzero(ibnr),
        reported_future=np.flatnonzero(~ibnr & ~known),
        ibnr_cols=np.flatnonzero(ibnr_column) * n_k,
        occurrence_bins=ii * n_i + (jj + kk),
        reporting_bins=(ii + jj) * n_i + kk,
        unknown=np.add.outer(np.arange(n_i), np.arange(n_i)) > n_i - 1,
    )
    for arr in cells:
        arr.flags.writeable = False
    return cells


@dataclass(frozen=True, eq=False)
class Triangle:
    """A 2-D run-off matrix with the unknown region marked NaN, not zero, or
    a stack of them.

    ``values[m-1, n]`` is populated iff ``m + n <= horizon`` (1-based row m,
    0-based development column n).  ``known_total`` is the exactly rounded
    sum of all payments behind the triangle (:func:`total_known_payments`);
    both projections of one world carry the identical value.

    A stack (the projection of a block path) carries a leading world axis:
    ``values[w]`` is world ``w``'s triangle, and ``known_total`` is None.
    All members of a stack share one known region.
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
    """Reserve split of one simulated world, or of each world of a block.

    ``total_reserve`` is defined as ``ibnr_reserve + reported_reserve`` (one
    addition), so the decomposition holds exactly.  For a block path every
    field is a tuple with one value per world, in world order.
    """

    ibnr_count: int | tuple[int, ...]
    ibnr_reserve: float | tuple[float, ...]
    reported_reserve: float | tuple[float, ...]
    total_reserve: float | tuple[float, ...]


def _project(path: SimulationPath, orientation: str) -> Triangle:
    """The incremental ``orientation`` triangle of a world, or the stack of a block's.

    One ``np.bincount`` over all worlds: world ``w``'s known cells go to bins
    offset by ``w * I * I``, each bin summed in ascending (i, j, k) order.
    """
    n_i = path.params.occurrence_years
    cells = _classification(*path.params.dims)
    bins = cells.occurrence_bins if orientation == "occurrence" else cells.reporting_bins
    weights = path.payments.payments.reshape(-1, math.prod(path.params.dims)).take(cells.known, axis=1)
    worlds, size = len(weights), n_i * n_i
    flat = (bins + size * np.arange(worlds)[:, None]).reshape(-1)
    values = np.bincount(flat, weights=weights.reshape(-1), minlength=worlds * size)
    values = values.reshape(worlds, n_i, n_i)
    values[:, cells.unknown] = np.nan
    if _is_block(path):
        return Triangle(values, orientation, "incremental", n_i)
    return Triangle(values[0], orientation, "incremental", n_i, total_known_payments(path))


def triangle_occurrence(path: SimulationPath) -> Triangle:
    """Incremental triangle of known payments: occurrence year vs j+k."""
    return _project(path, "occurrence")


def triangle_reporting(path: SimulationPath) -> Triangle:
    """Incremental triangle of known payments: reporting year (i+j) vs k."""
    return _project(path, "reporting")


def _world_statistics(path: SimulationPath, names) -> dict[str, list]:
    """Per world of ``path`` (one world, or a block with a leading world axis),
    the statistics ``names``, one list entry per world.

    ``ibnr_count`` counts the claims of the IBNR columns at k = 0; the
    reserves and ``known_payments`` are exactly rounded sums over each world's
    cells of the class, gathered for all worlds at once, and ``total_reserve``
    is ``ibnr_reserve + reported_reserve`` (one addition).  This is the one
    place in the package where exact sums are taken.
    """
    cells = _classification(*path.params.dims)
    z = path.payments.payments.reshape(-1, math.prod(path.params.dims))

    def sums(index: np.ndarray) -> list[float]:
        # The +0.0 cells are skipped, as they cannot change an exactly rounded sum.
        return [math.fsum(row[row != 0].tolist()) for row in z.take(index, axis=1)]

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
    """Exactly rounded sum of all payments in the known region of one world."""
    _require_world(path, "total_known_payments")
    return _world_statistics(path, ("known_payments",))["known_payments"][0]


def reserve_breakdown(path: SimulationPath) -> ReserveBreakdown:
    """Classify every future payment into the IBNR or reported reserve.

    For a block path, each field holds one value per world.
    """
    stats = _world_statistics(path, ("ibnr_count", "total_reserve"))
    if _is_block(path):
        return ReserveBreakdown(**{name: tuple(values) for name, values in stats.items()})
    return ReserveBreakdown(**{name: values[0] for name, values in stats.items()})


def mean_claim_size(path: SimulationPath) -> np.ndarray:
    """Mean remaining cost per active claim, by (lag j, run-off year k).

    Entry (j, k) is the total of all payments in run-off years l >= k with
    lag j (over all occurrence years) divided by the number of claims active
    at (j, k).  Cells with no active claims are NaN (absent), not zero.
    """
    _require_world(path, "mean_claim_size")
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


def _suffix_sum(x: np.ndarray) -> np.ndarray:
    """out[:, t] = sum over columns >= t, for t = 0..n_cols (the last is 0)."""
    n_rows, n_cols = x.shape
    out = np.zeros((n_rows, n_cols + 1))
    out[:, :n_cols] = np.cumsum(x[:, ::-1], axis=1)[:, ::-1]
    return out


def _per_claim_tail_moments(params: ModelParams):
    """First and second moment of one claim's payment stream from year t on.

    A claim with lag j contributes Y(t) = A_t B_t X_t + Y(t+1), Y(K+1) = 0,
    where A_t indicates survival to t (prob eta_t, monotone), B_t an
    independent payment event (prob p_t) and X_t an independent severity.
    As A_t A_k = A_k for k > t,

        E[Y(t)]   = eta_t b_t  + E[Y(t+1)],                  b_t  = p_t EW_jt
        E[Y(t)^2] = eta_t b2_t + 2 b_t E[Y(t+1)] + E[Y(t+1)^2], b2_t = p_t E[W_jt^2]

    two suffix sums of non-negative terms.  Returns arrays indexed [j, t]
    for t = 0..K+1 (t past the horizon gives 0).
    """
    eta = params.survival[None, :]
    b = params.pay_prob[None, :] * params.severity_mean
    b2 = params.pay_prob[None, :] * (params.severity_var + params.severity_mean**2)
    first = _suffix_sum(eta * b)
    return first, _suffix_sum(eta * b2 + 2.0 * b * first[:, 1:])


def analytic_reserve_moments(params: ModelParams) -> dict[str, MomentPair]:
    """Closed-form mean and variance of the reserve quantities.

    The Poisson ultimate split multinomially over lags makes the claim
    counts of each (occurrence year, lag) column independent Poisson with
    mean ``expected_counts[i] * lag_probs[j]``; survival and payment stages
    are independent per-claim markings.  Every reserve slice is therefore a
    compound Poisson sum over columns of the per-claim tail stream Y(t_ij)
    from the column's first future run-off year t_ij (0 for an IBNR column),
    giving mean = Lambda * E[Y] and variance = Lambda * E[Y^2] per column,
    additive over columns.

    Returns moment pairs for ``ibnr_count``, ``ibnr_reserve``,
    ``reported_reserve`` and ``total_reserve``.
    """
    cells = _classification(*params.dims)
    lam_col = params._kernel.column_means
    ibnr_cols, rep_mask = cells.ibnr_column, ~cells.ibnr_column

    # One claim's tail moments from each (i, j) column's first future year on.
    first, second = _per_claim_tail_moments(params)
    rows = np.arange(params.max_lag)
    first, second = first[rows, cells.first_future], second[rows, cells.first_future]

    ibnr_lam = float(lam_col[ibnr_cols].sum())
    ibnr_mean = float((lam_col * first * ibnr_cols).sum())
    ibnr_var = float((lam_col * second * ibnr_cols).sum())
    rep_mean = float((lam_col * first * rep_mask).sum())
    rep_var = float((lam_col * second * rep_mask).sum())

    return {
        "ibnr_count": MomentPair(ibnr_lam, ibnr_lam),
        "ibnr_reserve": MomentPair(ibnr_mean, ibnr_var),
        "reported_reserve": MomentPair(rep_mean, rep_var),
        "total_reserve": MomentPair(ibnr_mean + rep_mean, ibnr_var + rep_var),
    }
