"""Model parameters and the generator of one simulated claim world.

The world is a three-axis tensor indexed by

* occurrence year ``i = 1..I`` (array axis 0, stored 0-based),
* reporting lag ``j = 0..J-1`` (axis 1; ``j = 0`` means reported in the
  occurrence year),
* run-off year ``k = 0..K`` (axis 2; years since reporting).

At the valuation date only cells with ``i + j + k <= I`` are observable; the
plane ``i + j + k = I`` separates the known past from the future that the
reserves must cover.

Generative chain per occurrence year: the ultimate claim count is Poisson
with mean ``expected_counts[i]``; it is split across reporting lags by a
multinomial over ``lag_probs``; active counts then thin along the run-off
axis by binomial survival.  ``survival[k]`` is the *cumulative* fraction of
reported claims still active k years after reporting (``survival[0] = 1``),
so the per-year binomial success probability is the conditional ratio
``survival[k] / survival[k-1]`` (0/0 treated as 0).  This makes the cell
expectation ``expected_counts[i] * lag_probs[j] * survival[k]`` hold exactly.

Each active claim pays in run-off year k with probability ``pay_prob[k]``
(depending on k only), and payment amounts are Gamma with mean
``severity_mean[j, k]`` and variance ``severity_var[j, k]`` (no dependence
on the occurrence year).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .streams import PROB_TOL, RandomStream, gamma_shape_scale

__all__ = [
    "ClaimTensor",
    "ModelParams",
    "PaymentTensor",
    "SimulationPath",
    "make_expected_counts",
    "param_errors",
    "simulate_counts",
    "simulate_path",
    "simulate_payments",
    "validate_params",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full parameter set of the claim model.

    Scalar values for ``expected_counts``, ``pay_prob``, ``severity_mean``
    and ``severity_var`` are broadcast to the full index range.  Instances
    are immutable (arrays are frozen) and safe to share across workers.
    """

    occurrence_years: int
    max_lag: int
    max_runoff: int
    expected_counts: np.ndarray
    lag_probs: np.ndarray
    survival: np.ndarray
    pay_prob: np.ndarray
    severity_mean: np.ndarray
    severity_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "occurrence_years", int(self.occurrence_years))
        object.__setattr__(self, "max_lag", int(self.max_lag))
        object.__setattr__(self, "max_runoff", int(self.max_runoff))
        n_i, n_j, n_k = self.occurrence_years, self.max_lag, self.max_runoff + 1
        for name, shape in (
            ("expected_counts", (n_i,)),
            ("pay_prob", (n_k,)),
            ("severity_mean", (n_j, n_k)),
            ("severity_var", (n_j, n_k)),
        ):
            raw = np.asarray(getattr(self, name), dtype=float)
            if raw.ndim == 0:
                raw = np.broadcast_to(raw, shape)
            object.__setattr__(self, name, _frozen(np.array(raw, dtype=float)))
        object.__setattr__(self, "lag_probs", _frozen(np.array(self.lag_probs, dtype=float)))
        object.__setattr__(self, "survival", _frozen(np.array(self.survival, dtype=float)))

    @property
    def dims(self) -> tuple[int, int, int]:
        """Tensor shape ``(I, J, K+1)``."""
        return self.occurrence_years, self.max_lag, self.max_runoff + 1

    def survival_ratios(self) -> np.ndarray:
        """Conditional year-on-year survival probabilities (index 0 is 1)."""
        eta = self.survival
        ratios = np.ones_like(eta)
        prev = eta[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[1:] = np.where(prev > 0, eta[1:] / np.where(prev > 0, prev, 1.0), 0.0)
        return ratios


def make_expected_counts(base: float, growth: float, years: int) -> np.ndarray:
    """Expected ultimate counts growing geometrically: base * (1+growth)^(i-1)."""
    if not base > 0:
        raise ParameterError(f"base count must be > 0, got {base!r}")
    if not growth > -1:
        raise ParameterError(f"growth must be > -1, got {growth!r}")
    if years < 1:
        raise ParameterError(f"years must be >= 1, got {years!r}")
    return base * (1.0 + growth) ** np.arange(years, dtype=float)


def param_errors(params: ModelParams) -> list[str]:
    """Every violated parameter constraint, with index and value; empty if valid."""
    errs: list[str] = []
    n_i, n_j, n_k = params.dims
    if n_i < 1:
        errs.append(f"occurrence_years must be >= 1, got {params.occurrence_years}")
    if n_j < 1:
        errs.append(f"max_lag must be >= 1, got {params.max_lag}")
    if params.max_runoff < 0:
        errs.append(f"max_runoff must be >= 0, got {params.max_runoff}")
    if errs:
        return errs

    def check_shape(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> bool:
        if arr.shape != shape:
            errs.append(f"{name} has shape {arr.shape}, expected {shape}")
            return False
        if not np.all(np.isfinite(arr)):
            errs.append(f"{name} contains non-finite values")
            return False
        return True

    if check_shape("expected_counts", params.expected_counts, (n_i,)):
        for i in np.nonzero(params.expected_counts < 0)[0]:
            errs.append(f"expected_counts[{i}] = {params.expected_counts[i]} is negative")

    if check_shape("lag_probs", params.lag_probs, (n_j,)):
        for j in np.nonzero(params.lag_probs < 0)[0]:
            errs.append(f"lag_probs[{j}] = {params.lag_probs[j]} is negative")
        total = float(params.lag_probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            errs.append(f"lag_probs sum {total} != 1 (tolerance {PROB_TOL})")

    if check_shape("survival", params.survival, (n_k,)):
        eta = params.survival
        if eta[0] != 1.0:
            errs.append(f"survival[0] = {eta[0]} != 1")
        for k in np.nonzero((eta < 0) | (eta > 1))[0]:
            errs.append(f"survival[{k}] = {eta[k]} outside [0, 1]")
        for k in np.nonzero(np.diff(eta) > 0)[0]:
            errs.append(f"survival not non-increasing at k={k + 1} ({eta[k]} -> {eta[k + 1]})")

    if check_shape("pay_prob", params.pay_prob, (n_k,)):
        for k in np.nonzero((params.pay_prob < 0) | (params.pay_prob > 1))[0]:
            errs.append(f"pay_prob[{k}] = {params.pay_prob[k]} outside [0, 1]")

    if check_shape("severity_mean", params.severity_mean, (n_j, n_k)):
        for j, k in zip(*np.nonzero(params.severity_mean <= 0)):
            errs.append(f"severity_mean[{j},{k}] = {params.severity_mean[j, k]} must be > 0")

    if check_shape("severity_var", params.severity_var, (n_j, n_k)):
        for j, k in zip(*np.nonzero(params.severity_var < 0)):
            errs.append(f"severity_var[{j},{k}] = {params.severity_var[j, k]} is negative")

    return errs


def validate_params(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if valid, else raise listing every violation.

    A plateau in the survival curve (equal consecutive positive values) is
    accepted with a warning; calibrated real-world curves can plateau.
    """
    errs = param_errors(params)
    if errs:
        raise ParameterError("invalid model parameters:\n  - " + "\n  - ".join(errs))
    eta = params.survival
    flat = np.nonzero((np.diff(eta) == 0) & (eta[:-1] > 0))[0]
    if flat.size:
        warnings.warn(
            f"survival curve plateaus at k={int(flat[0]) + 1}; claims there never close",
            UserWarning,
            stacklevel=2,
        )
    return params


@dataclass(frozen=True, eq=False)
class ClaimTensor:
    """Active-claim counts, and payment counts once payments were simulated.

    ``counts[i-1, j, k]`` never increases along k; ``0 <= pay_counts <= counts``.
    """

    counts: np.ndarray
    pay_counts: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "counts", _frozen(np.array(self.counts, dtype=np.int64)))
        if self.pay_counts is not None:
            object.__setattr__(self, "pay_counts", _frozen(np.array(self.pay_counts, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class PaymentTensor:
    """Aggregate payment amounts per cell; zero wherever no payment occurred."""

    payments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payments", _frozen(np.array(self.payments, dtype=float)))


@dataclass(frozen=True, eq=False)
class SimulationPath:
    """One fully simulated world: parameters, counts and payments.

    ``severities`` is only present when the path was simulated with
    ``retain_severities=True``; it maps ``(j, k)`` to the individual payment
    amounts of that (lag, run-off) cell, pooled over occurrence years in
    ascending order.
    """

    params: ModelParams
    claims: ClaimTensor
    payments: PaymentTensor
    severities: dict[tuple[int, int], np.ndarray] | None = None


def simulate_counts(stream: RandomStream, params: ModelParams) -> ClaimTensor:
    """Draw the active-claim count tensor for one world.

    Assumes ``params`` passed :func:`validate_params`.  Counts are monotone
    non-increasing along the run-off axis by construction.
    """
    gen = stream.generator
    n_i, n_j, n_k = params.dims
    counts = np.zeros((n_i, n_j, n_k), dtype=np.int64)
    ultimates = gen.poisson(params.expected_counts)
    pvals = params.lag_probs / params.lag_probs.sum()
    counts[:, :, 0] = gen.multinomial(ultimates, pvals)
    ratios = params.survival_ratios()
    for k in range(1, n_k):
        counts[:, :, k] = gen.binomial(counts[:, :, k - 1], ratios[k])
    return ClaimTensor(counts=counts)


def simulate_payments(
    stream: RandomStream,
    params: ModelParams,
    counts: ClaimTensor,
    retain_severities: bool = False,
):
    """Draw payment counts and amounts on top of a count tensor.

    Per cell, the payment count is Binomial(active count, pay_prob[k]) and
    the cell amount is the sum of that many independent Gamma severities.
    All severities of a path are drawn in a single vectorized call with
    cells ordered ascending (i, j, k), so the draw sequence is identical
    whether or not individual payments are retained.  Cells with zero
    severity variance pay exactly the mean per payment.

    Returns ``(pay_counts, PaymentTensor, severities)`` where ``severities``
    is None unless ``retain_severities`` is set.
    """
    gen = stream.generator
    active = counts.counts
    pay_counts = gen.binomial(active, params.pay_prob[None, None, :])

    ew = np.broadcast_to(params.severity_mean[None, :, :], pay_counts.shape)
    var = np.broadcast_to(params.severity_var[None, :, :], pay_counts.shape)
    stochastic = var > 0.0

    payments = np.where(stochastic, 0.0, pay_counts * ew)

    nu_sto = pay_counts[stochastic]
    draws = np.empty(0)
    starts = np.zeros(nu_sto.shape[0], dtype=np.int64)
    if nu_sto.size and nu_sto.sum() > 0:
        shape, scale = gamma_shape_scale(ew[stochastic], var[stochastic])
        draws = gen.gamma(np.repeat(shape, nu_sto), np.repeat(scale, nu_sto))
        starts = np.concatenate(([0], np.cumsum(nu_sto)[:-1])).astype(np.int64)
        totals = np.zeros(nu_sto.shape[0])
        filled = nu_sto > 0
        totals[filled] = np.add.reduceat(draws, starts[filled])
        payments[stochastic] = totals

    severities = None
    if retain_severities:
        severities = _collect_severities(pay_counts, stochastic, ew, draws, starts)
    return pay_counts, PaymentTensor(payments=payments), severities


def _collect_severities(pay_counts, stochastic, ew, draws, starts):
    """Pool individual payments per (lag, run-off) cell, occurrence-ascending."""
    start_grid = np.zeros(pay_counts.shape, dtype=np.int64)
    start_grid[stochastic] = starts
    n_i, n_j, n_k = pay_counts.shape
    severities: dict[tuple[int, int], np.ndarray] = {}
    for j in range(n_j):
        for k in range(n_k):
            chunks = []
            for i in range(n_i):
                nu = int(pay_counts[i, j, k])
                if nu == 0:
                    continue
                if stochastic[i, j, k]:
                    s = int(start_grid[i, j, k])
                    chunks.append(draws[s : s + nu])
                else:
                    chunks.append(np.full(nu, ew[i, j, k]))
            if chunks:
                severities[(j, k)] = np.concatenate(chunks)
    return severities


def simulate_path(
    stream: RandomStream, params: ModelParams, retain_severities: bool = False
) -> SimulationPath:
    """Simulate one complete world; deterministic given (master_seed, stream_id).

    Assumes ``params`` passed :func:`validate_params`.
    """
    count_tensor = simulate_counts(stream, params)
    pay_counts, payment_tensor, severities = simulate_payments(
        stream, params, count_tensor, retain_severities=retain_severities
    )
    claims = ClaimTensor(counts=count_tensor.counts, pay_counts=pay_counts)
    return SimulationPath(
        params=params, claims=claims, payments=payment_tensor, severities=severities
    )
