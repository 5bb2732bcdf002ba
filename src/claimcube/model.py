"""Model parameters and the generator of one simulated claim world.

The world is a three-axis tensor indexed by

* occurrence year ``i = 1..I`` (array axis 0, stored 0-based),
* reporting lag ``j = 0..J-1`` (axis 1; ``j = 0`` means reported in the
  occurrence year),
* run-off year ``k = 0..K`` (axis 2; years since reporting).

At the valuation date only cells with ``i + j + k <= I`` are observable; the
plane ``i + j + k = I`` separates the known past from the future that the
reserves must cover.

Generative chain per (occurrence year, lag) column: the reported claim count
is Poisson with mean ``expected_counts[i] * lag_probs[j]``, independently
across columns.  ``survival[k]`` is the *cumulative* fraction of reported
claims still active k years after reporting (``survival[0] = 1``), so a
claim's last active run-off year L has ``P(L >= k) = survival[k]``.  One
multinomial splits each column over L, and the count in run-off year k is the
number of claims with ``L >= k``, with expectation exactly
``expected_counts[i] * lag_probs[j] * survival[k]``.

Each active claim pays in run-off year k with probability ``pay_prob[k]``
(depending on k only), and payment amounts are Gamma with mean
``severity_mean[j, k]`` and variance ``severity_var[j, k]`` (no dependence
on the occurrence year).  A cell's payment total is drawn as one Gamma
variate (the sum of iid Gammas is Gamma), so a world costs time and memory
in proportion to its cells, not its payments.  Individual amounts exist
only on request, split from the cell totals by a conditional Dirichlet.

The kernel draws a *block* of worlds at once, as tensors with a leading
world axis ``(n, I, J, K+1)``: one generator call per stage (Poisson,
multinomial, binomial, Gamma) for the whole block, each stage on its own
generator of the block's :class:`~claimcube.streams.RandomStream`.  The
first ``n`` worlds of a block do not depend on how many more are drawn, and
a single world (``size=None``) is the block's first world as ``(I, J, K+1)``
tensors.  The per-parameter constants of the kernel are computed once per
:class:`ModelParams` and cached on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, _require_integer
from .streams import BINOMIAL, GAMMA, MULTINOMIAL, POISSON, PROB_TOL, RandomStream, gamma_shape_scale

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

#: Most cells I * J * (K+1) a configured world may have: its three 8-byte
#: tensors (counts, payment counts, payments) then take 0.75 GiB, and its
#: draw peaks at about 40 bytes per cell, near 1.25 GiB.
MAX_WORLD_CELLS = 2**25


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _shared(cls, **arrays):
    """A :class:`ClaimTensor` or :class:`PaymentTensor` holding ``arrays``
    as they are, without the frozen copy its constructor takes.

    Only for arrays the kernel froze itself, or read-only views of them.
    """
    tensor = object.__new__(cls)
    for name, arr in arrays.items():
        object.__setattr__(tensor, name, arr)
    return tensor


class _Kernel(NamedTuple):
    """Per-parameter constants of the world kernel."""

    column_means: np.ndarray  # (I, J): expected_counts[i] * lag_probs[j]
    last_active_probs: np.ndarray  # (K+1,): survival[k] - survival[k+1]
    stochastic: np.ndarray  # (J, K+1): severity variance > 0
    shape: np.ndarray  # Gamma shape of one severity, flat over (j, k); 1 where not stochastic
    scale: np.ndarray  # Gamma scale, flat over (j, k); 1 where not stochastic
    fixed_mean: np.ndarray  # (J, K+1): severity mean of a zero-variance cell, else 0


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

    @cached_property
    def _kernel(self) -> _Kernel:
        """The world kernel's constants; valid once the params pass :func:`validate_params`."""
        stochastic = self.severity_var > 0.0
        shape = np.ones(stochastic.size)
        scale = np.ones(stochastic.size)
        flat = stochastic.ravel()
        shape[flat], scale[flat] = gamma_shape_scale(
            self.severity_mean.ravel()[flat], self.severity_var.ravel()[flat]
        )
        return _Kernel(
            column_means=_frozen(self.expected_counts[:, None] * self.lag_probs[None, :]),
            last_active_probs=_frozen(-np.diff(self.survival, append=0.0)),
            stochastic=_frozen(stochastic),
            shape=_frozen(shape),
            scale=_frozen(scale),
            fixed_mean=_frozen(np.where(stochastic, 0.0, self.severity_mean)),
        )


def make_expected_counts(base: float, growth: float, years: int) -> np.ndarray:
    """Expected ultimate counts growing geometrically: base * (1+growth)^(i-1)."""
    if not base > 0:
        raise ParameterError(f"base count must be > 0, got {base!r}")
    if not growth > -1:
        raise ParameterError(f"growth must be > -1, got {growth!r}")
    if years < 1:
        raise ParameterError(f"years must be >= 1, got {years!r}")
    with np.errstate(over="ignore"):  # an overflow is a non-finite count, named by param_errors
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
    if n_i * n_j * n_k > MAX_WORLD_CELLS:
        errs.append(
            f"occurrence_years: the world has I*J*(K+1) = {n_i * n_j * n_k} cells, "
            f"more than MAX_WORLD_CELLS = {MAX_WORLD_CELLS}"
        )

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
        # Every claim count, and every sum of counts, is at most the world's
        # total claims.  Bounding their mean at 2**62 keeps them far below
        # int64's 2**63 and numpy's Poisson limit (about 9.2e18).
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected here
            total = float(params.expected_counts.sum())
        if total > 2**62:
            errs.append(f"expected_counts sum to {total!r} claims, more than 2**62")

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
    A block of worlds carries a leading world axis.  The constructor keeps
    frozen int64 copies of its arguments.
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
    """One fully simulated world, or a block of them: parameters, counts and payments.

    The tensors of a block carry a leading world axis.  ``severities`` is only
    present when the path was simulated with ``retain_severities=True``; it
    maps ``(j, k)`` to the individual payment amounts of that (lag, run-off)
    cell, pooled over occurrence years in ascending order (of the last world,
    for a block).
    """

    params: ModelParams
    claims: ClaimTensor
    payments: PaymentTensor
    severities: dict[tuple[int, int], np.ndarray] | None = None


def _is_block(path: SimulationPath) -> bool:
    """Whether ``path`` is a block of worlds (its tensors have a world axis)."""
    return path.claims.counts.ndim == 4


def _require_world(path: SimulationPath, function: str) -> None:
    """Raise a :class:`ParameterError` naming ``function`` if ``path`` is a block."""
    if _is_block(path):
        raise ParameterError(
            f"{function} takes one world, got a block of {len(path.claims.counts)} worlds"
        )


def simulate_counts(stream: RandomStream, params: ModelParams, size: int | None = None) -> ClaimTensor:
    """Draw the active-claim counts of one world, or of a block of ``size`` worlds.

    Two generator calls: Poisson (i, j) columns, then one multinomial over the
    last active run-off year with probabilities ``survival[k] - survival[k+1]``
    (``survival[K+1] = 0``); ``counts[..., k]`` counts the claims whose last
    active year is >= k.  ``size`` must be None or an integer >= 1.  Assumes
    ``params`` passed :func:`validate_params`.
    """
    if size is not None:
        _require_integer("size", size, 1)
    kernel = params._kernel
    shape = kernel.column_means.shape if size is None else (size, *kernel.column_means.shape)
    gens = stream.generators
    reported = gens[POISSON].poisson(np.broadcast_to(kernel.column_means, shape))
    counts = gens[MULTINOMIAL].multinomial(reported, kernel.last_active_probs)
    # Reverse cumulative sum over k, in place: last active year -> active counts.
    np.cumsum(counts[..., ::-1], axis=-1, out=counts[..., ::-1])
    return _shared(ClaimTensor, counts=_frozen(counts), pay_counts=None)


def simulate_payments(
    stream: RandomStream,
    params: ModelParams,
    counts: ClaimTensor,
    retain_severities: bool = False,
):
    """Draw payment counts and cell amounts on top of a count tensor (or block).

    Per cell, the payment count ``nu`` is Binomial(active count, pay_prob[k])
    and the cell amount is the sum of ``nu`` iid Gamma(shape, scale)
    severities.  That sum is drawn directly as one Gamma(nu * shape, scale)
    variate, which is exact by Gamma additivity; all cell totals come from a
    single call with cells ordered ascending (world, i, j, k), so the cost
    grows with the number of cells, not of payments.  Cells with zero
    severity variance pay exactly ``nu`` times the mean, without a draw.

    With ``retain_severities`` the individual amounts of the (last) world are
    drawn afterwards from :attr:`RandomStream.severity_generator`,
    conditional on the cell totals (see :func:`_split_totals`), so the draws
    of the plain path and hence every cell total are the same whether or not
    they are retained.

    Returns ``(pay_counts, PaymentTensor, severities)`` where ``severities``
    is None unless ``retain_severities`` is set.
    """
    kernel = params._kernel
    gens = stream.generators
    pay_counts = gens[BINOMIAL].binomial(counts.counts, params.pay_prob)

    payments = pay_counts * kernel.fixed_mean
    drawn = np.flatnonzero((pay_counts > 0) & kernel.stochastic)
    jk = drawn % kernel.stochastic.size  # flat (world, i, j, k) index -> (j, k)
    shape, scale = kernel.shape[jk], kernel.scale[jk]
    del jk  # freed before the draw: a block's peak memory is set here
    shape *= pay_counts.reshape(-1)[drawn]
    payments.reshape(-1)[drawn] = gens[GAMMA].gamma(shape, scale)
    _frozen(pay_counts)
    _frozen(payments)

    severities = None
    if retain_severities:
        world = (-1,) if pay_counts.ndim == 4 else ()
        severities = _split_totals(stream.severity_generator, params, pay_counts[world], payments[world])
    return pay_counts, _shared(PaymentTensor, payments=payments), severities


def _split_totals(gen, params, pay_counts, payments):
    """Individual payments per (lag, run-off) pool, occurrence-ascending.

    A stochastic cell with total S and ``nu`` payments is split as
    S * Dirichlet(shape, ..., shape): ``nu`` standard Gamma(shape) draws
    normalised by their sum.  By Lukacs' theorem the proportions of iid
    Gammas are independent of their sum, so this is the exact joint law of
    the individual amounts given S.  Each non-empty stochastic pool takes one
    ``standard_gamma`` call, in ascending (j, k) order.  Should a cell's draws
    all underflow to 0 (a tiny shape), S goes to one of its payments chosen
    uniformly, the shape -> 0 limit of the Dirichlet; these picks take one
    ``integers`` call after every pool is drawn.  Zero-variance pools pay
    the mean per payment.

    The retained amounts cost 8 bytes per payment.  They are drawn and
    normalised in runs of consecutive pools, each run in its own array of at
    most max(largest pool, I * J * (K+1)) payments, so the working arrays of
    the normalisation are bounded by one run rather than by the world.  Each
    pool's amounts are a view of its run's array.
    """
    n_i, _, n_k = pay_counts.shape
    nu = pay_counts.transpose(1, 2, 0).ravel()  # cells by pool (j, k), then occurrence year i
    totals = payments.transpose(1, 2, 0).ravel()
    sizes = nu.reshape(-1, n_i).sum(axis=1)
    ends = np.cumsum(sizes)
    kernel = params._kernel
    stochastic = kernel.stochastic.ravel()
    split_cells = np.repeat(stochastic, n_i)
    cap = max(int(sizes.max()), nu.size)
    severities: dict[tuple[int, int], np.ndarray] = {}
    lumped = []  # per run: (run, starts, lengths, totals) of the cells whose draws all underflowed
    first = offset = 0  # the run's first pool and first payment
    while offset < ends[-1]:
        stop = int(np.searchsorted(ends, offset + cap, side="right"))
        run = np.empty(int(ends[stop - 1]) - offset)
        for p in np.flatnonzero(sizes[first:stop]) + first:
            pool = run[ends[p] - sizes[p] - offset : ends[p] - offset]
            if stochastic[p]:
                gen.standard_gamma(kernel.shape[p], out=pool)
            else:
                pool.fill(params.severity_mean.flat[p])
            severities[divmod(int(p), n_k)] = pool

        cells = slice(first * n_i, stop * n_i)
        lengths = nu[cells]
        filled = lengths > 0
        lengths = lengths[filled]
        starts = np.cumsum(lengths) - lengths
        sums = np.add.reduceat(run, starts)
        split = split_cells[cells][filled]
        run_totals = totals[cells][filled]
        # Normalise before scaling: g / sum <= 1, so no quotient overflows.
        normal = split & (sums > 0)
        run /= np.repeat(np.where(normal, sums, 1.0), lengths)
        run *= np.repeat(np.where(split, run_totals, 1.0), lengths)
        under = split & (sums == 0) & (run_totals > 0)
        if under.any():
            lumped.append((run, starts[under], lengths[under], run_totals[under]))
        first, offset = stop, int(ends[stop - 1])

    highs = [high for _, _, high, _ in lumped]
    picks = gen.integers(np.concatenate(highs) if highs else np.empty(0, np.int64))
    for run, starts, _, cell_totals in lumped:
        run[starts + picks[: len(starts)]] = cell_totals
        picks = picks[len(starts) :]
    return severities


def simulate_path(
    stream: RandomStream,
    params: ModelParams,
    retain_severities: bool = False,
    *,
    size: int | None = None,
) -> SimulationPath:
    """Simulate one complete world, or the first ``size`` worlds of the stream's block.

    Deterministic given (master_seed, stream_id); a single world is the
    block's first.  Assumes ``params`` passed :func:`validate_params`.
    """
    count_tensor = simulate_counts(stream, params, size)
    pay_counts, payment_tensor, severities = simulate_payments(
        stream, params, count_tensor, retain_severities=retain_severities
    )
    claims = _shared(ClaimTensor, counts=count_tensor.counts, pay_counts=pay_counts)
    return SimulationPath(
        params=params, claims=claims, payments=payment_tensor, severities=severities
    )
