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
claim's last active run-off year L has ``P(L >= k) = survival[k]``.  Split
over L, a column's counts are independent Poisson (Poisson colouring); the
count in run-off year k, of the claims with ``L >= k``, has expectation
exactly ``expected_counts[i] * lag_probs[j] * survival[k]``.

Each active claim pays in run-off year k with probability ``pay_prob[k]``
(depending on k only), and payment amounts are Gamma with mean
``severity_mean[j, k]`` and variance ``severity_var[j, k]`` (no dependence
on the occurrence year).  A cell's payment total is drawn as one Gamma
variate (the sum of iid Gammas is Gamma), so a world costs time and memory
in proportion to its cells, not its payments.  Individual amounts exist
only on request, split from the cell totals by a conditional Dirichlet: a
retained world keeps copies of its payment counts and cell totals and its own
severity generator state, and each read of its amounts replays the split run
by run from that state (:class:`RetainedSeverities`), so no array of a world
grows with its payments.

The kernel draws a *block* of worlds at once, as tensors with a leading
world axis ``(n, I, J, K+1)``: one generator call per stage (Poisson,
binomial, Gamma) for the whole block, each stage on its own generator of
the block's :class:`~claimcube.streams.RandomStream`.  The
first ``n`` worlds of a block do not depend on how many more are drawn, and
a single world (``size=None``) is the block's first world as ``(I, J, K+1)``
tensors.  A :class:`ModelParams` checks every rule when it is built and
holds the kernel's per-parameter constants (``ModelParams._kernel``), so no
caller validates a set first.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, fields
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, _require_integer, _shown, integer_error
from .streams import BINOMIAL, GAMMA, POISSON, PROB_TOL, RandomStream, gamma_shape_scale

__all__ = [
    "ClaimTensor",
    "ModelParams",
    "PaymentTensor",
    "RetainedSeverities",
    "SimulationPath",
    "make_expected_counts",
    "simulate_counts",
    "simulate_path",
    "simulate_payments",
    "validate_params",
]

#: Most cells I * J * (K+1) a configured world may have: its three 8-byte
#: tensors (counts, payment counts, payments) then take 0.75 GiB, and its
#: traced draw peaks at 57 bytes per cell when every cell pays, 1.8 GiB.
MAX_WORLD_CELLS = 2**25


#: The dimensions of a parameter set.
_DIMENSIONS = ("occurrence_years", "max_lag", "max_runoff")

#: The bounds of each integer value: a dimension's minimum, and the range of
#: the ``years`` of a growth curve, :func:`make_expected_counts`.
_INTEGERS = {"occurrence_years": (1,), "max_lag": (1,), "max_runoff": (0,), "years": (1, MAX_WORLD_CELLS)}

#: Each array field's axes, as indices into ``ModelParams.dims`` (I, J, K+1).
_AXES = {
    "expected_counts": (0,), "lag_probs": (1,), "survival": (2,),
    "pay_prob": (2,), "severity_mean": (1, 2), "severity_var": (1, 2),
}

#: The array fields a scalar may stand for, broadcast to the field's full shape.
_BROADCAST = ("expected_counts", "pay_prob", "severity_mean", "severity_var")

#: Each array field's range rule: its broken cells, and what is wrong with each.
_RANGES = {
    "expected_counts": (lambda x: x < 0, "is negative"),
    "lag_probs": (lambda x: x < 0, "is negative"),
    "survival": (lambda x: (x < 0) | (x > 1), "outside [0, 1]"),
    "pay_prob": (lambda x: (x < 0) | (x > 1), "outside [0, 1]"),
    "severity_mean": (lambda x: x <= 0, "must be > 0"),
    "severity_var": (lambda x: x < 0, "is negative"),
}

#: The lower bound of each argument of a growth curve, :func:`make_expected_counts`.
_CURVE = {"base": 0, "growth": -1}


def _form_errors(**values) -> list[str]:
    """Every broken rule on the form of :class:`ModelParams` fields and of the
    ``base``, ``growth`` and ``years`` of :func:`make_expected_counts`.

    A dimension is an integer, not a bool, of at least its minimum, and
    ``years`` one in 1 .. :data:`MAX_WORLD_CELLS`; an array field is numeric
    with the field's number of axes, or a scalar where :class:`ModelParams`
    broadcasts one; ``base`` and ``growth`` are finite real numbers above their
    bounds.  Ranges are :func:`validate_params`'s.
    """
    errs: list[str] = []
    for key, value in values.items():
        if key in _INTEGERS:
            if error := integer_error(key, value, *_INTEGERS[key]):
                errs.append(error)
        elif key in _CURVE:
            try:
                ok = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
            except OverflowError:  # an integer past float range
                ok = False
            if not (ok and value > _CURVE[key]):
                errs.append(f"expected_counts.{key} must be a finite number > {_CURVE[key]}, got {_shown(value)}")
        else:
            try:
                shape = None if value is None else np.asarray(value, dtype=float).shape  # numpy reads None as NaN
            except (TypeError, ValueError, OverflowError):  # OverflowError: an integer past float range
                shape = None
            axes = len(_AXES[key])
            if shape is None:
                errs.append(f"{key} must be a numeric array")
            elif len(shape) != axes and not (shape == () and key in _BROADCAST):
                scalar = "a number or " if key in _BROADCAST else ""
                errs.append(f"{key} must be {scalar}a {axes}-D array, got shape {shape}")
    return errs


def _dimension_errors(occurrence_years: int, max_lag: int, max_runoff: int) -> list[str]:
    """The world bound on dimensions that pass their form rules: at most
    :data:`MAX_WORLD_CELLS` cells.  It is checked before any array is broadcast."""
    if (cells := occurrence_years * max_lag * (max_runoff + 1)) > MAX_WORLD_CELLS:
        return [f"occurrence_years: the world has I*J*(K+1) = {cells} cells, more than MAX_WORLD_CELLS = {MAX_WORLD_CELLS}"]
    return []


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

    Its fields are the keys of a configuration's ``model`` section.  Scalar
    values for ``expected_counts``, ``pay_prob``, ``severity_mean`` and
    ``severity_var`` are broadcast to the full index range as read-only
    views.  Instances are immutable and safe to share across workers.

    A set that breaks a rule is not built: the constructor checks the form
    rules, then the dimension rules before any scalar is broadcast, then the
    range rules of :func:`validate_params`, and raises one
    :class:`ParameterError` whose ``args`` are every broken rule of the first
    group that fails.  A built set holds the world kernel's constants as
    ``_kernel``.
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
        if errs := _form_errors(**{field.name: getattr(self, field.name) for field in fields(self)}):
            raise ParameterError(*errs)
        for name in _DIMENSIONS:
            object.__setattr__(self, name, int(getattr(self, name)))
        if errs := _dimension_errors(self.occurrence_years, self.max_lag, self.max_runoff):
            raise ParameterError(*errs)
        for name, axes in _AXES.items():
            arr = _frozen(np.array(getattr(self, name), dtype=float))
            if arr.ndim == 0 and name in _BROADCAST:
                arr = np.broadcast_to(arr, tuple(self.dims[axis] for axis in axes))  # a read-only view
            object.__setattr__(self, name, arr)
        validate_params(self)
        object.__setattr__(self, "_kernel", _kernel_constants(self))

    @property
    def dims(self) -> tuple[int, int, int]:
        """Tensor shape ``(I, J, K+1)``."""
        return self.occurrence_years, self.max_lag, self.max_runoff + 1


def _kernel_constants(params: ModelParams) -> _Kernel:
    """The world kernel's constants, which every draw stage and the closed form read."""
    stochastic = params.severity_var > 0.0
    shape = np.ones(stochastic.size)
    scale = np.ones(stochastic.size)
    flat = stochastic.ravel()
    shape[flat], scale[flat] = gamma_shape_scale(params.severity_mean.ravel()[flat], params.severity_var.ravel()[flat])
    return _Kernel(
        column_means=_frozen(params.expected_counts[:, None] * params.lag_probs[None, :]),
        last_active_probs=_frozen(-np.diff(params.survival, append=0.0)),
        stochastic=_frozen(stochastic),
        shape=_frozen(shape),
        scale=_frozen(scale),
        fixed_mean=_frozen(np.where(stochastic, 0.0, params.severity_mean)),
    )


def make_expected_counts(base: float, growth: float, years: int) -> np.ndarray:
    """Expected ultimate counts growing geometrically: base * (1+growth)^(i-1)."""
    if errs := _form_errors(base=base, growth=growth, years=years):
        raise ParameterError(*errs)
    with np.errstate(over="ignore"):  # an overflow is a non-finite count, which ModelParams rejects
        return base * (1.0 + growth) ** np.arange(years, dtype=float)


def validate_params(params: ModelParams) -> ModelParams:
    """Return ``params`` if it breaks no range rule, else raise a
    :class:`ParameterError` whose ``args`` are the broken rules, each with
    index and value: per field its shape, finiteness and range, then the rules
    across cells (total claims, the lag sum, survival's start and order) and
    the severity overflows, of one cell and then of the reserve variance.

    The range rules are the last check of the :class:`ModelParams`
    constructor, which calls this function, so it returns every built set
    unchanged; calling it again re-checks a set that cannot fail.
    """
    errs: list[str] = []
    ok = set()  # the fields of the right shape with finite values
    for name, axes in _AXES.items():
        arr, shape = getattr(params, name), tuple(params.dims[axis] for axis in axes)
        if arr.shape != shape:
            errs.append(f"{name} has shape {arr.shape}, expected {shape}")
        elif not np.all(np.isfinite(arr)):
            errs.append(f"{name} contains non-finite values")
        else:
            broken, wrong = _RANGES[name]
            for cell in zip(*np.nonzero(broken(arr))):
                errs.append(f"{name}[{','.join(map(str, cell))}] = {arr[cell]} {wrong}")
            ok.add(name)

    claims = math.inf  # the mean total claims, once the counts pass their rules
    if "expected_counts" in ok:
        # Every claim count, and every sum of counts, is at most the world's
        # total claims.  Bounding their mean at 2**62 keeps them far below
        # int64's 2**63 and numpy's Poisson limit (about 9.2e18).
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected here
            claims = float(params.expected_counts.sum())
        if claims > 2**62:
            errs.append(f"expected_counts sum to {claims!r} claims, more than 2**62")
    if "lag_probs" in ok:
        total = float(params.lag_probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            errs.append(f"lag_probs sum {total} != 1 (tolerance {PROB_TOL})")
    if "survival" in ok:
        eta = params.survival
        if eta[0] != 1.0:
            errs.append(f"survival[0] = {eta[0]} != 1")
        for k in np.nonzero(np.diff(eta) > 0)[0]:
            errs.append(f"survival not non-increasing at k={k + 1} ({eta[k]} -> {eta[k + 1]})")

    if {"severity_mean", "severity_var"} <= ok:
        # The kernel draws Gamma(nu * shape, scale) and the closed-form
        # moments use var + mean**2: all must be finite.
        mean, var = params.severity_mean, params.severity_var
        with np.errstate(all="ignore"):  # an overflow is inf, rejected here
            shape, scale = gamma_shape_scale(mean, var)
            finite_gamma = np.isfinite(shape) & np.isfinite(scale)
            overflows = ~np.isfinite(var + mean * mean) | ((var > 0) & ~finite_gamma)
        for j, k in zip(*np.nonzero(overflows)):
            errs.append(
                f"severity_mean[{j},{k}] = {mean[j, k]} with severity_var {var[j, k]} overflows "
                "var + mean**2 or the Gamma shape mean**2 / var or scale var / mean"
            )
        if not overflows.any() and claims <= 2**62:
            # One claim's E[Y(t)**2] is at most (K+1)**2 * max(var + mean**2),
            # a reserve's variance sums at most max(1, total claims) of them, and
            # the factor 2 leaves headroom for the partial sums.
            second = var + mean * mean
            j, k = np.unravel_index(np.argmax(second), second.shape)
            if not math.isfinite(2.0 * max(1.0, claims) * params.dims[2] ** 2 * float(second[j, k])):
                errs.append(
                    f"severity_mean[{j},{k}] = {mean[j, k]} with severity_var {var[j, k]} overflows "
                    "the reserve variance bound 2 * max(1, sum(expected_counts)) * (max_runoff + 1)**2 "
                    "* (var + mean**2)"
                )

    if errs:
        raise ParameterError(*errs)
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
    present when the path was simulated with ``retain_severities=True``; its
    ``items()`` yield ``(j, k)`` and the individual payment amounts of that
    (lag, run-off) cell, pooled over occurrence years in ascending order (of
    the last world, for a block).  A simulated path's severities are a
    :class:`RetainedSeverities`, which replays the amounts on each call of
    ``items()``; a hand-built path may give any mapping of cells to arrays.
    """

    params: ModelParams
    claims: ClaimTensor
    payments: PaymentTensor
    severities: RetainedSeverities | Mapping[tuple[int, int], np.ndarray] | None = None


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

    One Poisson call draws the claims of each (i, j) column by last active
    year L, independently with means ``column_means[i, j] * (survival[L] -
    survival[L+1])`` (``survival[K+1] = 0``); ``counts[..., k]`` then counts
    the claims with L >= k.  ``size`` must be None or an integer >= 1.
    """
    if size is not None:
        _require_integer("size", size, 1)
    kernel = params._kernel
    means = kernel.column_means[:, :, None] * kernel.last_active_probs
    counts = stream.generators[POISSON].poisson(means, None if size is None else (size, *means.shape))
    # Reverse cumulative sum over k, in place: last active year -> active counts.
    np.cumsum(counts[..., ::-1], axis=-1, out=counts[..., ::-1])
    return _shared(ClaimTensor, counts=_frozen(counts), pay_counts=None)


def simulate_payments(stream: RandomStream, params: ModelParams, counts: ClaimTensor):
    """Draw payment counts and cell amounts on top of a count tensor (or block).

    Per cell, the payment count ``nu`` is Binomial(active count, pay_prob[k])
    and the cell amount is the sum of ``nu`` iid Gamma(shape, scale)
    severities.  That sum is drawn directly as one Gamma(nu * shape, scale)
    variate, which is exact by Gamma additivity; all cell totals come from a
    single call with cells ordered ascending (world, i, j, k), so the cost
    grows with the number of cells, not of payments.  Cells with zero
    severity variance pay exactly ``nu`` times the mean, without a draw.

    Returns ``(pay_counts, PaymentTensor)``.
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
    return _frozen(pay_counts), _shared(PaymentTensor, payments=_frozen(payments))


def _split_totals(state, params, pay_counts, payments):
    """Replay the individual payments of one world, pool by pool.

    Yields ``((j, k), amounts)`` for each non-empty (lag, run-off) pool in
    ascending (j, k) order, the amounts pooled over occurrence years in
    ascending order.  The draws start from ``state``, a severity generator
    state from :meth:`RandomStream.severity_state`, so every call yields the
    same amounts bit for bit.

    A stochastic cell with total S and ``nu`` payments is split as
    S * Dirichlet(shape, ..., shape): ``nu`` standard Gamma(shape) draws
    normalised by their sum.  By Lukacs' theorem the proportions of iid
    Gammas are independent of their sum, so this is the exact joint law of
    the individual amounts given S.  Each non-empty stochastic pool takes one
    ``standard_gamma`` call, in ascending (j, k) order.  Should a cell's draws
    all underflow to 0 (a tiny shape), S goes to one of its payments chosen
    uniformly, the shape -> 0 limit of the Dirichlet.  Zero-variance pools
    pay the mean per payment.

    The amounts are drawn and normalised in runs of consecutive pools of at
    most max(largest pool, I * J * (K+1)) payments, and a run's pools are
    yielded, as read-only views of the run, before the next run is drawn, so
    a reader holds one run rather than the world.  A run takes the picks of
    its own underflowed cells in one ``integers`` call after its pools.

    Runs alternate between two buffers.  A buffer is drawn into again only
    once nothing aliases the run last drawn into it: numpy bases every view
    of a pool, or of such a view, on the run array, so a weak reference to
    the run tells.  While an alias lives, the next run takes a new buffer,
    so amounts a reader keeps never change.
    """
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    n_i, _, n_k = pay_counts.shape
    nu = pay_counts.transpose(1, 2, 0).ravel()  # cells by pool (j, k), then occurrence year i
    totals = payments.transpose(1, 2, 0).ravel()
    sizes = nu.reshape(-1, n_i).sum(axis=1)
    ends = np.cumsum(sizes)
    pool_starts, pool_ends = (ends - sizes).tolist(), ends.tolist()  # Python ints slice faster than numpy scalars
    kernel = params._kernel
    stochastic = kernel.stochastic.ravel()
    split_cells = np.repeat(stochastic, n_i)
    cap = max(int(sizes.max()), nu.size)
    buffers = [(None, None)] * 2  # per slot: a buffer and a weak reference to the run last drawn into it
    runs = first = offset = 0  # runs drawn so far, the run's first pool and first payment
    while offset < ends[-1]:
        stop = int(np.searchsorted(ends, offset + cap, side="right"))
        buffer, last = buffers[runs % 2]
        if buffer is None or last() is not None:
            buffer = np.empty(cap)
        # Through a memoryview, not the buffer array: numpy bases a view on the
        # first array up its chain that owns its data or whose base is no
        # array, so every view of the run, or of a view of it, holds the run.
        run = np.frombuffer(memoryview(buffer), count=int(ends[stop - 1]) - offset)
        buffers[runs % 2] = buffer, weakref.ref(run)
        pools = [
            (p, slice(pool_starts[p] - offset, pool_ends[p] - offset))
            for p in (np.flatnonzero(sizes[first:stop]) + first).tolist()
        ]
        for p, span in pools:
            if stochastic[p]:
                gen.standard_gamma(kernel.shape[p], out=run[span])
            else:
                run[span].fill(kernel.fixed_mean.flat[p])

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
        run[starts[under] + gen.integers(lengths[under])] = run_totals[under]
        run.flags.writeable = False
        for p, span in pools:
            yield divmod(p, n_k), run[span]
        runs, first, offset = runs + 1, stop, int(ends[stop - 1])


class RetainedSeverities:
    """The individual payment amounts of one world, replayed on each read.

    It holds frozen copies of the world's payment counts and cell totals and
    ``state``, the world's severity generator state, but no amount.  Each
    call of :meth:`items` replays the split of :func:`_split_totals` from
    that state, yielding ``((j, k), amounts)`` for every pool with a payment,
    in ascending (j, k) order, the amounts pooled over occurrence years in
    ascending order: every pass yields the same amounts bit for bit and holds
    two run buffers rather than the world.  A reader of one pool stops the
    pass at it.  Passes share no mutable state, so several threads, or
    interleaved passes, may read one world at once.
    """

    def __init__(self, params: ModelParams, pay_counts: np.ndarray, payments: np.ndarray, state: dict):
        self._params, self.state = params, state
        self._pay_counts = _frozen(np.array(pay_counts, dtype=np.int64))
        self._payments = _frozen(np.array(payments, dtype=float))

    def items(self):
        return _split_totals(self.state, self._params, self._pay_counts, self._payments)


def simulate_path(
    stream: RandomStream,
    params: ModelParams,
    retain_severities: bool = False,
    *,
    size: int | None = None,
) -> SimulationPath:
    """Simulate one complete world, or the first ``size`` worlds of the stream's block.

    Deterministic given (master_seed, stream_id); a single world is the
    block's first.  With ``retain_severities`` the path's ``severities``
    replay the individual amounts of the (last) world, conditional on its
    cell totals (see :func:`_split_totals`), from that world's own state,
    ``stream.severity_state(size or 1)``, which no stage generator shares, so
    the draws of the plain path and hence every cell total are the same
    whether or not they are retained.  Retaining draws no amount here: the
    split runs on each read of ``severities``.
    """
    count_tensor = simulate_counts(stream, params, size)
    pay_counts, payment_tensor = simulate_payments(stream, params, count_tensor)
    severities = None
    if retain_severities:
        world = () if size is None else (-1,)
        severities = RetainedSeverities(
            params, pay_counts[world], payment_tensor.payments[world], stream.severity_state(size or 1)
        )
    claims = _shared(ClaimTensor, counts=count_tensor.counts, pay_counts=pay_counts)
    return SimulationPath(
        params=params, claims=claims, payments=payment_tensor, severities=severities
    )
