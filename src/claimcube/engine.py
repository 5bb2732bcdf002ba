"""Monte Carlo driver, empirical reserve distributions and risk measures.

Replicates are drawn in blocks of ``B = block_replicates(params)`` worlds,
``max(1, BLOCK_CELLS // (I*J*(K+1)))``.  Replicate ``r`` is world ``r % B``
of block ``r // B``, which the kernel draws from stream id ``r // B`` of the
master seed.  :func:`replicate_path` gives that world alone, and
:func:`_replicate_loop` draws whole blocks from the same stream ids.  A
block of fewer than ``B`` worlds holds exactly the first worlds of the full
block, so replicate ``r`` does not depend on the number of replicates in the
run.  Every world taken out of a block is a frozen copy made by :func:`_world`.
Run settings follow :func:`run_errors`, the rules of configuration files.

Every replicate sweep (:func:`run_monte_carlo` and
:func:`claimcube.chainladder.compare_2d_3d`) runs through one loop,
:func:`_replicate_loop`, which hands out units, runs of consecutive blocks:
one block for :func:`run_monte_carlo`, a few for ``compare_2d_3d``.  Each
unit's blocks are drawn and reduced to arrays, one entry per world, by
whichever drawing thread takes the unit, and they are stored under its unit
index.  A sweep joins them in replicate order, so its results are
bit-identical for any worker count, unit size and scheduling order.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .aggregate import MomentPair, _world_statistics
from .errors import ParameterError, _require_integer, integer_error
from .model import ClaimTensor, ModelParams, PaymentTensor, SimulationPath, simulate_path
from .streams import MAX_SEED, RandomStream

__all__ = [
    "BLOCK_CELLS",
    "DEFAULT_QUANTILE_LEVELS",
    "DEFAULT_STATISTICS",
    "SUPPORTED_STATISTICS",
    "EmpiricalDistribution",
    "MonteCarloRun",
    "RiskReport",
    "block_replicates",
    "build_risk_report",
    "expected_shortfall",
    "replicate_path",
    "run_errors",
    "run_monte_carlo",
    "value_at_risk",
]

DEFAULT_STATISTICS = ("ibnr_count", "ibnr_reserve", "reported_reserve", "total_reserve")
#: VaR/ES levels of a run configuration that names none.
DEFAULT_QUANTILE_LEVELS = (0.75, 0.9, 0.95, 0.99)
#: Every statistic name :func:`run_monte_carlo` and run configurations accept.
SUPPORTED_STATISTICS = tuple(sorted(DEFAULT_STATISTICS + ("known_payments",)))

#: Cells in one block of replicates: a block holds B = max(1, BLOCK_CELLS //
#: (I*J*(K+1))) worlds, 3 on the default portfolio, and a world above
#: BLOCK_CELLS cells is a block of its own.  Part of the determinism promise.
BLOCK_CELLS = 2**15

#: Most replicates of a run: 4.3 GB of ``simulate`` results at 64 bytes per replicate.
MAX_REPLICATES = 2**26

#: Units of blocks that :func:`_replicate_loop` leaves at least to each of
#: several drawing threads, so that none waits long on the last ones.
_UNITS_PER_THREAD = 4

#: Snap tolerance when mapping a level to an order-statistic rank; absorbs
#: float fuzz in products like (1 - 0.95) * n without moving genuine ranks.
_RANK_EPS = 1e-9


@dataclass(eq=False)
class EmpiricalDistribution:
    """Sorted sample of one scalar statistic across MC replicates."""

    samples: np.ndarray
    statistic_name: str = ""

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        arr.sort()
        arr.flags.writeable = False
        self.samples = arr

    @property
    def replicate_count(self) -> int:
        return int(self.samples.size)


def run_errors(
    replicates=1, master_seed=0, statistics=DEFAULT_STATISTICS, quantile_levels=DEFAULT_QUANTILE_LEVELS
) -> list[str]:
    """Every broken run-setting rule, each message naming its setting; the defaults are valid.

    ``replicates`` is an integer in 1 .. :data:`MAX_REPLICATES`, ``master_seed`` one in 0 .. 2**64 - 1,
    ``statistics`` a non-empty list or tuple of distinct :data:`SUPPORTED_STATISTICS` names,
    ``quantile_levels`` a list or tuple of distinct numbers strictly inside (0, 1); a bool is no number.
    """
    replicates_error = integer_error("replicates", replicates, 1, MAX_REPLICATES)
    errs = [error for error in (replicates_error, integer_error("master_seed", master_seed, 0, MAX_SEED)) if error]
    if not isinstance(statistics, (list, tuple)) or not statistics:
        errs.append(f"statistics must be a non-empty list, got {statistics!r}")
    else:
        supported = list(SUPPORTED_STATISTICS)
        errs.extend(f"statistics: unknown statistic {s!r} (supported: {supported})" for s in statistics if s not in supported)
        errs.extend(f"statistics: duplicate entry {s!r}" for n, s in enumerate(statistics) if s in statistics[:n])
    if not isinstance(quantile_levels, (list, tuple)):
        errs.append(f"quantile_levels must be a list, got {quantile_levels!r}")
    else:
        for n, x in enumerate(quantile_levels):
            if isinstance(x, bool) or not isinstance(x, Real) or not 0.0 < x < 1.0:
                errs.append(f"quantile_levels: level {x!r} must lie strictly inside (0, 1)")
            if x in quantile_levels[:n]:
                errs.append(f"quantile_levels: duplicate entry {x!r}")
    return errs


def _require_run(**settings) -> None:
    """Raise a :class:`ParameterError` naming every rule of :func:`run_errors` that ``settings`` break."""
    if errs := run_errors(**settings):
        raise ParameterError(*errs)


def value_at_risk(dist: EmpiricalDistribution, level: float) -> float:
    """Empirical VaR: the order statistic at 1-based rank ceil(level * R)."""
    _require_run(quantile_levels=(level,))
    return _value_at_risk(dist, level)


def _value_at_risk(dist: EmpiricalDistribution, level: float) -> float:
    """:func:`value_at_risk` at a level that passed its rule."""
    n = dist.replicate_count
    if n == 0:
        raise ValueError("value_at_risk of an empty distribution")
    rank = int(math.ceil(level * n - _RANK_EPS))
    rank = min(max(rank, 1), n)
    return float(dist.samples[rank - 1])


def expected_shortfall(dist: EmpiricalDistribution, level: float) -> float:
    """Mean of the ceil((1 - level) * R) largest samples; >= VaR at the same level."""
    _require_run(quantile_levels=(level,))
    return _expected_shortfall(dist, level)


def _expected_shortfall(dist: EmpiricalDistribution, level: float) -> float:
    """:func:`expected_shortfall` at a level that passed its rule."""
    n = dist.replicate_count
    if n == 0:
        raise ValueError("expected_shortfall of an empty distribution")
    tail = int(math.ceil((1.0 - level) * n - _RANK_EPS))
    tail = min(max(tail, 1), n)
    return float(dist.samples[n - tail :].mean())


def _root_mean_square(values: np.ndarray, ddof: int = 0) -> float:
    """``sqrt(sum(values**2) / (n - ddof))``, taken over ``values`` scaled by
    the largest where the squares overflow although every value is finite."""
    count = values.size - ddof
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.sum(values**2) / count))
    if math.isinf(rms) and math.isfinite(largest := float(np.abs(values).max())):
        rms = largest * float(np.sqrt(np.sum((values / largest) ** 2) / count))
    return rms


@dataclass(frozen=True)
class RiskReport:
    """Distribution summary plus tail risk measures for one statistic."""

    statistic_name: str
    replicate_count: int
    mean: float
    std_dev: float
    minimum: float
    maximum: float
    value_at_risk: dict[float, float] = field(default_factory=dict)
    expected_shortfall: dict[float, float] = field(default_factory=dict)
    analytic_mean: float | None = None
    analytic_std: float | None = None


def build_risk_report(
    dist: EmpiricalDistribution,
    levels,
    analytic: MomentPair | None = None,
) -> RiskReport:
    """Mean, standard deviation (R-1 denominator), range, VaR and ES per level.

    The levels are checked once, for the whole report.  A single-replicate
    distribution reports a standard deviation of 0 with a warning rather
    than failing.
    """
    _require_run(quantile_levels=levels)
    n = dist.replicate_count
    if n == 0:
        raise ValueError("risk report of an empty distribution")
    if n == 1:
        warnings.warn(
            "standard deviation of a single replicate reported as 0", UserWarning, stacklevel=2
        )
    mean = dist.samples.mean()
    return RiskReport(
        statistic_name=dist.statistic_name,
        replicate_count=n,
        mean=float(mean),
        std_dev=_root_mean_square(dist.samples - mean, ddof=1) if n > 1 else 0.0,
        minimum=float(dist.samples[0]),
        maximum=float(dist.samples[-1]),
        value_at_risk={float(a): _value_at_risk(dist, a) for a in levels},
        expected_shortfall={float(a): _expected_shortfall(dist, a) for a in levels},
        analytic_mean=None if analytic is None else analytic.mean,
        analytic_std=None if analytic is None else analytic.std,
    )


def block_replicates(params: ModelParams) -> int:
    """B, the number of worlds per block of replicates for ``params``."""
    n_i, n_j, n_k = params.dims
    return max(1, BLOCK_CELLS // (n_i * n_j * n_k))


def _world(block: SimulationPath, b: int) -> SimulationPath:
    """World ``b`` of a block path, as frozen copies that do not hold the block.

    The block's ``severities``, those of its last world, pass through as they are.
    """
    claims = ClaimTensor(block.claims.counts[b], block.claims.pay_counts[b])
    payments = PaymentTensor(block.payments.payments[b])
    return SimulationPath(params=block.params, claims=claims, payments=payments, severities=block.severities)


def replicate_path(
    params: ModelParams, master_seed: int, replicate: int, *, retain_severities: bool = False
) -> SimulationPath:
    """The world of replicate ``replicate``: world ``r % B`` of block ``r // B``.

    Draws only the first ``r % B + 1`` worlds of the block, ``r`` in 0 .. B * 2**64 - 1.
    """
    size = block_replicates(params)
    _require_integer("replicate", replicate, 0, size * (MAX_SEED + 1) - 1)
    block, offset = divmod(replicate, size)
    path = simulate_path(
        RandomStream(master_seed, block), params, retain_severities=retain_severities, size=offset + 1
    )
    return _world(path, offset)


def _replicate_loop(
    params: ModelParams, replicates: int, master_seed: int, per_unit, *, workers: int = 1, unit_blocks: int = 1
) -> list:
    """The results of ``per_unit`` over all units, one per unit, in unit order.

    A unit is a run of ``unit_blocks`` consecutive blocks (the last unit holds
    the rest), or of fewer where that would leave a drawing thread fewer than
    :data:`_UNITS_PER_THREAD` units.  ``per_unit(first, blocks)`` reduces the
    unit whose first replicate is ``first``, in each sweep to arrays with one
    entry per world; ``blocks`` yields the unit's block paths in order, each
    drawn when it is asked for.  Every drawing thread runs one loop, taking
    the next undrawn unit until none is left.  The calling thread always
    draws, alone at one worker or on one CPU; with ``workers > 1`` (and more
    than one CPU) ``min(workers, blocks, CPUs) - 1`` pool threads join it.
    A run of a single unit is the exception: it is drawn on one pool thread
    while the calling thread waits.  The CPUs are those the process may run
    on (its affinity mask where the OS has one), not the machine's.  The
    first unit that raises stops the run: the other threads finish the unit
    they hold and take no other.  Validates the settings first.
    """
    size = block_replicates(params)
    _require_run(replicates=replicates, master_seed=master_seed)
    _require_integer("workers", workers, 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blocks = -(-replicates // size)
    threads = min(workers, blocks, cpus)
    if threads > 1:
        unit_blocks = min(unit_blocks, max(1, blocks // (_UNITS_PER_THREAD * threads)))
    starts = range(0, replicates, unit_blocks * size)

    def one(unit_first: int):
        def unit():
            for first in range(unit_first, min(unit_first + unit_blocks * size, replicates), size):
                stream = RandomStream(master_seed, first // size)
                yield simulate_path(stream, params, size=min(size, replicates - first))

        return per_unit(unit_first, unit())

    units = [None] * len(starts)
    # One shared iterator hands out the units; its next() runs in C under
    # the interpreter lock, so no unit is handed out twice.
    undrawn = iter(enumerate(starts))

    def draw() -> None:
        try:
            for u, first in undrawn:
                units[u] = one(first)
        except BaseException:  # a failed unit, or Ctrl-C on the calling thread
            for _ in undrawn:  # the other threads stop after the unit they hold
                pass
            raise

    if workers == 1 or cpus == 1:
        draw()
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only when threads run

        helpers = max(1, threads - 1)
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            drawing = [pool.submit(draw) for _ in range(helpers)]
            if len(starts) > 1:
                draw()
            for done in drawing:
                done.result()
    return units


class MonteCarloRun(dict):
    """The distributions of a :func:`run_monte_carlo` run, keyed by statistic
    name, and ``first_world``, the world of replicate 0 as the run drew it."""

    first_world: SimulationPath


def run_monte_carlo(
    params: ModelParams,
    replicates: int,
    master_seed: int,
    statistics=DEFAULT_STATISTICS,
    *,
    workers: int = 1,
) -> MonteCarloRun:
    """Run independent replicates and collect per-replicate reserve statistics.

    The settings follow the rules of :func:`run_errors`.  The result also
    holds replicate 0's world, equal to :func:`replicate_path` of replicate 0,
    so that ``simulate`` does not draw it a second time.
    """
    _require_run(statistics=statistics)
    names = tuple(statistics)

    first_world = []  # filled by the task of block 0 alone

    def columns(first: int, blocks) -> np.ndarray:
        (block,) = blocks  # units of one block
        if first == 0:
            first_world.append(_world(block, 0))
        stats = _world_statistics(block, names)
        return np.array([stats[name] for name in names], dtype=float)  # (statistics, worlds)

    values = np.concatenate(_replicate_loop(params, replicates, master_seed, columns, workers=workers), axis=1)
    run = MonteCarloRun((name, EmpiricalDistribution(row, statistic_name=name)) for name, row in zip(names, values))
    run.first_world = first_world[0]
    return run

