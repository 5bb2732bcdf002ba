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
:func:`_replicate_loop`: each block is drawn and reduced inside its own
task, and results are collected in replicate order.  They are therefore
bit-identical for any worker count and any scheduling order.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
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

    ``replicates`` is an integer >= 1, ``master_seed`` one in 0 .. 2**64 - 1, ``statistics``
    a non-empty list or tuple of distinct :data:`SUPPORTED_STATISTICS` names, ``quantile_levels``
    a list or tuple of distinct numbers strictly inside (0, 1); a bool is no number.
    """
    integers = (integer_error("replicates", replicates, 1), integer_error("master_seed", master_seed, 0, MAX_SEED))
    errs = [error for error in integers if error]
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
    return RiskReport(
        statistic_name=dist.statistic_name,
        replicate_count=n,
        mean=float(dist.samples.mean()),
        std_dev=float(dist.samples.std(ddof=1)) if n > 1 else 0.0,
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
    params: ModelParams, replicates: int, master_seed: int, per_block, *, workers: int = 1
) -> list:
    """Per-replicate results of ``per_block`` over all blocks, in replicate order.

    ``per_block(first, block_path)`` returns one result per world of the
    block whose first replicate is ``first``.  With ``workers > 1`` (and more
    than one CPU) the blocks run on pool threads, at most ``workers``,
    block-count and CPU-count of them, also when the run is a single block;
    the calling thread only collects.  Validates the settings first.
    """
    size = block_replicates(params)
    _require_run(replicates=replicates, master_seed=master_seed)
    _require_integer("workers", workers, 1)
    starts = range(0, replicates, size)
    cpus = os.cpu_count() or 1

    def one(first: int) -> list:
        stream = RandomStream(master_seed, first // size)
        return per_block(first, simulate_path(stream, params, size=min(size, replicates - first)))

    if workers == 1 or cpus == 1:
        blocks = [one(first) for first in starts]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(starts), cpus)) as pool:
            blocks = list(pool.map(one, starts))
    return [result for results in blocks for result in results]


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

    def rows(first: int, block: SimulationPath) -> list:
        if first == 0:
            first_world.append(_world(block, 0))
        stats = _world_statistics(block, names)
        return list(zip(*(stats[name] for name in names)))

    values = np.array(_replicate_loop(params, replicates, master_seed, rows, workers=workers), dtype=float)
    run = MonteCarloRun(
        (name, EmpiricalDistribution(values[:, c], statistic_name=name)) for c, name in enumerate(names)
    )
    run.first_world = first_world[0]
    return run

