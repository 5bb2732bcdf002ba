"""Monte Carlo driver, empirical reserve distributions and risk measures.

Replicates are drawn in blocks of ``B = block_replicates(params)`` worlds,
``max(1, BLOCK_CELLS // (I*J*(K+1)))``.  Replicate ``r`` is world ``r % B``
of block ``r // B``, which the kernel draws from stream id ``r // B`` of the
master seed; :func:`replicate_path` gives that world alone, and nothing else
in the package maps a replicate to a stream.  A block of fewer than ``B``
worlds holds exactly the first worlds of the full block, so replicate ``r``
does not depend on the number of replicates in the run.

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

import numpy as np

from .aggregate import MomentPair, _world_statistics
from .errors import ParameterError, _require_integer
from .model import ClaimTensor, ModelParams, PaymentTensor, SimulationPath, _shared, simulate_path, validate_params
from .streams import RandomStream

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


def _check_level(level: float) -> None:
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie strictly inside (0, 1), got {level!r}")


def value_at_risk(dist: EmpiricalDistribution, level: float) -> float:
    """Empirical VaR: the order statistic at 1-based rank ceil(level * R)."""
    _check_level(level)
    n = dist.replicate_count
    if n == 0:
        raise ValueError("value_at_risk of an empty distribution")
    rank = int(math.ceil(level * n - _RANK_EPS))
    rank = min(max(rank, 1), n)
    return float(dist.samples[rank - 1])


def expected_shortfall(dist: EmpiricalDistribution, level: float) -> float:
    """Mean of the ceil((1 - level) * R) largest samples; >= VaR at the same level."""
    _check_level(level)
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

    A single-replicate distribution reports a standard deviation of 0 with a
    warning rather than failing.
    """
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
        value_at_risk={float(a): value_at_risk(dist, a) for a in levels},
        expected_shortfall={float(a): expected_shortfall(dist, a) for a in levels},
        analytic_mean=None if analytic is None else analytic.mean,
        analytic_std=None if analytic is None else analytic.std,
    )


def block_replicates(params: ModelParams) -> int:
    """B, the number of worlds per block of replicates for ``params``."""
    n_i, n_j, n_k = params.dims
    return max(1, BLOCK_CELLS // (n_i * n_j * n_k))


def _world(block: SimulationPath, b: int, severities=None) -> SimulationPath:
    """World ``b`` of a block path, as read-only views of the block's tensors."""
    claims = block.claims
    return SimulationPath(
        params=block.params,
        claims=_shared(ClaimTensor, counts=claims.counts[b], pay_counts=claims.pay_counts[b]),
        payments=_shared(PaymentTensor, payments=block.payments.payments[b]),
        severities=severities,
    )


def replicate_path(
    params: ModelParams, master_seed: int, replicate: int, *, retain_severities: bool = False
) -> SimulationPath:
    """The world of replicate ``replicate``: world ``r % B`` of block ``r // B``.

    Draws only the first ``r % B + 1`` worlds of the block.  Assumes
    ``params`` passed :func:`validate_params`.
    """
    _require_integer("replicate", replicate, 0)
    block, offset = divmod(replicate, block_replicates(params))
    path = simulate_path(
        RandomStream(master_seed, block), params, retain_severities=retain_severities, size=offset + 1
    )
    return _world(path, offset, path.severities)


def _replicate_loop(
    params: ModelParams, replicates: int, master_seed: int, per_block, *, workers: int = 1
) -> list:
    """Per-replicate results of ``per_block`` over all blocks, in replicate order.

    ``per_block(first, block_path)`` returns one result per world of the
    block whose first replicate is ``first``.  With ``workers > 1`` (and more
    than one CPU) the blocks run on pool threads, at most ``workers``,
    block-count and CPU-count of them, also when the run is a single block;
    the calling thread only collects.  Validates ``params``.
    """
    validate_params(params)
    _require_integer("replicates", replicates, 1)
    _require_integer("workers", workers, 1)
    size = block_replicates(params)
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

    Supported statistic names are those in :data:`SUPPORTED_STATISTICS`.
    The result also holds replicate 0's world, equal to :func:`replicate_path`
    of replicate 0, so that ``simulate`` does not draw it a second time.
    """
    names = () if isinstance(statistics, str) else tuple(statistics)
    if not names:
        raise ParameterError(f"statistics must be a non-empty sequence of names, got {statistics!r}")
    bad = [n for n in names if n not in SUPPORTED_STATISTICS]
    if bad:
        raise ParameterError(f"unknown statistics {bad}; supported: {list(SUPPORTED_STATISTICS)}")

    first_world = []  # filled by the task of block 0 alone

    def rows(first: int, block: SimulationPath) -> list:
        if first == 0:  # copied, so that the run does not hold all of block 0
            claims = block.claims
            first_world.append(
                SimulationPath(
                    params,
                    ClaimTensor(claims.counts[0], claims.pay_counts[0]),
                    PaymentTensor(block.payments.payments[0]),
                )
            )
        stats = _world_statistics(block, names)
        return list(zip(*(stats[name] for name in names)))

    values = np.array(_replicate_loop(params, replicates, master_seed, rows, workers=workers), dtype=float)
    run = MonteCarloRun(
        (name, EmpiricalDistribution(values[:, c], statistic_name=name)) for c, name in enumerate(names)
    )
    run.first_world = first_world[0]
    return run

