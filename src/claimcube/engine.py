"""Monte Carlo driver, empirical reserve distributions and risk measures.

Every replicate sweep of the package (:func:`run_monte_carlo` and
:func:`claimcube.chainladder.compare_2d_3d`) runs through one loop,
:func:`_replicate_loop`: replicate ``r`` always consumes stream id ``r`` of
the master seed, its result is computed inside its own task, and results are
collected in replicate order.  They are therefore bit-identical for any
worker count and any scheduling order.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .aggregate import MomentPair, reserve_breakdown, total_known_payments
from .errors import ParameterError
from .model import ModelParams, simulate_path, validate_params
from .streams import RandomStream

__all__ = [
    "DEFAULT_STATISTICS",
    "SUPPORTED_STATISTICS",
    "EmpiricalDistribution",
    "RiskReport",
    "SummaryStats",
    "build_risk_report",
    "expected_shortfall",
    "run_monte_carlo",
    "summary_stats",
    "value_at_risk",
]

DEFAULT_STATISTICS = ("ibnr_count", "ibnr_reserve", "reported_reserve", "total_reserve")
#: Every statistic name :func:`run_monte_carlo` and run configurations accept.
SUPPORTED_STATISTICS = tuple(sorted(DEFAULT_STATISTICS + ("known_payments",)))

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

    def value_at_risk(self, level: float) -> float:
        return value_at_risk(self, level)

    def expected_shortfall(self, level: float) -> float:
        return expected_shortfall(self, level)


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
class SummaryStats:
    mean: float
    std_dev: float
    minimum: float
    maximum: float


def summary_stats(dist: EmpiricalDistribution) -> SummaryStats:
    """Sample mean and standard deviation (R-1 denominator), min and max.

    A single-replicate distribution reports a standard deviation of 0 with a
    warning rather than failing.
    """
    n = dist.replicate_count
    if n == 0:
        raise ValueError("summary_stats of an empty distribution")
    if n == 1:
        warnings.warn(
            "standard deviation of a single replicate reported as 0", UserWarning, stacklevel=2
        )
        std = 0.0
    else:
        std = float(dist.samples.std(ddof=1))
    return SummaryStats(
        mean=float(dist.samples.mean()),
        std_dev=std,
        minimum=float(dist.samples[0]),
        maximum=float(dist.samples[-1]),
    )


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
    stats = summary_stats(dist)
    return RiskReport(
        statistic_name=dist.statistic_name,
        replicate_count=dist.replicate_count,
        mean=stats.mean,
        std_dev=stats.std_dev,
        minimum=stats.minimum,
        maximum=stats.maximum,
        value_at_risk={float(a): value_at_risk(dist, a) for a in levels},
        expected_shortfall={float(a): expected_shortfall(dist, a) for a in levels},
        analytic_mean=None if analytic is None else analytic.mean,
        analytic_std=None if analytic is None else analytic.std,
    )


def _statistic_row(path, names):
    breakdown = reserve_breakdown(path)
    row = []
    for name in names:
        if name == "known_payments":
            row.append(total_known_payments(path))
        else:
            row.append(float(getattr(breakdown, name)))
    return row


def _replicate_loop(
    params: ModelParams, replicates: int, master_seed: int, per_replicate, *, workers: int = 1
) -> list:
    """``[per_replicate(path_r) for r in range(replicates)]`` on validated params.

    ``path_r`` is simulated from substream ``r`` of ``master_seed``; this is
    the one place where a replicate index becomes a world.  With
    ``workers > 1`` the replicates run on a thread pool, and the results
    still come back in replicate order.
    """
    validate_params(params)
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates!r}")

    def one(r: int):
        return per_replicate(simulate_path(RandomStream(master_seed, r), params))

    if workers <= 1:
        return [one(r) for r in range(replicates)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(replicates)))


def run_monte_carlo(
    params: ModelParams,
    replicates: int,
    master_seed: int,
    statistics=DEFAULT_STATISTICS,
    *,
    workers: int = 1,
) -> dict[str, EmpiricalDistribution]:
    """Run independent replicates and collect per-replicate reserve statistics.

    Supported statistic names are those in :data:`SUPPORTED_STATISTICS`.
    """
    names = tuple(statistics)
    bad = [n for n in names if n not in SUPPORTED_STATISTICS]
    if bad:
        raise ParameterError(f"unknown statistics {bad}; supported: {list(SUPPORTED_STATISTICS)}")

    rows = _replicate_loop(
        params, replicates, master_seed, lambda path: _statistic_row(path, names), workers=workers
    )
    values = np.array(rows, dtype=float)
    return {
        name: EmpiricalDistribution(values[:, c], statistic_name=name)
        for c, name in enumerate(names)
    }
