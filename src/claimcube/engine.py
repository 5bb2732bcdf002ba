"""Monte Carlo driver, empirical reserve distributions and risk measures.

Replicate ``r`` of a run is the world :func:`replicate_path` simulates from
stream id ``r`` of the master seed; nothing else in the package maps a
replicate to a stream.  Every replicate sweep (:func:`run_monte_carlo` and
:func:`claimcube.chainladder.compare_2d_3d`) runs through one loop,
:func:`_replicate_loop`: each replicate's result is computed inside its own
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

from .aggregate import MomentPair, reserve_breakdown, total_known_payments
from .errors import ParameterError
from .model import ModelParams, SimulationPath, simulate_path, validate_params
from .streams import RandomStream

__all__ = [
    "DEFAULT_QUANTILE_LEVELS",
    "DEFAULT_STATISTICS",
    "SUPPORTED_STATISTICS",
    "EmpiricalDistribution",
    "RiskReport",
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


def _statistic_row(path, names):
    breakdown = reserve_breakdown(path)
    row = []
    for name in names:
        if name == "known_payments":
            row.append(total_known_payments(path))
        else:
            row.append(float(getattr(breakdown, name)))
    return row


def replicate_path(
    params: ModelParams, master_seed: int, replicate: int, *, retain_severities: bool = False
) -> SimulationPath:
    """The world of replicate ``replicate``: substream ``replicate`` of ``master_seed``.

    Assumes ``params`` passed :func:`validate_params`.
    """
    return simulate_path(
        RandomStream(master_seed, replicate), params, retain_severities=retain_severities
    )


def _replicate_loop(
    params: ModelParams, replicates: int, master_seed: int, per_replicate, *, workers: int = 1
) -> list:
    """``[per_replicate(path_r) for r in range(replicates)]`` on validated params.

    ``path_r`` is :func:`replicate_path` of ``r``.  With ``workers > 1`` the
    replicates run on a thread pool of at most ``workers``, ``replicates``
    and CPU-count threads, and the results still come back in replicate order.
    """
    validate_params(params)
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates!r}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers!r}")
    threads = min(workers, replicates, os.cpu_count() or 1)

    def one(r: int):
        return per_replicate(replicate_path(params, master_seed, r))

    if threads == 1:
        return [one(r) for r in range(replicates)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
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
