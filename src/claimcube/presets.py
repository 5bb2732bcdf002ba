"""A representative default parameter set and run configuration.

The curves below are built programmatically to carry the typical features of
a long-tailed third-party-liability portfolio with person injuries: about
40% of claims reported in the occurrence year and a bit under 30% one year
later, a survival curve that still leaves claims open after 40 run-off
years, a payment probability rising from a few percent to about 80%, and a
severity profile that peaks a few years after reporting, with later-reported
claims more expensive up to lag 3 and cheaper after that.  Severity variance
is four times the mean (overdispersed payments).  The portfolio starts at
150 expected claims and grows 3% per year over 15 occurrence years.

These values are representative defaults, not calibrated ground truth; any
real study should replace them with curves fitted to portfolio data.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, make_expected_counts

__all__ = ["default_config", "default_params"]

OCCURRENCE_YEARS = 15
MAX_LAG = 15
MAX_RUNOFF = 40
#: Expected claims of the first occurrence year, and their yearly growth.
BASE_COUNT = 150.0
COUNT_GROWTH = 0.03


def default_params() -> ModelParams:
    """Representative full-scale parameter set."""
    lags = np.arange(MAX_LAG, dtype=float)
    raw = np.where(lags == 0, 0.40, 0.28 * 0.533 ** (lags - 1))
    lag_probs = raw / raw.sum()

    runoff = np.arange(MAX_RUNOFF + 1, dtype=float)
    survival = 0.55 * 0.70**runoff + 0.45 * 0.97**runoff
    survival[0] = 1.0

    pay_prob = 0.04 + 0.76 * (runoff / MAX_RUNOFF) ** 1.3

    peak = np.where(lags <= 3, 1.0 + 0.6 * lags, (1.0 + 0.6 * 3) * 0.70 ** (lags - 3))
    bump = np.exp(-((runoff - 3.0) ** 2) / (2.0 * 5.0**2))
    severity_mean = 300.0 * (0.25 + peak[:, None] * bump[None, :])
    severity_var = 4.0 * severity_mean

    return ModelParams(
        occurrence_years=OCCURRENCE_YEARS,
        max_lag=MAX_LAG,
        max_runoff=MAX_RUNOFF,
        expected_counts=make_expected_counts(BASE_COUNT, COUNT_GROWTH, OCCURRENCE_YEARS),
        lag_probs=lag_probs,
        survival=survival,
        pay_prob=pay_prob,
        severity_mean=severity_mean,
        severity_var=severity_var,
    )


def default_config() -> dict:
    """The built-in run configuration (the CLI accepts it as ``--config default``)."""
    # Imported here, not at the top: config imports this module to resolve
    # "default", so a top-level import would be circular.
    from .config import config_from_params

    mapping = config_from_params(default_params(), replicates=1000, master_seed=1234, output_dir="runs/default")
    mapping["model"]["expected_counts"] = {"base": BASE_COUNT, "growth": COUNT_GROWTH}
    return mapping
