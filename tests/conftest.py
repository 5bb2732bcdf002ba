import numpy as np
import pytest

from claimcube import ModelParams


@pytest.fixture
def make_params():
    """Factory for small parameter sets with sensible defaults; a set that breaks a rule is not built."""

    def _make(
        occurrence_years=3,
        max_lag=2,
        max_runoff=2,
        expected_counts=40.0,
        lag_probs=(0.6, 0.4),
        survival=(1.0, 0.6, 0.3),
        pay_prob=0.5,
        severity_mean=10.0,
        severity_var=20.0,
    ):
        return ModelParams(
            occurrence_years=occurrence_years,
            max_lag=max_lag,
            max_runoff=max_runoff,
            expected_counts=expected_counts,
            lag_probs=np.asarray(lag_probs, dtype=float),
            survival=np.asarray(survival, dtype=float),
            pay_prob=pay_prob,
            severity_mean=severity_mean,
            severity_var=severity_var,
        )

    return _make
