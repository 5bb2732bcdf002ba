"""Monte Carlo claim reserving on a three-axis claim model.

Claims are tracked by occurrence year, reporting lag and run-off year.  The
package simulates whole claim worlds (Poisson counts per occurrence year
and lag, a multinomial last-active-year split, compound Gamma payments),
projects them to classical 2-D run-off triangles, evaluates reserve
distributions with risk measures, provides closed-form reserve moments, a
Chain-Ladder baseline and moment-based calibration.
"""

from .aggregate import (
    MomentPair,
    ReserveBreakdown,
    Triangle,
    analytic_reserve_moments,
    mean_claim_size,
    reserve_breakdown,
    total_known_payments,
    triangle_occurrence,
    triangle_reporting,
)
from .calibrate import (
    calibrated_params,
    estimate_lag_probs,
    estimate_pay_prob,
    estimate_severity,
    estimate_survival,
)
from .chainladder import (
    ChainLadderResult,
    Comparison,
    ComparisonRecord,
    EstimatorSummary,
    chain_ladder,
    compare_2d_3d,
    cumulate,
)
from .config import RunConfig, config_from_params, load_config, parse_config, write_config
from .engine import (
    DEFAULT_STATISTICS,
    EmpiricalDistribution,
    RiskReport,
    build_risk_report,
    expected_shortfall,
    replicate_path,
    run_monte_carlo,
    value_at_risk,
)
from .errors import EstimationError, ParameterError
from .model import (
    ClaimTensor,
    ModelParams,
    PaymentTensor,
    SimulationPath,
    make_expected_counts,
    param_errors,
    simulate_counts,
    simulate_path,
    simulate_payments,
    validate_params,
)
from .presets import default_config, default_params
from .streams import RandomStream, gamma_shape_scale

__version__ = "0.1.0"

__all__ = [
    "ChainLadderResult",
    "ClaimTensor",
    "Comparison",
    "ComparisonRecord",
    "DEFAULT_STATISTICS",
    "EmpiricalDistribution",
    "EstimationError",
    "EstimatorSummary",
    "ModelParams",
    "MomentPair",
    "ParameterError",
    "PaymentTensor",
    "RandomStream",
    "ReserveBreakdown",
    "RiskReport",
    "RunConfig",
    "SimulationPath",
    "Triangle",
    "analytic_reserve_moments",
    "build_risk_report",
    "calibrated_params",
    "chain_ladder",
    "compare_2d_3d",
    "config_from_params",
    "cumulate",
    "default_config",
    "default_params",
    "estimate_lag_probs",
    "estimate_pay_prob",
    "estimate_severity",
    "estimate_survival",
    "expected_shortfall",
    "gamma_shape_scale",
    "load_config",
    "make_expected_counts",
    "mean_claim_size",
    "param_errors",
    "parse_config",
    "replicate_path",
    "reserve_breakdown",
    "run_monte_carlo",
    "simulate_counts",
    "simulate_path",
    "simulate_payments",
    "total_known_payments",
    "triangle_occurrence",
    "triangle_reporting",
    "validate_params",
    "value_at_risk",
    "write_config",
]
