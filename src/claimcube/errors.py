"""Exception types shared across the package, and the check of an integer argument."""

from numbers import Integral


class ParameterError(ValueError):
    """Raised when a distribution, model or configuration parameter is invalid."""


class EstimationError(ValueError):
    """Raised when an estimator cannot be computed from the available data."""


def _require_integer(name: str, value, minimum: int) -> None:
    """Raise a :class:`ParameterError` naming ``name`` unless ``value`` is an
    integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
