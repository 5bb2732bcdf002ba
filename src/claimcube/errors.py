"""Exception types shared across the package, and the one rule on an integer input."""

from numbers import Integral

__all__ = ["EstimationError", "ParameterError"]


class ParameterError(ValueError):
    """Raised when a distribution, model or configuration parameter is invalid.

    Its ``args`` are the broken rules, one message each, and its text joins them with ``"; "``.
    """

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


class EstimationError(ValueError):
    """Raised when an estimator cannot be computed from the available data."""


def _shown(value) -> str:
    """``repr(value)``, or the size of an integer past float range."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"a {value.bit_length()}-bit integer"
    return repr(value)


def integer_error(name: str, value, low: int, high: int | None = None) -> str | None:
    """``"<name> must be an integer >= <low>, got <value>"`` (``in <low> .. <high>``
    with a ``high``) unless ``value`` is an integer, not a bool, in that range."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low or (high is not None and value > high):
        if high is None:
            bounds = f">= {low}"
        elif high > 2**16 and not high & (high + 1):  # an unsigned type's largest value
            bounds = f"in {low} .. 2**{high.bit_length()} - 1"
        else:
            bounds = f"in {low} .. {high}"
        return f"{name} must be an integer {bounds}, got {_shown(value)}"
    return None


def _require_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise a :class:`ParameterError` with :func:`integer_error`'s text if ``value`` breaks it."""
    if error := integer_error(name, value, low, high):
        raise ParameterError(error)
