"""Run-configuration files: JSON in, JSON out, every failure named by key.

A configuration has two sections.  ``model`` holds the parameter set
(``expected_counts`` either as an explicit per-year ``values`` list or as
``base``/``growth``); ``run`` holds the replicate count, the mandatory
master seed, the statistics to collect, the quantile levels and the output
directory.  Exported parameter files use the same schema and round-trip
through :func:`load_config` losslessly (floats are serialized at full
precision).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import DEFAULT_QUANTILE_LEVELS, DEFAULT_STATISTICS, SUPPORTED_STATISTICS
from .errors import ParameterError
from .model import MAX_WORLD_CELLS, ModelParams, make_expected_counts, param_errors
from .presets import default_config

__all__ = ["RunConfig", "config_from_params", "load_config", "parse_config", "write_config"]

#: ``run.output_dir`` of a configuration that names none.
DEFAULT_OUTPUT_DIR = "runs/output"


@dataclass(frozen=True, eq=False)
class RunConfig:
    params: ModelParams
    replicates: int
    master_seed: int
    statistics: tuple[str, ...]
    quantile_levels: tuple[float, ...]
    output_dir: str


def _require(section: dict, key: str, path: str, errs: list[str]):
    if key not in section:
        errs.append(f"{path}.{key}: missing")
        return None
    return section[key]


def _as_number(value, path: str, errs: list[str], *, integer: bool = False):
    ok = isinstance(value, int) if integer else isinstance(value, (int, float))
    if value is None or isinstance(value, bool) or not ok:
        kind = "an integer" if integer else "a number"
        errs.append(f"{path}: expected {kind}, got {value!r}")
        return None
    return value


def _as_array(value, path: str, errs: list[str], ndim: int):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        errs.append(f"{path}: expected a numeric array")
        return None
    if arr.ndim != ndim:
        errs.append(f"{path}: expected a {ndim}-D array, got shape {arr.shape}")
        return None
    return arr


def parse_config(mapping: dict) -> RunConfig:
    """Build a validated :class:`RunConfig` from a configuration mapping.

    Raises :class:`ParameterError` listing every offending key.  The model
    is checked here through :func:`param_errors`; the survival-plateau
    warning of :func:`validate_params` is left to the run that uses it.
    """
    errs: list[str] = []
    model = mapping.get("model")
    run = mapping.get("run")
    if not isinstance(model, dict):
        errs.append("model: missing or not a mapping")
    if not isinstance(run, dict):
        errs.append("run: missing or not a mapping")
    if errs:
        raise ParameterError("invalid configuration:\n  - " + "\n  - ".join(errs))

    years = _as_number(_require(model, "occurrence_years", "model", errs), "model.occurrence_years", errs, integer=True)
    max_lag = _as_number(_require(model, "max_lag", "model", errs), "model.max_lag", errs, integer=True)
    max_runoff = _as_number(_require(model, "max_runoff", "model", errs), "model.max_runoff", errs, integer=True)

    # Bound the world before any array is built (base/growth builds one of length I).
    cells = math.prod(max(n or 1, 1) for n in (years, max_lag, (max_runoff or 0) + 1))
    if too_large := cells > MAX_WORLD_CELLS:
        errs.append(f"model.occurrence_years: the world has I*J*(K+1) = {cells} cells, more than MAX_WORLD_CELLS = {MAX_WORLD_CELLS}")

    counts_spec = _require(model, "expected_counts", "model", errs)
    expected_counts = None
    if isinstance(counts_spec, dict):
        if "values" in counts_spec:
            expected_counts = _as_array(counts_spec["values"], "model.expected_counts.values", errs, 1)
        elif "base" in counts_spec and "growth" in counts_spec:
            base = _as_number(counts_spec["base"], "model.expected_counts.base", errs)
            growth = _as_number(counts_spec["growth"], "model.expected_counts.growth", errs)
            if None not in (base, growth, years) and not too_large:
                try:
                    expected_counts = make_expected_counts(base, growth, years)
                except ParameterError as exc:
                    errs.append(f"model.expected_counts: {exc}")
        else:
            errs.append("model.expected_counts: need either 'values' or 'base' and 'growth'")
    elif counts_spec is not None:
        expected_counts = _as_array(counts_spec, "model.expected_counts", errs, 1)

    lag_probs = _as_array(_require(model, "lag_probs", "model", errs), "model.lag_probs", errs, 1)
    survival = _as_array(_require(model, "survival", "model", errs), "model.survival", errs, 1)
    pay_prob = _as_array(_require(model, "pay_prob", "model", errs), "model.pay_prob", errs, 1)
    severity_mean = _as_array(_require(model, "severity_mean", "model", errs), "model.severity_mean", errs, 2)
    severity_var = _as_array(_require(model, "severity_var", "model", errs), "model.severity_var", errs, 2)

    params = None
    if not errs:
        params = ModelParams(
            occurrence_years=years,
            max_lag=max_lag,
            max_runoff=max_runoff,
            expected_counts=expected_counts,
            lag_probs=lag_probs,
            survival=survival,
            pay_prob=pay_prob,
            severity_mean=severity_mean,
            severity_var=severity_var,
        )
        errs.extend(f"model.{msg}" for msg in param_errors(params))

    replicates = _as_number(_require(run, "replicates", "run", errs), "run.replicates", errs, integer=True)
    if replicates is not None and replicates < 1:
        errs.append(f"run.replicates: must be >= 1, got {replicates}")
    seed = run.get("master_seed")
    if seed is None:
        errs.append("run.master_seed: missing (a master seed is required for reproducible runs)")
    else:
        seed = _as_number(seed, "run.master_seed", errs, integer=True)
        if seed is not None and seed < 0:
            errs.append(f"run.master_seed: must be >= 0, got {seed}")

    statistics = run.get("statistics", list(DEFAULT_STATISTICS))
    if not isinstance(statistics, (list, tuple)) or not statistics:
        errs.append(f"run.statistics: expected a non-empty list, got {statistics!r}")
    else:
        for name in statistics:
            if name not in SUPPORTED_STATISTICS:
                errs.append(f"run.statistics: unknown statistic {name!r} (supported: {list(SUPPORTED_STATISTICS)})")

    levels = run.get("quantile_levels", list(DEFAULT_QUANTILE_LEVELS))
    if not isinstance(levels, (list, tuple)):
        errs.append(f"run.quantile_levels: expected a list, got {levels!r}")
    else:
        for lvl in levels:
            if isinstance(lvl, bool) or not isinstance(lvl, (int, float)) or not (0.0 < lvl < 1.0):
                errs.append(f"run.quantile_levels: level {lvl!r} must lie strictly inside (0, 1)")

    output_dir = run.get("output_dir", DEFAULT_OUTPUT_DIR)
    if not isinstance(output_dir, str) or not output_dir:
        errs.append(f"run.output_dir: expected a non-empty string, got {output_dir!r}")

    if errs:
        raise ParameterError("invalid configuration:\n  - " + "\n  - ".join(errs))

    return RunConfig(
        params=params,
        replicates=int(replicates),
        master_seed=int(seed),
        statistics=tuple(statistics),
        quantile_levels=tuple(float(x) for x in levels),
        output_dir=output_dir,
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a configuration file.

    The literal name ``"default"`` resolves to the built-in representative
    configuration.  ``overrides`` maps ``run`` keys to values that replace
    the file's before validation; ``None`` values are ignored.  Every read,
    decoding or JSON failure is a :class:`ParameterError` naming the file.
    """
    if str(path) == "default":
        mapping = default_config()
    else:
        file_path = Path(path)
        try:
            mapping = json.loads(file_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ParameterError(f"configuration file not found: {file_path}") from None
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{file_path}: not valid JSON ({exc})") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"{file_path}: cannot read configuration ({exc})") from None
        if not isinstance(mapping, dict):
            raise ParameterError(f"{file_path}: top level must be a mapping")
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    run = mapping.setdefault("run", {}) if overrides else None
    if isinstance(run, dict):  # a malformed section is named by parse_config
        run.update(overrides)
    return parse_config(mapping)


def config_from_params(
    params: ModelParams,
    *,
    replicates: int,
    master_seed: int,
    statistics=DEFAULT_STATISTICS,
    quantile_levels=DEFAULT_QUANTILE_LEVELS,
    output_dir: str = DEFAULT_OUTPUT_DIR,
) -> dict:
    """Serialize a parameter set (explicit per-year counts) plus run settings."""
    return {
        "model": {
            "occurrence_years": params.occurrence_years,
            "max_lag": params.max_lag,
            "max_runoff": params.max_runoff,
            "expected_counts": {"values": params.expected_counts.tolist()},
            "lag_probs": params.lag_probs.tolist(),
            "survival": params.survival.tolist(),
            "pay_prob": params.pay_prob.tolist(),
            "severity_mean": params.severity_mean.tolist(),
            "severity_var": params.severity_var.tolist(),
        },
        "run": {
            "replicates": int(replicates),
            "master_seed": int(master_seed),
            "statistics": list(statistics),
            "quantile_levels": [float(x) for x in quantile_levels],
            "output_dir": output_dir,
        },
    }


def write_config(mapping: dict, path) -> None:
    """Write any JSON mapping (a configuration, a run summary) as
    deterministic, full-precision JSON."""
    Path(path).write_text(json.dumps(mapping, indent=2, sort_keys=True) + "\n")
