"""Run-configuration files: JSON in, JSON out, every failure named by key.

A configuration has two sections.  ``model`` holds the parameter set
(``expected_counts`` as an explicit per-year ``values`` list, as
``base``/``growth`` or as one number); ``run`` holds the replicate count, the mandatory
master seed, the statistics to collect, the quantile levels and the output
directory.  Exported parameter files use the same schema and round-trip
through :func:`load_config` losslessly (floats are serialized at full
precision).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .engine import DEFAULT_QUANTILE_LEVELS, DEFAULT_STATISTICS, run_errors
from .errors import ParameterError
from .model import _DIMENSIONS, ModelParams, _dimension_errors, _form_errors, make_expected_counts
from .presets import default_config

__all__ = ["RunConfig", "config_from_params", "load_config", "parse_config", "write_config"]

#: ``run.output_dir`` of a configuration that names none.
DEFAULT_OUTPUT_DIR = "runs/output"

#: The keys of a configuration's ``model`` section: the fields of :class:`ModelParams`.
_MODEL_KEYS = tuple(field.name for field in fields(ModelParams))


@dataclass(frozen=True, eq=False)
class RunConfig:
    params: ModelParams
    replicates: int
    master_seed: int
    statistics: tuple[str, ...]
    quantile_levels: tuple[float, ...]
    output_dir: str


def parse_config(mapping: dict) -> RunConfig:
    """Build a validated :class:`RunConfig` from a configuration mapping.

    Raises :class:`ParameterError` listing every offending key.  The model's
    keys are the fields of :class:`ModelParams` and its values follow the
    Python API's rules, those of :mod:`claimcube.model` and of
    :func:`~claimcube.engine.run_errors`; missing keys, the
    ``expected_counts`` spec and ``output_dir`` are checked here.
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

    values = {key: model[key] for key in _MODEL_KEYS if key in model}
    errs.extend(f"model.{key}: missing" for key in _MODEL_KEYS if key not in model)
    curve = {}  # base and growth of a growth curve over the occurrence years
    counts_spec = values.get("expected_counts")
    if isinstance(counts_spec, dict):
        del values["expected_counts"]
        if "values" in counts_spec:
            values["expected_counts"] = counts_spec["values"]
        elif "base" in counts_spec and "growth" in counts_spec:
            curve = {"base": counts_spec["base"], "growth": counts_spec["growth"]}
        else:
            errs.append("model.expected_counts: need either 'values' or 'base' and 'growth'")
    errs.extend(f"model.{msg}" for msg in _form_errors(**values, **curve))
    if not errs:  # the world is bounded before a growth curve is built over it
        errs.extend(f"model.{msg}" for msg in _dimension_errors(*(values[key] for key in _DIMENSIONS)))

    params = None
    if not errs:
        if curve:
            values["expected_counts"] = make_expected_counts(**curve, years=values["occurrence_years"])
        try:
            params = ModelParams(**values)
        except ParameterError as exc:
            errs.extend(f"model.{msg}" for msg in exc.args)

    if "replicates" not in run:
        errs.append("run.replicates: missing")
    if "master_seed" not in run:
        errs.append("run.master_seed: missing (a master seed is required for reproducible runs)")
    settings = ("replicates", "master_seed", "statistics", "quantile_levels")
    errs.extend(f"run.{msg}" for msg in run_errors(**{key: run[key] for key in settings if key in run}))

    output_dir = run.get("output_dir", DEFAULT_OUTPUT_DIR)
    if not isinstance(output_dir, str) or not output_dir:
        errs.append(f"run.output_dir must be a non-empty string, got {output_dir!r}")

    if errs:
        raise ParameterError("invalid configuration:\n  - " + "\n  - ".join(errs))

    return RunConfig(
        params=params,
        replicates=int(run["replicates"]),
        master_seed=int(run["master_seed"]),
        statistics=tuple(run.get("statistics", DEFAULT_STATISTICS)),
        quantile_levels=tuple(float(x) for x in run.get("quantile_levels", DEFAULT_QUANTILE_LEVELS)),
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"{file_path}: cannot read configuration ({exc})") from None
        except (ValueError, RecursionError) as exc:  # ValueError: also an integer of over 4300 digits
            raise ParameterError(f"{file_path}: not valid JSON ({exc})") from None
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
    model = {key: np.asarray(getattr(params, key)).tolist() for key in _MODEL_KEYS}
    model["expected_counts"] = {"values": model["expected_counts"]}
    return {
        "model": model,
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
