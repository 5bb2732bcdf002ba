import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import claimcube.model
from claimcube import (
    EmpiricalDistribution,
    ModelParams,
    ParameterError,
    RandomStream,
    block_replicates,
    build_risk_report,
    calibrated_params,
    compare_2d_3d,
    config_from_params,
    default_config,
    default_params,
    load_config,
    make_expected_counts,
    parse_config,
    replicate_path,
    run_monte_carlo,
    simulate_counts,
    simulate_path,
    triangle_occurrence,
    triangle_reporting,
    write_config,
)
from claimcube.cli import main
from claimcube.config import DEFAULT_OUTPUT_DIR
from claimcube.engine import SUPPORTED_STATISTICS, run_errors
from claimcube.model import MAX_WORLD_CELLS

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "claimcube", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# --- configuration loading -------------------------------------------------------


def test_default_config_loads_at_full_scale():
    cfg = load_config("default")
    assert cfg.params.occurrence_years == 15
    assert cfg.params.expected_counts[0] == 150.0
    assert cfg.params.expected_counts[1] == pytest.approx(150.0 * 1.03)
    assert cfg.replicates == 1000
    assert np.allclose(cfg.params.severity_var, 4.0 * cfg.params.severity_mean)


def test_shipped_default_file_matches_builtin():
    cfg_file = load_config(REPO_ROOT / "configs" / "default.json")
    cfg_builtin = parse_config(default_config())
    assert np.array_equal(cfg_file.params.lag_probs, cfg_builtin.params.lag_probs)
    assert np.array_equal(cfg_file.params.severity_mean, cfg_builtin.params.severity_mean)
    assert cfg_file.master_seed == cfg_builtin.master_seed


def test_bad_lag_probs_named_in_error():
    mapping = default_config()
    mapping["model"]["lag_probs"] = [0.5, 0.6]
    with pytest.raises(ParameterError, match="lag_probs"):
        parse_config(mapping)


def test_missing_master_seed_rejected():
    mapping = default_config()
    del mapping["run"]["master_seed"]
    with pytest.raises(ParameterError, match="master_seed"):
        parse_config(mapping)


def test_missing_and_malformed_keys_are_all_named():
    mapping = default_config()
    del mapping["model"]["survival"]
    mapping["model"]["max_runoff"] = "forty"
    mapping["run"]["quantile_levels"] = [0.5, 1.5]
    with pytest.raises(ParameterError) as err:
        parse_config(mapping)
    message = str(err.value)
    assert "model.survival" in message
    assert "model.max_runoff" in message
    assert "run.quantile_levels" in message


def test_unknown_statistic_named():
    mapping = default_config()
    mapping["run"]["statistics"] = ["total_reserve", "bogus"]
    with pytest.raises(ParameterError, match="bogus"):
        parse_config(mapping)
    mapping["run"]["statistics"] = [["total_reserve"]]
    with pytest.raises(ParameterError, match="run.statistics"):
        parse_config(mapping)


@pytest.mark.parametrize("years", [2**63, 2**64, 2**70, 10**10])
def test_huge_occurrence_years_named(years):
    mapping = default_config()
    mapping["model"]["occurrence_years"] = years
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=r"model\.occurrence_years"):
            parse_config(mapping)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


SEED_RANGE = "must be an integer in 0 .. 2**64 - 1"

#: (setting, bad value, the message configuration files and the Python API give)
BAD_RUN_SETTINGS = [
    ("replicates", 0, "replicates must be an integer >= 1, got 0"),
    ("replicates", 2.5, "replicates must be an integer >= 1, got 2.5"),
    ("replicates", True, "replicates must be an integer >= 1, got True"),
    ("master_seed", 1.7, f"master_seed {SEED_RANGE}, got 1.7"),
    ("master_seed", True, f"master_seed {SEED_RANGE}, got True"),
    ("master_seed", -1, f"master_seed {SEED_RANGE}, got -1"),
    ("master_seed", 2**64, f"master_seed {SEED_RANGE}, got {2**64}"),
    ("statistics", ["total_reserve", "total_reserve"], "statistics: duplicate entry 'total_reserve'"),
    ("statistics", "total_reserve", "statistics must be a non-empty list, got 'total_reserve'"),
    ("statistics", [], "statistics must be a non-empty list, got []"),
    ("statistics", ["bogus"], f"statistics: unknown statistic 'bogus' (supported: {list(SUPPORTED_STATISTICS)})"),
    ("quantile_levels", [0.9, 0.9, 0.5], "quantile_levels: duplicate entry 0.9"),
    ("quantile_levels", [0.5, 1.0], "quantile_levels: level 1.0 must lie strictly inside (0, 1)"),
    ("quantile_levels", [True], "quantile_levels: level True must lie strictly inside (0, 1)"),
    ("quantile_levels", 0.9, "quantile_levels must be a list, got 0.9"),
]


def api_calls(key, value):
    """Every Python entry point that takes run setting ``key``, called with ``value``.

    Each rejects the value before drawing a world.
    """
    params = default_params()
    if key == "replicates":
        return [lambda: run_monte_carlo(params, value, 1), lambda: compare_2d_3d(params, value, 1)]
    if key == "master_seed":
        return [
            lambda: run_monte_carlo(params, 3, value),
            lambda: compare_2d_3d(params, 3, value),
            lambda: replicate_path(params, value, 0),
            lambda: RandomStream(value),
        ]
    if key == "statistics":
        return [lambda: run_monte_carlo(params, 3, 1, value)]
    return [lambda: build_risk_report(EmpiricalDistribution([1.0, 2.0]), value)]


@pytest.mark.parametrize("key, value, message", BAD_RUN_SETTINGS)
def test_config_files_and_the_python_api_reject_a_run_setting_alike(key, value, message):
    assert run_errors(**{key: value}) == [message]
    mapping = default_config()
    mapping["run"][key] = value
    with pytest.raises(ParameterError) as err:
        parse_config(mapping)
    assert str(err.value).splitlines() == ["invalid configuration:", f"  - run.{message}"]
    for call in api_calls(key, value):
        with pytest.raises(ParameterError) as err:
            call()
        assert str(err.value) == message


NUMBER = "must be a finite number"

#: (model value, bad value, the message configuration files and the Python API give);
#: ``base`` and ``growth`` are those of a growth curve, ``years`` its length in Python.
BAD_MODEL_VALUES = [
    ("occurrence_years", 2.5, "occurrence_years must be an integer >= 1, got 2.5"),
    ("max_lag", True, "max_lag must be an integer >= 1, got True"),
    ("max_runoff", "15", "max_runoff must be an integer >= 0, got '15'"),
    ("occurrence_years", None, "occurrence_years must be an integer >= 1, got None"),
    ("expected_counts", "abc", "expected_counts must be a numeric array"),
    ("severity_var", {"a": 1}, "severity_var must be a numeric array"),
    ("pay_prob", [[1], [2, 3]], "pay_prob must be a numeric array"),
    ("pay_prob", None, "pay_prob must be a numeric array"),
    ("lag_probs", [10**400, 1], "lag_probs must be a numeric array"),
    ("lag_probs", [[0.5, 0.5]], "lag_probs must be a 1-D array, got shape (1, 2)"),
    ("base", True, f"expected_counts.base {NUMBER} > 0, got True"),
    ("base", None, f"expected_counts.base {NUMBER} > 0, got None"),
    ("base", "x", f"expected_counts.base {NUMBER} > 0, got 'x'"),
    ("base", 10**400, f"expected_counts.base {NUMBER} > 0, got a 1329-bit integer"),
    ("growth", None, f"expected_counts.growth {NUMBER} > -1, got None"),
    ("years", 2**70, f"years must be an integer in 1 .. {MAX_WORLD_CELLS}, got {2**70}"),
]


@pytest.mark.parametrize("key, value, message", BAD_MODEL_VALUES, ids=[f"{k}={v!r:.12}" for k, v, _ in BAD_MODEL_VALUES])
def test_config_files_and_the_python_api_reject_a_model_value_alike(key, value, message):
    curve = {"base": 150.0, "growth": 0.03, "years": 15}
    with pytest.raises(ParameterError) as err:
        if key in curve:
            make_expected_counts(**{**curve, key: value})
        else:
            dataclasses.replace(default_params(), **{key: value})
    assert str(err.value) == message
    if key == "years":  # a file's growth curve spans model.occurrence_years
        return
    mapping = default_config()
    model = mapping["model"]
    (model["expected_counts"] if key in curve else model)[key] = value
    with pytest.raises(ParameterError) as err:
        parse_config(mapping)
    assert str(err.value).splitlines() == ["invalid configuration:", f"  - model.{message}"]


#: Every integer input: the bounds of its one rule, and every Python entry
#: point that takes it, as a call of ``(params, value)``.
INTEGER_INPUTS = {
    "occurrence_years": ((1, None), [lambda p, v: dataclasses.replace(p, occurrence_years=v)]),
    "max_lag": ((1, None), [lambda p, v: dataclasses.replace(p, max_lag=v)]),
    "max_runoff": ((0, None), [lambda p, v: dataclasses.replace(p, max_runoff=v)]),
    "years": ((1, MAX_WORLD_CELLS), [lambda p, v: make_expected_counts(150.0, 0.03, v)]),
    "replicates": ((1, None), [lambda p, v: run_monte_carlo(p, v, 1), lambda p, v: compare_2d_3d(p, v, 1)]),
    "master_seed": (
        (0, 2**64 - 1),
        [
            lambda p, v: run_monte_carlo(p, 3, v),
            lambda p, v: compare_2d_3d(p, 3, v),
            lambda p, v: replicate_path(p, v, 0),
            lambda p, v: RandomStream(v),
        ],
    ),
    "stream_id": ((0, 2**64 - 1), [lambda p, v: RandomStream(1, v)]),
    "workers": ((1, None), [lambda p, v: run_monte_carlo(p, 3, 1, workers=v)]),
    "replicate": ((0, 3 * 2**64 - 1), [lambda p, v: replicate_path(p, 1, v)]),  # 2**64 blocks of B = 3 worlds
    "size": (
        (1, None),
        [lambda p, v: simulate_counts(RandomStream(1), p, v), lambda p, v: simulate_path(RandomStream(1), p, size=v)],
    ),
}

BOUNDS_TEXT = {
    (1, None): ">= 1",
    (0, None): ">= 0",
    (1, MAX_WORLD_CELLS): f"in 1 .. {MAX_WORLD_CELLS}",
    (0, 2**64 - 1): "in 0 .. 2**64 - 1",
    (0, 3 * 2**64 - 1): f"in 0 .. {3 * 2**64 - 1}",
}


@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key, ((low, high), _) in INTEGER_INPUTS.items()
        for value in [low - 1, 2.5, True, "3"] + ([] if high is None else [high + 1])
    ],
)
def test_every_integer_input_follows_one_rule(key, value):
    (low, high), calls = INTEGER_INPUTS[key]
    message = f"{key} must be an integer {BOUNDS_TEXT[low, high]}, got {value!r}"
    params = default_params()
    for call in calls:
        with pytest.raises(ParameterError) as err:
            call(params, value)
        assert err.value.args == (message,)
    section = {"occurrence_years": "model", "max_lag": "model", "max_runoff": "model", "replicates": "run", "master_seed": "run"}
    if key not in section:  # no configuration key
        return
    if section[key] == "run":
        assert run_errors(**{key: value}) == [message]
    mapping = default_config()
    mapping[section[key]][key] = value
    with pytest.raises(ParameterError) as err:
        parse_config(mapping)
    assert str(err.value).splitlines() == ["invalid configuration:", f"  - {section[key]}.{message}"]


def test_every_offending_model_value_is_named_at_once():
    mapping = default_config()
    model = mapping["model"]
    model["occurrence_years"] = 2.5
    model["lag_probs"] = "abc"
    model["expected_counts"] = {"base": True, "growth": None}
    model["pay_prob"] = [[0.5]]
    with pytest.raises(ParameterError) as err:
        parse_config(mapping)
    assert sorted(str(err.value).splitlines()[1:]) == [
        f"  - model.expected_counts.base {NUMBER} > 0, got True",
        f"  - model.expected_counts.growth {NUMBER} > -1, got None",
        "  - model.lag_probs must be a numeric array",
        "  - model.occurrence_years must be an integer >= 1, got 2.5",
        "  - model.pay_prob must be a number or a 1-D array, got shape (1, 1)",
    ]


SPEC = "model.expected_counts: need either 'values' or 'base' and 'growth'"


@pytest.mark.parametrize(
    "key, spec, message",
    [(field.name, None, f"model.{field.name}: missing") for field in dataclasses.fields(ModelParams)]
    + [("expected_counts", {}, SPEC), ("expected_counts", {"base": 1.0}, SPEC)],
)
def test_every_missing_model_value_is_named(key, spec, message):
    mapping = default_config()
    if spec is None:
        del mapping["model"][key]
    else:
        mapping["model"][key] = spec
    with pytest.raises(ParameterError) as err:
        parse_config(mapping)
    assert str(err.value).splitlines() == ["invalid configuration:", f"  - {message}"]


def test_a_scalar_model_array_is_broadcast_and_exported_in_full():
    mapping = default_config()
    mapping["model"].update(expected_counts=150.0, pay_prob=0.5, severity_mean=10.0, severity_var=40.0)
    params = parse_config(mapping).params
    n_i, n_j, n_k = params.dims
    exported = config_from_params(params, replicates=1, master_seed=0)["model"]
    assert exported["expected_counts"] == {"values": [150.0] * n_i}
    assert exported["pay_prob"] == [0.5] * n_k
    assert exported["severity_mean"] == [[10.0] * n_k] * n_j
    assert exported["severity_var"] == [[40.0] * n_k] * n_j
    assert parse_config({**mapping, "model": exported}).params.dims == params.dims


def test_config_round_trip_is_lossless(tmp_path, make_params):
    params = make_params(occurrence_years=4, expected_counts=(11.0, 12.5, 13.75, 9.0625))
    mapping = config_from_params(
        params, replicates=7, master_seed=99, output_dir="runs/x", quantile_levels=(0.9, 0.95)
    )
    target = tmp_path / "cfg.json"
    write_config(mapping, target)
    cfg = load_config(target)
    assert np.array_equal(cfg.params.expected_counts, params.expected_counts)
    assert np.array_equal(cfg.params.severity_mean, params.severity_mean)
    assert np.array_equal(cfg.params.lag_probs, params.lag_probs)
    assert cfg.replicates == 7
    assert cfg.master_seed == 99
    assert cfg.quantile_levels == (0.9, 0.95)


def test_missing_file_is_a_parameter_error(tmp_path):
    with pytest.raises(ParameterError, match="not found"):
        load_config(tmp_path / "nope.json")


# --- CLI ------------------------------------------------------------------------


def small_config(tmp_path, replicates=12, seed=7):
    mapping = {
        "model": {
            "occurrence_years": 4,
            "max_lag": 3,
            "max_runoff": 3,
            "expected_counts": {"base": 40.0, "growth": 0.0},
            "lag_probs": [0.5, 0.3, 0.2],
            "survival": [1.0, 0.6, 0.35, 0.2],
            "pay_prob": [0.3, 0.4, 0.5, 0.4],
            "severity_mean": [[10.0] * 4, [12.0] * 4, [14.0] * 4],
            "severity_var": [[40.0] * 4, [48.0] * 4, [56.0] * 4],
        },
        "run": {
            "replicates": replicates,
            "master_seed": seed,
            "statistics": ["ibnr_count", "ibnr_reserve", "reported_reserve", "total_reserve"],
            "quantile_levels": [0.75, 0.95],
            "output_dir": str(tmp_path / "out"),
        },
    }
    path = tmp_path / "config.json"
    write_config(mapping, path)
    return path


def read_all_outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_simulate_writes_expected_files_and_is_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = run_cli("simulate", "--config", str(cfg), "--out", str(out1))
    r2 = run_cli("simulate", "--config", str(cfg), "--out", str(out2))
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    files = read_all_outputs(out1)
    assert "summary.json" in files
    assert "total_reserve_distribution.csv" in files
    assert "triangle_occurrence.csv" in files
    assert "triangle_reporting.csv" in files
    assert files == read_all_outputs(out2)

    summary = json.loads(files["summary.json"])
    stats = summary["statistics"]["total_reserve"]
    assert stats["replicates"] == 12
    assert "0.95" in stats["value_at_risk"]
    assert stats["analytic_mean"] is not None


def test_simulate_identical_across_worker_counts(tmp_path):
    # 4 * B + 1 replicates: five blocks, so --workers 4 has several blocks in flight
    size = block_replicates(load_config(small_config(tmp_path)).params)
    cfg = small_config(tmp_path, replicates=4 * size + 1)
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out1), "--workers", "1").returncode == 0
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out4), "--workers", "4").returncode == 0
    outputs = read_all_outputs(out1)
    assert outputs == read_all_outputs(out4)
    summary = json.loads(outputs["summary.json"])
    assert summary["block_replicates"] == size
    assert summary["replicates"] > 4 * summary["block_replicates"]


def test_compare_identical_across_worker_counts(tmp_path):
    # 4 * B + 1 replicates: five blocks, the last one short, so --workers 2 and
    # 4 score several blocks at once and finish them out of order
    size = block_replicates(load_config(small_config(tmp_path)).params)
    cfg = small_config(tmp_path, replicates=4 * size + 1)
    outputs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        assert main(["compare", "--config", str(cfg), "--out", str(out), "--workers", str(workers)]) == 0
        outputs.append(read_all_outputs(out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert sorted(outputs[0]) == ["comparison.csv", "comparison_summary.csv"]
    rows = list(csv.DictReader(io.StringIO(outputs[0]["comparison.csv"].decode())))
    assert len(rows) == 3 * (4 * size + 1)


def test_simulate_records_the_block_size_and_is_identical_across_workers(tmp_path, capsys):
    outputs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        argv = ["simulate", "--config", "default", "--replicates", "7", "--seed", "3", "--out", str(out)]
        assert main(argv + ["--workers", str(workers)]) == 0
        outputs.append(read_all_outputs(out))
    assert outputs[0] == outputs[1] == outputs[2]
    summary = json.loads(outputs[0]["summary.json"])
    assert summary["block_replicates"] == block_replicates(load_config("default").params) == 3


def test_seed_and_replicate_overrides(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "ov"
    r = run_cli("simulate", "--config", str(cfg), "--out", str(out), "--seed", "123", "--replicates", "5")
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["master_seed"] == 123
    assert summary["replicates"] == 5


def test_calibrate_output_revalidates(tmp_path):
    cfg = small_config(tmp_path, seed=11)
    out = tmp_path / "cal"
    r = run_cli("calibrate", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    estimated = load_config(out / "estimated_config.json")
    assert estimated.params.occurrence_years == 4
    assert estimated.params.lag_probs.sum() == pytest.approx(1.0, abs=1e-12)


def tiny_shape_config(tmp_path):
    """Severity shape 1e-6 (mean 10, variance 1e8): every drawn amount underflows to 0."""
    path = small_config(tmp_path, replicates=3)
    mapping = json.loads(path.read_text())
    mapping["model"]["severity_mean"] = [[10.0] * 4] * 3
    mapping["model"]["severity_var"] = [[1e8] * 4] * 3
    write_config(mapping, path)
    return path


def test_calibrate_export_of_a_tiny_shape_config_simulates(tmp_path):
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", str(tiny_shape_config(tmp_path)), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(out / "estimated_config.json"), "--out", str(tmp_path / "sim")]) == 0


def read_triangle_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) if v else np.nan for v in row[1:]] for row in rows])


def test_cli_replicate_0_worlds_come_from_the_engine_mapping(tmp_path):
    path = small_config(tmp_path, replicates=3, seed=19)
    cfg = load_config(path)
    out = tmp_path / "r0"
    for command in ("simulate", "calibrate"):
        r = run_cli(command, "--config", str(path), "--out", str(out))
        assert r.returncode == 0, r.stderr

    world = replicate_path(cfg.params, cfg.master_seed, 0)
    for name, project in (
        ("triangle_occurrence.csv", triangle_occurrence),
        ("triangle_reporting.csv", triangle_reporting),
    ):
        np.testing.assert_array_equal(read_triangle_csv(out / name), project(world).values)

    retained = replicate_path(cfg.params, cfg.master_seed, 0, retain_severities=True)
    expected = config_from_params(
        calibrated_params(retained, fallback=cfg.params),
        replicates=cfg.replicates,
        master_seed=cfg.master_seed,
        statistics=cfg.statistics,
        quantile_levels=cfg.quantile_levels,
    )
    assert json.loads((out / "estimated_config.json").read_text()) == expected


def test_compare_writes_one_row_per_estimator_per_replicate(tmp_path):
    cfg = small_config(tmp_path, replicates=6)
    out = tmp_path / "cmp"
    r = run_cli("compare", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "replicate,estimator,target,estimate,truth,error,note"
    assert len(lines) == 1 + 3 * 6
    summary_lines = (out / "comparison_summary.csv").read_text().strip().splitlines()
    assert len(summary_lines) == 1 + 3


def test_compare_rmse_is_finite_when_the_squared_errors_overflow(tmp_path):
    # severity means and variances of 1e150 give Chain-Ladder errors near
    # 1e153, whose squares overflow a float although every error is finite
    mapping = default_config()
    model = mapping["model"]
    model["severity_mean"] = model["severity_var"] = [[1e150] * (model["max_runoff"] + 1)] * model["max_lag"]
    cfg = tmp_path / "huge.json"
    write_config(mapping, cfg)
    out = tmp_path / "cmp"
    r = run_cli("compare", "--config", str(cfg), "--replicates", "20", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "warning:" not in r.stderr
    with (out / "comparison_summary.csv").open(newline="") as fh:
        rows = {row["estimator"]: row for row in csv.DictReader(fh)}
    for name in ("chain_ladder_occurrence", "chain_ladder_reporting"):
        assert int(rows[name]["replicates_ok"]) > 0
        assert 1e150 < float(rows[name]["rmse"]) < float("inf")


def test_report_renders_prior_outputs(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "rep"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)).returncode == 0
    r = run_cli("report", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "total_reserve" in r.stdout
    assert "VaR" in r.stdout
    assert "chain_ladder_occurrence" in r.stdout


def test_report_renders_a_comparison_alone(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)).returncode == 0
    r = run_cli("report", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("2D vs 3D comparison\n")
    assert "chain_ladder_occurrence" in r.stdout and "VaR" not in r.stdout


def test_report_without_outputs_fails_cleanly(tmp_path):
    r = run_cli("report", "--out", str(tmp_path / "void"))
    assert r.returncode == 1
    assert "summary.json" in r.stderr


def test_unknown_subcommand_is_a_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_invalid_config_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.json"
    mapping = default_config()
    mapping["model"]["lag_probs"] = [0.5, 0.6]
    bad.write_text(json.dumps(mapping))
    r = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert r.returncode == 1
    assert "lag_probs" in r.stderr


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_rejects_workers_below_one(tmp_path, capsys, workers):
    args = ["simulate", "--config", str(small_config(tmp_path)), "--workers", workers]
    assert main(args) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: ") and "workers" in line


def zero_claims_config(tmp_path):
    path = small_config(tmp_path)
    mapping = json.loads(path.read_text())
    mapping["model"]["expected_counts"] = {"values": [0.0] * 4}
    write_config(mapping, path)
    return path


@pytest.mark.parametrize(
    "command, extra, make_config",
    [
        ("simulate", ["--workers", "0"], small_config),
        ("compare", ["--replicates", "0"], small_config),
        ("calibrate", [], zero_claims_config),
        ("compare", ["--workers", "0"], small_config),
    ],
)
def test_rejected_run_leaves_no_output_directory(tmp_path, command, extra, make_config):
    out = tmp_path / "never"
    assert main([command, "--config", str(make_config(tmp_path)), "--out", str(out), *extra]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "calibrate"])
@pytest.mark.parametrize(
    "key, entries, named",
    [
        ("statistics", ["total_reserve", "total_reserve", "ibnr_count"], "run.statistics: duplicate entry 'total_reserve'"),
        ("quantile_levels", [0.95, 0.75, 0.95], "run.quantile_levels: duplicate entry 0.95"),
    ],
)
def test_duplicate_run_entries_are_named_and_leave_no_output(tmp_path, capsys, command, key, entries, named):
    # A duplicate used to be dropped silently: simulate reported three
    # distributions and wrote two.
    path = small_config(tmp_path)
    mapping = json.loads(path.read_text())
    mapping["run"][key] = entries
    write_config(mapping, path)
    out = tmp_path / "never"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: invalid configuration:", f"  - {named}"]
    assert not out.exists()


def counts_config(tmp_path, per_year):
    mapping = default_config()
    mapping["model"]["expected_counts"] = {"values": [per_year] * mapping["model"]["occurrence_years"]}
    path = tmp_path / "counts.json"
    write_config(mapping, path)
    return path


@pytest.mark.parametrize("per_year", [1e19, 1e300])
def test_claim_counts_past_int64_are_rejected(tmp_path, capsys, per_year):
    out = tmp_path / "never"
    args = ["simulate", "--config", str(counts_config(tmp_path, per_year)), "--replicates", "3"]
    assert main([*args, "--out", str(out)]) == 1
    header, line = capsys.readouterr().err.strip().splitlines()
    assert header == "error: invalid configuration:"
    assert line.startswith("  - model.expected_counts sum to ")
    assert not out.exists()


def test_claim_counts_just_under_the_bound_simulate(tmp_path):
    out = tmp_path / "big"
    args = ["simulate", "--config", str(counts_config(tmp_path, 1e17)), "--replicates", "3"]
    assert main([*args, "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["statistics"]["ibnr_count"]
    assert stats["mean"] == pytest.approx(stats["analytic_mean"], rel=1e-6)


def severity_config(tmp_path, mean, var, cells=(2, 3)):
    mapping = default_config()
    model = mapping["model"]
    means, variances = np.array(model["severity_mean"]), np.array(model["severity_var"])
    means[cells], variances[cells] = mean, var
    model["severity_mean"], model["severity_var"] = means.tolist(), variances.tolist()
    path = tmp_path / "severity.json"
    write_config(mapping, path)
    return path


@pytest.mark.parametrize("mean, var", [(1e300, 1e300), (1e200, 1e-10), (1e154, 1.7e308)])
def test_severity_cells_that_overflow_are_rejected(tmp_path, capsys, mean, var):
    out = tmp_path / "never"
    args = ["simulate", "--config", str(severity_config(tmp_path, mean, var)), "--replicates", "3"]
    assert main([*args, "--out", str(out)]) == 1
    header, line = capsys.readouterr().err.strip().splitlines()
    assert header == "error: invalid configuration:"
    assert line.startswith("  - model.severity_mean[2,3] = ")
    assert not out.exists()


def test_huge_finite_severities_simulate_without_warnings(tmp_path):
    # 4e150 is about the largest severity the default portfolio accepts
    for severity in (1e150, 4e150):
        out = tmp_path / f"huge_{severity}"
        cfg = severity_config(tmp_path, severity, severity, cells=...)
        r = run_cli("simulate", "--config", str(cfg), "--replicates", "3", "--out", str(out))
        assert r.returncode == 0 and r.stderr == ""
        summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
        for stats in summary["statistics"].values():
            assert np.isfinite([stats["mean"], stats["std_dev"], stats["analytic_mean"], stats["analytic_std"]]).all()
        assert_reserves_are_fsums_of_cells(load_config(cfg), 3, out)


def assert_reserves_are_fsums_of_cells(run, replicates, out):
    """The reserve distributions in ``out`` hold, per replicate world, math.fsum of its cells of the class."""
    n_i = run.params.occurrence_years
    i, j, k = np.indices(run.params.dims)
    ibnr, reported = i + 1 + j > n_i, (i + 1 + j <= n_i) & (i + 1 + j + k > n_i)
    expected = {"ibnr_reserve": [], "reported_reserve": [], "total_reserve": []}
    for replicate in range(replicates):
        z = replicate_path(run.params, run.master_seed, replicate).payments.payments
        ibnr_sum, reported_sum = math.fsum(z[ibnr].tolist()), math.fsum(z[reported].tolist())
        expected["ibnr_reserve"].append(ibnr_sum)
        expected["reported_reserve"].append(reported_sum)
        expected["total_reserve"].append(ibnr_sum + reported_sum)
    for name, sums in expected.items():
        with (out / f"{name}_distribution.csv").open(newline="") as fh:
            assert [float(row["value"]) for row in csv.DictReader(fh)] == sorted(sums), name


def test_reserve_std_is_finite_when_the_squared_deviations_overflow(tmp_path):
    # severity means and variances of 4e150 pass every rule, and give reserve
    # deviations near 1e153, whose squares overflow a float
    out = tmp_path / "huge"
    cfg = severity_config(tmp_path, 4e150, 4e150, cells=...)
    r = run_cli("simulate", "--config", str(cfg), "--replicates", "200", "--out", str(out))
    assert r.returncode == 0 and r.stderr == ""
    summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
    for stats in summary["statistics"].values():
        assert 0.0 < stats["std_dev"] < float("inf")


@pytest.mark.parametrize("severity", [1e151, 1.3e154])
def test_severities_that_overflow_the_reserve_variance_are_rejected(tmp_path, capsys, severity):
    # var + mean**2 is finite in every cell, but not the default portfolio's
    # bound on the reserve variance
    out = tmp_path / "never"
    args = ["simulate", "--config", str(severity_config(tmp_path, severity, severity, cells=...)), "--replicates", "3"]
    assert main([*args, "--out", str(out)]) == 1
    header, line = capsys.readouterr().err.strip().splitlines()
    assert header == "error: invalid configuration:"
    assert line.startswith("  - model.severity_mean")
    assert not out.exists()


@pytest.mark.parametrize("source", ["file", "--seed"])
def test_master_seed_past_64_bits_is_named(tmp_path, capsys, source):
    cfg = str(small_config(tmp_path, seed=2**64 if source == "file" else 5))
    extra = ["--seed", str(2**64)] if source == "--seed" else []
    for command in ("simulate", "compare", "calibrate"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 1
        header, line = capsys.readouterr().err.strip().splitlines()
        assert header == "error: invalid configuration:"
        assert line == f"  - run.master_seed {SEED_RANGE}, got {2**64}"
        assert not out.exists()


def test_largest_master_seed_simulates(tmp_path):
    out = tmp_path / "top"
    args = ["simulate", "--config", str(small_config(tmp_path)), "--seed", str(2**64 - 1)]
    assert main([*args, "--replicates", "3", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["master_seed"] == 2**64 - 1


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def replay(*args):  # the replay generator of retained amounts, which calibrate reads
        raise MemoryError("Unable to allocate 3.33 PiB for an array with shape (468750000000000,)")
        yield

    monkeypatch.setattr("claimcube.model._split_totals", replay)
    out = tmp_path / "never"
    assert main(["calibrate", "--config", str(small_config(tmp_path)), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line == "error: out of memory (Unable to allocate 3.33 PiB for an array with shape (468750000000000,))"
    assert not out.exists()


def test_calibrate_export_does_not_depend_on_out(tmp_path):
    cfg = small_config(tmp_path, seed=5)
    exported = []
    for out in (tmp_path / "a", tmp_path / "b" / "deeper"):
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
        exported.append((out / "estimated_config.json").read_bytes())
    assert exported[0] == exported[1]
    assert load_config(tmp_path / "a" / "estimated_config.json").output_dir == DEFAULT_OUTPUT_DIR


def plateau_config(tmp_path):
    path = small_config(tmp_path, replicates=3)
    mapping = json.loads(path.read_text())
    mapping["model"]["survival"] = [1.0, 0.6, 0.6, 0.2]
    write_config(mapping, path)
    return path


@pytest.mark.parametrize("command", ["simulate", "compare", "calibrate"])
def test_survival_plateau_runs_without_stderr(tmp_path, command):
    # A plateau only means that no claim closes in that year.
    r = run_cli(command, "--config", str(plateau_config(tmp_path)), "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


@pytest.mark.parametrize("command, sets", [("simulate", 1), ("compare", 1), ("calibrate", 2)])
def test_a_command_evaluates_the_model_rules_once(tmp_path, monkeypatch, command, sets):
    # The range rules run once per set built: the configured set, and for
    # calibrate also the estimated set.  No set is checked twice.
    evaluated = []
    rules = claimcube.model.validate_params

    def counted(params):
        evaluated.append(params)
        return rules(params)

    monkeypatch.setattr(claimcube.model, "validate_params", counted)
    assert main([command, "--config", str(small_config(tmp_path)), "--out", str(tmp_path / "o")]) == 0
    assert len(evaluated) == sets
    assert len({id(params) for params in evaluated}) == sets


def edge_world(name):
    """The default configuration turned into one of three edge worlds."""
    mapping = default_config()
    model = mapping["model"]
    if name == "tiny_shape":
        # Default curves at 300x counts with severity mean 10 and variance 1e8
        # (Gamma shape 1e-6): calibrate's retained draw spans several runs of
        # pools, and most runs lump cells whose draws all underflow to 0.
        model["expected_counts"] = {"values": (300 * default_params().expected_counts).tolist()}
        model["severity_mean"] = [[10.0] * (model["max_runoff"] + 1)] * model["max_lag"]
        model["severity_var"] = [[1e8] * (model["max_runoff"] + 1)] * model["max_lag"]
    elif name == "sparse":
        # 4 expected claims a year: Chain-Ladder cannot fit many worlds, so
        # most blocks mix fitted worlds with worlds noted as failures.
        model["expected_counts"] = {"base": 4.0, "growth": 0.0}
    else:
        # Lag 1 has probability 0, and the survival curve plateaus at 0.8 and
        # reaches 0 at k = 5, so several last-active years have probability 0
        # and their Poisson means are 0.
        lags = model["lag_probs"]
        lags[0], lags[1] = lags[0] + lags[1], 0.0
        model["survival"] = [1.0, 0.8, 0.8, 0.5, 0.2] + [0.0] * (model["max_runoff"] - 4)
    return mapping


@pytest.mark.parametrize("world", ["tiny_shape", "sparse", "closing"])
def test_edge_world_runs_repeat_byte_for_byte_and_quietly(tmp_path, capsys, world):
    cfg = tmp_path / f"{world}.json"
    write_config(edge_world(world), cfg)

    def run(command, out, *extra):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out), *extra]) == 0
        return read_all_outputs(tmp_path / out)

    if world == "tiny_shape":
        assert run("calibrate", "a") == run("calibrate", "b")
    else:
        compared = run("compare", "a", "--replicates", "30")
        assert compared == run("compare", "b", "--replicates", "30")
    if world == "sparse":
        summary = io.StringIO(compared["comparison_summary.csv"].decode())
        rows = {row["estimator"]: row for row in csv.DictReader(summary)}
        for name in ("chain_ladder_occurrence", "chain_ladder_reporting"):
            assert int(rows[name]["replicates_failed"]) > 0, rows[name]
    if world == "closing":
        simulated = run("simulate", "w1", "--replicates", "30", "--workers", "1")
        assert simulated == run("simulate", "w4", "--replicates", "30", "--workers", "4")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("world", ["default", "tiny_shape", "sparse", "closing"])
def test_json_outputs_hold_no_nan_or_infinity(tmp_path, world):
    cfg = tmp_path / f"{world}.json"
    write_config(default_config() if world == "default" else edge_world(world), cfg)
    for command, *extra in (("simulate", "--replicates", "30"), ("calibrate",)):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
        written = sorted(out.glob("*.json"))
        assert written
        for path in written:
            json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}"))


def io_failure_case(tmp_path, case):
    """CLI arguments that hit one I/O failure, and the file the diagnostic must name."""
    cfg = small_config(tmp_path)
    if case == "config_is_a_directory":
        return ["simulate", "--config", str(tmp_path)], tmp_path
    if case == "config_not_utf8":
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"model": "\xe9"}')
        return ["simulate", "--config", str(bad)], bad
    if case == "out_under_a_file":
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return ["simulate", "--config", str(cfg), "--out", str(blocker / "out")], blocker
    out = tmp_path / "prior"
    out.mkdir()
    summary = out / "summary.json"
    summary.write_text("{not json" if case == "summary_not_json" else '{"master_seed": 1}')
    return ["report", "--out", str(out)], summary


@pytest.mark.parametrize(
    "case",
    ["config_is_a_directory", "config_not_utf8", "out_under_a_file", "summary_not_json", "summary_missing_keys"],
)
def test_io_failure_exits_1_with_a_one_line_diagnostic(tmp_path, case):
    args, culprit = io_failure_case(tmp_path, case)
    r = run_cli(*args)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    (line,) = r.stderr.strip().splitlines()
    assert line.startswith("error: ")
    assert str(culprit) in line
    assert r.stdout == ""


def malformed_json_case(tmp_path, case):
    """CLI arguments that read a JSON file the decoder cannot take."""
    nested = "[" * 200_000 + "]" * 200_000
    if case == "summary_nested_too_deep":
        out = tmp_path / "prior"
        out.mkdir()
        (out / "summary.json").write_text('{"master_seed": ' + nested + "}")
        return ["report", "--out", str(out)]
    mapping = default_config()
    key, literal = ("occurrence_years", "1" + "0" * 4999) if case == "integer_of_5000_digits" else ("lag_probs", nested)
    mapping["model"][key] = "placeholder"
    text = json.dumps(mapping).replace('"placeholder"', literal)
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(text)
    return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("case", ["integer_of_5000_digits", "lag_probs_nested_too_deep", "summary_nested_too_deep"])
def test_malformed_json_exits_1_without_a_traceback(tmp_path, case):
    r = run_cli(*malformed_json_case(tmp_path, case))
    assert r.returncode == 1
    (line,) = r.stderr.strip().splitlines()
    assert line.startswith("error: ")
