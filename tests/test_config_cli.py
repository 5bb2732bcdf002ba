import csv
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from claimcube import (
    ParameterError,
    block_replicates,
    calibrated_params,
    config_from_params,
    default_config,
    load_config,
    parse_config,
    replicate_path,
    triangle_occurrence,
    triangle_reporting,
    write_config,
)
from claimcube.cli import main
from claimcube.config import DEFAULT_OUTPUT_DIR

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
    ],
)
def test_rejected_run_leaves_no_output_directory(tmp_path, command, extra, make_config):
    out = tmp_path / "never"
    assert main([command, "--config", str(make_config(tmp_path)), "--out", str(out), *extra]) == 1
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


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def allocate(*args):
        raise MemoryError("Unable to allocate 3.33 PiB for an array with shape (468750000000000,)")

    monkeypatch.setattr("claimcube.model._split_totals", allocate)
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
def test_survival_plateau_warns_once_per_command(tmp_path, command):
    r = run_cli(command, "--config", str(plateau_config(tmp_path)), "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    assert r.stderr.count("survival curve plateaus") == 1
    assert r.stderr == "warning: survival curve plateaus at k=2; claims there never close\n"
    assert ".py" not in r.stderr


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
