"""Byte identity of every ``--out`` file against a committed table of sha256 sums.

The bytes depend on numpy's samplers and on the libm and SIMD paths under
them, so the table is keyed by a fingerprint: the numpy version and the
sha256 of a fixed small draw.  On a host whose fingerprint has no entry the
test skips and names it.  A change that alters outputs on purpose
regenerates this host's entry with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in CHANGES.md which files changed and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from claimcube import default_config, write_config
from claimcube.cli import main
from test_config_cli import edge_world

TABLE = Path(__file__).with_name("golden_outputs.json")
WORLDS = ("default", "tiny_shape", "sparse", "closing")
RUNS = {
    "simulate_w1": ("simulate", "--replicates", "50", "--workers", "1"),
    "simulate_w2": ("simulate", "--replicates", "50", "--workers", "2"),
    "compare": ("compare", "--replicates", "30"),
    "calibrate": ("calibrate",),
}


def fingerprint() -> str:
    """The numpy version and a digest of one small draw from each sampler the kernel uses."""
    gen = np.random.Generator(np.random.PCG64(20261019))
    draws = (
        gen.poisson([0.0, 0.5, 9.0, 40.0, 1e6], size=(4, 5)),
        gen.binomial([0, 3, 40, 10**6], 0.3, size=(4, 4)),
        gen.gamma([1e-6, 0.5, 3.0, 1e3], 2.0, size=(4, 4)),
        gen.standard_gamma([1e-6, 0.5, 3.0, 1e3], size=(4, 4)),
    )
    digest = hashlib.sha256(b"".join(draw.tobytes() for draw in draws)).hexdigest()
    return f"numpy {np.__version__}, draws {digest[:16]}"


def output_digests(root: Path) -> dict[str, str]:
    """sha256 of every file that each run of :data:`RUNS` writes on each world, keyed by
    ``world/run/file``."""
    digests = {}
    for world in WORLDS:
        cfg = root / f"{world}.json"
        write_config(default_config() if world == "default" else edge_world(world), cfg)
        for run, (command, *extra) in RUNS.items():
            out = root / world / run
            if main([command, "--config", str(cfg), "--out", str(out), *extra]) != 0:
                raise RuntimeError(f"{command} failed on the {world} world")
            for path in sorted(out.iterdir()):
                digests[f"{world}/{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_the_golden_table(tmp_path):
    key = fingerprint()
    table = json.loads(TABLE.read_text())
    if key not in table:
        pytest.skip(f"no golden outputs for this host's fingerprint {key!r}")
    assert output_digests(tmp_path) == table[key]


if __name__ == "__main__":
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        table[fingerprint()] = output_digests(Path(root))
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
