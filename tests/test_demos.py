import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # The demos run under this interpreter's -X dev and -W options, so a
    # warning the tests turn into an error fails a demo too.
    flags = (["-X", "dev"] if sys.flags.dev_mode else []) + [f"-W{option}" for option in sys.warnoptions]
    r = subprocess.run([sys.executable, *flags, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
