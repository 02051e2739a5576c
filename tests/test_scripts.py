import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtta

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
SRC = Path(gtta.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
