import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "threshold_sweep.py",
            ["--p", "3", "--k", "1", "--sizes", "4", "--seeds", "1"],
            "variable,value,seed,set_size,classes,plane_classes,proportion",
        ),
        ("badness_profile.py", ["--rings", "F3", "--max-k", "1"], "ring,k,m,count,shape,constant"),
    ],
)
def test_script_runs_at_toy_size(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
