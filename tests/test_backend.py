"""BINDENS_BACKEND at import: numpy is accepted, anything else refused."""

import json
import os
import subprocess
import sys


def _run_fresh(env_value, code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, BINDENS_BACKEND=env_value),
    )


def test_env_forces_plain_backend():
    code = (
        "import json, numpy as np\n"
        "from bindens import fwht\n"
        "print(json.dumps({'fwht': list(fwht(np.array([1.0, 2.0, 3.0, 4.0])))}))\n"
    )
    proc = _run_fresh("numpy", code)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["fwht"] == [10.0, -2.0, -4.0, 0.0]


def test_env_rejects_unknown_value():
    proc = _run_fresh("vectorized", "import bindens\n")
    assert proc.returncode != 0
    assert "BINDENS_BACKEND" in proc.stderr
