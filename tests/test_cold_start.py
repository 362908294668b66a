"""Importing the package costs about one numpy import, and no timed step
pays for the scipy.special import that noise drawing needs.

Each check runs in a fresh interpreter, because this test process has
long since loaded scipy.
"""

import json
import subprocess
import sys
from pathlib import Path

import soppi

SRC = str(Path(soppi.__file__).resolve().parent.parent)


def run_fresh(code):
    """Run ``code`` in a new interpreter with the package on its path and
    return the JSON object it prints."""
    preamble = f"import json, sys\nsys.path.insert(0, {SRC!r})\n"
    out = subprocess.run([sys.executable, "-c", preamble + code],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_parsing_a_config_loads_no_scipy():
    got = run_fresh("""
from soppi import harness
harness.parse_config(harness.DEFAULT_CARTPOLE_CONFIG)
loaded = sorted(m for m in ("scipy", "scipy.special") if m in sys.modules)
fingerprint = harness.code_fingerprint()["scipy"]
import scipy
print(json.dumps({"loaded": loaded, "fingerprint": fingerprint,
                  "version": scipy.__version__}))
""")
    assert got["loaded"] == []
    assert got["fingerprint"] == got["version"]


def test_first_timed_step_finds_scipy_special_loaded():
    got = run_fresh("""
from soppi import controller, harness
config = harness.parse_config({
    "system": {"id": "pendulum", "params": {}},
    "cost": {"Q": [10.0, 0.1], "R": [1e-3], "Q_T": [100.0, 1.0],
             "x_target": [3.141592653589793, 0.0], "angle_dims": [0]},
    "controller": {"K": 8, "horizon": 4, "lambda": 1.0, "sigma": 5.0},
    "experiment": {"algos": ["mppi"], "n_trials": 1, "t_total": 0.02,
                   "x0": [0.0, 0.0]}})
before = "scipy.special" in sys.modules
seen = []
stepper = controller._STEPPERS["mppi"]

def spy(*args, **kwargs):
    seen.append("scipy.special" in sys.modules)
    return stepper(*args, **kwargs)

controller._STEPPERS["mppi"] = spy
controller.run_episode(config.system, config.cost_spec, config.controller,
                       config.x0, "mppi", config.n_steps)
print(json.dumps({"before": before, "seen": seen}))
""")
    assert got["before"] is False
    assert got["seen"] == [True]
