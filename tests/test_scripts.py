"""Smoke tests of the scripts in ``scripts/``, which import the package the
way a user runs them: as files, in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_swingup_demo_runs_both_algorithms():
    # Two 0.02 s steps of the default cart-pole config per algorithm.
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "swingup_demo.py"), "--seconds",
         "0.04"], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["mppi", "soppi"]
    assert all("mse(theta)=" in line for line in lines)


def test_cartpole_benchmark_rejects_workers_before_running(tmp_path):
    # The battery runs serially; an unknown flag stops it before any trial.
    out_dir = tmp_path / "res"
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_cartpole_benchmark.py"), "--out",
         str(out_dir), "--workers", "1"], capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 2
    assert "--workers" in out.stderr
    assert not out_dir.exists()
