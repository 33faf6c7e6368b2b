"""The demos that show the static cavity, drive the four cycle entry
points, the friction energy with its analytic bound and the shortcut
stroke, and cross-check in Fock space run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_static_cavity.py",
    "02_adiabatic_cycle.py",
    "03_friction_energy.py",
    "04_finite_time_engine.py",
    "05_refrigerator.py",
    "06_shortcut.py",
    "07_fock_crosscheck.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
