"""The demos that show the static cavity, drive the Otto cycle as engine
and refrigerator, the friction energy with its analytic bound and the
shortcut stroke, and cross-check in Fock space run to completion; so does
the README's library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    """Run the interpreter on ``args`` from the repository root, with the
    package's source first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


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
    proc = _run_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
