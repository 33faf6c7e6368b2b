import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_checkout_against_itself_differs_nowhere():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--parent", str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    # the README commands, 13 extra requests, the 103 seed-1 benchmark
    # requests, one sampled profile and one sampled sweep
    assert len(lines) > 103 + 13 + 2
    assert last == f"requests whose output differs: 0 of {len(lines)}"
    for line in lines:
        change, parent, command = line.split(" ", 2)
        assert change == parent and len(change) == 64
    commands = [line.split(" ", 2)[2] for line in lines]
    assert "sweep --tau-grid 1e-200:1:3log --modes 4" in commands
    assert "engine --family shortcut --tau 1 --modes 8" in commands
    assert any(c.startswith("friction --family sampled") for c in commands)
    assert any(c.startswith("sweep --family sampled") for c in commands)
    assert "friction --epsilon 0.010 --modes 4" in commands
    assert all(f"{command} --help" in commands for command in ("friction", "shortcut-check"))
