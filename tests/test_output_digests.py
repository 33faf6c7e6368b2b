import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("output_digests",
                                               ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def test_checkout_against_itself_differs_nowhere():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--parent", str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    # one line per request: the README commands, EXTRA, the seed-1
    # benchmark requests, one sampled profile and one sampled sweep
    assert len(lines) == len(output_digests.requests(Path("stroke.csv")))
    assert last == f"requests whose output differs: 0 of {len(lines)}"
    for line in lines:
        change, parent, command = line.split(" ", 2)
        assert change == parent and len(change) == 64
    commands = [line.split(" ", 2)[2] for line in lines]
    assert all(command in commands for command in output_digests.EXTRA)
    assert any(c.startswith("friction --family sampled") for c in commands)
    assert any(c.startswith("sweep --family sampled") for c in commands)
