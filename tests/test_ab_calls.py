import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_checkout_against_itself_reads_a_ratio_near_one():
    # both workers import the same casotto, so every pair times the same
    # code and the per-pass ratio's median sits at 1 up to host noise
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), "--parent", str(ROOT),
         "--workload", "fock_oracle", "--calls", "200"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the 200 calls split 67, 67 and 66 over three fresh worker pairs, each
    # with its own pass-ratio median; a pass never spans two pairs
    pairs = [line.split() for line in lines[1:4]]
    assert [p[:5] for p in pairs] == [["worker", "pair", f"{j}:", str(n), "ABBA"]
                                      for j, n in ((1, 67), (2, 67), (3, 66))]
    assert all(0.8 <= float(p[-1]) <= 1.25 for p in pairs)
    rows = {line.split()[0]: line.split() for line in lines[5:-1]}
    assert set(rows) == {"oracle_friction", "oracle_identities", "pass"}
    assert [int(rows[k][1]) for k in ("oracle_friction", "oracle_identities", "pass")] == [101, 99, 99]
    assert 0.8 <= float(rows["pass"][4]) <= 1.25
    assert lines[-1] == "requests whose output differs between the sides: 0 of 2"
