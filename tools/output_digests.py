"""Digest every fixed request's exit status and stdout, to check byte identity.

    python3 tools/output_digests.py [--parent DIR]

Each checkout runs the requests through its own ``casotto.cli.main`` in a
subprocess of its own, stdout captured (``--output`` included) and stderr
dropped.  One line per request: the sha256 over (status, stdout) of this
checkout, then of the parent DIR, then the request.  With ``--parent`` the
last line counts the requests whose digests differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
EXTRA = [
    "sweep --tau-grid 1e-200:1:3log --modes 4",  # its first two taus fail
    "oracle --family shortcut --tau 1 --beta 2 --epsilon 0.01 --fock-modes 2 --n-max 8",
    # at a beta_A that is no power of two, r * beta_A / beta_A is not r
    "sweep --tau-grid 1:2:2 --beta-a 3 --beta-ratio 0.05,0.1 --modes 8",
    "engine --tau 1 --beta-a 3 --beta-ratio 0.05 --modes 8",
    # a shortcut stroke lasts tau + 2 L0, which sets the power
    "engine --family shortcut --tau 1 --modes 8",
    # a list option echoes as its shortest round-trip floats
    "friction --epsilon 0.010 --modes 4",
    # --help prints on stdout and exits 0
    "friction --help", "bound --help", "engine --help", "refrigerator --help",
    "sweep --help", "shortcut-check --help", "oracle --help",
]


def requests(samples: Path) -> list[list[str]]:
    """The README's ``casotto`` lines, ``EXTRA``, the seed-1 benchmark
    requests, a sampled profile (``# bound = none``) and a sampled sweep
    over more than one tau."""
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    readme = (HERE / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    lines = [ln.split()[1:] for ln in readme.splitlines() if ln.startswith("casotto ")]
    bench = [list(r.argv) for name in workloads.NAMES for r in workloads.build(name, seed=1)]
    sampled = ["--family", "sampled", "--trajectory-file", str(samples)]
    return lines + [ln.split() for ln in EXTRA] + bench + [
        ["friction", *sampled, "--modes", "8"],
        ["sweep", *sampled, "--tau-grid", "0.5:4:3", "--modes", "16"],
    ]


def serve() -> None:
    """Child side: run the JSON list of argvs on stdin, print one digest each."""
    import casotto.cli as cli

    real_run = cli.run
    cli.run = lambda cfg: real_run(cfg, stream=sys.stdout)  # stdout even under --output
    digests = []
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # stderr goes to the parent's pipe
            status = cli.main(argv)
        digests.append(hashlib.sha256(f"{status}\n{out.getvalue()}".encode()).hexdigest())
    print(json.dumps([cli.__file__, digests]))


def digests(checkout: Path, argvs: list[list[str]], cwd: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(HERE / "tools")]))
    code = "import output_digests; output_digests.serve()"
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(argvs), env=env,
                          cwd=cwd, capture_output=True, text=True, check=True)
    where, result = json.loads(proc.stdout)
    if not Path(where).resolve().is_relative_to(checkout / "src"):
        raise RuntimeError(f"{checkout} did not run its own casotto: {where}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        samples = Path(tmp) / "stroke.csv"
        samples.write_text("".join(f"{t / 10!r},{(t / 10) ** 2 * (3 - t / 5)!r}\n"
                                   for t in range(11)))
        argvs = requests(samples)
        sides = [digests(HERE, argvs, tmp)]
        if args.parent is not None:
            sides.append(digests(args.parent.resolve(), argvs, tmp))
    for argv, *shas in zip(argvs, *sides):
        print(*shas, " ".join(argv))
    if args.parent is not None:
        differ = sum(a != b for a, b in zip(*sides))
        print(f"requests whose output differs: {differ} of {len(argvs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
