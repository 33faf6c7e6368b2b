"""Record the benchmark's end-to-end numbers of one checkout in a JSON file.

    python3 tools/bench_record.py --out BENCH_N.json [--checkout DIR] [--label NAME]

For each of the three workloads of ``perfbench/workloads.py`` this runs
``python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0`` in
DIR (default: the checkout holding this script), one workload after another,
with S the ``run_seconds`` of ``BENCHMARK.json``, and parses the run's report
and result lines.  The record keeps,
per workload, the end-to-end metrics next to the accuracy they were
measured at (``max_rel_err``) and the ``failed``/``attempted`` units.

The record is filed under the checkout's commit and ``--label``; a file
that already exists keeps its other records, so a before/after comparison
is two invocations into one file.  ``dirty`` marks a checkout whose
``src/`` or ``perfbench/`` differ from its commit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("thermal_grid", "point_queries", "fock_oracle")
SEED = 1


def git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_workload(checkout: Path, name: str, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} failed with status {proc.returncode}:\n{proc.stderr}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "max_rel_err": report["metrics"]["max_rel_err"]["value"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "passes": report["passes"],
        "environment": report["environment"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", type=Path, default=HERE)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    seconds = json.loads((HERE / "BENCHMARK.json").read_text())["run_seconds"]

    workloads, environment = {}, {}
    for name in WORKLOADS:
        print(f"running {name} in {checkout} for {seconds:g} s", file=sys.stderr, flush=True)
        workloads[name] = run_workload(checkout, name, seconds)
        environment = workloads[name].pop("environment")
    record = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD") or "unknown",
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds:g} --trace 0",
        "environment": {k: environment.get(k) for k in ("python", "numpy", "scipy", "blas", "nproc", "machine")},
        "workloads": workloads,
    }

    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    runs = [r for r in runs if (r["commit"], r["label"]) != (record["commit"], record["label"])]
    args.out.write_text(json.dumps({"runs": runs + [record]}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
