"""Record the benchmark's end-to-end numbers of one checkout in a JSON file,
or compare two checkouts in alternating pairs of runs.

    python3 tools/bench_record.py --out BENCH_N.json [--checkout DIR] [--label NAME] [--seed N]
    python3 tools/bench_record.py --pairs N --parent DIR --workload W [--checkout DIR] [--seed N]

For each of the three workloads of ``perfbench/workloads.py`` this runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` in
DIR (default: the checkout holding this script), one workload after another,
with S the ``run_seconds`` of ``BENCHMARK.json``, and parses the run's report
and result lines.  The record keeps,
per workload, the end-to-end metrics next to the accuracy they were
measured at (``max_rel_err``) and the ``failed``/``attempted`` units.

``--seed`` (default 1) is passed to every run and kept in the record, so a
gain can be checked again on a seed that was not used while the change was
written.  Of the three workloads only ``point_queries`` draws its requests
from the seed; the other two are fixed grids.

The record is filed under the checkout's commit and ``--label``; a file
that already exists keeps its other records, so a before/after comparison
is two invocations into one file.  ``dirty`` marks a checkout whose
``src/`` or ``perfbench/`` differ from its commit.

With ``--pairs N`` nothing is written: the workload W runs N times in the
parent checkout DIR and N times in the change checkout (``--checkout``),
pair by pair, the side that runs first alternating from pair to pair.
Each end-to-end metric of ``BENCHMARK.json`` is then printed with each
side's median and quartiles, the change's median over the parent's, and
the pairs the change won (ties count for neither side).  ``gain`` marks a
metric that the change won in at least nine tenths of the pairs by a
median difference larger than the distance between the parent's
quartiles, ``loss`` the same the other way round.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("thermal_grid", "point_queries", "fock_oracle")


def git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_workload(checkout: Path, name: str, seconds: float, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
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


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: Path, change: Path, workload: str, pairs: int, seconds: float, seed: int) -> str:
    """Run ``pairs`` alternating parent/change runs of one workload; the
    summary table, one end-to-end metric a line."""
    sides = {"parent": parent, "change": change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            print(f"pair {i + 1}/{pairs}: {workload} in {side} for {seconds:g} s", file=sys.stderr, flush=True)
            runs[side].append(run_workload(sides[side], workload, seconds, seed))
    spec = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    lines = [f"{workload}: {pairs} pairs, seed {seed}; median [q1, q3]; change/parent; pairs the change won",
             f"{'metric':14} {'parent':>28} {'change':>28} {'ratio':>7} {'wins':>7}"]
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        apart = abs(cq[1] - pq[1]) > pq[2] - pq[0]
        better = (cq[1] < pq[1]) == lower
        verdict = ""
        if apart and better and wins >= 0.9 * pairs:
            verdict = "gain"
        elif apart and not better and losses >= 0.9 * pairs:
            verdict = "loss"
        lines.append(
            f"{name:14} {pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(44)
            + f"{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(29)
            + f"{cq[1] / pq[1] if pq[1] else float('nan'):7.3f} {wins:>3}/{pairs:<3} {verdict}"
        )
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        lines.append(f"{side}: {failed} of {attempted} units failed; per run "
                     + " ".join(f"{r['metrics'][spec[0]['name']]:.4g}" for r in runs[side]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--checkout", type=Path, default=HERE)
    parser.add_argument("--label", default="")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    seconds = json.loads((HERE / "BENCHMARK.json").read_text())["run_seconds"]

    if args.pairs:
        if args.pairs < 1 or args.parent is None or args.workload is None:
            parser.error("--pairs needs a positive count, --parent and --workload")
        print(compare(args.parent.resolve(), checkout, args.workload, args.pairs, seconds, args.seed))
        return 0
    if args.out is None:
        parser.error("--out is required unless --pairs is given")

    workloads, environment = {}, {}
    for name in WORKLOADS:
        print(f"running {name} in {checkout} for {seconds:g} s", file=sys.stderr, flush=True)
        workloads[name] = run_workload(checkout, name, seconds, args.seed)
        environment = workloads[name].pop("environment")
    record = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD") or "unknown",
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "seed": args.seed,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0",
        "environment": {k: environment.get(k) for k in ("python", "numpy", "scipy", "blas", "nproc", "machine")},
        "workloads": workloads,
    }

    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    runs = [r for r in runs if (r["commit"], r["label"]) != (record["commit"], record["label"])]
    args.out.write_text(json.dumps({"runs": runs + [record]}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
