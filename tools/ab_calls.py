"""Compare two checkouts' request latency call by call, in live workers.

    python3 tools/ab_calls.py --parent DIR --workload W [--calls N] [--seed N]

A worker pair is one worker process per checkout: the parent DIR and the
change, the checkout holding this script.  Each imports casotto from its
own ``src/`` and runs CLI requests in-process with its own
``perfbench/run.py`` (``limit_threads``, then ``call``: ``parse_config``
and ``run`` into a string buffer).  The requests are workload W of this
checkout's ``perfbench/workloads.py``, taken in turn; each worker first
runs ``run.WARMUP_ARGV`` and every request once.  Then each of its calls
sends one request to both workers, one after the other, the side that goes
first alternating from one pass over the requests to the next
(parent-change, change-parent: ABBA).  The ``--calls`` are split over
three fresh worker pairs, one after the other.

Both sides see the same host state within a few milliseconds, so the
change/parent ratio of a call is free of the drift between benchmark runs,
which reaches tens of percent.  A single pair still carries its processes'
own luck (memory layout, a checkout against itself reads a pass ratio a
percent off 1), so each pair's pass-ratio median is printed on its own
line.  Then, over all pairs, per request kind: each side's median latency
in ms and the median change/parent ratio with its quartiles.  A ``pass``
row does the same for each side's latency summed over one call of every
request, the unit a benchmark pass times; a pass never spans two pairs.
The last line counts the requests whose stdout differs between the sides
in any pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WORKER_PAIRS = 3


def worker(checkout: Path) -> int:
    """Serve requests from stdin, one JSON argv a line; answer each with
    ``{"ms", "status", "sha256"}`` on stdout."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import run  # the checkout's own benchmark runner

    run.limit_threads(run.nproc())  # before numpy is imported
    sys.path.insert(0, str(checkout / "src"))
    import casotto.cli as cli

    print(json.dumps({"casotto": cli.__file__}), flush=True)
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        status, text = run.call(cli, argv)
        ms = 1e3 * (time.perf_counter() - start)
        sha = hashlib.sha256(text.encode()).hexdigest()
        print(json.dumps({"ms": ms, "status": status, "sha256": sha}), flush=True)
    return 0


class Worker:
    def __init__(self, checkout: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=checkout,
        )
        hello = json.loads(self.proc.stdout.readline() or "{}")
        if not Path(hello.get("casotto", "/")).resolve().is_relative_to(checkout / "src"):
            self.close()
            raise RuntimeError(f"worker in {checkout} did not import its own casotto: {hello}")

    def call(self, argv) -> dict:
        self.proc.stdin.write(json.dumps(list(argv)) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worker_pair(parent: Path, change: Path, requests, calls: int, run):
    """``calls`` ABBA calls on one fresh worker pair.  Returns the calls as
    ``(kind, parent ms, change ms)``, the passes as ``(parent ms, change
    ms)`` summed over one call of every request, and the indices of the
    requests whose first output differs between the sides."""
    workers = dict(zip(SIDES, (Worker(parent), Worker(change))))
    try:
        first = {}
        for side, w in workers.items():
            w.call(run.WARMUP_ARGV)
            first[side] = [w.call(r.argv) for r in requests]
        timed = []
        n = len(requests)
        for i in range(calls):
            req = requests[i % n]
            # the first side alternates from pass to pass, so that each
            # request runs first on either side equally often
            order = SIDES if (i // n) % 2 == 0 else SIDES[::-1]
            got = {side: workers[side].call(req.argv) for side in order}
            timed.append((req.kind, got["parent"]["ms"], got["change"]["ms"]))
    finally:
        for w in workers.values():
            w.close()
    passes = [(sum(p for _, p, _ in timed[i:i + n]), sum(c for _, _, c in timed[i:i + n]))
              for i in range(0, len(timed) - n + 1, n)]
    differ = {i for i, (a, b) in enumerate(zip(first["parent"], first["change"]))
              if (a["status"], a["sha256"]) != (b["status"], b["sha256"])}
    return timed, passes, differ


def compare(parent: Path, change: Path, workload: str, calls: int, seed: int) -> str:
    sys.path.insert(0, str(HERE / "perfbench"))
    import run
    import workloads

    requests = workloads.build(workload, seed)
    lines = [f"{workload}: {calls} ABBA pairs over {WORKER_PAIRS} fresh worker pairs, seed {seed}; "
             "latency medians in ms; change/parent ratio median [q1, q3]"]
    # per request kind over all worker pairs, and per pass: the sum over one
    # call of every request
    rows: dict[str, list[tuple[float, float]]] = {}
    passes, differ = [], set()
    for j in range(WORKER_PAIRS):
        share = calls // WORKER_PAIRS + (j < calls % WORKER_PAIRS)
        timed, pair_passes, pair_differ = worker_pair(parent, change, requests, share, run)
        for kind, p, c in timed:
            rows.setdefault(kind, []).append((p, c))
        passes += pair_passes
        differ |= pair_differ
        median = f"{statistics.median(c / p for p, c in pair_passes):.3f}" if pair_passes else "n/a"
        lines.append(f"worker pair {j + 1}: {share} ABBA pairs, pass ratio median {median}")
    rows["pass"] = passes
    lines.append(f"{'kind':20} {'pairs':>6} {'parent':>9} {'change':>9} {'ratio':>7}  quartiles")
    for kind, samples in rows.items():
        if not samples:
            continue
        q1, q2, q3 = quartiles([c / p for p, c in samples])
        lines.append(f"{kind:20} {len(samples):6d} {statistics.median(p for p, _ in samples):9.4g} "
                     f"{statistics.median(c for _, c in samples):9.4g} {q2:7.3f}  [{q1:.3f}, {q3:.3f}]")
    kinds = [requests[i].kind for i in sorted(differ)]
    lines.append(f"requests whose output differs between the sides: {len(kinds)} of {len(requests)}"
                 + (f" ({', '.join(kinds)})" if kinds else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--workload", choices=("thermal_grid", "point_queries", "fock_oracle"))
    parser.add_argument("--calls", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve())
    if args.parent is None or args.workload is None or args.calls < 1:
        parser.error("--parent, --workload and a positive --calls are required")
    print(compare(args.parent.resolve(), HERE, args.workload, args.calls, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
