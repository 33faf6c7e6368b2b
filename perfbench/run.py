"""Benchmark of casotto's command-line workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``thermal_grid``, ``point_queries``, ``fock_oracle`` or ``all``.
Run from a source checkout: casotto is imported from ``src/`` next to this
directory, and the run fails (exit status 2, no result) when it is missing.

The workload's requests go through ``casotto.cli.parse_config`` and
``casotto.cli.run`` in this process, one after another (a closed loop with
one client), repeated for ``--seconds``.  Every output is checked against
references computed here without casotto.  The last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  The line before it is a report with every metric, the
sample counts and the environment.  A traced run spends half its time
untraced, to measure the tracing overhead, and writes its spans to
``.bench_out/<workload>.spans.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 3
SETUP_SNIPPET = "import casotto, casotto.cli; print(casotto.__file__, flush=True)"
WARMUP_ARGV = ("friction", "--tau", "1", "--beta", "1", "--modes", "4")

# the result line of an untraced run; the report line adds failed_frac and
# max_rel_err, which the result line carries as failed / attempted and correct
E2E_METRICS = ("setup_s", "solve_s", "query_ms.p50", "query_ms.p90", "peak_rss_mb")
SPECIAL_UNITS = {
    "cli.bytes_out": "bytes",
    "friction.energy_calls_per_cell": "calls/cell",
    "quadrature.nodes_per_amplitude": "nodes/amplitude",
    "fock_oracle.dimension": "states",
    "fock_oracle.eigh_flops": "flop",
}


def layer_unit(name: str) -> str:
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads(n: int) -> None:
    """Keep OpenBLAS and the CLI's default sweep pool within ``n`` threads.

    Must run before numpy is imported.  The CLI sizes its default pool by
    ``os.cpu_count()``, which counts CPUs this process may not use.
    """
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= n:
        os.environ["OPENBLAS_NUM_THREADS"] = str(n)
    if (os.cpu_count() or 1) > n:
        os.cpu_count = lambda: n


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until casotto.cli is imported."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up interpreter failed: status {proc.returncode}, {line!r}")
    return times


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(cli, seed: int) -> dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sweep_cfg = cli.parse_config(["sweep", "--tau-grid", "1:2:2"])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cli_default_jobs": sweep_cfg.options.get("jobs"),
        "seed": seed,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def call(cli, argv) -> tuple[int, str]:
    """One CLI request, as ``casotto.cli.main`` would run it but in-process."""
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            status = cli.run(cli.parse_config(list(argv)), stream=buf)
        except Exception as exc:  # a crashing request is a failed unit
            print(f"request {' '.join(argv)!r} raised {exc!r}", file=sys.stderr)
            status = -1
    return status, buf.getvalue()


@dataclass
class Pass:
    solve_s: float
    latencies_s: list[float]
    outcome: "workloads.Outcome"
    digests: list[str]
    bytes_out: int
    peak_rss_mb: float
    spans: list | None


def run_pass(cli, requests, expected_digests, tracer=None) -> Pass:
    """All requests once; solve time runs until the last output is checked.

    Output that differs from the first pass's breaks the CLI's
    byte-identity guarantee, so the request's units count as failed.
    """
    from workloads import Outcome

    total = Outcome()
    latencies, digests, bytes_out = [], [], 0
    start = time.perf_counter()
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        status, text = call(cli, req.argv)
        latencies.append(time.perf_counter() - t0)
        outcome = req.check(status, text)
        raw = text.encode()
        digest = hashlib.sha256(raw).hexdigest()
        if expected_digests and digest != expected_digests[i] and outcome.failed < outcome.units:
            outcome.failed = outcome.units
            outcome.problems.append(f"{req.kind}: output differs from the first pass")
        total.merge(outcome)
        digests.append(digest)
        bytes_out += len(raw)
    solve = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Pass(solve, latencies, total, digests, bytes_out, peak_rss_mb, tracer.take() if tracer else None)


def run_passes(cli, requests, seconds: float, digests, tracer=None) -> list[Pass]:
    """Repeat the workload while one more pass, as long as the last, still
    ends within ``seconds``; always at least one pass."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].solve_s <= seconds:
        passes.append(run_pass(cli, requests, digests, tracer))
        digests = digests or passes[0].digests
    return passes


def write_spans(name: str, passes: list[Pass]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.spans.csv"
    with path.open("w") as fh:
        fh.write("pass,id,name,start_s,end_s,parent,payload\n")
        for p_idx, p in enumerate(passes):
            t0 = min((s.start for s in p.spans), default=0.0)
            for i, s in enumerate(p.spans):
                payload = " ".join(map(str, s.payload))
                fh.write(f"{p_idx},{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent},{payload}\n")
    return path


def measure(cli, name: str, seed: int, seconds: float, trace: bool, setup_times) -> dict:
    """Run one workload; returns the report and the result line."""
    import tracing
    import workloads

    requests = workloads.build(name, seed)
    call(cli, WARMUP_ARGV)
    metrics: dict[str, tuple[float, str]] = {}
    extra: dict[str, object] = {}
    if trace:
        untraced = run_passes(cli, requests, seconds / 2, None)
        with tracing.Tracer() as tracer:
            traced = run_passes(cli, requests, seconds / 2, untraced[0].digests, tracer)
        passes = untraced + traced
        per_pass = [tracing.layer_metrics(p.spans) for p in traced]
        for key in per_pass[0]:
            metrics[key] = (statistics.median(m[key] for m in per_pass), layer_unit(key))
        metrics["cli.bytes_out"] = (statistics.median(p.bytes_out for p in traced), "bytes")
        untraced_s = statistics.median(p.solve_s for p in untraced)
        traced_s = statistics.median(p.solve_s for p in traced)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        extra.update(untraced_solve_s=untraced_s, traced_solve_s=traced_s,
                     traced_passes=len(traced), spans_file=str(write_spans(name, traced).relative_to(ROOT)))
        result_keys = list(metrics)
    else:
        passes = run_passes(cli, requests, seconds, None)
        # each request's median over the passes, then percentiles over the
        # requests: the host's speed drifts by tens of percent over seconds,
        # and pooling every sample lets that drift set the percentiles
        latencies_ms = [1e3 * statistics.median(ts) for ts in zip(*(p.latencies_s for p in passes))]
        p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8] if len(latencies_ms) > 1 else latencies_ms[0]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["solve_s"] = (statistics.median(p.solve_s for p in passes), "s")
        metrics["query_ms.p50"] = (statistics.median(latencies_ms), "ms")
        metrics["query_ms.p90"] = (p90, "ms")
        # after one pass, as a user running each command once would see it;
        # repeating the loop in one process can leave the allocator holding
        # more (fock_oracle reads 127 or 140 MB by the end, run to run)
        metrics["peak_rss_mb"] = (passes[0].peak_rss_mb, "MB")
        extra.update(query_requests=len(latencies_ms), query_passes=len(passes), setup_samples=len(setup_times))
        result_keys = list(E2E_METRICS)

    total = workloads.Outcome()
    for p in passes:
        total.merge(p.outcome)
    metrics["failed_frac"] = (total.failed / total.units, "ratio")
    metrics["max_rel_err"] = (total.max_rel_err, "ratio")
    report = {
        "report": name,
        "trace": int(trace),
        "passes": len(passes),
        "pass_solve_s": [p.solve_s for p in passes],
        "requests_per_pass": len(requests),
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": total.problems[:5],
    }
    result = {
        "correct": total.failed == 0,
        "attempted": total.units,
        "failed": total.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in result_keys},
    }
    return {"report": report, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "casotto" / "cli.py").is_file():
        print(f"casotto sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # numpy, imported by casotto and by the workloads, reads the BLAS thread
    # count once, at import
    limit_threads(nproc())
    sys.path.insert(0, str(SRC))
    import casotto.cli as cli
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    setup_times = [] if args.trace else measure_setup()
    env = environment(cli, args.seed)
    results = {}
    for name in names:
        out = measure(cli, name, args.seed, args.seconds, bool(args.trace), setup_times)
        out["report"]["environment"] = env
        print(json.dumps(out["report"]), flush=True)
        if len(names) > 1:
            print(json.dumps(out["result"]), flush=True)
        results[name] = out["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
