"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import casotto.cli as cli  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STABLE_COUNTS = (
    "friction.tables",
    "friction.amplitudes",
    "quadrature.panels",
    "quadrature.nodes",
    "friction.energy_calls",
    "fock_oracle.steps",
)


def _sweep_check():
    cells = workloads._cell_refs("engine", (0.5, 2.0), (0.5,), (0.01,), 2.0, 16)
    return workloads.CycleCheck("engine", cells)


def _friction_check():
    power = reference.quintic_power(1.0, 16)
    return workloads.FrictionCheck(False, 0.01**2 * reference.friction_per_eps2(power, [1.0], 16)[0])


@pytest.mark.parametrize("argv, make_check", [
    ("sweep --tau-grid 0.5:2:2 --beta-ratio 0.5 --beta-a 2.0 --epsilon 0.01 --modes 16", _sweep_check),
    ("friction --tau 1 --beta 1 --epsilon 0.01 --modes 16", _friction_check),
])
def test_output_check_catches_one_perturbed_amplitude(monkeypatch, argv, make_check):
    status, text = run.call(cli, argv.split())
    clean = make_check()(status, text)
    assert clean.units > 0 and clean.failed == 0, clean.problems

    exact = reference.quintic_power

    def perturbed(tau, n_modes):
        power = exact(tau, n_modes).copy()
        power[2] *= 1.0 + 1e-6  # the amplitude behind mode 1's pair creation
        return power

    monkeypatch.setattr(reference, "quintic_power", perturbed)
    caught = make_check()(status, text)
    assert caught.failed == clean.units, "a wrong reference amplitude went unnoticed"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_and_output_repeat_exactly(name):
    requests = workloads.build(name, seed=7)
    original_run = cli.run
    runs = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            p = run.run_pass(cli, requests, None, tracer)
        assert cli.run is original_run, "tracing left casotto instrumented"
        assert p.outcome.failed == 0, p.outcome.problems
        runs.append((tracing.layer_metrics(p.spans), p.digests))
    (first, first_out), (second, second_out) = runs
    assert {k: first[k] for k in STABLE_COUNTS} == {k: second[k] for k in STABLE_COUNTS}
    assert first_out == second_out


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock_oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
