"""Spans around casotto's public functions, and the per-layer metrics.

:class:`Tracer` replaces each entry point at the name its caller looks up
(``casotto.cycle.spectral_table`` as well as ``casotto.friction.spectral_table``,
because a module that imported the name holds its own reference) and
restores the originals on exit.  A name a module no longer has is skipped,
so a later refactor that stops calling a layer shows as zero counts.

Each call records a span ``(name, start, end, parent, payload)`` in memory.
Spans opened on a sweep's worker threads take the caller's open span as
parent.  A layer's time is the wall time during which at least one of its
spans was running (for ``*.self_s``: running outside its child spans), so
two threads overlapping in one layer are not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import threading
from collections import defaultdict
from time import perf_counter

# (module that looks the name up, attribute, span name); the span name's
# prefix is the layer that defines the function
ENTRY_POINTS = (
    ("casotto.cli", "parse_config", "cli.parse_config"),
    ("casotto.cli", "run", "cli.run"),
    ("casotto.cli", "sweep", "cycle.sweep"),
    ("casotto.cli", "nonadiabatic_engine", "cycle.cell"),
    ("casotto.cli", "nonadiabatic_refrigerator", "cycle.cell"),
    ("casotto.cycle", "nonadiabatic_engine", "cycle.cell"),
    ("casotto.cycle", "nonadiabatic_refrigerator", "cycle.cell"),
    ("casotto.cli", "write_sweep_csv", "cycle.write_sweep_csv"),
    ("casotto.cycle", "spectral_table", "friction.spectral_table"),
    ("casotto.friction", "spectral_table", "friction.spectral_table"),
    ("casotto.friction", "spectral_amplitudes", "friction.spectral_amplitudes"),
    ("casotto.cli", "friction_energy", "friction.friction_energy"),
    ("casotto.cycle", "friction_energy", "friction.friction_energy"),
    ("casotto.fock_oracle", "friction_energy", "friction.friction_energy"),
    ("casotto.cli", "friction_bound", "friction.friction_bound"),
    ("casotto.friction", "friction_bound", "friction.friction_bound"),
    ("casotto.cli", "export_mode_table", "friction.export_mode_table"),
    ("casotto.friction", "integrate_piecewise", "quadrature.integrate_piecewise"),
    ("casotto.quadrature", "integrate_vector", "quadrature.integrate_vector"),
    ("casotto.friction", "mode_frequencies", "spectrum.mode_frequencies"),
    ("casotto.friction", "occupations", "spectrum.occupations"),
    ("casotto.friction", "coupling_matrix", "spectrum.coupling_matrix"),
    ("casotto.cycle", "mode_frequencies", "spectrum.mode_frequencies"),
    ("casotto.cycle", "occupations", "spectrum.occupations"),
    ("casotto.cli", "validate_friction", "fock_oracle.validate_friction"),
    ("casotto.cli", "verify_trace_identities", "fock_oracle.verify_trace_identities"),
    ("casotto.fock_oracle", "evolve", "fock_oracle.evolve"),
    ("casotto.cli", "export_comparison", "fock_oracle.export_comparison"),
)
# trajectory constructors whose results get a traced ``ddelta``; a reversed
# profile calls the forward profile's evaluator, so ``reverse`` stays
# unwrapped and no evaluation is counted twice
TRAJECTORY_MAKERS = (("casotto.cli", "quintic"), ("casotto.cli", "shortcut"))

# flop model of one dense Hermitian eigendecomposition with eigenvectors
EIGH_FLOPS_PER_N3 = 9.0


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    payload: tuple = ()


def _count_nodes(args):
    """Wrap ``integrate_vector``'s integrand to count the nodes evaluated;
    the payload is ``(nodes, panels of the final subdivision)``."""
    integrand, counted = args[0], [0]

    def counting(t):
        counted[0] += len(t)
        return integrand(t)

    return (counting, *args[1:]), lambda result: (counted[0], result[2])


def _evolve_steps(args):
    """Payload ``(steps, dimension, eigendecompositions per step)``, the step
    count derived as ``evolve`` derives it from its arguments."""
    traj, fock = args[2], args[3]
    steps = max(1, math.ceil(traj.duration / fock.dt))
    stages = 2 if fock.integrator_order == 4 else 1
    return args, lambda result: (steps, fock.dimension, stages)


# span name -> hook(args) -> (args to call with, finish(result) -> payload)
_HOOKS = {
    "quadrature.integrate_vector": _count_nodes,
    "fock_oracle.evolve": _evolve_steps,
    "fock_oracle.verify_trace_identities": lambda args: (args, lambda r: (args[1].dimension,)),
    "friction.friction_energy": lambda args: (args, lambda r: (int(r.tail_warning),)),
}


class Tracer:
    """Context manager that instruments casotto and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self._local.stack = self._root_stack
        for module_name, attr, span_name in ENTRY_POINTS:
            self._patch(module_name, attr, lambda fn, n=span_name: self._wrap(fn, n))
        for module_name, attr in TRAJECTORY_MAKERS:
            self._patch(module_name, attr, self._wrap_maker)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Spans recorded since the last call; a span's parent is its index."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = None
            if hook is not None:
                args, finish = hook(args)
            stack = self._stack()
            # a worker thread's first span hangs under the caller's open span
            parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else -1)
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            span = Span(name, perf_counter(), math.nan, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans[idx] = span
            if finish is not None:
                span.payload = finish(result)
            return result

        return traced

    def _wrap_maker(self, make):
        @functools.wraps(make)
        def traced_maker(*args, **kwargs):
            traj = make(*args, **kwargs)
            return dataclasses.replace(traj, ddelta=self._wrap(traj.ddelta, "trajectory.ddelta"))

        return traced_maker


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def _self_intervals(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """Parts of ``span`` not covered by any child span."""
    pieces = []
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, span.start), min(child.end, span.end)
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = max(cursor, hi)
    if span.end > cursor:
        pieces.append((cursor, span.end))
    return pieces


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one pass's spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent >= 0:
            children[span.parent].append(span)
    self_by_layer: dict[str, list] = defaultdict(list)
    energy_self: list = []
    for idx, span in enumerate(spans):
        pieces = _self_intervals(span, children.get(idx, []))
        self_by_layer[span.name.split(".")[0]].extend(pieces)
        if span.name == "friction.friction_energy":
            energy_self.extend(pieces)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def covered(name: str) -> float:
        return _merged_length([(s.start, s.end) for s in by_name.get(name, ())])

    def payloads(name: str) -> list[tuple]:
        return [s.payload for s in by_name.get(name, ()) if s.payload]

    amplitudes = count("friction.spectral_amplitudes")
    cells = count("cycle.cell")
    cell_energy_calls = sum(
        1 for s in by_name.get("friction.friction_energy", ())
        if s.parent >= 0 and spans[s.parent].name == "cycle.cell"
    )
    nodes = sum(p[0] for p in payloads("quadrature.integrate_vector"))
    evolves = payloads("fock_oracle.evolve")
    dims = [p[1] for p in evolves] + [p[0] for p in payloads("fock_oracle.verify_trace_identities")]
    return {
        "quadrature.calls": count("quadrature.integrate_vector"),
        "quadrature.self_s": _merged_length(self_by_layer["quadrature"]),
        "quadrature.panels": sum(p[1] for p in payloads("quadrature.integrate_vector")),
        "quadrature.nodes": nodes,
        "quadrature.nodes_per_amplitude": nodes / amplitudes if amplitudes else 0.0,
        "trajectory.evals": count("trajectory.ddelta"),
        "trajectory.eval_s": covered("trajectory.ddelta"),
        "friction.tables": count("friction.spectral_table"),
        "friction.amplitudes": amplitudes,
        "friction.table_s": covered("friction.spectral_table"),
        "friction.energy_calls": count("friction.friction_energy"),
        "friction.energy_calls_per_cell": cell_energy_calls / cells if cells else 0.0,
        "friction.energy_self_s": _merged_length(energy_self),
        "friction.bound_calls": count("friction.friction_bound"),
        "friction.bound_s": covered("friction.friction_bound"),
        "friction.tail_warnings": sum(p[0] for p in payloads("friction.friction_energy")),
        "spectrum.calls": sum(len(v) for k, v in by_name.items() if k.startswith("spectrum.")),
        "spectrum.self_s": _merged_length(self_by_layer["spectrum"]),
        "cycle.cells": cells,
        "cycle.self_s": _merged_length(self_by_layer["cycle"]),
        "cli.self_s": _merged_length(self_by_layer["cli"]),
        "fock_oracle.dimension": max(dims, default=0),
        "fock_oracle.steps": sum(p[0] for p in evolves),
        "fock_oracle.evolve_s": covered("fock_oracle.evolve"),
        "fock_oracle.identities_s": covered("fock_oracle.verify_trace_identities"),
        "fock_oracle.eigh_flops": sum(
            steps * stages * EIGH_FLOPS_PER_N3 * dim**3 for steps, dim, stages in evolves
        ),
    }
