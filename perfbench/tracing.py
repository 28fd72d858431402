"""In-memory spans around the public calls of each repdtc layer.

``instrument(tracer)`` wraps, for the duration of a ``with`` block, the
public callables at the places where the program looks them up: the
layer functions in the ``repdtc.harness`` namespace, every ``apply_to``
method of a repdtc class and the ``StateVector`` readout methods.  The
measuring process then calls the real ``run_experiment`` at one worker
inside the block (``traced_call``), so the spans time the program
itself.  Spans stay in a list until the run ends; ``stage_tables`` then
derives every span's self time (its duration minus the time its child
spans cover).

``op_counts`` counts the ``StateVector`` kernel calls of one period of
a circuit the traced run evolved.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time

from repdtc import harness
from repdtc.statevector import StateVector

_now = time.perf_counter_ns

# Functions wrapped in the harness namespace, with their span names.
HARNESS_SPANS = {
    "estimate_seconds": "harness.estimate",
    "run_realization": "harness.realization",
    "sample_model_params": "disorder.sample",
    "sample_init_jitter": "disorder.sample",
    "build_model": "models.build",
    "lower_program": "compiler.lower",
    "prepare_initial_state": "observables.init",
    "average_series": "observables.reduce",
    "average_spectra": "observables.reduce",
    "power_spectrum": "observables.reduce",
    "subharmonic_score": "observables.reduce",
    "write_outputs": "harness.write",
}
READOUT_METHODS = ("expectation_z_all", "average_z", "expectation_z", "sample_z")
EVOLVE = "observables.evolve"
MEASURE = "observables.measure"


class Tracer:
    """Spans as [name, parent index, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Qubits read per readout call, and the first period evolved.
        self.readout_qubits: list[int] = []
        self.first_period = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, _now(), 0])

    def end(self) -> None:
        self.spans[self._stack.pop()][3] = _now()

    def durations(self, name: str) -> list[int]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def stage_tables(self, root: str) -> tuple[dict, dict]:
        """Per span name: count, total and self nanoseconds, for the spans
        below a span named ``root`` and for all the others."""
        child_ns = [0] * len(self.spans)
        below = [False] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                below[i] = below[parent] or self.spans[parent][0] == root
        tables: tuple[dict, dict] = ({}, {})
        for i, (name, _, start, end) in enumerate(self.spans):
            table = tables[0 if below[i] else 1]
            row = table.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return tables


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()


def _spanned(tracer: Tracer, name: str, fn, on_call=None):
    """``fn`` inside a span; a call nested in a span of the same name
    (average_z calling expectation_z_all) passes straight through."""

    def wrapper(*args, **kwargs):
        if tracer.current() == name:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(args, kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _apply_to_classes() -> list[type]:
    """Every loaded repdtc class that defines an ``apply_to`` method."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "repdtc" and not modname.startswith("repdtc."):
            continue
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == modname
                and "apply_to" in vars(cls)
            ):
                found.append(cls)
    return found


@contextlib.contextmanager
def _patched(patches):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Context manager: the program's public calls record spans."""

    def first_period(args, kwargs):
        if tracer.first_period is None:
            tracer.first_period = (args[0], args[1].n_qubits, kwargs)

    def readout(method: str):
        def count(args, kwargs):
            n = args[0].n_qubits if method in ("expectation_z_all", "average_z") else 1
            tracer.readout_qubits.append(n)

        return count

    patches = [
        (harness, fn, _spanned(tracer, span, getattr(harness, fn)))
        for fn, span in HARNESS_SPANS.items()
    ]
    patches += [
        (cls, "apply_to", _spanned(tracer, EVOLVE, cls.apply_to, first_period))
        for cls in _apply_to_classes()
    ]
    patches += [
        (StateVector, m, _spanned(tracer, MEASURE, getattr(StateVector, m), readout(m)))
        for m in READOUT_METHODS
    ]
    return _patched(patches)


@contextlib.contextmanager
def traced_call(tracer: Tracer):
    """``instrument`` plus a ``harness.run`` span around the block."""
    with instrument(tracer), tracer.span("harness.run"):
        yield


# -- op counts ----------------------------------------------------------------

# Kind of every public StateVector kernel; apply_rotation is diagonal
# or flipping depending on its Pauli string.
KERNEL_KINDS = {
    "apply_rotation": None,
    "apply_single_qubit": "flip",
    "apply_two_qubit": "flip",
    "apply_iswap": "iswap",
}


def op_counts(tracer: Tracer) -> dict[str, int]:
    """Kernel calls by kind in one more period of the first traced circuit.

    The period runs on a fresh register after the traced run, with the
    keyword arguments (noise stream and levels) of the traced call.
    """
    unknown = sorted(
        name
        for name in vars(StateVector)
        if name.startswith("apply_") and name not in KERNEL_KINDS
    )
    if unknown:
        raise ValueError(f"StateVector kernels without a kind: {unknown}")
    circuit, n_qubits, kwargs = tracer.first_period
    counts = {"diag": 0, "flip": 0, "iswap": 0}
    depth = [0]

    def counted(name: str, fn):
        def wrapper(self, *args, **kw):
            if depth[0] == 0:
                kind = KERNEL_KINDS[name]
                if kind is None:
                    letters = args[0].pauli.letters
                    kind = "flip" if any(c in "XY" for c in letters) else "diag"
                counts[kind] += 1
            depth[0] += 1
            try:
                return fn(self, *args, **kw)
            finally:
                depth[0] -= 1

        return wrapper

    patches = [
        (StateVector, name, counted(name, getattr(StateVector, name)))
        for name in KERNEL_KINDS
    ]
    with _patched(patches):
        circuit.apply_to(StateVector(n_qubits), **kwargs)
    return counts
