"""Outside-in span tracer for the fluxshape package.

The tracer never edits the package.  :func:`instrument` replaces module
attributes with timing wrappers: every public function of each layer
module, the public methods of ``HarmonicPulse``, the ``_cmd_*`` handlers of
the CLI, and every other module attribute that is bound to one of those
functions (the names that ``from ... import`` copied into other modules,
such as ``device.capacitor_voltage`` or ``extraction.dressed_qubit_frequency``).
The waveform callables returned by ``square_transient_waveform`` and
``pulse_flux_waveform`` are wrapped as well, under ``device.waveform``.
Calls made through a module attribute at call time are therefore traced;
references captured before :func:`instrument` ran are not.

Each span records a name, start, end, parent span and op id.  Spans live in
flat arrays in memory and are written out once, at the end of the run.

``formats.format_float`` is deliberately not wrapped: ``write_csv`` calls it
once per CSV cell, so a span per call would bury the writer's time in
tracer overhead.  Its time counts toward ``formats.write_csv``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

LAYERS = (
    "pulse",
    "rcline",
    "synthesis",
    "robustness",
    "device",
    "extraction",
    "network",
    "formats",
    "cli",
)

OP_SPAN = "bench.op"
_NOT_WRAPPED = {"formats.format_float"}
_WAVEFORM_FACTORIES = {"device.square_transient_waveform", "device.pulse_flux_waveform"}


class Tracer:
    """Span store plus the wrapper factory that fills it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.current = -1
        self.op_id = -1
        self.ops = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = index
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self.current = self.parent[index]

    def wrap(self, name: str, fn, note=None, wrap_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``note(args, kwargs, result)`` stores a value against the span;
        ``wrap_result(result)`` may replace the result (used to trace the
        waveform callables the device factories return).
        """
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                self.notes[index] = note(args, kwargs, result)
            if wrap_result is not None:
                result = wrap_result(result)
            return result

        return traced

    def begin_op(self, note=None) -> int:
        """Open the root span of the next benchmark op; ops are numbered from 0."""
        self.op_id = self.ops
        self.ops += 1
        index = self.open(self.name_id(OP_SPAN))
        if note is not None:
            self.notes[index] = note
        return index

    def end_op(self, index: int) -> None:
        self.close(index)
        self.op_id = -1

    def arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def self_times(self):
        """Duration of each span minus the time its child spans cover.

        Spans come from one thread and nest properly, so the children of a
        span never overlap and the time they cover is the sum of their
        durations.
        """
        import numpy as np

        _, parent, _, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
        return duration, duration - covered

    def write(self, path: str) -> None:
        """Write every span to ``path`` as a compressed numpy archive."""
        import numpy as np

        name, parent, op, start, end = self.arrays()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, op=op, start=start, end=end
        )


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _grid_steps(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["t_grid"]
    return len(grid) - 1


def _sweep_cells(args, kwargs, result):
    return int(result.k_exp.size)


def _fit_outcome(args, kwargs, result):
    return (bool(result.converged), float(result.tau))


_NOTES = {
    "formats.write_csv": _csv_bytes,
    "formats.read_csv_columns": _csv_bytes,
    "rcline.integrate_line_response": _grid_steps,
    "robustness.sweep_transient_coefficient": _sweep_cells,
    "extraction.fit_transient": _fit_outcome,
}


def _span_name(layer: str, attr: str) -> str | None:
    if layer == "cli" and attr.startswith("_cmd_"):
        return "cli." + attr[1:]
    if attr.startswith("_"):
        return None
    name = f"{layer}.{attr}"
    return None if name in _NOT_WRAPPED else name


def instrument(tracer: Tracer):
    """Wrap the package's public functions; return a function that undoes it."""
    import fluxshape.cli  # noqa: F401  (loads every layer module)

    waveform = functools.partial(tracer.wrap, "device.waveform")
    wrappers: dict[int, tuple] = {}
    for layer in LAYERS:
        module = sys.modules[f"fluxshape.{layer}"]
        for attr, value in vars(module).items():
            if not (inspect.isfunction(value) and value.__module__ == module.__name__):
                continue
            name = _span_name(layer, attr)
            if name is None:
                continue
            wrapped = tracer.wrap(
                name,
                value,
                note=_NOTES.get(name),
                wrap_result=waveform if name in _WAVEFORM_FACTORIES else None,
            )
            wrappers[id(value)] = (value, wrapped)

    patched = []
    pulse_class = sys.modules["fluxshape.pulse"].HarmonicPulse
    for attr, value in list(vars(pulse_class).items()):
        if inspect.isfunction(value) and not attr.startswith("_"):
            setattr(pulse_class, attr, tracer.wrap(f"pulse.{attr}", value))
            patched.append((pulse_class, attr, value))
    for module_name, module in list(sys.modules.items()):
        if module_name != "fluxshape" and not module_name.startswith("fluxshape."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))

    def undo() -> None:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)

    return undo


def selftest() -> list[str]:
    """Check the wrapper and the self-time arithmetic on a synthetic span tree.

    A scripted clock drives the tree

        op [0, 20]
          a [1, 5]
            a1 [2, 3]
          b [6, 18]
            b1 [7, 8]
            b2 [9, 15]

    whose self times are op 4, a 3, a1 1, b 5, b1 1, b2 6.  Returns the
    list of discrepancies (empty when the arithmetic holds).
    """
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0, 15.0, 18.0, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a1 = tracer.wrap("a1", lambda: None)
    b1 = tracer.wrap("b1", lambda: None)
    b2 = tracer.wrap("b2", lambda: None)
    a = tracer.wrap("a", lambda: a1())
    b = tracer.wrap("b", lambda: (b1(), b2()))
    root = tracer.begin_op()
    a()
    b()
    tracer.end_op(root)

    duration, own = tracer.self_times()
    got = {tracer.names[n]: float(s) for n, s in zip(tracer.name, own)}
    want = {OP_SPAN: 4.0, "a": 3.0, "a1": 1.0, "b": 5.0, "b1": 1.0, "b2": 6.0}
    problems = [f"self time of {k}: got {got.get(k)!r}, want {v!r}" for k, v in want.items() if got.get(k) != v]
    if float(own.sum()) != float(duration[root]):
        problems.append(f"self times sum to {float(own.sum())!r}, op lasted {float(duration[root])!r}")
    parents = {tracer.names[tracer.name[i]]: tracer.parent[i] for i in range(len(tracer.name))}
    if parents != {OP_SPAN: -1, "a": 0, "a1": 1, "b": 0, "b1": 3, "b2": 3}:
        problems.append(f"parent links wrong: {parents!r}")
    if set(tracer.op) != {0}:
        problems.append("op id not recorded on every span")
    return problems


if __name__ == "__main__":
    found = selftest()
    print("\n".join(found) or "tracer self-test passed")
    sys.exit(1 if found else 0)
