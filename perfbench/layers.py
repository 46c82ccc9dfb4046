"""Catalogue of the benchmark's metrics and the per-layer ones computed from spans.

Every per-layer count and time is an average per traced op, so a run that
completes more ops in its time budget reports the same figures.
"""

from __future__ import annotations

from tracer import LAYERS, OP_SPAN

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = ("design", "kexp", "respond", "sweep", "ramsey-sim", "extract", "impedance")

# span name, statistic; the metric is called "<span>.<statistic>"
SPAN_STATS = (
    ("pulse.evaluate", "calls"),
    ("pulse.evaluate", "self_ms"),
    ("rcline.integrate_line_response", "self_ms"),
    ("rcline.integrate_line_response", "steps"),
    ("rcline.capacitor_voltage", "calls"),
    ("rcline.capacitor_voltage", "self_ms"),
    ("rcline.line_current", "self_ms"),
    ("rcline.transient_coefficient", "calls"),
    ("synthesis.solve_top_harmonic", "self_ms"),
    ("synthesis.solve_biharmonic", "calls"),
    ("synthesis.mischaracterized_transient_coefficient", "calls"),
    ("robustness.sweep_transient_coefficient", "self_ms"),
    ("robustness.sweep_transient_coefficient", "cells"),
    ("device.simulate_ramsey", "self_ms"),
    ("device.ramsey_phase", "self_ms"),
    ("device.waveform", "self_ms"),
    ("device.dressed_qubit_frequency", "calls"),
    ("device.dressed_qubit_frequency", "self_ms"),
    ("extraction.run_pipeline", "self_ms"),
    ("extraction.unwrap_phase", "self_ms"),
    ("extraction.savgol_smooth", "self_ms"),
    ("extraction.frequency_from_phase", "self_ms"),
    ("extraction.frequency_to_flux", "self_ms"),
    ("extraction.fit_transient", "self_ms"),
    ("network.sweep_input_impedance", "self_ms"),
    ("network.sweep_and_fit_rc", "self_ms"),
    ("network.cascade", "calls"),
    ("network.element_abcd", "calls"),
    ("formats.write_csv", "self_ms"),
    ("formats.write_csv", "bytes"),
    ("formats.read_csv_columns", "self_ms"),
    ("formats.read_csv_columns", "bytes"),
)
STAT_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "steps": "steps/op", "cells": "cells/op", "bytes": "bytes/op"}

PER_LAYER_UNITS = {f"{layer}.calls": "calls/op" for layer in LAYERS}
PER_LAYER_UNITS.update({f"{span}.{stat}": STAT_UNITS[stat] for span, stat in SPAN_STATS})
PER_LAYER_UNITS.update(
    {
        "extraction.fit_transient.converged_frac": "fraction",
        "extraction.fit_transient.nonconverged_ms": "ms/op",
        "extraction.fit_transient.wrong_converged": "count/op",
        "formats.json.self_ms": "ms/op",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
    }
)
PER_LAYER_UNITS.update({f"cli.{kind}.ms": "ms" for kind in CLI_SUBCOMMANDS})
PER_LAYER_UNITS.update({"trace.overhead_pct": "%", "trace.instrumented_frac": "fraction", "trace.ops": "count"})

TAU_TOLERANCE = 0.10
# largest share by which the spans' self times may exceed the loop's own op
# timings (the root span also covers the tracer's bookkeeping around an op)
ACCOUNTING_TOLERANCE = 0.01


def span_metrics(tracer, op_ms) -> dict:
    """Per-op span metrics, plus an ``_accounting`` check of the self-time sums.

    ``op_ms`` holds the latency of each traced op in op order, as the timed
    loop measured it outside the tracer.
    """
    import numpy as np

    name, _, op, _, _ = tracer.arrays()
    duration, own = tracer.self_times()
    n_names = len(tracer.names)
    calls = np.bincount(name, minlength=n_names)
    self_ms = np.bincount(name, weights=own, minlength=n_names) * 1e3
    ids = {n: i for i, n in enumerate(tracer.names)}
    n_ops = len(op_ms)

    def indices(span):
        return np.flatnonzero(name == ids[span]) if span in ids else np.empty(0, dtype=int)

    def stat(span, kind):
        if span not in ids:
            return 0.0
        if kind == "calls":
            return float(calls[ids[span]])
        if kind == "self_ms":
            return float(self_ms[ids[span]])
        return float(sum(tracer.notes[i] for i in indices(span)))

    metrics = {}
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.calls"] = float(sum(calls[i] for n, i in ids.items() if n.startswith(prefix))) / n_ops
    for span, kind in SPAN_STATS:
        metrics[f"{span}.{kind}"] = stat(span, kind) / n_ops
    json_ms = stat("formats.load_json", "self_ms") + stat("formats.dump_json", "self_ms")
    metrics["formats.json.self_ms"] = json_ms / n_ops

    truth = {int(op[i]): tracer.notes.get(int(i)) for i in indices(OP_SPAN)}
    fits = indices("extraction.fit_transient")
    converged = [i for i in fits if tracer.notes[i][0]]
    metrics["extraction.fit_transient.converged_frac"] = len(converged) / len(fits) if len(fits) else 0.0
    metrics["extraction.fit_transient.nonconverged_ms"] = (
        float(sum(duration[i] for i in fits if not tracer.notes[i][0])) * 1e3 / n_ops
    )
    wrong = 0
    for i in converged:
        tau_true = truth.get(int(op[i]))
        if tau_true is not None and abs(tracer.notes[i][1] - tau_true) > TAU_TOLERANCE * tau_true:
            wrong += 1
    metrics["extraction.fit_transient.wrong_converged"] = wrong / n_ops

    # the root span of an op encloses the loop's own timing of it, so the
    # self times of the op's spans sum to slightly more than its latency;
    # a span booked to no op or to another op breaks that, and a span left
    # open keeps its end at 0
    roots = indices(OP_SPAN)
    per_op_self = np.bincount(op[op >= 0], weights=own[op >= 0], minlength=n_ops) * 1e3
    latency = np.asarray(op_ms, dtype=float)
    same_ops = per_op_self.size == n_ops
    short = int(np.sum(per_op_self < latency)) if same_ops else n_ops
    left_open = int(np.sum(duration < 0.0))
    gap = float(per_op_self.sum() - latency.sum()) / float(latency.sum())
    metrics["trace.instrumented_frac"] = 1.0 - float(own[roots].sum()) / float(duration[roots].sum())
    metrics["_accounting"] = (
        "trace.self_times_account_for_wall",
        same_ops and short == 0 and left_open == 0 and gap < ACCOUNTING_TOLERANCE,
        f"span self times of {per_op_self.size} traced ops sum to {per_op_self.sum():.3f} ms vs "
        f"{latency.sum():.3f} ms over {n_ops} ops timed by the loop (gap {gap:.2e}, tolerance "
        f"{ACCOUNTING_TOLERANCE:g}); {short} ops below their latency, {left_open} spans left open; "
        f"{metrics['trace.instrumented_frac']:.1%} of op time inside package spans",
    )
    return metrics
