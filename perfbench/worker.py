"""One benchmark process: set up a workload, run it, check it and report.

Started by ``run.py`` from the root of a checkout; it imports the package
from ``src/`` of that checkout.  It prints ``READY`` once set-up (imports,
input generation, warm-up) is done, just before the first timed op, and
``RESULT <json>`` when it has finished.  With ``--setup-only`` it exits
right after ``READY``.

Untraced runs time every op.  Traced runs (``--trace 1``) run the first
round untraced, traced, untraced and traced again, then further rounds
traced; the traced outputs must equal the untraced ones bit for bit, and the
per-layer metrics come from the traced ops only.  For ``cli`` the traced run
first times a few subprocess sessions untraced, then replays the session in
this process through ``fluxshape.cli.main``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
PROBES = 5
# a run stops starting rounds after this long, whatever min_rounds asks
MAX_LOOP_SECONDS = 120.0


def percentile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``q`` in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def run_rounds(wl, first_round, seconds, min_rounds, max_rounds=None, tracer=None, fingerprints=None):
    """Run whole rounds of ops in a closed loop; return one sample per op.

    Rounds continue until ``seconds`` have passed, ``min_rounds`` are done
    and the count is a multiple of the workload's ``round_cycle`` (or until
    ``max_rounds`` are done).  A sample is ``(round, kind, ms,
    completed, ok)``: ``completed`` is False when the op raised, ``ok``
    applies the workload's failure rule.
    """
    samples = []
    started = time.perf_counter()
    r = first_round
    while True:
        for spec in wl.plan_round(r):
            if tracer is not None:
                root = tracer.begin_op(wl.truth(spec))
            t0 = time.perf_counter()
            try:
                output = wl.run_op(spec)
            except Exception:  # an op failure is counted, and the run goes on
                output = None
                print(f"op failed: {spec.kind}\n{traceback.format_exc()}", file=sys.stderr)
            ms = (time.perf_counter() - t0) * 1e3
            if tracer is not None:
                tracer.end_op(root)
            completed = output is not None
            ok = completed and wl.judge(spec, output)
            if completed:
                wl.record(spec, output)
                if fingerprints is not None:
                    fingerprints.append(wl.fingerprint(spec, output))
            samples.append((r, spec.kind, ms, completed, ok))
        wl.end_round(r)
        r += 1
        done = r - first_round
        elapsed = time.perf_counter() - started
        if max_rounds is not None and done >= max_rounds:
            break
        if elapsed >= MAX_LOOP_SECONDS or (
            elapsed >= seconds and done >= min_rounds and done % wl.round_cycle == 0
        ):
            break
    return samples


def summarize(samples, tail_q: float) -> dict:
    """Counts and timings over all samples of a run."""
    times = [s[2] for s in samples]
    tail = percentile(times, tail_q)
    classes = {}
    for _, kind, t, _, _ in samples:
        classes.setdefault(kind, []).append(t)
    return {
        "ops": len(samples),
        "raised": sum(1 for s in samples if not s[3]),
        "rule_failed": sum(1 for s in samples if not s[4]),
        "ops_per_s": 1e3 * len(times) / sum(times),
        "p50_ms": statistics.median(times),
        "tail_q": tail_q,
        "tail_ms": tail,
        "beyond_tail": sum(1 for t in times if t > tail),
        "classes": {k: {"n": len(v), "p50_ms": statistics.median(v)} for k, v in sorted(classes.items())},
    }


def per_round_kind_ms(samples) -> dict:
    """Median over rounds of the time each op kind takes per round."""
    totals = {}
    for r, kind, ms, _, _ in samples:
        totals.setdefault(kind, {}).setdefault(r, 0.0)
        totals[kind][r] += ms
    return {kind: statistics.median(by_round.values()) for kind, by_round in totals.items()}


def subprocess_median_ms(code: str) -> float:
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        model = None
    return model or platform.processor() or "unknown"


def host_meta(seed: int) -> dict:
    # run.py sets the BLAS/OpenMP thread count for every process it starts
    blas = {"threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None}
    if "numpy" in sys.modules:
        dep = sys.modules["numpy"].show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.update(name=dep.get("name"), version=dep.get("version"))
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": blas,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.strip().endswith(" " + ref)), None)
    except OSError:
        return None


def load_workload(name: str, seed: int):
    if name != "cli":
        import fluxshape

        if not os.path.abspath(fluxshape.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"fluxshape imported from {fluxshape.__file__}, not from {SRC}")
    module = importlib.import_module(f"wl_{name}")
    if name == "cli":
        markers = [cpu_model(), git_commit() or "", platform.node(), "perfbench"]
        return module.Workload(seed, WORK_DIR, leak_markers=markers)
    return module.Workload(seed, WORK_DIR)


def untraced(wl, seconds: float, workload: str) -> dict:
    samples = run_rounds(wl, 0, seconds, wl.min_rounds)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "summary": summarize(samples, wl.tail_q),
        "per_round_kind_ms": per_round_kind_ms(samples),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "checks": wl.checks(),
    }


def traced(wl, seconds: float, workload: str) -> dict:
    import layers
    from tracer import Tracer, instrument, selftest

    problems = selftest()
    checks = [("trace.selftest", not problems, "; ".join(problems) or "self-time arithmetic holds")]
    interpreter_ms = subprocess_median_ms("pass")
    metrics = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": subprocess_median_ms("import fluxshape.cli") - interpreter_ms,
    }
    first = 0
    subcommand_ms = {}
    if wl.prelude_rounds:
        prelude = run_rounds(wl, 0, 0.0, 0, max_rounds=wl.prelude_rounds)
        subcommand_ms = per_round_kind_ms(prelude)
        wl.use_in_process()
        first = wl.prelude_rounds

    # the first round runs untraced, traced, untraced, traced: the outputs
    # must agree bit for bit, and the per-op minima give the overhead
    tracer = Tracer()
    runs = {False: [], True: []}
    for _ in range(2):
        for traced_run in (False, True):
            prints = []
            undo = instrument(tracer) if traced_run else None
            try:
                batch = run_rounds(
                    wl, first, 0.0, 0, max_rounds=1, tracer=tracer if traced_run else None, fingerprints=prints
                )
            finally:
                if undo is not None:
                    undo()
            runs[traced_run].append((batch, prints))
    undo = instrument(tracer)
    try:
        rest = run_rounds(wl, first + 1, seconds, wl.gate_rounds - 1, tracer=tracer)
    finally:
        undo()

    reference = runs[False][0][1]
    same = all(prints == reference for batch in runs.values() for _, prints in batch)
    checks.append(
        (
            "trace.outputs_bit_identical",
            same,
            f"{len(reference)} ops of round {first}, each run twice untraced and twice traced",
        )
    )

    def per_op_min(batches):
        return sum(min(a[2], b[2]) for a, b in zip(batches[0][0], batches[1][0]))

    metrics["trace.overhead_pct"] = 100.0 * (per_op_min(runs[True]) / per_op_min(runs[False]) - 1.0)
    samples = runs[True][0][0] + runs[True][1][0] + rest
    spans = layers.span_metrics(tracer, [s[2] for s in samples])
    checks.append(spans.pop("_accounting"))
    metrics.update(spans)
    for kind in layers.CLI_SUBCOMMANDS:
        metrics[f"cli.{kind}.ms"] = subcommand_ms.get(kind, 0.0)
    metrics["trace.ops"] = float(len(samples))
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
    return {"summary": summarize(samples, wl.tail_q), "layer_metrics": metrics, "checks": wl.checks() + checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ramsey", "design", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    os.environ.pop("FLUXSHAPE_SEED", None)
    wl = load_workload(args.workload, args.seed)
    try:
        for spec in wl.warm_up_specs():
            wl.run_op(spec)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        run = traced if args.trace else untraced
        result = run(wl, args.seconds, args.workload)
    finally:
        wl.close()
    result["meta"] = host_meta(args.seed)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
