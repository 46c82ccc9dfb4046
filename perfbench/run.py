"""fluxshape benchmark: one command that measures, checks and reports a workload.

Usage, from the root of a checkout that holds ``src/fluxshape``::

    python3 perfbench/run.py --workload {ramsey,design,cli} --seed N --seconds S --trace {0,1}

It starts nine worker processes one after the other.  The fifth sets up
(imports, input generation, warm-up) and then runs the workload for
``--seconds`` (at least the workload's minimum number of rounds); the four
before it and the four after it only set up the same way and exit.
``setup_s`` is the mean over all nine of the time from starting a worker
to its ``READY`` line.  Workers get one BLAS/OpenMP thread each.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics, with ``--trace 1`` the per-layer ones; the lines before
it give sample counts, op classes, the correctness checks and run metadata.
The exit code is 0 when every check passes, 1 when a check fails, 2 when
the arguments or the checkout are wrong and 3 when a worker fails.
See ``perfbench/RATIONALE.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

# set-up-only workers started before and after the timed one, so that the
# set-up samples straddle the timed run.  The machine the benchmark was
# tuned on switches between a fast and a slow state for seconds at a time;
# the mean of the samples follows the share of time spent in each state,
# where their median jumps from one state to the other (see RATIONALE.md)
SETUP_ONLY_EACH_SIDE = 4
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("FLUXSHAPE_SEED", None)
    return env


def start_worker(argv: list, env: dict, deadline: float):
    """Start a worker; return ``(process, seconds until READY or None)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv], stdout=subprocess.PIPE, text=True, env=env
    )
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    proc.watchdog = watchdog
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
        sys.stderr.write(line)
    return proc, None


def finish_worker(proc) -> tuple[int, str]:
    out = proc.stdout.read()
    code = proc.wait()
    proc.watchdog.cancel()
    return code, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fluxshape benchmark")
    parser.add_argument("--workload", required=True, choices=["ramsey", "design", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluxshape", "__init__.py")):
        print(f"error: {root} holds no src/fluxshape; run from the root of a fluxshape checkout", file=sys.stderr)
        return 2

    env = worker_env(root)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = []

    def setup_only() -> bool:
        proc, setup = start_worker([*common, "--trace", "0", "--setup-only"], env, deadline)
        code, _ = finish_worker(proc)
        if setup is None or code != 0:
            print(f"error: set-up worker failed with exit code {code}", file=sys.stderr)
            return False
        setups.append(setup)
        return True

    try:
        if not all(setup_only() for _ in range(SETUP_ONLY_EACH_SIDE)):
            return 3
        proc, setup = start_worker([*common, "--trace", str(args.trace)], env, deadline)
        code, out = finish_worker(proc)
        results = [line[len("RESULT ") :] for line in out.splitlines() if line.startswith("RESULT ")]
        if setup is None or code != 0 or not results:
            print(f"error: worker failed with exit code {code}", file=sys.stderr)
            return 3
        setups.append(setup)
        if not all(setup_only() for _ in range(SETUP_ONLY_EACH_SIDE)):
            return 3
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench_work"), ignore_errors=True)
    result = json.loads(results[-1])
    summary = result["summary"]
    checks = result["checks"]
    checks.append(("ops_completed", summary["raised"] == 0, f"{summary['raised']} of {summary['ops']} ops raised"))

    n = summary["ops"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    classes = ", ".join(f"{k} {v['n']} p50 {v['p50_ms']:.2f} ms" for k, v in summary["classes"].items())
    print(f"  ops {n} ({classes})")
    if args.trace:
        metrics = result["layer_metrics"]
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.mean(setups),
            "ops_per_s": summary["ops_per_s"],
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
            "ok_frac": (n - summary["rule_failed"]) / n,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"  setup_s: mean of {len(setups)} set-ups {', '.join(f'{s:.4f}' for s in setups)} s")
        print(f"  ops_per_s: {n} ops over their summed op time")
        print(f"  op_p50_ms: median of {n} ops")
        tail_q, beyond = 100 * summary["tail_q"], summary["beyond_tail"]
        print(f"  op_tail_ms: percentile {tail_q:g} of {n} ops, {beyond} beyond it")
        print(
            f"  failed_frac {summary['rule_failed'] / n:.4f}: {summary['rule_failed']} of {n} ops failed the "
            f"workload's failure rule ({summary['raised']} raised); ok_frac is its complement"
        )
        print("  per-round ms by op kind: " + ", ".join(f"{k} {v:.1f}" for k, v in result["per_round_kind_ms"].items()))
    if set(metrics) != set(units):
        print(f"error: metric names differ from the catalogue: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3
    for name in units:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    for name, ok, detail in checks:
        print(f"  check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    correct = all(ok for _, ok, _ in checks)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": n,
                "failed": summary["raised"],
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
