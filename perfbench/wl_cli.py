"""``cli`` workload: one op is one ``python -m fluxshape`` subprocess.

A session runs the subcommands in README order: ``design`` (biharmonic and
top-harmonic), ``kexp``, ``respond`` (200k rows, a ~16.7 MB CSV),
``sweep --grid default``, ``ramsey-sim`` (a square waveform on 961 points
and a designed pulse), ``extract``, ``impedance --chain default --fit`` and
``impedance`` on 20k points.  Inputs come from the seed; every session of a
run repeats the same commands in a fresh directory at the same path, so the
artifacts, manifests included, must match byte for byte (criterion 9).

Failure rule: an op fails if it exits nonzero or leaves no
``manifest.json``.

The square-pulse trace is noiseless.  With readout noise of 0.02 the
transient fit fails to converge on about 0.5% of noise draws (the
``ramsey`` workload exercises and counts that defect), and ``extract``
must succeed on every seed here because its tau feeds the correctness gate.

This module imports neither numpy nor fluxshape, so the set-up time of the
untraced run is this workload's own: interpreter start, input files and one
warm-up subprocess.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import namedtuple

Spec = namedtuple("Spec", "kind argv out_dir")

DEVICE_RECORD = {
    "omega_q_ghz": 4.7730,
    "omega_max_ghz": 4.8575,
    "g_mhz": 63.0,
    "flux_per_volt_phi0": 7e-5,
    "phi_idle_phi0": -0.278,
}
ATTENUATIONS_DB = (3.0, 6.0, 10.0, 20.0)
TAU_TOLERANCE = 0.10


class OpFailed(Exception):
    """A subcommand exited nonzero or wrote no manifest."""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload:
    # respond and the 20k-point impedance are the heavy classes, 1 of 10
    # ops each.  With 7-9 samples per run, a quantile inside either class
    # wanders by 20-30% between runs, so the tail is taken at 0.7, in the
    # upper part of the class of the eight light commands
    tail_q = 0.7
    # 40 ops, so at least 10 samples lie beyond the tail quantile
    min_rounds = 4
    # rounds the traced run needs for its correctness checks
    gate_rounds = 1
    round_cycle = 1
    # the traced run first times this many subprocess sessions untraced
    prelude_rounds = 3

    def __init__(self, seed: int, workdir: str, leak_markers=()):
        self.root = os.path.join(workdir, f"cli-{os.getpid()}")
        self.run_dir = os.path.join(self.root, "run")
        inputs = os.path.join(self.root, "in")
        os.makedirs(inputs)
        os.makedirs(self.run_dir)
        self.env = dict(os.environ)
        self.env.pop("FLUXSHAPE_SEED", None)
        self.in_process = False
        self.leak_markers = [m.encode() for m in leak_markers if len(m) >= 8]
        self.reference: dict | None = None
        self.mismatches: list[str] = []
        self.leaks: list[str] = []
        self.extract_error: float | None = None

        rng = random.Random(seed)
        b1 = rng.uniform(0.5, 2.0)
        tau_assumed_us = _log_uniform(rng, 8.0, 16.0)
        a0 = rng.uniform(-0.5, 0.5)
        a_low = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        b_low = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        line_tau = _log_uniform(rng, 8e-6, 16e-6)
        self.square_tau_us = _log_uniform(rng, 8.0, 20.0)
        sim_seed = rng.randrange(2**31)
        chain = [{"kind": "series_capacitor", "c_farads": _log_uniform(rng, 1e-7, 5e-7)}]
        chain += [{"kind": "attenuator", "db": rng.choice(ATTENUATIONS_DB), "z0_ohms": 50.0} for _ in range(5)]
        chain.append({"kind": "series_inductor", "l_henries": 1e-9})
        for name, record in (
            ("device.json", DEVICE_RECORD),
            ("line.json", {"r_ohms": 50.0, "c_farads": line_tau / 50.0}),
            ("chain.json", chain),
        ):
            with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
                json.dump(record, fh)

        def csv(values):
            return ",".join(repr(v) for v in values)

        period = "--tau-pulse-us=8"
        self.session = [
            Spec("design", ["design", "--family", "biharmonic", f"--b1={b1!r}", period,
                            f"--tau-assumed-us={tau_assumed_us!r}", "--out-dir", "design"], "design"),
            Spec("design", ["design", "--family", "top-harmonic", f"--a0={a0!r}", f"--a={csv(a_low)}",
                            f"--b={csv(b_low)}", period, f"--tau-assumed-us={tau_assumed_us!r}",
                            "--out-dir", "top"], "top"),
            Spec("kexp", ["kexp", "--pulse", "design/pulse.json", f"--tau-us={tau_assumed_us!r}",
                          "--out-dir", "kexp"], "kexp"),
            Spec("respond", ["respond", "--pulse", "top/pulse.json", "--line", "../in/line.json",
                             "--dt-us=0.002", "--n-periods=50", "--out-dir", "respond"], "respond"),
            Spec("sweep", ["sweep", f"--b1={b1!r}", "--grid", "default", "--out-dir", "sweep"], "sweep"),
            Spec("ramsey-sim", ["ramsey-sim", "--device", "../in/device.json", "--waveform", "square",
                                "--square-amp-phi0=5e-4", f"--line-tau-us={self.square_tau_us!r}", period,
                                "--delay-max-us=60", "--delay-step-us=0.0625", "--t2-us=75",
                                f"--seed={sim_seed}", "--out-dir", "sim"], "sim"),
            Spec("ramsey-sim", ["ramsey-sim", "--device", "../in/device.json", "--waveform", "pulse",
                                "--pulse", "design/pulse.json", "--line", "../in/line.json", period,
                                "--delay-max-us=60", "--delay-step-us=0.25", "--out-dir", "sim-pulse"],
                 "sim-pulse"),
            Spec("extract", ["extract", "--trace", "sim/trace.csv", "--device", "../in/device.json", period,
                             "--fit-window-us=60", "--out-dir", "fit"], "fit"),
            Spec("impedance", ["impedance", "--chain", "default", "--fit", "--out-dir", "impedance"],
                 "impedance"),
            Spec("impedance", ["impedance", "--chain", "../in/chain.json", "--n-points=20000",
                               "--out-dir", "impedance-20k"], "impedance-20k"),
        ]

    def plan_round(self, r: int) -> list:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        return list(self.session)

    def warm_up_specs(self) -> list:
        return self.session[:1]

    def use_in_process(self) -> None:
        """Replay later sessions through ``fluxshape.cli.main`` in this process."""
        import fluxshape.cli  # noqa: F401

        self.in_process = True

    def run_op(self, spec: Spec):
        if self.in_process:
            with contextlib.chdir(self.run_dir), contextlib.redirect_stdout(io.StringIO()):
                code = sys.modules["fluxshape.cli"].main(list(spec.argv))
            detail = ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "fluxshape", *spec.argv],
                cwd=self.run_dir,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            code, detail = proc.returncode, proc.stderr.strip()
        if code != 0:
            raise OpFailed(f"{spec.kind} exited {code}: {detail}")
        if not os.path.exists(os.path.join(self.run_dir, spec.out_dir, "manifest.json")):
            raise OpFailed(f"{spec.kind} wrote no manifest.json")
        return code

    def truth(self, spec: Spec):
        return None

    def judge(self, spec: Spec, output) -> bool:
        return True

    def record(self, spec: Spec, output) -> None:
        pass

    def fingerprint(self, spec: Spec, output) -> bytes:
        return json.dumps(_hash_tree(os.path.join(self.run_dir, spec.out_dir)), sort_keys=True).encode()

    def end_round(self, r: int) -> None:
        """Hash the session's artifacts and compare them with the first session's."""
        hashes = _hash_tree(self.run_dir, self._find_leaks if self.reference is None else None)
        if self.reference is None:
            self.reference = hashes
            report_path = os.path.join(self.run_dir, "fit", "report.json")
            if os.path.exists(report_path):
                with open(report_path, encoding="utf-8") as fh:
                    tau_s = json.load(fh).get("tau_s")
                if tau_s is not None:
                    truth = self.square_tau_us * 1e-6
                    self.extract_error = abs(tau_s - truth) / truth
        elif hashes != self.reference:
            names = hashes.keys() | self.reference.keys()
            differing = sorted(k for k in names if hashes.get(k) != self.reference.get(k))
            self.mismatches.append(f"session {r}: {', '.join(differing)}")
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def _find_leaks(self, rel: str, data: bytes) -> None:
        self.leaks += [f"{rel} contains {m!r}" for m in self.leak_markers if m in data]

    def checks(self) -> list:
        n_files = len(self.reference or {})
        err = self.extract_error
        return [
            (
                "cli.sessions_byte_identical",
                self.reference is not None and not self.mismatches,
                f"{n_files} artifacts per session; differing: {'; '.join(self.mismatches) or 'none'}",
            ),
            (
                "cli.extract_recovers_tau",
                err is not None and err <= TAU_TOLERANCE,
                f"extract tau error {err!r} (<= 10%)",
            ),
            ("cli.no_run_metadata_in_artifacts", not self.leaks, "; ".join(self.leaks) or "none found"),
        ]

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _hash_tree(top: str, inspect=None) -> dict:
    """SHA-256 of every file under ``top``, keyed by relative path."""
    hashes = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, top)
            hashes[rel] = hashlib.sha256(data).hexdigest()
            if inspect is not None:
                inspect(rel, data)
    return hashes
