"""``design`` workload: one op designs and verifies a pulse for a random wiring chain.

An op builds a ``default_flux_chain`` with a bias-tee C log-uniform in
0.1-0.5 uF and per-stage attenuation drawn from {3, 6, 10, 20} dB, fits the
chain's effective series RC with ``sweep_and_fit_rc``, designs a pulse with
``solve_top_harmonic`` on a random spectrum of N <= 8 harmonics at the
fitted tau (N cycles through 2..8 within each op class; the coefficients
are random), sweeps the mischaracterization grid around the design point
with ``sweep_transient_coefficient``, and integrates the line response over
20 periods with the RK4 oracle, comparing it with ``capacitor_voltage`` and
``line_current``.

Every round holds three reference ops (400 frequencies, 30x30 cells, 20k
RK4 steps) and one large op (10k frequencies, 120x120 cells, 200k steps)
in a seeded random order.

Failure rule: an op fails if it raises or if a check fails: the fitted tau
is not positive, |k_exp|/max|coeff| >= 1e-12 at the design tau, or RK4
differs from either closed form by 1e-6 relative or more.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple

import numpy as np

import fluxshape.network as network
import fluxshape.rcline as rcline
import fluxshape.robustness as robustness
import fluxshape.synthesis as synthesis

TAU_PULSE = 8e-6
OMEGA = 2.0 * math.pi / TAU_PULSE
N_PERIODS = 20
ATTENUATIONS_DB = (3.0, 6.0, 10.0, 20.0)
N_STAGES = 5
# (frequency points, cells per sweep axis, RK4 steps)
SIZES = {"ref": (400, 30, 20_000), "large": (10_000, 120, 200_000)}
ROUND = ("ref", "ref", "ref", "large")
K_TOLERANCE = 1e-12
RK4_TOLERANCE = 1e-6

Spec = namedtuple("Spec", "kind bias_tee_c attenuations_db a0 a b")
Output = namedtuple("Output", "tau pulse k_ratio grid v i v_ref i_ref")


class Workload:
    # the large op is the heavy class, 1 of 4 ops; 0.875 is its middle
    tail_q = 0.875
    # at least 20 large ops, so 10 samples lie beyond the tail quantile
    min_rounds = 21
    # runs end on a whole number of N cycles, so every run has the same mix
    round_cycle = 7
    prelude_rounds = 0
    # rounds the traced run needs for its correctness checks
    gate_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.worst = {"k_ratio": 0.0, "rk4_v": 0.0, "rk4_i": 0.0}
        self.min_tau = math.inf
        self.failed_checks: list[str] = []

    def plan_round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        specs = []
        for j, kind in enumerate(ROUND):
            # N (2..8) sets most of an op's cost, so it cycles within each op
            # class instead of being drawn: every 7 rounds hold each N equally
            n_low = 1 + (r * ROUND.count(kind) + ROUND[:j].count(kind) + self.seed) % 7
            specs.append(
                Spec(
                    kind,
                    float(math.exp(rng.uniform(math.log(1e-7), math.log(5e-7)))),
                    tuple(float(x) for x in rng.choice(ATTENUATIONS_DB, N_STAGES)),
                    float(rng.uniform(-1.0, 1.0)),
                    tuple(float(x) for x in rng.uniform(-1.0, 1.0, n_low)),
                    tuple(float(x) for x in rng.uniform(-1.0, 1.0, n_low)),
                )
            )
        return [specs[i] for i in rng.permutation(len(specs))]

    def warm_up_specs(self) -> list:
        return [next(s for s in self.plan_round(0) if s.kind == "ref")]

    def run_op(self, spec: Spec) -> Output:
        n_freq, n_cells, n_steps = SIZES[spec.kind]
        chain = network.default_flux_chain(bias_tee_c=spec.bias_tee_c, attenuations_db=spec.attenuations_db)
        fit = network.sweep_and_fit_rc(chain, 0j, np.geomspace(1e3, 1e8, n_freq))
        tau = fit.effective_r * fit.effective_c
        pulse, _ = synthesis.solve_top_harmonic(spec.a0, spec.a, spec.b, OMEGA, tau)
        scale = max(abs(pulse.a0), *map(abs, pulse.a), *map(abs, pulse.b))
        k_ratio = abs(rcline.transient_coefficient(pulse, tau)) / scale
        wt = OMEGA * tau
        grid = robustness.sweep_transient_coefficient(
            1.0, np.geomspace(wt / 3.0, 3.0 * wt, n_cells), np.geomspace(0.1, 10.0, n_cells)
        )
        line = rcline.RCLine(fit.effective_r, fit.effective_c)
        t = np.linspace(0.0, N_PERIODS * TAU_PULSE, n_steps + 1)
        v, i = rcline.integrate_line_response(pulse.evaluate, line, t)
        v_ref = rcline.capacitor_voltage(pulse, line, t)
        i_ref = rcline.line_current(pulse, line, t)
        return Output(tau, pulse, k_ratio, grid.k_exp, v, i, v_ref, i_ref)

    def truth(self, spec: Spec):
        return None

    def _errors(self, out: Output):
        rk4_v = float(np.max(np.abs(out.v - out.v_ref)) / np.max(np.abs(out.v_ref)))
        rk4_i = float(np.max(np.abs(out.i - out.i_ref)) / np.max(np.abs(out.i_ref)))
        return rk4_v, rk4_i

    def judge(self, spec: Spec, out: Output) -> bool:
        rk4_v, rk4_i = self._errors(out)
        return out.tau > 0.0 and out.k_ratio < K_TOLERANCE and rk4_v < RK4_TOLERANCE and rk4_i < RK4_TOLERANCE

    def record(self, spec: Spec, out: Output) -> None:
        rk4_v, rk4_i = self._errors(out)
        self.worst["k_ratio"] = max(self.worst["k_ratio"], out.k_ratio)
        self.worst["rk4_v"] = max(self.worst["rk4_v"], rk4_v)
        self.worst["rk4_i"] = max(self.worst["rk4_i"], rk4_i)
        self.min_tau = min(self.min_tau, out.tau)
        if not self.judge(spec, out) and len(self.failed_checks) < 5:
            self.failed_checks.append(
                f"{spec}: tau={out.tau!r} k_ratio={out.k_ratio:.3e} rk4_v={rk4_v:.3e} rk4_i={rk4_i:.3e}"
            )

    def end_round(self, r: int) -> None:
        pass

    def fingerprint(self, spec: Spec, out: Output) -> bytes:
        digest = hashlib.sha256()
        pulse = out.pulse
        digest.update(np.array([out.tau, out.k_ratio, pulse.a0, *pulse.a, *pulse.b]).tobytes())
        for array in (out.grid, out.v, out.i, out.v_ref, out.i_ref):
            digest.update(array.tobytes())
        return digest.digest()

    def checks(self) -> list:
        w = self.worst
        return [
            ("design.tau_positive", self.min_tau > 0.0, f"smallest fitted tau {self.min_tau!r} s"),
            ("design.k_cancelled", w["k_ratio"] < K_TOLERANCE, f"worst |k|/max|coeff| {w['k_ratio']:.3e} (< 1e-12)"),
            (
                "design.rk4_matches_closed_forms",
                w["rk4_v"] < RK4_TOLERANCE and w["rk4_i"] < RK4_TOLERANCE,
                f"worst relative error V_c {w['rk4_v']:.3e}, I {w['rk4_i']:.3e} (< 1e-6)",
            ),
        ] + [("design.op_check", False, detail) for detail in self.failed_checks]

    def close(self) -> None:
        pass
