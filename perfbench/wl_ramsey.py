"""``ramsey`` workload: one op simulates one Ramsey trace and extracts tau from it.

Every round holds 42 ops in a seeded random order:

* 16 calibration traces on the 241-point grid (0.25 us step) and 8 on the
  961-point grid (0.0625 us step), both covering 60 us.  The line tau is
  log-uniform in 5-30 us (stratified, one draw per equal-width stratum of
  log tau, so every round has the same share of short taus); sigma cycles
  through {0, 0.02, 0.05}.  Square pulse of 5e-4 Phi0, T2 75 us.
* 11 traces of the criterion-4 block (13 us line, 241 points, the noiseless
  trace plus sigma 0.05 with noise seeds 0-99, visited in turn).
* 7 screening traces: the criterion-5 set (zero pulse, single sine and
  biharmonic designs at m in {0.01, 0.1, 1, 10, 100} on an 11.2 us line,
  sigma 0.05), noise seeds 0-10 visited in turn.

Failure rule: a calibration or criterion-4 op fails if it raises, reports
not converged, or returns tau more than 10% off; a screening op fails only
if it raises.  The 241-point grid aliases tails with tau below ~10 us (the
phase moves more than pi per sample) and the fit still reports
``converged=True``; those ops stay in the mix and count as failed.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple

import numpy as np

import fluxshape.device as device
import fluxshape.extraction as extraction
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import RCLine
from fluxshape.synthesis import solve_biharmonic

GHZ = 2.0 * math.pi * 1e9
MHZ = 2.0 * math.pi * 1e6
DEVICE = device.CouplerDevice(
    omega_q=4.7730 * GHZ, omega_max=4.8575 * GHZ, g=63.0 * MHZ, flux_per_volt=7e-5, phi_idle=-0.278
)
TAU_PULSE = 8e-6
T2 = 75e-6
SQUARE_AMP = 5e-4
GRIDS = {241: 0.25e-6, 961: 0.0625e-6}
CAL_PER_ROUND = {241: 16, 961: 8}
SIGMAS = (0.0, 0.02, 0.05)
CRIT4_TAU = 13e-6
CRIT4_PER_ROUND = 11
CRIT4_BLOCK = 101  # index 0 is the noiseless trace, i >= 1 is noise seed i - 1
SCREEN_TAU = 11.2e-6
SCREEN_SEEDS = 11
SCREEN_DESIGNS = ("zero", "single", "m0.01", "m0.1", "m1", "m10", "m100")
TAU_TOLERANCE = 0.10

Spec = namedtuple("Spec", "kind n tau sigma noise_seed design")


class Workload:
    # the slowest ops are fits that do not converge: the four such
    # screening traces (4 of 42 ops) and under 1% of failing calibration
    # traces.  The sparse lower flank of that class moves with the
    # machine's speed far more than its top (over ten runs the 0.93
    # quantile spread 0.340, the 0.99 quantile 0.061)
    tail_q = 0.99
    # runs end on a whole number of screening-seed cycles, so every run
    # times each of the 44 distinct heavy screening traces equally often
    round_cycle = SCREEN_SEEDS
    # 1386 ops, so more than 10 samples lie beyond the tail quantile
    min_rounds = 3 * SCREEN_SEEDS
    # rounds the traced run needs for its correctness checks
    gate_rounds = 11
    prelude_rounds = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.delays = {n: np.arange(n) * dt for n, dt in GRIDS.items()}
        omega = 2.0 * math.pi / TAU_PULSE
        self.screen_line = RCLine(50.0, SCREEN_TAU / 50.0)
        self.screen_pulses = {"single": HarmonicPulse(TAU_PULSE, a=(0.0,), b=(1.0,))}
        for m in (0.01, 0.1, 1.0, 10.0, 100.0):
            self.screen_pulses[f"m{m:g}"] = solve_biharmonic(1.0, omega, m * SCREEN_TAU)
        self.crit4_err: dict[int, float] = {}
        self.crit5_phase: dict[tuple, float] = {}

    def plan_round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        specs = []
        for n, count in CAL_PER_ROUND.items():
            strata = (np.arange(count) + rng.random(count)) / count
            taus = np.exp(math.log(5e-6) + strata * math.log(6.0))
            sigmas = rng.permutation(np.resize(SIGMAS, count))
            for tau, sigma in zip(taus, sigmas):
                specs.append(Spec(f"cal{n}", n, float(tau), float(sigma), int(rng.integers(2**31)), None))
        for j in range(CRIT4_PER_ROUND):
            index = (r * CRIT4_PER_ROUND + j) % CRIT4_BLOCK
            sigma = None if index == 0 else 0.05
            specs.append(Spec("crit4", 241, CRIT4_TAU, sigma, max(index - 1, 0), index))
        for design in SCREEN_DESIGNS:
            specs.append(Spec("screen", 241, SCREEN_TAU, 0.05, r % SCREEN_SEEDS, design))
        return [specs[i] for i in rng.permutation(len(specs))]

    def warm_up_specs(self) -> list:
        plan = self.plan_round(0)
        return [next(s for s in plan if s.kind == kind) for kind in ("cal241", "cal961", "screen")]

    def run_op(self, spec: Spec):
        if spec.kind != "screen":
            waveform = device.square_transient_waveform(SQUARE_AMP, TAU_PULSE, spec.tau, DEVICE.phi_idle)
        elif spec.design == "zero":
            waveform = _zero_waveform
        else:
            waveform = device.pulse_flux_waveform(self.screen_pulses[spec.design], self.screen_line, DEVICE)
        config = device.RamseyConfig(
            tau_pulse=TAU_PULSE,
            delay_grid=self.delays[spec.n],
            t2=T2,
            readout_noise_sigma=spec.sigma,
            rng_seed=spec.noise_seed,
        )
        x, y = device.simulate_ramsey(DEVICE, waveform, config)
        result = extraction.run_pipeline(x, y, GRIDS[spec.n], DEVICE, DEVICE.phi_idle, TAU_PULSE)
        return x, y, result

    def truth(self, spec: Spec):
        """Line tau an op should recover, or None for screening ops."""
        return None if spec.kind == "screen" else spec.tau

    def judge(self, spec: Spec, output) -> bool:
        if spec.kind == "screen":
            return True
        return _tau_error(spec.tau, output[2].fit) <= TAU_TOLERANCE

    def record(self, spec: Spec, output) -> None:
        result = output[2]
        if spec.kind == "crit4":
            self.crit4_err.setdefault(spec.design, _tau_error(spec.tau, result.fit))
        elif spec.kind == "screen":
            self.crit5_phase.setdefault((spec.design, spec.noise_seed), abs(result.acquired_phase))

    def end_round(self, r: int) -> None:
        pass

    def fingerprint(self, spec: Spec, output) -> bytes:
        x, y, result = output
        fit = result.fit
        arrays = (x, y, result.phase, result.frequency_shift_hz, result.flux)
        scalars = (fit.amplitude, fit.offset, fit.tau, fit.residual_rms, float(fit.converged), result.acquired_phase)
        return b"".join(a.tobytes() for a in arrays) + struct.pack("6d", *scalars)

    def checks(self) -> list:
        """Criterion 4 (tau recovery) and criterion 5 (acquired-phase ordering)."""
        out = []
        if len(self.crit4_err) < CRIT4_BLOCK:
            out.append(("ramsey.criterion4", False, f"block incomplete: {len(self.crit4_err)}/{CRIT4_BLOCK} traces"))
        else:
            clean = self.crit4_err[0]
            p95 = float(np.percentile([self.crit4_err[i] for i in range(1, CRIT4_BLOCK)], 95))
            out.append(("ramsey.criterion4_noiseless", clean < 0.05, f"noiseless tau error {clean:.3e} (< 5%)"))
            out.append(("ramsey.criterion4_noisy_p95", p95 < 0.10, f"sigma 0.05 p95 tau error {p95:.3e} (< 10%)"))
        if len(self.crit5_phase) < len(SCREEN_DESIGNS) * SCREEN_SEEDS:
            out.append(("ramsey.criterion5", False, f"screening set incomplete: {len(self.crit5_phase)} traces"))
        else:
            means = {
                d: float(np.mean([self.crit5_phase[(d, s)] for s in range(SCREEN_SEEDS)])) for d in SCREEN_DESIGNS
            }
            group = max(means["m1"], means["m10"], means["m100"])
            ok = means["single"] > means["m0.01"] > means["m0.1"]
            ok = ok and means["m0.1"] > 3.0 * group and group <= 3.0 * means["zero"]
            ok = ok and means["single"] >= 10.0 * means["zero"]
            detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
            out.append(("ramsey.criterion5_ordering", ok, f"mean |acquired phase| rad: {detail}"))
        return out

    def close(self) -> None:
        pass


def _zero_waveform(t):
    return np.full(np.shape(t), DEVICE.phi_idle)


def _tau_error(tau_true: float, fit) -> float:
    if not fit.converged:
        return math.inf
    return abs(fit.tau - tau_true) / tau_true
