"""Tunable-coupler device model and the Ramsey transient-detection experiment.

The flux map is ``omega_c(phi) = omega_max * sqrt(|cos(pi * phi)|)`` with
``phi`` in units of the flux quantum.  A fixed-frequency qubit couples to the
coupler with strength ``g``; the monitored frequency is one eigenvalue of the
two-level avoided crossing,

    (omega_q + omega_c)/2 +- sqrt((omega_q - omega_c)^2/4 + g^2),

taking the branch that coincides with the qubit when the coupler sits at its
zero-flux maximum.  The branch is fixed (not re-selected per flux value) so
the map stays continuous and invertible on each half-period of the flux map.

A Ramsey-type experiment detects flux transients: prepare a superposition,
wait a delay after the flux pulse ends, and read out.  The accumulated phase
is the time integral of the frequency detuning from the idle point, so a
slowly settling flux tail shows up as a decaying frequency transient in the
phase record.  :func:`simulate_ramsey` produces the two quadratures of that
experiment, optionally with T2 decay and seeded readout noise, and is the
forward model inverted by :mod:`fluxshape.extraction`.  It reads the flux
waveform at tau_pulse plus each delay only, so the two waveform factories,
:func:`square_transient_waveform` and :func:`pulse_flux_waveform`, define
the flux from the pulse end on and refuse an earlier time; one short of
the pulse end by a relative 1e-12 or less reads the pulse end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import at_least, at_most, finite, integer, nonnegative, positive, samples
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import RCLine, _decay, _eval_waveform, _square_tail, capacitor_voltage

__all__ = [
    "CouplerDevice",
    "RamseyConfig",
    "coupler_frequency",
    "dressed_qubit_frequency",
    "simulate_ramsey",
    "pulse_flux_waveform",
    "square_transient_waveform",
]


# omega_q, omega_max and g above this (rad/s) are refused: the dressed
# frequency squares them, which overflows near 1e154, while no modelled
# device comes within decades of it
_OMEGA_MAX = 1e100


@dataclass(frozen=True)
class CouplerDevice:
    """Static device parameters, all angular frequencies in rad/s.

    ``flux_per_volt`` converts the voltage dropped across the line
    resistance (the delivered drive) into coupler flux in Phi0 units;
    ``phi_idle`` is the static bias in Phi0.
    """

    omega_q: float
    omega_max: float
    g: float
    flux_per_volt: float
    phi_idle: float

    def __post_init__(self):
        for name, check in (("omega_q", positive), ("omega_max", positive), ("g", nonnegative)):
            object.__setattr__(self, name, at_most(name, check(name, getattr(self, name)), _OMEGA_MAX, " rad/s"))
        object.__setattr__(self, "flux_per_volt", finite("flux_per_volt", self.flux_per_volt))
        phi_idle = finite("phi_idle", self.phi_idle)
        # the flux map is invertible only within half a period around the bias
        if abs(phi_idle) >= 0.5:
            raise ValueError(f"phi_idle must satisfy |phi_idle| < 0.5, got {self.phi_idle!r}")
        object.__setattr__(self, "phi_idle", phi_idle)


def coupler_frequency(phi, device: CouplerDevice):
    """Coupler frequency omega_max * sqrt(|cos(pi*phi)|) in rad/s, exactly zero at half a flux quantum.

    The flux is first folded into [0, 1/2]: abs, mod-1 and the 1-r fold are
    all exact in binary floating point, so symmetry and periodicity of the
    flux map hold bit-for-bit whenever the shifted arguments are themselves
    representable.
    """
    # in place on a copy; fmod is np.mod for r >= 0, and faster
    r = np.fmod(np.abs(np.array(phi, dtype=float, ndmin=1)), 1.0)
    # 1 - r is exact for r >= 1/2, the only side the minimum takes it from
    np.minimum(r, np.subtract(1.0, r), out=r)
    half = r == 0.5
    # cos(pi * r) > 0 for r < 1/2, so only half a flux quantum needs its zero
    np.cos(np.multiply(r, np.pi, out=r), out=r)
    r[half] = 0.0
    np.multiply(np.sqrt(r, out=r), device.omega_max, out=r)
    return float(r[0]) if np.ndim(phi) == 0 else r


def dressed_qubit_frequency(phi, device: CouplerDevice):
    """Monitored qubit frequency including the avoided crossing with the coupler.

    Returns the eigenvalue branch that equals the bare qubit at zero coupler
    excursion: the lower branch when omega_q <= omega_max, else the upper.
    For g = 0 the qubit decouples and the bare omega_q is returned.
    """
    out = coupler_frequency(np.atleast_1d(phi), device)  # a new array
    if device.g == 0.0:
        out.fill(device.omega_q)
    else:
        # 0.25 * delta * delta + g**2, in that order, under the square root
        bend = np.subtract(device.omega_q, out)
        bend *= 0.25 * bend
        bend += device.g * device.g
        out += device.omega_q
        out *= 0.5
        branch = np.subtract if device.omega_q <= device.omega_max else np.add
        branch(out, np.sqrt(bend, out=bend), out=out)
    return float(out[0]) if np.ndim(phi) == 0 else out


@dataclass(frozen=True, eq=False)
class RamseyConfig:
    """Delay schedule and noise settings for the Ramsey experiment.

    ``delay_grid`` holds the readout delays in seconds, measured from the
    end of the flux pulse (t = tau_pulse).  ``t2`` applies an exponential
    envelope; ``readout_noise_sigma`` adds seeded Gaussian noise per point
    and per quadrature.
    """

    tau_pulse: float
    delay_grid: np.ndarray
    t2: float | None = None
    readout_noise_sigma: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        # a copy, so that the caller's array cannot change the frozen config
        grid = np.array(samples("delay_grid", self.delay_grid, 2, increasing=True))
        # the grid increases, so its first entry is its least; the array check
        # only words the refusal
        if grid.item(0) < 0.0:
            nonnegative("delay_grid", grid[:1])
        grid.flags.writeable = False
        tau_pulse = positive("tau_pulse", self.tau_pulse)
        # the waveform is read at tau_pulse + delay, and the last delay is the largest
        if not math.isfinite(tau_pulse + grid.item(-1)):
            raise ValueError(
                f"delay_grid must keep tau_pulse + delay finite, got {grid.item(-1)!r} at index {grid.size - 1}"
                f" with tau_pulse {tau_pulse!r}"
            )
        object.__setattr__(self, "tau_pulse", tau_pulse)
        object.__setattr__(self, "delay_grid", grid)
        object.__setattr__(self, "t2", None if self.t2 is None else positive("t2", self.t2))
        sigma = self.readout_noise_sigma
        object.__setattr__(self, "readout_noise_sigma", None if sigma is None else nonnegative("readout_noise_sigma", sigma))
        # numpy seeds from any non-negative int, however large
        object.__setattr__(self, "rng_seed", integer("rng_seed", self.rng_seed, 0, np.inf))


def _ramsey_phase(device: CouplerDevice, flux_waveform, config: RamseyConfig) -> np.ndarray:
    """Accumulated Ramsey phase at each delay in ``config.delay_grid``.

    phase(d) = integral over s in [0, d] of
        dressed(flux_waveform(tau_pulse + s)) - dressed(phi_idle),
    evaluated by the trapezoid rule on the delay grid with a zero-delay
    point prepended.  A grid that starts at zero then opens with an empty
    segment, and the ``+ 0.0`` turns the -0.0 that it can sum to into 0.0.
    """
    t = np.empty(config.delay_grid.size + 1)
    t[0], t[1:] = 0.0, config.delay_grid
    phase = t[1:] - t[:-1]  # the trapezoid steps, then the segments
    t += config.tau_pulse
    # the idle point rides along as the last entry of the one evaluation
    flux = np.empty(t.size + 1)
    flux[:-1], flux[-1] = _eval_waveform(flux_waveform, t), device.phi_idle
    detuning = dressed_qubit_frequency(flux, device)
    detuning[:-1] -= detuning[-1]
    phase *= 0.5 * (detuning[1:-1] + detuning[:-2])
    np.add.accumulate(phase, out=phase)  # np.cumsum, without its wrapper
    phase += 0.0
    return phase


def simulate_ramsey(device: CouplerDevice, flux_waveform, config: RamseyConfig):
    """Simulate the two Ramsey quadratures ``(<X>, <Y>)`` over the delay grid.

    X = env * cos(phase), Y = env * sin(phase) with env = exp(-delay/t2)
    when ``t2`` is set.  With ``readout_noise_sigma`` set, Gaussian noise is
    added per point from ``default_rng(rng_seed)``, X quadrature drawn first,
    so a fixed seed reproduces traces bit-for-bit.
    """
    phase = _ramsey_phase(device, flux_waveform, config)
    xy = np.empty((2, phase.size))
    np.cos(phase, out=xy[0])
    np.sin(phase, out=xy[1])
    if config.t2 is not None:
        # -d/t2 is d/-t2 bit for bit
        env = np.divide(config.delay_grid, -config.t2)
        xy *= np.exp(env, out=env)
    sigma = config.readout_noise_sigma
    if sigma:
        # one draw fills the X row, then the Y row
        xy += np.random.default_rng(config.rng_seed).normal(0.0, sigma, xy.shape)
    return xy[0], xy[1]


def _pulse_then_tail(period: float, phi_idle: float, tail):
    """Flux ``tail(t - period) + phi_idle`` for ``t >= period``; scalar or array in, same out.

    A time short of ``period`` by a relative 1e-12 or less reads the pulse
    end: a config's tau_pulse T and a pulse designed at 2*pi/T, whose
    period 2*pi/(2*pi/T) can round an ulp above T, then still pair.
    """

    def waveform(t):
        t = finite("t", np.asarray(t))
        t_arr = np.atleast_1d(t)
        # the least time decides; the check only words the refusal
        if t_arr.size and not np.minimum.reduce(t_arr, None) >= period:
            at_least("t", t, period * (1.0 - 1e-12))
            t_arr = np.maximum(t_arr, period)
        out = tail(t_arr - period) + phi_idle
        return float(out[0]) if np.ndim(t) == 0 else out

    return waveform


def pulse_flux_waveform(pulse: HarmonicPulse, line: RCLine, device: CouplerDevice):
    """Coupler flux versus time after one period of ``pulse`` through ``line``.

    The source plays exactly one period and then holds zero volts.  The
    delivered flux is ``flux_per_volt`` times the voltage across the line
    resistance, so during the pulse it is V_in - V_c and afterwards the
    capacitor discharges through the source, leaving ``phi_idle -
    flux_per_volt * V_c(tau_pulse) * exp(-(t - tau_pulse)/tau)``.  The
    waveform takes ``t >= tau_pulse``, where the Ramsey delays read it, and
    refuses an earlier time, bar one within a relative 1e-12 of the end.
    """
    scale = -device.flux_per_volt * capacitor_voltage(pulse, line, pulse.tau_pulse)
    return _pulse_then_tail(pulse.tau_pulse, device.phi_idle, lambda s: _decay(s, line.tau, scale))


def square_transient_waveform(amplitude: float, tau_pulse: float, tau: float, phi_idle: float):
    """Coupler flux after a commanded square flux pulse on a line with constant tau.

    The line passes only the high-frequency content, so the delivered flux
    decays as ``amplitude * exp(-t/tau)`` during the pulse and undershoots by
    the standard square-pulse transient after it.  The waveform takes ``t >=
    tau_pulse``, where the Ramsey delays read it, and refuses an earlier time,
    bar one within a relative 1e-12 of the end.
    """
    tau_pulse = positive("tau_pulse", tau_pulse)
    tau = positive("tau", tau)
    amplitude = finite("amplitude", amplitude)
    return _pulse_then_tail(tau_pulse, finite("phi_idle", phi_idle), lambda s: _square_tail(amplitude, tau_pulse, tau, s))
