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
forward model inverted by :mod:`fluxshape.extraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, integer, positive
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import (
    RCLine,
    _eval_waveform,
    capacitor_voltage,
    integrate_line_response,
    square_pulse_flux_transient,
)

__all__ = [
    "CouplerDevice",
    "RamseyConfig",
    "coupler_frequency",
    "dressed_qubit_frequency",
    "ramsey_phase",
    "simulate_ramsey",
    "pulse_flux_waveform",
    "square_transient_waveform",
    "square_train_response",
]


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
        object.__setattr__(self, "omega_q", positive("omega_q", self.omega_q))
        object.__setattr__(self, "omega_max", positive("omega_max", self.omega_max))
        g = finite("g", self.g)
        if g < 0.0:
            raise ValueError(f"g must be non-negative and finite, got {self.g!r}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "flux_per_volt", finite("flux_per_volt", self.flux_per_volt))
        phi_idle = finite("phi_idle", self.phi_idle)
        # the flux map is invertible only within half a period around the bias
        if abs(phi_idle) >= 0.5:
            raise ValueError(f"phi_idle must satisfy |phi_idle| < 0.5, got {self.phi_idle!r}")
        object.__setattr__(self, "phi_idle", phi_idle)


def _folded_flux(phi) -> np.ndarray:
    """Reduce flux to the equivalent point in [0, 1/2] using exact float steps.

    abs, mod-1 and the 1-r fold are all exact in binary floating point, so
    symmetry and periodicity of the flux map hold bit-for-bit whenever the
    shifted arguments are themselves representable.
    """
    r = np.mod(np.abs(np.asarray(phi, dtype=float)), 1.0)
    return np.where(r > 0.5, 1.0 - r, r)


def _flux_map(phi, omega_max: float) -> np.ndarray:
    """omega_max * sqrt(|cos(pi*phi)|) as an array, exactly zero at half a flux quantum."""
    r = _folded_flux(phi)
    return omega_max * np.sqrt(np.where(r == 0.5, 0.0, np.maximum(np.cos(np.pi * r), 0.0)))


def coupler_frequency(phi, device: CouplerDevice):
    """Coupler frequency omega_max * sqrt(|cos(pi*phi)|) in rad/s."""
    out = _flux_map(phi, device.omega_max)
    return float(out) if out.ndim == 0 else out


def dressed_qubit_frequency(phi, device: CouplerDevice):
    """Monitored qubit frequency including the avoided crossing with the coupler.

    Returns the eigenvalue branch that equals the bare qubit at zero coupler
    excursion: the lower branch when omega_q <= omega_max, else the upper.
    For g = 0 the qubit decouples and the bare omega_q is returned.
    """
    wc = np.asarray(coupler_frequency(phi, device), dtype=float)
    if device.g == 0.0:
        out = np.full(wc.shape, device.omega_q)
    else:
        delta = device.omega_q - wc
        bend = np.sqrt(0.25 * delta * delta + device.g * device.g)
        branch = -1.0 if device.omega_q <= device.omega_max else 1.0
        out = 0.5 * (device.omega_q + wc) + branch * bend
    return float(out) if out.ndim == 0 else out


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
        grid = finite("delay_grid", np.array(self.delay_grid))
        if np.ndim(grid) != 1 or grid.size < 2:
            raise ValueError("delay_grid must be 1-D with at least two points")
        if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("delay_grid must be non-negative and strictly increasing")
        grid.flags.writeable = False
        sigma = self.readout_noise_sigma
        if sigma is not None and finite("readout_noise_sigma", sigma) < 0.0:
            raise ValueError(f"readout_noise_sigma must be non-negative, got {sigma!r}")
        object.__setattr__(self, "tau_pulse", positive("tau_pulse", self.tau_pulse))
        object.__setattr__(self, "delay_grid", grid)
        object.__setattr__(self, "t2", None if self.t2 is None else positive("t2", self.t2))
        object.__setattr__(self, "readout_noise_sigma", None if sigma is None else float(sigma))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


def ramsey_phase(device: CouplerDevice, flux_waveform, config: RamseyConfig) -> np.ndarray:
    """Accumulated Ramsey phase at each delay in ``config.delay_grid``.

    phase(d) = integral over s in [0, d] of
        dressed(flux_waveform(tau_pulse + s)) - dressed(phi_idle),
    evaluated by the trapezoid rule on the delay grid (with a zero-delay
    point prepended when the grid does not start at zero).
    """
    delays = config.delay_grid
    if delays[0] == 0.0:
        pts = delays
    else:
        pts = np.concatenate([[0.0], delays])
    flux = _eval_waveform(flux_waveform, config.tau_pulse + pts)
    detuning = dressed_qubit_frequency(flux, device) - dressed_qubit_frequency(device.phi_idle, device)
    segments = 0.5 * (detuning[1:] + detuning[:-1]) * np.diff(pts)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    return cumulative if delays[0] == 0.0 else cumulative[1:]


def simulate_ramsey(device: CouplerDevice, flux_waveform, config: RamseyConfig):
    """Simulate the two Ramsey quadratures ``(<X>, <Y>)`` over the delay grid.

    X = env * cos(phase), Y = env * sin(phase) with env = exp(-delay/t2)
    when ``t2`` is set.  With ``readout_noise_sigma`` set, Gaussian noise is
    added per point from ``default_rng(rng_seed)``, X quadrature drawn first,
    so a fixed seed reproduces traces bit-for-bit.
    """
    phase = ramsey_phase(device, flux_waveform, config)
    delays = config.delay_grid
    env = np.exp(-delays / config.t2) if config.t2 is not None else np.ones(delays.shape)
    x = env * np.cos(phase)
    y = env * np.sin(phase)
    sigma = config.readout_noise_sigma
    if sigma:
        rng = np.random.default_rng(config.rng_seed)
        x = x + rng.normal(0.0, sigma, delays.size)
        y = y + rng.normal(0.0, sigma, delays.size)
    return x, y


def _pulse_then_tail(period: float, phi_idle: float, during, tail):
    """Flux ``phi_idle``, plus ``during(t)`` on [0, period) and ``tail(t - period)`` after; scalar or array in, same out."""

    def waveform(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(t_arr.shape, phi_idle)
        inside = (t_arr >= 0.0) & (t_arr < period)
        if np.any(inside):
            out[inside] += during(t_arr[inside])
        after = t_arr >= period
        if np.any(after):
            out[after] += tail(t_arr[after] - period)
        return float(out[0]) if np.ndim(t) == 0 else out

    return waveform


def pulse_flux_waveform(pulse: HarmonicPulse, line: RCLine, device: CouplerDevice):
    """Coupler flux versus time for one period of ``pulse`` through ``line``.

    The source plays exactly one period and then holds zero volts.  The
    delivered flux is ``flux_per_volt`` times the voltage across the line
    resistance, so during the pulse it is V_in - V_c and afterwards the
    capacitor discharges through the source, leaving
    ``-flux_per_volt * V_c(tau_pulse) * exp(-(t - tau_pulse)/tau)``.
    Before t = 0 the device sits at the idle flux.
    """
    v_c_end = capacitor_voltage(pulse, line, pulse.tau_pulse)
    fpv = device.flux_per_volt
    return _pulse_then_tail(
        pulse.tau_pulse, device.phi_idle,
        lambda t: fpv * (pulse.evaluate(t) - capacitor_voltage(pulse, line, t)),
        lambda s: -fpv * v_c_end * np.exp(-s / line.tau),
    )


def square_transient_waveform(amplitude: float, tau_pulse: float, tau: float, phi_idle: float):
    """Coupler flux for a commanded square flux pulse on a line with constant tau.

    The line passes only the high-frequency content, so the delivered flux
    decays as ``amplitude * exp(-t/tau)`` during the pulse and undershoots by
    the standard square-pulse transient after it.
    """
    tau_pulse = positive("tau_pulse", tau_pulse)
    tau = positive("tau", tau)
    amplitude = finite("amplitude", amplitude)
    return _pulse_then_tail(
        tau_pulse, finite("phi_idle", phi_idle),
        lambda t: amplitude * np.exp(-t / tau),
        lambda s: square_pulse_flux_transient(amplitude, tau_pulse, tau, s),
    )


def square_train_response(
    tau: float,
    omega_max: float,
    phi_idle: float,
    amplitude: float = 0.1,
    tau_pulse: float | None = None,
    gap: float | None = None,
    n_pulses: int = 3,
    tail: float | None = None,
):
    """Push a repeated commanded square flux pulse through the RC line model.

    Integrates the line equation numerically (no closed forms involved) for
    ``n_pulses`` squares of height ``amplitude`` (Phi0) and width
    ``tau_pulse`` separated by ``gap``, both defaulting to ``tau``.  Returns
    a dict with keys ``t``, ``commanded``, ``flux`` and ``frequency`` where
    ``flux = phi_idle + delivered`` and ``frequency`` applies the coupler
    flux map with ``omega_max``.  ``tail`` is the settling time simulated
    after the train, ``3 * tau`` by default.

    With tau comparable to the pulse spacing, the delivered flux never
    settles between pulses: successive nominally identical pulses produce
    different frequency excursions, which is the failure mode the designed
    pulses remove.
    """
    tau = positive("tau", tau)
    tau_pulse = tau if tau_pulse is None else positive("tau_pulse", tau_pulse)
    gap = tau_pulse if gap is None else positive("gap", gap)
    n_pulses = integer("n_pulses", n_pulses, 1)
    tail = 3.0 * tau if tail is None else positive("tail", tail)

    period = tau_pulse + gap
    train_end = n_pulses * period

    def commanded(t):
        t_arr = np.asarray(t, dtype=float)
        inside = (t_arr >= 0.0) & (t_arr < train_end) & (np.mod(t_arr, period) < tau_pulse)
        return np.where(inside, amplitude, 0.0)

    total = train_end + tail
    dt = min(tau / 60.0, tau_pulse / 60.0, gap / 60.0)
    t = np.arange(int(math.ceil(total / dt)) + 1) * dt
    # unit resistance and capacitance tau: the filter acts on flux directly
    line = RCLine(1.0, tau)
    v_c, _ = integrate_line_response(commanded, line, t)
    delivered = commanded(t) - v_c
    flux = phi_idle + delivered
    return {"t": t, "commanded": commanded(t), "flux": flux, "frequency": _flux_map(flux, omega_max)}
