"""First-order RC response of a flux control line.

The control line is modelled as a series resistor R and capacitor C driven
by an ideal voltage source; ``tau = R*C``.  The capacitor voltage obeys

    tau * dV_c/dt + V_c = V_in(t),        V_c(0) = 0,

and the current delivered to the line is ``I = C * dV_c/dt``.  For a
Fourier-series input (:class:`~fluxshape.pulse.HarmonicPulse`) both have
closed forms: a periodic steady-state part plus a single decaying
exponential ``exp(-t/tau)`` whose coefficient is returned by
:func:`transient_coefficient`.  A pulse is transient-immune on a given line
exactly when that coefficient vanishes.

:func:`integrate_line_response` integrates the same circuit equation with a
fixed-step fourth-order Runge-Kutta scheme and accepts arbitrary waveform
callables.  It shares no code with the closed forms, so agreement between
the two is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape.pulse import HarmonicPulse

__all__ = [
    "RCLine",
    "transient_coefficient",
    "capacitor_voltage",
    "capacitor_voltage_steady_state",
    "line_current",
    "integrate_line_response",
    "square_pulse_flux_transient",
]

# cumprod block length for the RK4 recurrence; keeps per-block products
# of the one-step decay factors well away from underflow
_CHUNK = 256


@dataclass(frozen=True)
class RCLine:
    """Series RC model of a control line (ohms, farads)."""

    resistance: float
    capacitance: float

    def __post_init__(self):
        r = float(self.resistance)
        c = float(self.capacitance)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"resistance must be positive and finite, got {self.resistance!r}")
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"capacitance must be positive and finite, got {self.capacitance!r}")
        object.__setattr__(self, "resistance", r)
        object.__setattr__(self, "capacitance", c)

    @property
    def tau(self) -> float:
        return self.resistance * self.capacitance


def _validate_tau(tau: float) -> float:
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    return tau


def _filtered_harmonics(pulse: HarmonicPulse, tau: float):
    """Steady-state cosine/sine coefficients (c_n, s_n) of the capacitor voltage."""
    n = np.arange(1, pulse.n_harmonics + 1)
    x = n * (pulse.omega * tau)
    a = np.asarray(pulse.a)
    b = np.asarray(pulse.b)
    denom = 1.0 + x * x
    return n, (a - x * b) / denom, (x * a + b) / denom


def transient_coefficient(pulse: HarmonicPulse, tau: float) -> float:
    """Coefficient of the exp(-t/tau) term in the line response.

    Equals ``a0 + sum_n (a_n - n*w*tau*b_n) / (1 + (n*w*tau)^2)``.  Zero
    means the pulse excites no slow settling on a line with time constant
    ``tau``; the residual flux error after the pulse is proportional to it.
    """
    tau = _validate_tau(tau)
    if pulse.n_harmonics == 0:
        return pulse.a0
    _, c, _ = _filtered_harmonics(pulse, tau)
    return pulse.a0 + float(np.sum(c))


def capacitor_voltage_steady_state(pulse: HarmonicPulse, tau: float, t):
    """Periodic part of the capacitor voltage (the t >> tau limit)."""
    tau = _validate_tau(tau)
    t_arr = np.asarray(t, dtype=float)
    if pulse.n_harmonics == 0:
        out = np.full(t_arr.shape, pulse.a0)
    else:
        n, c, s = _filtered_harmonics(pulse, tau)
        theta = np.multiply.outer(t_arr, n) * pulse.omega
        out = pulse.a0 + (c * np.cos(theta) + s * np.sin(theta)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def capacitor_voltage(pulse: HarmonicPulse, line: RCLine, t):
    """Closed-form capacitor voltage for zero pre-history, valid for t >= 0."""
    k = transient_coefficient(pulse, line.tau)
    t_arr = np.asarray(t, dtype=float)
    out = capacitor_voltage_steady_state(pulse, line.tau, t_arr) - k * np.exp(-t_arr / line.tau)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def line_current(pulse: HarmonicPulse, line: RCLine, t):
    """Closed-form delivered current I = C * dV_c/dt for zero pre-history."""
    tau = line.tau
    k = transient_coefficient(pulse, tau)
    t_arr = np.asarray(t, dtype=float)
    out = (k / line.resistance) * np.exp(-t_arr / tau)
    if pulse.n_harmonics > 0:
        n, c, s = _filtered_harmonics(pulse, tau)
        theta = np.multiply.outer(t_arr, n) * pulse.omega
        cw = line.capacitance * pulse.omega
        out = out + cw * ((n * s) * np.cos(theta) - (n * c) * np.sin(theta)).sum(axis=-1)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def _eval_waveform(fn, t: np.ndarray) -> np.ndarray:
    """Evaluate a time->volts callable, tolerating scalar-only implementations."""
    try:
        out = np.asarray(fn(t), dtype=float)
        if out.shape == t.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(x)) for x in t])


def _rk4_affine_coefficients(z: np.ndarray):
    """One-step classical RK4 for tau*v' = f - v written as an affine map.

    With z = h/tau the update is v_next = A*v + B0*f(t) + Bm*f(t+h/2) + B1*f(t+h),
    so the coefficients follow from stepping the basis vectors.
    """

    def step(v, f0, fm, f1):
        k1 = z * (f0 - v)
        k2 = z * (fm - v - 0.5 * k1)
        k3 = z * (fm - v - 0.5 * k2)
        k4 = z * (f1 - v - k3)
        return v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    return step(1.0, 0.0, 0.0, 0.0), step(0.0, 1.0, 0.0, 0.0), step(0.0, 0.0, 1.0, 0.0), step(0.0, 0.0, 0.0, 1.0)


def integrate_line_response(v_in, line: RCLine, t_grid, v_c_initial: float = 0.0):
    """Integrate tau*dV_c/dt + V_c = V_in(t) with fixed-step classical RK4.

    ``v_in`` is a callable mapping time in seconds to volts (vectorized or
    scalar).  ``t_grid`` must be strictly increasing with every step at most
    tau/50; callers resolving an oscillatory input are responsible for also
    keeping the step well below its period.

    Returns ``(v_c, i)`` arrays aligned with ``t_grid``, where the delivered
    current is ``(V_in - V_c) / R``.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1-D array with at least two points")
    h = np.diff(t)
    if np.any(h <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    tau = line.tau
    max_h = float(np.max(h))
    if max_h > tau / 50.0 * (1.0 + 1e-12):
        raise ValueError(
            f"integration step {max_h!r} exceeds tau/50 = {tau / 50.0!r}; refine the grid"
        )

    # the end of one step is the start of the next, so the grid nodes are
    # evaluated once and only the midpoints need a second call
    f = _eval_waveform(v_in, t)
    f0 = f[:-1]
    f1 = f[1:]
    fm = _eval_waveform(v_in, t[:-1] + 0.5 * h)

    z = h / tau
    decay, b0, bm, b1 = _rk4_affine_coefficients(z)
    forced = b0 * f0 + bm * fm + b1 * f1

    v = np.empty(t.size)
    v[0] = float(v_c_initial)
    start = 0
    n_steps = forced.size
    while start < n_steps:
        stop = min(start + _CHUNK, n_steps)
        q = np.cumprod(decay[start:stop])
        s = np.cumsum(forced[start:stop] / q)
        v[start + 1 : stop + 1] = q * (v[start] + s)
        start = stop

    i = (f - v) / line.resistance
    return v, i


def square_pulse_flux_transient(amplitude, tau_pulse: float, tau: float, t_delay, baseline: float = 0.0):
    """Residual flux after a square pulse through a first-order high-pass line.

    A square pulse of height ``amplitude`` and width ``tau_pulse`` leaves,
    at time ``t_delay`` past its trailing edge,

        amplitude * (-exp(-t_delay/tau) + exp(-(t_delay + tau_pulse)/tau)) + baseline

    which is the template fitted by the transient-extraction pipeline.
    """
    tau_pulse = float(tau_pulse)
    if not (math.isfinite(tau_pulse) and tau_pulse > 0.0):
        raise ValueError(f"tau_pulse must be positive and finite, got {tau_pulse!r}")
    tau = _validate_tau(tau)
    td = np.asarray(t_delay, dtype=float)
    if np.any(td < 0.0):
        raise ValueError("t_delay must be non-negative")
    out = amplitude * (-np.exp(-td / tau) + np.exp(-(td + tau_pulse) / tau)) + baseline
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out
