"""First-order RC response of a flux control line.

The control line is modelled as a series resistor R and capacitor C driven
by an ideal voltage source; ``tau = R*C``.  The capacitor voltage obeys

    tau * dV_c/dt + V_c = V_in(t),        V_c(0) = 0,

and the current delivered to the line is ``I = C * dV_c/dt``.  For a
Fourier-series input (:class:`~fluxshape.pulse.HarmonicPulse`) both have
closed forms: a periodic steady-state part plus a single decaying
exponential ``exp(-t/tau)`` whose coefficient is returned by
:func:`transient_coefficient`.  A pulse is transient-immune on a given line
exactly when that coefficient vanishes.  Every closed form here reads the
pulse's line-filtered spectrum, which :mod:`fluxshape.pulse` defines once.

:func:`integrate_line_response` integrates the same circuit equation with a
fixed-step fourth-order Runge-Kutta scheme and accepts arbitrary waveform
callables.  It shares no code with the closed forms, so agreement between
the two is a meaningful check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, positive
from fluxshape.pulse import HarmonicPulse, _fourier_sum

__all__ = [
    "RCLine",
    "transient_coefficient",
    "capacitor_voltage",
    "capacitor_voltage_steady_state",
    "line_current",
    "integrate_line_response",
    "square_pulse_flux_transient",
]

# row length of the blocked RK4 scan: each row's running product of one-step
# decay factors, at least (49/50)**256 ~ 0.006, stays well away from underflow
_CHUNK = 256


@dataclass(frozen=True)
class RCLine:
    """Series RC model of a control line (ohms, farads)."""

    resistance: float
    capacitance: float

    def __post_init__(self):
        object.__setattr__(self, "resistance", positive("resistance", self.resistance))
        object.__setattr__(self, "capacitance", positive("capacitance", self.capacitance))

    @property
    def tau(self) -> float:
        return self.resistance * self.capacitance


def transient_coefficient(pulse: HarmonicPulse, tau: float) -> float:
    """Coefficient of the exp(-t/tau) term in the line response.

    Equals ``a0 + sum_n (a_n - n*w*tau*b_n) / (1 + (n*w*tau)^2)``.  Zero
    means the pulse excites no slow settling on a line with time constant
    ``tau``; the residual flux error after the pulse is proportional to it.
    """
    _, c, _ = pulse._filtered_harmonics(tau)
    return pulse.a0 + float(np.sum(c))


def capacitor_voltage_steady_state(pulse: HarmonicPulse, tau: float, t):
    """Periodic part of the capacitor voltage (the t >> tau limit)."""
    _, c, s = pulse._filtered_harmonics(tau)
    out = pulse.a0 + _fourier_sum(np.asarray(t, dtype=float), pulse.omega, c, s)
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
    n, c, s = pulse._filtered_harmonics(tau)
    cw = line.capacitance * pulse.omega
    # derivative of the steady state: w * sum_n n*(s_n cos - c_n sin), w in cw
    periodic = _fourier_sum(t_arr, pulse.omega, n * s, -(n * c))
    out = (k / line.resistance) * np.exp(-t_arr / tau) + cw * periodic
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def _eval_waveform(fn, t: np.ndarray) -> np.ndarray:
    """Evaluate a callable on a 1-D grid, tolerating scalar-only implementations; values must be finite."""
    try:
        out = np.asarray(fn(t), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != t.shape:
        out = np.array([float(fn(x)) for x in t])
    return finite("waveform", out)


def _rk4_affine_coefficients(z: np.ndarray):
    """One-step classical RK4 for tau*v' = f - v written as an affine map.

    With z = h/tau the update is v_next = A*v + B0*f(t) + Bm*f(t+h/2) + B1*f(t+h),
    whose coefficients are the polynomials below, each in Horner form.
    """
    a = 1.0 + z * (-1.0 + z * (1.0 / 2.0 + z * (-1.0 / 6.0 + z * (1.0 / 24.0))))
    b0 = z * (1.0 / 6.0 + z * (-1.0 / 6.0 + z * (1.0 / 12.0 + z * (-1.0 / 24.0))))
    bm = z * (2.0 / 3.0 + z * (-1.0 / 3.0 + z * (1.0 / 12.0)))
    return a, b0, bm, z / 6.0


def integrate_line_response(v_in, line: RCLine, t_grid, v_c_initial: float = 0.0):
    """Integrate tau*dV_c/dt + V_c = V_in(t) with fixed-step classical RK4.

    ``v_in`` is a callable mapping time in seconds to volts (vectorized or
    scalar).  ``t_grid`` must be finite and strictly increasing with every
    step at most tau/50; callers resolving an oscillatory input are
    responsible for also keeping the step well below its period.

    Each RK4 step is the affine map v_next = A*v + forcing.  The steps are
    laid out in rows of ``_CHUNK`` steps; one cumulative product and one
    cumulative sum along the rows solve every row from a zero start, and a
    loop over the rows carries the end value of one row into the next.

    Returns ``(v_c, i)`` arrays aligned with ``t_grid``, where the delivered
    current is ``(V_in - V_c) / R``.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1-D array with at least two points")
    t = finite("t_grid", t)
    h = np.diff(t)
    if np.any(h <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    tau = line.tau
    max_h = float(np.max(h))
    if max_h > tau / 50.0 * (1.0 + 1e-12):
        raise ValueError(
            f"integration step {max_h!r} exceeds tau/50 = {tau / 50.0!r}; refine the grid"
        )
    v0 = finite("v_c_initial", v_c_initial)

    # the end of one step is the start of the next, so the grid nodes are
    # evaluated once and only the midpoints need a second call
    f = _eval_waveform(v_in, t)
    fm = _eval_waveform(v_in, t[:-1] + 0.5 * h)

    # padding steps decay by 1 and force 0, so they leave a row's end value alone
    n = h.size
    rows = -(-n // _CHUNK)
    q = np.ones((rows, _CHUNK))
    s = np.zeros((rows, _CHUNK))
    forced = s.reshape(-1)[:n]
    decay, b0, bm, b1 = _rk4_affine_coefficients(h / tau)
    q.reshape(-1)[:n] = decay
    np.multiply(b0, f[:-1], out=forced)
    forced += bm * fm
    forced += b1 * f[1:]
    del decay, b0, bm, b1

    np.cumprod(q, axis=1, out=q)
    s /= q
    np.cumsum(s, axis=1, out=s)
    carry = [v0]
    for q_end, s_end in zip(q[:-1, -1].tolist(), s[:-1, -1].tolist()):
        carry.append(q_end * (carry[-1] + s_end))
    s += np.array(carry)[:, None]
    s *= q

    v = np.empty(t.size)
    v[0] = v0
    v[1:] = s.reshape(-1)[:n]
    i = (f - v) / line.resistance
    return v, i


def square_pulse_flux_transient(amplitude, tau_pulse: float, tau: float, t_delay, baseline: float = 0.0):
    """Residual flux after a square pulse through a first-order high-pass line.

    A square pulse of height ``amplitude`` and width ``tau_pulse`` leaves,
    at time ``t_delay`` past its trailing edge,

        amplitude * (-exp(-t_delay/tau) + exp(-(t_delay + tau_pulse)/tau)) + baseline

    which is the template fitted by the transient-extraction pipeline.
    """
    tau_pulse = positive("tau_pulse", tau_pulse)
    tau = positive("tau", tau)
    td = np.asarray(t_delay, dtype=float)
    if np.any(td < 0.0):
        raise ValueError("t_delay must be non-negative")
    out = amplitude * (-np.exp(-td / tau) + np.exp(-(td + tau_pulse) / tau)) + baseline
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out
