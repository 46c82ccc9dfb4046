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

:func:`integrate_line_response` integrates the same equation on a uniform
grid with fixed-step fourth-order Runge-Kutta, for any vectorized waveform
callable.  It shares no code with the closed forms, so agreement between the
two is a meaningful check rather than a tautology.

The residual flux after a square pulse on a first-order high-pass line is
the tail of :func:`fluxshape.device.square_transient_waveform` and the
template of the extraction's transient fit; its one closed form here is
private, and that waveform is its public path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluxshape._checks import nonnegative, positive, samples, steps
from fluxshape.pulse import _BLOCK, HarmonicPulse, _fourier_sum

__all__ = [
    "RCLine",
    "transient_coefficient",
    "capacitor_voltage",
    "line_current",
    "integrate_line_response",
]

# steps per row of the RK4 block scan; rows of 32 or 128 steps measured slower
_CHUNK = 64


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


def _decay(t, tau: float, scale: float) -> np.ndarray:
    """``scale * exp(-t/tau)`` in one array shaped like ``t`` (0-d for a 0-d ``t``)."""
    # t / -tau is -t / tau bit for bit: rounding is symmetric in sign; a
    # subnormal tau overflows it to -inf, where the tail rightly vanishes
    with np.errstate(over="ignore"):
        out = np.divide(t, -tau, out=np.empty(np.shape(t)))
    np.exp(out, out=out)
    out *= scale
    return out


def _add_decay(out, t, tau: float, scale: float) -> None:
    """``out += scale * exp(-t/tau)``, the tail made by :func:`_decay` one block of ``_BLOCK`` points at a time."""
    # x + (-y) is x - y bit for bit, so a caller subtracts with -scale
    flat, out = np.ravel(t), out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        out[start : start + _BLOCK] += _decay(flat[start : start + _BLOCK], tau, scale)


def capacitor_voltage(pulse: HarmonicPulse, line: RCLine, t):
    """Closed-form capacitor voltage for zero pre-history, valid for t >= 0."""
    _, c, s = pulse._filtered_harmonics(line.tau)
    k = pulse.a0 + float(np.sum(c))
    t = nonnegative("t", np.asarray(t, dtype=float))
    # the periodic steady state (the t >> tau limit) less the decaying tail
    out = _fourier_sum(t, pulse.omega, c, s)
    out += pulse.a0
    _add_decay(out, t, line.tau, -k)
    return float(out) if out.ndim == 0 else out


def line_current(pulse: HarmonicPulse, line: RCLine, t):
    """Closed-form delivered current I = C * dV_c/dt for zero pre-history, valid for t >= 0."""
    n, c, s = pulse._filtered_harmonics(line.tau)
    k = pulse.a0 + float(np.sum(c))
    t = nonnegative("t", np.asarray(t, dtype=float))
    # derivative of the steady state: w * sum_n n*(s_n cos - c_n sin), w in C*w
    out = _fourier_sum(t, pulse.omega, n * s, -(n * c))
    out *= line.capacitance * pulse.omega
    _add_decay(out, t, line.tau, k / line.resistance)
    return float(out) if out.ndim == 0 else out


def _eval_waveform(fn, t: np.ndarray) -> np.ndarray:
    """``fn(t)`` from one call on the 1-D grid ``t``.

    The result must be a finite float array of ``t``'s length; a refusal
    names ``waveform``.
    """
    return samples("waveform", np.asarray(fn(t), dtype=float), size=t.size)


def _rk4_affine_coefficients(z):
    """One-step classical RK4 for tau*v' = f - v written as an affine map.

    With z = h/tau the update is v_next = A*v + B0*f(t) + Bm*f(t+h/2) + B1*f(t+h),
    whose coefficients are the polynomials below, each in Horner form.
    """
    a = 1.0 + z * (-1.0 + z * (1.0 / 2.0 + z * (-1.0 / 6.0 + z * (1.0 / 24.0))))
    b0 = z * (1.0 / 6.0 + z * (-1.0 / 6.0 + z * (1.0 / 12.0 + z * (-1.0 / 24.0))))
    bm = z * (2.0 / 3.0 + z * (-1.0 / 3.0 + z * (1.0 / 12.0)))
    return a, b0, bm, z / 6.0


def _lower_toeplitz(column: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix whose first column is ``column``."""
    # row r is the window of the zero-padded column that ends at column[r], reversed
    padded = np.concatenate([np.zeros(column.size - 1), column])
    return np.lib.stride_tricks.sliding_window_view(padded, column.size)[:, ::-1].copy()


def integrate_line_response(v_in, line: RCLine, t_grid):
    """Integrate tau*dV_c/dt + V_c = V_in(t) from V_c = 0 with fixed-step classical RK4.

    ``v_in`` maps time in seconds to volts: a vectorized callable, called
    once on the nodes and once on the midpoints, whose result must be a
    finite array shaped like its argument.
    ``t_grid`` must be finite, strictly increasing and uniform, its steps
    spreading by at most 4 ulp of its largest magnitude (``np.linspace`` and
    ``np.arange(n) * dt`` grids spread by 2), none above tau/50 and, for an
    oscillatory input, all well below its period.

    With the step ``(t[-1] - t[0]) / n``, one RK4 step is v_next = a*v + F
    with a scalar a.  Each block of ``_BLOCK`` steps, in rows of ``_CHUNK``, is two
    products: with the Toeplitz matrix of a**(j - i), solving each row from
    zero charge, and of (a**_CHUNK)**(r - 1 - s), giving the row starts.

    Returns ``(v_c, i)`` arrays aligned with ``t_grid``, where the delivered
    current is ``(V_in - V_c) / R``.
    """
    t = samples("t_grid", t_grid, 2)
    h = steps("t_grid", t)
    tau = line.tau
    max_h, min_h = float(np.max(h)), float(np.min(h))
    if max_h > tau / 50.0 * (1.0 + 1e-12):
        raise ValueError(f"integration step {max_h!r} exceeds tau/50 = {tau / 50.0!r}; refine the grid")
    if max_h - min_h > 4.0 * np.spacing(max(abs(t[0]), abs(t[-1]))):
        raise ValueError(f"t_grid must be uniformly spaced, got steps from {min_h!r} to {max_h!r}")
    n = h.size
    a, b0, bm, b1 = _rk4_affine_coefficients(float(t[-1] - t[0]) / n / tau)

    # the nodes are evaluated once and the midpoints, in the steps' buffer, once
    # more; each grid-sized buffer goes before the next one comes
    f = _eval_waveform(v_in, t)
    h *= 0.5
    h += t[:-1]
    fm = _eval_waveform(v_in, h)
    del h

    rows = min(-(-n // _CHUNK), _BLOCK // _CHUNK)
    powers = a ** np.arange(_CHUNK + 1)
    row_powers = a ** (_CHUNK * np.arange(rows))
    within = _lower_toeplitz(powers[:-1]).T
    across = _lower_toeplitz(np.append(0.0, row_powers[:-1]))
    forced, scratch = np.empty((2, rows, _CHUNK))
    # whole rows: the last block writes its padding steps past the grid's end
    v = np.zeros(-(-n // _CHUNK) * _CHUNK + 1)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        m = stop - start
        if m < forced.size:
            # the last block's padding steps force nothing: a stale nan would reach every product
            rows = -(-m // _CHUNK)
            forced, scratch, across = forced[:rows], scratch[:rows], across[:rows, :rows]
            forced.reshape(-1)[m:] = 0.0
        flat, tmp = forced.reshape(-1)[:m], scratch.reshape(-1)[:m]
        np.multiply(f[start:stop], b0, out=flat)
        flat += np.multiply(fm[start:stop], bm, out=tmp)
        flat += np.multiply(f[start + 1 : stop + 1], b1, out=tmp)
        np.matmul(forced, within, out=scratch)
        starts = across @ scratch[:, -1]
        starts += row_powers[:rows] * v[start]
        np.multiply(starts[:, None], powers[1:], out=forced)
        np.add(scratch, forced, out=v[start + 1 : start + 1 + forced.size].reshape(rows, _CHUNK))
    del fm
    v = v[: t.size]
    # a fresh array: f may be the caller's own, such as t_grid for lambda s: s
    i = np.subtract(f, v)
    i /= line.resistance
    return v, i


def _square_tail(amplitude: float, tau_pulse: float, tau: float, t_delay) -> np.ndarray:
    """Residual flux ``t_delay`` past the trailing edge of a square pulse through a first-order high-pass line.

    A pulse of height ``amplitude`` and width ``tau_pulse`` leaves

        amplitude * (-exp(-t_delay/tau) + exp(-(t_delay + tau_pulse)/tau)),

    the template the transient fit of :mod:`fluxshape.extraction` fits;
    here on checked values, in one array shaped like ``t_delay``.
    """
    # -x/tau is x/-tau bit for bit, and -e1 + e2 is e2 - e1; a subnormal tau
    # overflows the exponents to -inf, where the tail rightly vanishes
    out = np.add(t_delay, tau_pulse, out=np.empty(np.shape(t_delay)))
    with np.errstate(over="ignore"):
        out /= -tau
        np.exp(out, out=out)
        out -= np.exp(np.divide(t_delay, -tau))
    out *= amplitude
    return out
