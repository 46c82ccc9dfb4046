"""Fourier-series voltage pulses for flux control lines.

A pulse is a finite sine-cosine series with period ``tau_pulse``::

    V_in(t) = a0 + sum_n [ a_n cos(n w t) + b_n sin(n w t) ],   w = 2 pi / tau_pulse

with harmonic index n = 1 .. N.  Coefficients are in volts at the source.

Two endpoint residuals of the series are exposed here because they depend
only on the coefficients (plus, for the second one, a line time constant):

* :meth:`HarmonicPulse.condition_one_residual` is ``a0 + sum(a_n)``, the
  value of the voltage at the period boundaries.  Zero means the commanded
  voltage starts and ends each period at zero.
* :meth:`HarmonicPulse.condition_three_residual` is the cosine content of
  the current delivered through a first-order RC line with time constant
  ``tau``; zero means the delivered current starts and ends each period at
  zero.

The spectrum a first-order RC line leaves is defined here once, and the
closed forms of :mod:`fluxshape.rcline` read it: with ``x_n = n*w*tau`` each
harmonic ``(a_n, b_n)`` becomes ``(c_n, s_n) = (a_n - x_n b_n, x_n a_n +
b_n) / (1 + x_n^2)``, and the settling tail is ``k = a0 + sum(c_n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, integer, omega_tau_in_range, positive, samples

__all__ = ["HarmonicPulse"]


# points per block of the long-grid kernels (the Fourier sum here and the
# RK4 scan in rcline): a block's few complex buffers stay in cache, and no
# temporary grows with the grid
_BLOCK = 8192


def _fourier_sum(t, omega: float, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_n c_n cos(n w t) + s_n sin(n w t)`` over n = 1..len(c); zeros for an empty sum.

    The sum is ``Re sum_n (c_n - i s_n) z^n`` with ``z = exp(i w t)``,
    evaluated by Horner's rule from the top harmonic down (Clenshaw 1955).
    ``z`` comes from one tangent of the half angle: with ``u = tan(w t / 2)``
    and ``r = 2/(1 + u^2)``, ``cos(w t) = r - 1`` and ``sin(w t) = u r``, so
    each point costs one tangent whatever N is.  The points run in blocks of
    ``_BLOCK`` through a few block-sized buffers, so no temporary grows with
    the grid; a point's value does not depend on the block it falls in.
    """
    flat = np.ravel(t)
    if c.size == 0 or flat.size == 0:
        return np.zeros(np.shape(t))
    d = c - 1j * s
    size = min(flat.size, _BLOCK)
    u = np.empty(size)
    r = np.empty(size)
    z = np.empty(size, dtype=complex)
    acc = np.empty(size, dtype=complex)
    # products go to a second buffer: numpy's in-place complex multiply rounds
    # a one-element array differently, and a point's value must not depend on
    # the array it is evaluated in
    prod = np.empty(size, dtype=complex)
    out = np.empty(flat.size)
    # w t / 2 exactly, since 0.5 is a power of two
    half_omega = 0.5 * omega
    for start in range(0, flat.size, size):
        block = flat[start : start + size]
        if block.size < size:
            u, r, z, acc, prod = (buffer[: block.size] for buffer in (u, r, z, acc, prod))
        np.multiply(block, half_omega, out=u)
        np.tan(u, out=u)
        np.multiply(u, u, out=r)
        np.add(r, 1.0, out=r)
        np.divide(2.0, r, out=r)
        np.subtract(r, 1.0, out=z.real)
        np.multiply(u, r, out=z.imag)
        acc.fill(d[-1])
        for dn in d[-2::-1]:
            np.multiply(acc, z, out=prod)
            np.add(prod, dn, out=acc)
        np.multiply(acc, z, out=prod)
        out[start : start + size] = prod.real
    return out.reshape(np.shape(t))


def _line_filter(a, b, omega_tau):
    """``(n, c_n, s_n)``: the harmonics ``(a_n, b_n)`` leave on a line of fundamental ``omega_tau``.

    ``(c_n, s_n) = (a_n - x_n b_n, x_n a_n + b_n) / (1 + x_n^2)`` with ``x_n
    = n*omega_tau``.  The harmonic axis comes first: ``b`` has one entry per
    harmonic along it, ``a`` broadcasts against ``b``, and ``omega_tau`` (a
    float or an array) broadcasts against the axes after it.  The caller
    checks ``omega_tau``.
    """
    n = np.arange(1, len(b) + 1).reshape(-1, *(1,) * np.ndim(omega_tau))
    x = n * omega_tau
    denom = 1.0 + x * x
    return n, (a - x * b) / denom, (x * a + b) / denom


@dataclass(frozen=True)
class HarmonicPulse:
    """Finite Fourier series with period ``tau_pulse`` (seconds).

    ``a`` and ``b`` hold the cosine and sine coefficients for harmonics
    1..N and must have equal length.  The fundamental angular frequency is
    always derived from the period rather than stored separately.
    """

    tau_pulse: float
    a0: float = 0.0
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        a = samples("a", self.a, 0)
        b = samples("b", self.b, 0, size=a.size)
        object.__setattr__(self, "tau_pulse", positive("tau_pulse", self.tau_pulse))
        object.__setattr__(self, "a0", finite("a0", self.a0))
        object.__setattr__(self, "a", tuple(a.tolist()))
        object.__setattr__(self, "b", tuple(b.tolist()))

    @property
    def omega(self) -> float:
        """Fundamental angular frequency 2*pi/tau_pulse in rad/s."""
        return 2.0 * math.pi / self.tau_pulse

    @property
    def n_harmonics(self) -> int:
        return len(self.a)

    def evaluate(self, t):
        """Evaluate the series at time ``t`` (seconds; scalar or ndarray, any finite value)."""
        t = finite("t", np.asarray(t, dtype=float))
        out = _fourier_sum(t, self.omega, np.asarray(self.a), np.asarray(self.b))
        out += self.a0
        return float(out) if out.ndim == 0 else out

    def condition_one_residual(self) -> float:
        """Return ``a0 + sum(a_n)``, the series value at t = 0 and t = tau_pulse."""
        return self.a0 + float(np.sum(np.asarray(self.a)))

    def condition_three_residual(self, tau: float) -> float:
        """Cosine content of the current delivered through an RC line.

        For a line with time constant ``tau`` the steady-state delivered
        current at the period boundaries is proportional to ``sum_n n*s_n``,

            sum_n n * (n*w*tau*a_n + b_n) / (1 + (n*w*tau)^2)

        which this method returns.  Zero means the delivered current (and
        hence the delivered flux ramp) starts and ends each period at zero.
        """
        n, _, s = self._filtered_harmonics(tau)
        return float(np.sum(n * s))

    def _filtered_harmonics(self, tau: float):
        """``(n, c_n, s_n)``: the steady-state capacitor voltage's harmonics on a line ``tau`` (checked here)."""
        tau = positive("tau", tau)
        omega_tau_in_range("tau", self.omega * tau)
        return _line_filter(np.asarray(self.a), np.asarray(self.b), self.omega * tau)

    def sample(self, dt: float, n_periods: int = 1):
        """Sample the pulse on a uniform grid starting at t = 0.

        The grid covers ``n_periods * tau_pulse`` half-open (the final period
        boundary is excluded).  ``dt`` must not exceed a quarter period so
        every harmonic stays resolvable at the fundamental.

        Returns ``(t, v)`` arrays.
        """
        dt = positive("dt", dt)
        if dt > self.tau_pulse / 4.0:
            raise ValueError(
                f"dt={dt!r} undersamples the pulse; need dt <= tau_pulse/4 = {self.tau_pulse / 4.0!r}"
            )
        n_periods = integer("n_periods", n_periods, 1)
        total = n_periods * self.tau_pulse
        count = int(math.ceil(total / dt - 1e-9))
        t = np.arange(count) * dt
        return t, self.evaluate(t)
