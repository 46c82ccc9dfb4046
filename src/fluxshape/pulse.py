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

The third residual of interest, the coefficient of the decaying-exponential
term in the line response, lives in :mod:`fluxshape.rcline` because it is a
property of the pulse-line pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, positive

__all__ = ["HarmonicPulse"]


def _fourier_sum(t: np.ndarray, omega: float, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_n c_n cos(n w t) + s_n sin(n w t)`` over n = 1..len(c); zeros for an empty sum."""
    n = np.arange(1, c.size + 1)
    theta = np.multiply.outer(t, n) * omega
    return (c * np.cos(theta) + s * np.sin(theta)).sum(axis=-1)


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
        a = tuple(finite("a", x) for x in self.a)
        b = tuple(finite("b", x) for x in self.b)
        if len(a) != len(b):
            raise ValueError(f"a and b must have equal length, got {len(a)} and {len(b)}")
        object.__setattr__(self, "tau_pulse", positive("tau_pulse", self.tau_pulse))
        object.__setattr__(self, "a0", finite("a0", self.a0))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def omega(self) -> float:
        """Fundamental angular frequency 2*pi/tau_pulse in rad/s."""
        return 2.0 * math.pi / self.tau_pulse

    @property
    def n_harmonics(self) -> int:
        return len(self.a)

    def evaluate(self, t):
        """Evaluate the series at time ``t`` (seconds; scalar or ndarray)."""
        t_arr = np.asarray(t, dtype=float)
        out = self.a0 + _fourier_sum(t_arr, self.omega, np.asarray(self.a), np.asarray(self.b))
        return float(out) if out.ndim == 0 else out

    def condition_one_residual(self) -> float:
        """Return ``a0 + sum(a_n)``, the series value at t = 0 and t = tau_pulse."""
        return self.a0 + float(np.sum(np.asarray(self.a)))

    def condition_three_residual(self, tau: float) -> float:
        """Cosine content of the current delivered through an RC line.

        For a line with time constant ``tau`` the steady-state delivered
        current at the period boundaries is proportional to

            sum_n n * (n*w*tau*a_n + b_n) / (1 + (n*w*tau)^2)

        which this method returns.  Zero means the delivered current (and
        hence the delivered flux ramp) starts and ends each period at zero.
        """
        tau = positive("tau", tau)
        n = np.arange(1, self.n_harmonics + 1)
        x = n * (self.omega * tau)
        a = np.asarray(self.a)
        b = np.asarray(self.b)
        return float(np.sum(n * (x * a + b) / (1.0 + x * x)))

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
        n_periods = int(n_periods)
        if n_periods < 1:
            raise ValueError(f"n_periods must be a positive integer, got {n_periods!r}")
        total = n_periods * self.tau_pulse
        count = int(math.ceil(total / dt - 1e-9))
        t = np.arange(count) * dt
        return t, self.evaluate(t)
