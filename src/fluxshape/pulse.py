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

The series and those closed forms are one Fourier sum, computed on two
paths.  A uniform 1-D grid of at least ``_GRID_MIN`` points (``np.linspace``,
``np.arange(n) * dt``, the RK4 oracle's midpoints) is one real matrix
product of row and column factors; any other input (a scalar, a 2-D array, a
short or non-uniform array) is summed by Horner's rule point by point.  The
test for a uniform grid builds its ideal nodes ``T_r + k*step`` in the output
buffer from one two-term matrix product and bounds their difference from the
grid by its max and its min.  The
two agree to the sum's rounding bound, not bit for bit, so only on the Horner
path is a time's value the same in every array it is evaluated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, integer, omega_tau_in_range, positive, samples

__all__ = ["HarmonicPulse"]


# points per block of the long-grid kernels (the Horner sum here and the RK4
# scan in rcline): a block's few complex buffers stay in cache, and no
# temporary grows with the grid
_BLOCK = 8192

# the matrix path of the Fourier sum: points per row; the fewest points it
# takes (below about 4096, Horner measured as fast for N = 1..16, on one
# OpenBLAS thread of a 2-vCPU Xeon); and, in ulp of the grid's larger end,
# how far a node may lie from t0 + j*step
_ROW = 256
_GRID_MIN = 4096
_GRID_ULP = 2.0


def _fourier_sum(t, omega: float, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_n c_n cos(n w t) + s_n sin(n w t)`` over n = 1..len(c); zeros for an empty sum.

    The sum is ``Re sum_n (c_n - i s_n) z^n`` with ``z = exp(i w t)``; ``z``
    comes from one tangent of the half angle: with ``u = tan(w t / 2)`` and
    ``r = 2/(1 + u^2)``, ``cos(w t) = r - 1`` and ``sin(w t) = u r``.  It has
    two paths:

    * The matrix path takes a 1-D ``t`` of at least ``_GRID_MIN`` points
      whose every node lies within ``_GRID_ULP`` ulp of max(|t0|, |tn|) of
      ``t0 + j*step``, ``step = (tn - t0)/(len(t) - 1)``.  The grid is cut
      into rows of ``_ROW`` points: node j = r*_ROW + k sits at the row
      start ``T_r`` plus ``k*step``.  The test runs in the output buffer:
      the nodes of the whole rows are ``[T_r, 1] @ [1; k*step]``, one matrix
      product with two terms, so each is the correctly rounded sum ``T_r +
      k*step``; the grid is subtracted, and the max and the min of the
      differences are held to the tolerance, which also refuses a nan.  As
      ``z^n = exp(i n w T_r) exp(i n w k step)``, the sum over the whole
      rows is one real matrix product of (rows x 2N) row factors, the real
      and imaginary parts of ``(c_n - i s_n) exp(i n w T_r)``, with (2N x
      _ROW) column factors: one tangent per row and per column, the powers
      by repeated products.  The last row's leftover points take the Horner
      path.
    * Any other input (0-d, 2-D, short, or not uniform) runs Horner's rule from
      the top harmonic down (Clenshaw 1955), one tangent per point, in blocks
      of ``_BLOCK`` through a few block-sized buffers.  A point's value on this
      path does not depend on the array or the block it falls in.

    Both paths stay within ``2 eps N (1 + max|w t|) sum_n (|c_n| + |s_n|)``
    of the exact sum at the array's own float times.  They do not agree bit
    for bit, so a time can give a value on a long grid that differs in its
    last bits from its value as a scalar.  No temporary grows with the grid
    on either path.
    """
    flat = np.ravel(t)
    if c.size == 0 or flat.size == 0:
        return np.zeros(np.shape(t))
    d = c - 1j * s
    # w t / 2 exactly, since 0.5 is a power of two
    half_omega = 0.5 * omega
    out = np.empty(flat.size)
    done = _grid_sum(flat, half_omega, d, out) if np.ndim(t) == 1 and flat.size >= _GRID_MIN else 0
    if done < flat.size:
        _horner_sum(flat[done:], half_omega, d, out[done:])
    return out.reshape(np.shape(t))


def _unit_phasor(t, half_omega: float, u, r, z) -> None:
    """``z = exp(i w t)`` from ``u = tan(w t / 2)``, through the buffers ``u`` and ``r``."""
    np.multiply(t, half_omega, out=u)
    np.tan(u, out=u)
    np.multiply(u, u, out=r)
    np.add(r, 1.0, out=r)
    np.divide(2.0, r, out=r)
    np.subtract(r, 1.0, out=z.real)
    np.multiply(u, r, out=z.imag)


def _powers(t, half_omega: float, n: int) -> np.ndarray:
    """``(len(t), n)``: ``z, z^2, ..., z^n`` with ``z = exp(i w t)``, by repeated products, for a short ``t``."""
    out = np.empty((t.size, n), dtype=complex)
    _unit_phasor(t, half_omega, np.empty(t.size), np.empty(t.size), out[:, 0])
    for k in range(1, n):
        np.multiply(out[:, k - 1], out[:, 0], out=out[:, k])
    return out


def _grid_sum(t, half_omega: float, d, out) -> int:
    """The matrix path on the whole rows of the 1-D ``t`` into ``out``: the points done, 0 if ``t`` is not uniform."""
    rows, rest = divmod(t.size, _ROW)
    first, last = float(t[0]), float(t[-1])
    step = (last - first) / (t.size - 1)
    if not math.isfinite(step):
        return 0
    # the row starts t0 + r*_ROW*step, the leftover's too, then the column
    # offsets negated, -k*step
    angles = np.empty(rows + (rest > 0) + _ROW)
    starts, back = angles[: -_ROW], angles[-_ROW:]
    np.multiply(np.arange(0, t.size, _ROW), step, out=starts)
    starts += first
    np.multiply(np.arange(0, -_ROW, -1), step, out=back)
    tolerance = _GRID_ULP * np.spacing(max(abs(first), abs(last)))
    # the middle node and the leftover first, so that most grids that are not
    # uniform cost no pass over the grid
    middle = abs(starts[rows // 2] - t[rows // 2 * _ROW])
    leftover = np.abs(starts[-1] - back[:rest] - t[rows * _ROW :])
    if not (middle <= tolerance and np.all(leftover <= tolerance)):
        return 0
    # the whole rows' nodes [T_r, 1] @ [1; k*step]: both products are exact,
    # so each node is the correctly rounded sum T_r + k*step; a nan fails the max
    ends = np.column_stack((starts[:rows], np.ones(rows)))
    grid = np.matmul(ends, np.stack((np.ones(_ROW), -back)), out=out[: rows * _ROW].reshape(rows, _ROW))
    grid -= t[: rows * _ROW].reshape(rows, _ROW)
    if not (np.max(grid) <= tolerance and np.min(grid) >= -tolerance):
        return 0
    # rows: (c_n - i s_n) exp(i n w T_r); columns: exp(-i n w k step), the
    # conjugate, so that the interleaved real and imaginary parts of the two
    # make Re of their product in one real matmul
    powers = _powers(angles, half_omega, d.size)
    left = np.multiply(powers[:rows], d, out=powers[:rows])
    np.matmul(left.view(float), powers[-_ROW:].view(float).T, out=grid)
    return grid.size


def _horner_sum(t, half_omega: float, d, out) -> None:
    """The Horner path of :func:`_fourier_sum` on the flat ``t`` into ``out``."""
    size = min(t.size, _BLOCK)
    u = np.empty(size)
    r = np.empty(size)
    z = np.empty(size, dtype=complex)
    acc = np.empty(size, dtype=complex)
    # products go to a second buffer: numpy's in-place complex multiply rounds
    # a one-element array differently, and a point's value must not depend on
    # the array it is evaluated in
    prod = np.empty(size, dtype=complex)
    for start in range(0, t.size, size):
        block = t[start : start + size]
        if block.size < size:
            u, r, z, acc, prod = (buffer[: block.size] for buffer in (u, r, z, acc, prod))
        _unit_phasor(block, half_omega, u, r, z)
        acc.fill(d[-1])
        for dn in d[-2::-1]:
            np.multiply(acc, z, out=prod)
            np.add(prod, dn, out=acc)
        np.multiply(acc, z, out=prod)
        out[start : start + size] = prod.real


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
