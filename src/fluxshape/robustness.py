"""Robustness of designed pulses to time-constant mischaracterization.

The quantities here answer "how wrong can the assumed time constant be
before a designed pulse loses its advantage":

* :func:`sweep_transient_coefficient` tabulates the residual transient
  coefficient of the two-harmonic design on a grid of (w*tau, m) where m is
  the ratio of assumed to true time constant; each cell is read from the
  line-filtered spectrum of :mod:`fluxshape.pulse`, as every closed form is.
* :func:`net_zero_metrics` reports the per-period areas of the input voltage
  and of the capacitor voltage, the quantities a net-zero pulse constraint
  would control; designed pulses suppress the capacitor area without any
  explicit net-zero condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, omega_tau_in_range, positive, samples
from fluxshape.pulse import HarmonicPulse, _line_filter
from fluxshape.rcline import RCLine, transient_coefficient
from fluxshape.synthesis import _biharmonic_b2

__all__ = [
    "SweepGrid",
    "default_sweep_axes",
    "sweep_transient_coefficient",
    "net_zero_metrics",
]


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Residual transient coefficient over (omega*tau, m).

    ``k_exp[i, j]`` corresponds to ``omega_tau[i]`` and ``m[j]``.
    """

    omega_tau: np.ndarray
    m: np.ndarray
    k_exp: np.ndarray


def default_sweep_axes():
    """50-point logarithmic axes covering omega*tau in [1, 30] and m in [0.01, 100]."""
    return np.geomspace(1.0, 30.0, 50), np.geomspace(0.01, 100.0, 50)


def sweep_transient_coefficient(b1: float, omega_tau_values, m_values) -> SweepGrid:
    """Tabulate the two-harmonic design's residual coefficient on a grid.

    The residual depends on omega and tau only through their product, so
    the grid is parameterized by ``x = omega*tau_true`` directly.  Each cell
    is the transient coefficient, on the line ``x``, of the
    :func:`~fluxshape.synthesis.solve_biharmonic` pulse designed for ``m*x``,
    read from the one line-filtered spectrum every closed form uses.  The
    m = 1 column is exactly the design condition and vanishes identically.
    """
    b1 = finite("b1", b1)
    wt = positive("omega_tau_values", samples("omega_tau_values", omega_tau_values))
    x = omega_tau_in_range("omega_tau_values", wt[:, None])
    m = positive("m_values", samples("m_values", m_values))
    # a b1 near the largest float overflows b2 or the line filter: each is
    # refused, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        b2 = _biharmonic_b2(b1, m * x, "m_values")
        # harmonics first: b is (b1, b2) over the grid, and a sine design has no a_n
        _, c, _ = _line_filter(0.0, np.array([np.full_like(b2, b1), b2]), x)
        return SweepGrid(wt, m, finite("k_exp from b1", c.sum(axis=0)))


def net_zero_metrics(pulse: HarmonicPulse, line: RCLine) -> dict:
    """Per-period areas of the input and of the capacitor voltage.

    ``input_area`` is the analytic integral of the input over one period,
    ``a0 * tau_pulse`` (the oscillatory terms integrate to zero exactly).
    ``capacitor_area`` integrates the closed-form capacitor voltage over the
    first period from zero pre-history:

        a0 * tau_pulse - k * tau * (1 - exp(-tau_pulse/tau))

    with k the transient coefficient.  A pulse can be net-zero at the source
    (a0 = 0) yet leave capacitor area behind; the designed pulses drive the
    capacitor area down by cancelling k instead.
    """
    period = pulse.tau_pulse
    k = transient_coefficient(pulse, line.tau)
    input_area = pulse.a0 * period
    capacitor_area = pulse.a0 * period - k * line.tau * (1.0 - math.exp(-period / line.tau))
    return {"input_area": input_area, "capacitor_area": capacitor_area}
