"""Robustness of designed pulses to time-constant mischaracterization.

The quantities here answer "how wrong can the assumed time constant be
before a designed pulse loses its advantage":

* :func:`sweep_transient_coefficient` tabulates the residual transient
  coefficient of the two-harmonic design on a grid of (w*tau, m) where m is
  the ratio of assumed to true time constant.
* :func:`net_zero_metrics` reports the per-period areas of the input voltage
  and of the capacitor voltage, the quantities a net-zero pulse constraint
  would control; designed pulses suppress the capacitor area without any
  explicit net-zero condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import positive, samples
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import RCLine, transient_coefficient
from fluxshape.synthesis import mischaracterized_transient_coefficient

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
    the grid is parameterized by ``omega*tau_true`` directly.  The m = 1
    column is exactly the design condition and vanishes identically.
    """
    wt = positive("omega_tau_values", samples("omega_tau_values", omega_tau_values))
    m = positive("m_values", samples("m_values", m_values))
    k = mischaracterized_transient_coefficient(b1, 1.0, wt[:, None], m[None, :])
    return SweepGrid(wt, m, k)


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
