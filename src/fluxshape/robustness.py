"""Robustness of designed pulses to time-constant mischaracterization.

The quantities here answer "how wrong can the assumed time constant be
before a designed pulse loses its advantage":

* :func:`sweep_transient_coefficient` tabulates the residual transient
  coefficient of the two-harmonic design on a grid of (w*tau, m) where m is
  the ratio of assumed to true time constant.
* :func:`compare_single_vs_biharmonic` contrasts an undesigned single-sine
  pulse with the m >> 1 limiting design (b2 = -2*b1) on the same line.
* :func:`net_zero_metrics` reports the per-period areas of the input voltage
  and of the capacitor voltage, the quantities a net-zero pulse constraint
  would control; designed pulses suppress the capacitor area without any
  explicit net-zero condition.
* :func:`phase_statistics` summarizes repeated acquired-phase measurements
  the way a histogram over experiment repetitions would be reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, positive
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import RCLine, transient_coefficient
from fluxshape.synthesis import mischaracterized_transient_coefficient

__all__ = [
    "SweepGrid",
    "PhaseStatistics",
    "default_sweep_axes",
    "sweep_transient_coefficient",
    "compare_single_vs_biharmonic",
    "net_zero_metrics",
    "phase_statistics",
]


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Residual transient coefficient over (omega*tau, m).

    ``k_exp[i, j]`` corresponds to ``omega_tau[i]`` and ``m[j]``.
    """

    omega_tau: np.ndarray
    m: np.ndarray
    k_exp: np.ndarray

    def __post_init__(self):
        wt = np.asarray(self.omega_tau, dtype=float)
        m = np.asarray(self.m, dtype=float)
        k = np.asarray(self.k_exp, dtype=float)
        if wt.ndim != 1 or m.ndim != 1 or k.shape != (wt.size, m.size):
            raise ValueError("k_exp must have shape (len(omega_tau), len(m))")
        object.__setattr__(self, "omega_tau", wt)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k_exp", k)


def default_sweep_axes(n_omega_tau: int = 50, n_m: int = 50):
    """Logarithmic axes covering omega*tau in [1, 30] and m in [0.01, 100]."""
    return (
        np.geomspace(1.0, 30.0, n_omega_tau),
        np.geomspace(0.01, 100.0, n_m),
    )


def sweep_transient_coefficient(b1: float, omega_tau_values, m_values) -> SweepGrid:
    """Tabulate the two-harmonic design's residual coefficient on a grid.

    The residual depends on omega and tau only through their product, so
    the grid is parameterized by ``omega*tau_true`` directly.  The m = 1
    column is exactly the design condition and vanishes identically.
    """
    wt = positive("omega_tau_values", np.asarray(omega_tau_values))
    m = positive("m_values", np.asarray(m_values))
    if np.ndim(wt) != 1 or np.ndim(m) != 1 or wt.size == 0 or m.size == 0:
        raise ValueError("omega_tau_values and m_values must be non-empty 1-D sequences")
    k = mischaracterized_transient_coefficient(b1, 1.0, wt[:, None], m[None, :])
    return SweepGrid(wt, m, k)


def compare_single_vs_biharmonic(b1: float, omega: float, tau: float):
    """Transient coefficients of a bare single-sine pulse and the b2 = -2*b1 design.

    Returns ``(k_single, k_biharmonic)`` on a line with time constant
    ``tau``.  The single sine scales as -w*tau/(1+(w*tau)^2) while the
    limiting design falls off as (w*tau)^-3, so the designed pulse wins for
    w*tau > 1/sqrt(2) and the orderings swap below the crossover.
    """
    tau_pulse = 2.0 * math.pi / positive("omega", omega)
    single = HarmonicPulse(tau_pulse=tau_pulse, b=(b1,), a=(0.0,))
    limiting = HarmonicPulse(tau_pulse=tau_pulse, b=(b1, -2.0 * b1), a=(0.0, 0.0))
    return transient_coefficient(single, tau), transient_coefficient(limiting, tau)


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


@dataclass(frozen=True)
class PhaseStatistics:
    """Sample statistics of repeated acquired-phase measurements."""

    mean: float
    std: float
    mean_stderr: float
    std_stderr: float
    n: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "mean_stderr": self.mean_stderr,
            "std_stderr": self.std_stderr,
            "n": self.n,
        }


def phase_statistics(samples) -> PhaseStatistics:
    """Mean and standard deviation of repeated measurements with standard errors.

    Uses the n-1 normalization for the standard deviation.  Standard errors
    are the Gaussian large-sample forms s/sqrt(n) for the mean and
    s/sqrt(2*(n-1)) for the standard deviation.
    """
    x = finite("samples", np.asarray(samples))
    if np.ndim(x) != 1 or x.size < 2:
        raise ValueError("need at least two samples")
    n = x.size
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    return PhaseStatistics(
        mean=mean,
        std=std,
        mean_stderr=std / math.sqrt(n),
        std_stderr=std / math.sqrt(2.0 * (n - 1)),
        n=n,
    )
