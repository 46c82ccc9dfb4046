"""Synthesis of transient-immune pulses.

Given a line time constant ``tau_assumed``, the routines here choose the top
harmonic of a Fourier pulse so the decaying-exponential term of the line
response cancels exactly (see :func:`fluxshape.rcline.transient_coefficient`).
Because the true time constant is never known perfectly, a design is also
judged on a line with ``tau_true = tau_assumed / m``: its residual there is
``transient_coefficient(pulse, tau_true)``, the one line-filtered spectrum
every closed form reads, and
:func:`fluxshape.robustness.sweep_transient_coefficient` tabulates it for
:func:`solve_biharmonic` over a grid of ``(w*tau_true, m)``.

The two-harmonic sine design with ``b2 = -2*b1`` (the ``m >> 1`` limit)
leaves a residual ``3*b1*w*tau/(1 + 5*(w*tau)^2 + 4*(w*tau)^4)``, which falls
off as ``3*b1/(4*(w*tau)^3)``; that is why a single mischaracterized design
still beats an undesigned pulse by orders of magnitude at typical ``w*tau``.
"""

from __future__ import annotations

import math

import numpy as np

from fluxshape._checks import finite, omega_tau_in_range, positive, samples
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import transient_coefficient

__all__ = ["solve_biharmonic", "solve_top_harmonic"]

# below this value the top-harmonic coefficient n*w*tau/(1+(n*w*tau)^2)
# cannot be inverted meaningfully
_DEGENERACY_FLOOR = 1e-12


def _biharmonic_b2(b1: float, omega_tau_assumed, name: str):
    """``b2 = -(b1/2) * (1 + 4y^2) / (1 + y^2)`` at y = ``omega_tau_assumed`` (float or array; ``name`` in errors)."""
    y = omega_tau_in_range(name, omega_tau_assumed)
    return -(b1 / 2.0) * (1.0 + 4.0 * y * y) / (1.0 + y * y)


def solve_biharmonic(b1: float, omega: float, tau_assumed: float) -> HarmonicPulse:
    """Two-harmonic sine pulse with zero transient coefficient at ``tau_assumed``.

    The second-harmonic amplitude is fixed by the fundamental:

        b2 = -(b1/2) * (1 + (2*w*tau)^2) / (1 + (w*tau)^2)

    which tends to ``-2*b1`` for w*tau >> 1 and ``-b1/2`` for w*tau << 1.
    """
    b1 = finite("b1", b1)
    if b1 == 0.0:
        raise ValueError(f"b1 must be finite and non-zero, got {b1!r}")
    omega = positive("omega", omega)
    tau_assumed = positive("tau_assumed", tau_assumed)
    # a b1 near the largest float overflows b2, which is refused
    b2 = finite("b2 from b1", _biharmonic_b2(b1, omega * tau_assumed, "tau_assumed"))
    return HarmonicPulse(tau_pulse=2.0 * math.pi / omega, a0=0.0, a=(0.0, 0.0), b=(b1, b2))


def solve_top_harmonic(a0: float, a, b, omega: float, tau_assumed: float):
    """Append harmonic N to cancel both endpoint voltage and line transient.

    ``a`` and ``b`` hold the caller-chosen coefficients of harmonics
    1..N-1 (so N = len(a) + 1 >= 2).  The returned pulse satisfies exactly

    * ``condition_one_residual() == 0``  (voltage zero at period edges), and
    * ``transient_coefficient(pulse, tau_assumed) == 0``  (no settling tail),

    while the current-endpoint residual is not controllable with a single
    extra harmonic; it is computed and returned alongside the pulse as
    ``(pulse, condition_three_residual)``.  For sine-only input it vanishes
    automatically because the transient coefficient of a sine series is
    ``-w*tau`` times the current-endpoint sum.

    Raises ValueError when ``N*w*tau`` makes the top-harmonic sine term
    numerically unable to influence the transient (degenerate design), and
    when the lower harmonics overflow the top harmonic's ``a_N`` or ``b_N``
    or the current-endpoint residual.
    """
    omega = positive("omega", omega)
    tau_assumed = positive("tau_assumed", tau_assumed)
    a0 = finite("a0", a0)
    # at least one lower harmonic, so N >= 2
    a_low = samples("a", a)
    b_low = samples("b", b, size=a_low.size)

    n_top = a_low.size + 1
    x_top = n_top * omega * tau_assumed
    denom_top = 1.0 + x_top * x_top
    if x_top / denom_top < _DEGENERACY_FLOOR:
        raise ValueError(
            f"tau_assumed makes the top harmonic degenerate: N*omega*tau = {x_top!r} leaves no leverage on the transient"
        )

    # the lower harmonics alone: their endpoint voltage and tail set the top harmonic's
    lower = HarmonicPulse(tau_pulse=2.0 * math.pi / omega, a0=a0, a=a_low, b=b_low)
    # lower harmonics near the largest float overflow the endpoint sum, the
    # tail, the top harmonic or the current residual: each is refused, with
    # no warning
    with np.errstate(over="ignore", invalid="ignore"):
        a_top = finite("a_N from a0 and a", -lower.condition_one_residual())
        b_top = finite("b_N from a0, a and b", (a_top + transient_coefficient(lower, tau_assumed) * denom_top) / x_top)
        pulse = HarmonicPulse(lower.tau_pulse, a0, (*lower.a, a_top), (*lower.b, b_top))
        return pulse, finite("condition_three_residual from a0, a and b", pulse.condition_three_residual(tau_assumed))
