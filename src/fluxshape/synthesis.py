"""Synthesis of transient-immune pulses and their mischaracterization residuals.

Given a line time constant ``tau_assumed``, the routines here choose the top
harmonic of a Fourier pulse so the decaying-exponential term of the line
response cancels exactly (see :func:`fluxshape.rcline.transient_coefficient`).
Because the true time constant is never known perfectly, each design is
paired with closed forms for the residual coefficient when the line actually
has ``tau_true = tau_assumed / m``:

* :func:`mischaracterized_transient_coefficient` for the two-harmonic sine
  design, exact in the mischaracterization factor ``m``;
* :func:`asymptotic_transient_coefficient` for the ``m >> 1`` limits of
  cosine-only, sine-only and two-harmonic designs, valid for ``w*tau > 1``.

The two-harmonic sine design with ``b2 = -2*b1`` (the ``m >> 1`` limit)
leaves a residual that falls off as ``3*b1/(4*(w*tau)^3)``, which is why a
single mischaracterized design still beats an undesigned pulse by orders of
magnitude at typical ``w*tau``.
"""

from __future__ import annotations

import math

import numpy as np

from fluxshape._checks import finite, omega_tau_in_range, positive
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import transient_coefficient

__all__ = [
    "solve_biharmonic",
    "solve_top_harmonic",
    "mischaracterized_transient_coefficient",
    "asymptotic_transient_coefficient",
]

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
    b2 = _biharmonic_b2(b1, omega * tau_assumed, "tau_assumed")
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
    numerically unable to influence the transient (degenerate design).
    """
    omega = positive("omega", omega)
    tau_assumed = positive("tau_assumed", tau_assumed)
    a0 = finite("a0", a0)
    # object dtype leaves the conversion to the check, which names a bad entry's field
    a_low = finite("a", np.asarray(a, dtype=object))
    b_low = finite("b", np.asarray(b, dtype=object))
    if np.ndim(a_low) != 1 or np.shape(a_low) != np.shape(b_low):
        raise ValueError("a and b must be 1-D sequences of equal length")
    if a_low.size < 1:
        raise ValueError("need at least one lower harmonic (N >= 2)")

    n_top = a_low.size + 1
    x_top = n_top * omega * tau_assumed
    denom_top = 1.0 + x_top * x_top
    if x_top / denom_top < _DEGENERACY_FLOOR:
        raise ValueError(
            f"tau_assumed makes the top harmonic degenerate: N*omega*tau = {x_top!r} leaves no leverage on the transient"
        )

    # the lower harmonics alone: their endpoint voltage and tail set the top harmonic's
    lower = HarmonicPulse(tau_pulse=2.0 * math.pi / omega, a0=a0, a=tuple(a_low), b=tuple(b_low))
    a_top = -lower.condition_one_residual()
    b_top = (a_top + transient_coefficient(lower, tau_assumed) * denom_top) / x_top
    pulse = HarmonicPulse(lower.tau_pulse, a0, (*lower.a, a_top), (*lower.b, b_top))
    return pulse, pulse.condition_three_residual(tau_assumed)


def mischaracterized_transient_coefficient(b1: float, omega: float, tau_true, m):
    """Residual transient coefficient of the two-harmonic design off-design.

    The pulse of :func:`solve_biharmonic` designed for ``tau_assumed =
    m * tau_true`` leaves, on the actual line, the explicit two-harmonic
    residual

        k = -x*b1/(1 + x^2) - 2x*b2/(1 + (2x)^2),    x = w*tau_true,

    with ``b2 = -(b1/2) * (1 + 4y^2) / (1 + y^2)`` and ``y = w*m*tau_true``.
    Exact in m; vanishes at m = 1 and approaches
    ``3*b1*w*tau / (1 + 5*(w*tau)^2 + 4*(w*tau)^4)`` as m grows.

    ``b1`` and ``omega`` are scalars; ``tau_true`` and ``m`` are scalars or
    arrays that broadcast against each other.  Returns a float for scalar
    input and an array of the broadcast shape otherwise.
    """
    b1 = finite("b1", b1)
    omega = positive("omega", omega)
    tau_true = positive("tau_true", np.asarray(tau_true))
    m = positive("m", np.asarray(m))
    x = omega_tau_in_range("tau_true", omega * tau_true)
    b2 = _biharmonic_b2(b1, omega * (m * tau_true), "m")
    x2 = 2.0 * x
    out = np.asarray(-(x * b1) / (1.0 + x * x) - (x2 * b2) / (1.0 + x2 * x2))
    return float(out) if out.ndim == 0 else out


def asymptotic_transient_coefficient(family: str, coeffs, omega: float, tau: float) -> float:
    """Residual transient coefficient of the ``m >> 1`` limiting designs.

    Valid in the short-pulse regime ``w*tau > 1`` (the pulse period below
    the line time constant); smaller products are rejected because the
    dominant-term simplification behind these forms breaks down there.

    ``family`` selects the closed form:

    * ``"cosine-only"``: coefficients are a_1..a_{N-1}; the limiting design
      sets a_N = -N^2 * sum(a_n / n^2) and leaves
      ``sum_n a_n/(1+(n w tau)^2) + a_N/(1+(N w tau)^2)``.
    * ``"sine-only"``: coefficients are b_1..b_{N-1}; the limiting design
      sets b_N = -N * sum(b_n / n) and leaves
      ``-w*tau*sum_n n*b_n/(1+(n w tau)^2) + N^2 w*tau*sum_n(b_n/n)/(1+(N w tau)^2)``.
    * ``"biharmonic"``: coefficients are [b1]; returns the deep-asymptotic
      form ``3*b1/(4*(w*tau)^3)`` of the b2 = -2*b1 design.

    The sine-only form at N = 2 reduces exactly to
    ``3*b1*w*tau/(1+5(w tau)^2+4(w tau)^4)``, of which the biharmonic form
    is the leading large-``w*tau`` term.
    """
    omega = positive("omega", omega)
    tau = positive("tau", tau)
    if omega * tau <= 1.0:
        raise ValueError(
            f"asymptotic forms require omega*tau > 1, got {omega * tau!r}"
        )
    c = finite("coeffs", np.asarray(coeffs))
    if np.ndim(c) != 1 or c.size < 1:
        raise ValueError("coeffs must be a non-empty 1-D sequence")
    if family == "biharmonic":
        if c.size != 1:
            raise ValueError("biharmonic family takes a single coefficient [b1]")
        wt = omega * tau
        return 3.0 * float(c[0]) / (4.0 * wt * wt * wt)
    n_top = c.size + 1
    n = np.arange(1, n_top)
    zeros = (0.0,) * n_top
    if family == "cosine-only":
        a, b = (*c, -float(n_top * n_top * np.sum(c / (n * n)))), zeros
    elif family == "sine-only":
        a, b = zeros, (*c, -float(n_top * np.sum(c / n)))
    else:
        raise ValueError(
            f"family must be 'cosine-only', 'sine-only' or 'biharmonic', got {family!r}"
        )
    return transient_coefficient(HarmonicPulse(2.0 * math.pi / omega, a=a, b=b), tau)
