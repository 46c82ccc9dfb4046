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

from fluxshape.pulse import HarmonicPulse

__all__ = [
    "solve_biharmonic",
    "solve_top_harmonic",
    "mischaracterized_transient_coefficient",
    "asymptotic_transient_coefficient",
]

# below this value the top-harmonic coefficient n*w*tau/(1+(n*w*tau)^2)
# cannot be inverted meaningfully
_DEGENERACY_FLOOR = 1e-12


def _validate_positive(name: str, value):
    """``value`` as a float, or a float array for array input; all positive and finite."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(arr) if arr.ndim == 0 else arr


def solve_biharmonic(b1: float, omega: float, tau_assumed: float) -> HarmonicPulse:
    """Two-harmonic sine pulse with zero transient coefficient at ``tau_assumed``.

    The second-harmonic amplitude is fixed by the fundamental:

        b2 = -(b1/2) * (1 + (2*w*tau)^2) / (1 + (w*tau)^2)

    which tends to ``-2*b1`` for w*tau >> 1 and ``-b1/2`` for w*tau << 1.
    """
    b1 = float(b1)
    if not (math.isfinite(b1) and b1 != 0.0):
        raise ValueError(f"b1 must be finite and non-zero, got {b1!r}")
    omega = _validate_positive("omega", omega)
    tau_assumed = _validate_positive("tau_assumed", tau_assumed)
    x = omega * tau_assumed
    b2 = -(b1 / 2.0) * (1.0 + 4.0 * x * x) / (1.0 + x * x)
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
    omega = _validate_positive("omega", omega)
    tau_assumed = _validate_positive("tau_assumed", tau_assumed)
    a0 = float(a0)
    a_low = np.asarray(a, dtype=float)
    b_low = np.asarray(b, dtype=float)
    if a_low.ndim != 1 or a_low.shape != b_low.shape:
        raise ValueError("a and b must be 1-D sequences of equal length")
    if a_low.size < 1:
        raise ValueError("need at least one lower harmonic (N >= 2)")
    if not np.all(np.isfinite(a_low)) or not np.all(np.isfinite(b_low)) or not math.isfinite(a0):
        raise ValueError("all coefficients must be finite")

    n_top = a_low.size + 1
    x_top = n_top * omega * tau_assumed
    denom_top = 1.0 + x_top * x_top
    if x_top / denom_top < _DEGENERACY_FLOOR:
        raise ValueError(
            f"top harmonic is degenerate: N*omega*tau = {x_top!r} leaves no leverage on the transient"
        )

    a_top = -(a0 + float(np.sum(a_low)))

    n = np.arange(1, n_top)
    x = n * (omega * tau_assumed)
    partial = a0 + float(np.sum((a_low - x * b_low) / (1.0 + x * x)))
    b_top = (a_top + partial * denom_top) / x_top

    pulse = HarmonicPulse(
        tau_pulse=2.0 * math.pi / omega,
        a0=a0,
        a=(*a_low, a_top),
        b=(*b_low, b_top),
    )
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
    b1 = float(b1)
    if not math.isfinite(b1):
        raise ValueError(f"b1 must be finite, got {b1!r}")
    omega = _validate_positive("omega", omega)
    tau_true = _validate_positive("tau_true", tau_true)
    m = _validate_positive("m", m)
    if b1 == 0.0:
        out = np.zeros(np.broadcast_shapes(np.shape(tau_true), np.shape(m)))
    else:
        y = omega * (m * tau_true)
        b2 = -(b1 / 2.0) * (1.0 + 4.0 * y * y) / (1.0 + y * y)
        x = omega * tau_true
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
    omega = _validate_positive("omega", omega)
    tau = _validate_positive("tau", tau)
    if omega * tau <= 1.0:
        raise ValueError(
            f"asymptotic forms require omega*tau > 1, got {omega * tau!r}"
        )
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("coeffs must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(c)):
        raise ValueError("all coefficients must be finite")
    if family == "biharmonic":
        if c.size != 1:
            raise ValueError("biharmonic family takes a single coefficient [b1]")
        wt = omega * tau
        return 3.0 * float(c[0]) / (4.0 * wt * wt * wt)
    n = np.arange(1, c.size + 1)
    n_top = c.size + 1
    x = n * (omega * tau)
    x_top = n_top * omega * tau
    if family == "cosine-only":
        a_top = -float(n_top * n_top * np.sum(c / (n * n)))
        return float(np.sum(c / (1.0 + x * x))) + a_top / (1.0 + x_top * x_top)
    if family == "sine-only":
        b_top = -float(n_top * np.sum(c / n))
        return -(omega * tau) * (
            float(np.sum(n * c / (1.0 + x * x))) + n_top * b_top / (1.0 + x_top * x_top)
        )
    raise ValueError(
        f"family must be 'cosine-only', 'sine-only' or 'biharmonic', got {family!r}"
    )
