"""Recover the line time constant from simulated Ramsey quadratures.

:func:`run_pipeline` is the entry point.  It mirrors the experimental
analysis chain, one private kernel per stage, each stage named as in
:attr:`PipelineResult.stages`:

1. ``unwrap`` (:func:`_unwrap`) turns (X, Y) quadratures into a continuous
   phase.
2. ``smooth`` (:func:`_savgol`) suppresses readout noise with a local
   polynomial (Savitzky-Golay) filter whose edge windows are truncated
   one-sided fits, its weights summed over Gram polynomials.
3. ``frequency`` (:func:`_frequency`) differentiates the phase
   (second-order central differences, one-sided at the ends) to get the
   detuning in Hz.
4. ``flux-inversion`` (:func:`_to_flux`) inverts the dressed-frequency map
   in closed form on the monotone flux branch containing the idle point.
5. ``fit`` (:func:`_fit`) fits the square-pulse transient template
   ``A * (-exp(-d/tau) + exp(-(d+tau_pulse)/tau)) + B`` by variable
   projection: A and B solved in closed form, and log tau found as a root
   of the cost's derivative, started from a closed-form estimate.

Each input is checked once, by the stage that uses it, and the pipeline
reports the fitted time constant, the acquired phase and one ``(name,
seconds, shape)`` record per stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, integer, length, positive, samples
from fluxshape.device import CouplerDevice, dressed_qubit_frequency

__all__ = [
    "TransientFit",
    "PipelineResult",
    "run_pipeline",
]

_QUADRATURE_FLOOR = 1e-12
# bound on the evaluations of the root search in _fit; from the
# whole range, bisection alone reaches the 1e-9 stop in 34
_ROOT_STEPS = 64
# floats in one block of stacked Savitzky-Golay edge polynomials, so that a
# wide window's edge rows take a few MB, not one (half x order x window) stack
_SG_BLOCK = 2**16


def _unwrap(x, y):
    """Continuous phase from quadratures, first point kept at its raw value.

    Successive differences are folded into (-pi, pi] before accumulating, so
    the result is free of 2*pi jumps as long as the underlying phase moves
    less than pi per sample.  Raises when a quadrature is not finite, when
    the two differ in length, or when a point has magnitude below 1e-6
    (phase undefined there).
    """
    x = samples("x", np.atleast_1d(x))
    y = samples("y", np.atleast_1d(y), size=x.size)
    if (x * x + y * y < _QUADRATURE_FLOOR).any():
        raise ValueError("quadrature magnitude too small to define a phase")
    out = np.arctan2(y, x)
    d = out[1:] - out[:-1]
    d -= 2.0 * np.pi * np.rint(d / (2.0 * np.pi))  # rint is np.round at zero decimals
    np.add.accumulate(d, out=out[1:])
    out[1:] += out[0]
    return out


def _savgol(y, window_points, poly_order):
    """Savitzky-Golay smoothing of the unwrapped phase ``y``, with truncated one-sided edge windows.

    Interior points use the standard symmetric least-squares polynomial
    window (Savitzky & Golay 1964); within half a window of either end the
    window is clipped at the boundary and the polynomial is refit one-sided,
    so no points are discarded and no data is mirrored or extrapolated in.

    Point ``i <= half`` from the left fits the ``m = i + half + 1`` points
    ``j = 0..m-1``; a window of at most ``poly_order + 1`` points
    interpolates, so the point keeps its sample.  Otherwise point ``j``
    weighs ``sum_k q_k(j) q_k(i)`` over the window's Gram polynomials (Gram
    1883) normalized on its points, built without a factorization by the
    Stieltjes procedure: ``q_{k+1}`` is ``xi * q_k`` less its projections on
    ``q_0..q_k``, normalized.  Rows are built in blocks of about 2**16
    floats; row ``half`` is convolved over the interior, and the right edge
    is the left edge of the reversed series.
    """
    window_points = integer("window_points", window_points, 3)
    if window_points % 2 == 0:
        raise ValueError(f"window_points must be odd, got {window_points}")
    n = length("phase", y.size, window_points)
    poly_order = integer("poly_order", poly_order, 1, window_points - 1)
    if poly_order == window_points - 1:
        return y.copy()  # every window interpolates
    half = window_points // 2
    rows_per_block = max(1, _SG_BLOCK // (window_points * (poly_order + 1)))
    fitted = max(poly_order - half + 1, 0)  # the rows before it interpolate
    out = np.empty(n)
    out[:fitted], out[n - fitted :] = y[:fitted], y[n - fitted :]
    j = np.arange(window_points)
    for start in range(fitted, half + 1, rows_per_block):
        i = np.arange(start, min(start + rows_per_block, half + 1))
        m1 = (i + float(half))[:, None]  # m - 1
        xi = (j - 0.5 * m1) / m1
        # q[r, k] is q_k of row r, 0 past the row's window as q_0 is; Gram's
        # three-term recurrence skips the projections on q_0..q_k-2, but its
        # rounding grows at the window's ends once k passes about sqrt(2m)
        q = np.empty((i.size, poly_order + 1, window_points))
        np.divide(j <= m1, np.sqrt(m1 + 1.0), out=q[:, 0])
        for k in range(1, poly_order + 1):
            v = xi * q[:, k - 1]
            v -= ((v[:, None] @ q[:, :k].swapaxes(1, 2)) @ q[:, :k])[:, 0]
            np.divide(v, np.sqrt(v[:, None] @ v[..., None])[:, 0], out=q[:, k])
        weights = (q[np.arange(i.size), :, i][:, None] @ q)[:, 0]
        kernel = weights[-1]
        # row half lands on the first and last interior points, which the
        # convolution below overwrites
        out[start : start + i.size] = weights @ y[:window_points]
        out[n - start - i.size : n - start] = (weights @ y[::-1][:window_points])[::-1]
    out[half : n - half] = np.convolve(y, kernel[::-1], mode="valid")
    return out


def _frequency(phase, dt):
    """Detuning in Hz from a phase record of at least three samples, sampled every ``dt`` seconds.

    Second-order central differences, second-order one-sided at both ends:
    ``np.gradient(phase, dt, edge_order=2)``'s stencils, bit for bit.
    """
    dt = positive("dt", dt)
    out = np.empty(phase.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal dt gives inf and nan, which _to_flux refuses
        out[1:-1] = (phase[2:] - phase[:-2]) / (2.0 * dt)
        out[0] = -1.5 / dt * phase[0] + 2.0 / dt * phase[1] - 0.5 / dt * phase[2]
        out[-1] = 0.5 / dt * phase[-3] - 2.0 / dt * phase[-2] + 1.5 / dt * phase[-1]
        return out / (2.0 * np.pi)


def _to_flux(shifts, device: CouplerDevice, phi_idle):
    """Invert the dressed-frequency map around the idle flux, in closed form.

    ``shifts``, a 1-D float array, is the detuning in Hz from the dressed
    frequency at ``phi_idle``.  The branch satisfies ``(omega - omega_q) * (omega -
    omega_c) = g**2``, which gives ``omega_c`` and then ``cos(pi * phi) =
    (omega_c / omega_max)**2`` on the half-period containing the idle point,
    where the map is monotone.  Raises for ``g = 0`` (the qubit does not
    follow the flux), and when any requested frequency leaves the branch's
    range: the whole trace is refused, naming its first such sample by index
    and detuning, rather than clipped, because a clipped sample would hand a
    corrupted record to the transient fit.
    """
    phi_idle = finite("phi_idle", phi_idle)
    if device.g == 0.0:
        raise ValueError("g must be positive to invert the flux branch, got 0.0")
    half = math.floor(phi_idle * 2.0)
    lo_edge = half / 2.0
    hi_edge = lo_edge + 0.5
    idle, f_lo, f_hi = dressed_qubit_frequency(np.array([phi_idle, lo_edge, hi_edge]), device).tolist()
    target = idle + 2.0 * np.pi * shifts
    f_min, f_max = min(f_lo, f_hi), max(f_lo, f_hi)
    # omega_q has no finite omega_c, and a nan detuning (a subnormal dt's) is outside too
    outside = np.flatnonzero(~((target >= f_min) & (target <= f_max)) | (target == device.omega_q))
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"sample {i} detunes {shifts[i].item()!r} Hz, outside the flux branch's range of "
            f"[{(f_min - idle) / (2.0 * np.pi):.6g}, {(f_max - idle) / (2.0 * np.pi):.6g}] Hz from the idle point"
        )

    # omega_c = target - g**2/(target - omega_q), then the arc, in place; the
    # square is never negative, so only its top needs clipping
    arc = np.subtract(target, device.omega_q)
    np.divide(device.g * device.g, arc, out=arc)
    np.subtract(target, arc, out=arc)
    arc /= device.omega_max
    np.arccos(np.minimum(np.square(arc, out=arc), 1.0, out=arc), out=arc)
    arc /= np.pi
    # the flux map peaks at integer flux: it rises out of hi_edge on an odd
    # half-period and out of lo_edge on an even one
    return np.add(lo_edge, arc, out=arc) if half % 2 == 0 else np.subtract(hi_edge, arc, out=arc)


@dataclass(frozen=True)
class TransientFit:
    """Result of fitting the square-pulse transient template.

    The last four fields are the fit's diagnostics (see :func:`_fit`);
    their defaults describe a flat record, which leaves nothing to fit.
    """

    amplitude: float
    offset: float
    tau: float
    residual_rms: float
    converged: bool
    tau_stderr: float = math.nan
    cost: float = 0.0
    interior: bool = False
    iterations: int = 0


def _fit(y, d, tau_pulse) -> TransientFit:
    """Fit ``A * (-exp(-d/tau) + exp(-(d+tau_pulse)/tau)) + B`` to the flux record ``y`` at delays ``d``.

    ``y`` and ``d`` are finite 1-D float arrays of one length, ``d`` strictly
    increasing; the record needs at least 8 samples.

    Variable projection (Golub & Pereyra 1973): A and B are linear, so each
    tau gets them in closed form, leaving a one-dimensional problem in
    ``u = log(tau/span)`` over ``tau`` in ``[span/1000, 1000*span]``.  A
    record ``B + C * exp(-d/tau)`` obeys ``y = alpha + beta * S + gamma * x``
    with ``x = (d - d0)/span``, ``S`` the running trapezoid integral of
    ``y`` over ``x`` and ``beta = -span/tau`` (Jacquelin 2009).  Gram-Schmidt
    on ``[1, S, x]`` gives ``beta``'s least-squares value in closed form and
    starts the search at ``u0 = log(-1/beta)``; when ``beta`` is not
    negative and finite, or ``u0`` is outside the range, there is no start,
    and the fit evaluates ``u = 0`` once and reports it as not interior.

    A safeguarded root search (Brent 1973) solves ``g(u) = r . P(dmodel/du)
    = 0``, ``r`` the weighted residual at the optimal A and B and ``P`` the
    projection off ``[w * shape, w]``; by the envelope theorem ``g`` is half
    the cost's derivative.  Gauss-Newton, ``-g/|P J|**2``, takes the first
    step and secants on ``g`` the later ones; a step that leaves the bracket
    or fails to halve becomes bisection, and the sign of ``g`` shrinks the
    bracket.  It stops after a step below 1e-10 or a bracket below 1e-9, and
    its last point gives tau, A, B and the diagnostics.  With ``e1 =
    exp(-d/tau)`` and ``c = exp(-tau_pulse/tau)``, shape is ``(c-1) * e1``
    and dshape/du ``(c-1)/tau * e1 * (d + c*tau_pulse/(c-1))``, whose second
    term is in the span of ``e1``: so each evaluation takes one exponential,
    regresses the weighted, centred data and ``e1 * d`` on ``e1`` in one
    matrix product and puts the constant factors back into A, ``g`` and
    ``|P J|**2``, which come from the 2x2 Gram matrix of the residual rows,
    formed directly to keep full precision near an exact fit.

    The cost is ``sum((w * (model - y))**2)``, the weights uniform but half
    at both ends.  ``interior``: there is a start and the search ends more
    than 1e-9 inside the range.  ``iterations`` counts the evaluations.
    ``tau_stderr`` is ``sqrt(cost/(n-3) * [(J^T W^2 J)^-1]_tau,tau)`` with
    ``J = [shape, 1, A * dshape/dtau]``.  ``converged`` needs ``interior``,
    finite A, B and tau, and ``tau_stderr`` at most 10% of tau; a fit that
    does not converge reports where its search stopped, on an aliased record
    perhaps a local minimum.
    """
    n = length("flux", y.size, 8)
    tau_pulse = positive("tau_pulse", tau_pulse)
    offset0 = float(y[-1])
    if (y == offset0).all():
        return TransientFit(0.0, offset0, float("nan"), 0.0, False)

    w = np.ones(n)
    w[0] = w[-1] = 0.5
    wn = w * w / float(w @ w)  # z @ wn is z's w**2-weighted mean
    span = float(d[-1] - d[0])
    # e1 * d and e1 = exp(-d/tau); then the root search's rows: the data,
    # e1 * d and e1, each less its weighted mean and times w
    raw, rows = np.empty((2, n)), np.empty((3, n))
    # the range is on log(tau/span), so it never depends on the data
    edge_lo, edge_hi = math.log(1e-3), math.log(1e3)
    with np.errstate(all="ignore"):
        ybar = float(y @ wn)
        rows[0] = w * (y - ybar)
        # the start u0 = log(-1/beta), beta from the fit of y on [1, S, x]
        # by Gram-Schmidt: y's coefficient on centred S less its projection on x
        x = (d - d[0]) / span
        s = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
        x -= x.sum() / n
        s -= s.sum() / n
        s -= (s @ x / (x @ x)) * x
        beta = (s @ y) / (s @ s)
        u = float(np.log(-1.0 / beta))
        start = edge_lo < u < edge_hi
        # without a start the bracket collapses on u = 0, which stops the
        # search after its first evaluation
        lo, hi, u = (edge_lo, edge_hi, u) if start else (0.0, 0.0, 0.0)
        step = math.inf  # no step taken yet
        for iterations in range(1, _ROOT_STEPS + 1):
            tau = span * math.exp(u)
            np.exp(d / -tau, out=raw[1])
            np.multiply(raw[1], d, out=raw[0])
            means = raw @ wn
            np.multiply(w, raw - means[:, None], out=rows[1:])
            # on e1, the data's slope is (c - 1) A and e1 * d's residual row
            # -P(dshape/du) tau/(c - 1), c = exp(-tau_pulse/tau)
            dots = rows @ rows[2]
            slopes = dots[:2] / dots[2]
            resid = np.multiply.outer(slopes, rows[2])
            resid -= rows[:2]
            (cost, rj), (_, jr) = (resid @ resid.T).tolist()
            a = slopes[0] / tau  # numpy, so a zero jj or g - g_last bisects, not raises
            g, jj = -a * rj, a * a * jr
            # g < 0: the cost still falls at u, so the minimum lies above it
            lo, hi = (u, hi) if g < 0.0 else (lo, u)
            if abs(step) < 1e-10 or hi - lo < 1e-9:
                break
            # Gauss-Newton first, then secants on g
            new = -g / jj if step == math.inf else -g * (u - u_last) / (g - g_last)
            if not (lo <= u + new <= hi and abs(new) <= 0.5 * abs(step)):
                new = 0.5 * (lo + hi) - u
            u_last, g_last, step = u, g, new
            u = u + new
        amp = float(slopes[0] / math.expm1(-tau_pulse / tau))
        off = ybar - float(slopes[0] * means[1])
        # the residual row is w * (model - y), and w is 1/2 at both ends
        residual_rms = math.sqrt((cost + 3.0 * (resid[0, 0] ** 2 + resid[0, -1] ** 2)) / n)
        # the tau entry of (J^T W^2 J)^-1 is tau**2 over |P J|**2, J the u column
        tau_se = tau * math.sqrt(cost / (n - 3) / jj)
    # a search that ends within its 1e-9 bracket tolerance of an edge ran
    # into that edge rather than onto a minimum
    interior = bool(start and edge_lo + 1e-9 < u < edge_hi - 1e-9)
    converged = interior and all(map(math.isfinite, (amp, off, tau))) and tau_se <= 0.1 * tau
    return TransientFit(amp, off, tau, residual_rms, converged, tau_se, cost, interior, iterations)


@dataclass(frozen=True)
class PipelineResult:
    """Stage outputs of the extraction chain, and each stage's ``(name, seconds, output shape)``."""

    phase: np.ndarray
    frequency_shift_hz: np.ndarray
    flux: np.ndarray
    fit: TransientFit
    acquired_phase: float
    stages: tuple


def run_pipeline(
    x, y, dt: float, device: CouplerDevice, phi_idle: float, tau_pulse: float, window_points: int = 11, poly_order: int = 3
) -> PipelineResult:
    """Run unwrap -> smooth -> differentiate -> flux inversion -> template fit.

    ``x`` and ``y`` are Ramsey quadratures on a uniform delay grid starting
    at zero with spacing ``dt``.  The acquired phase is the final smoothed
    phase minus the mean of the first three samples.  Each input is checked
    once, in the stage that uses it, and a failure is re-raised with the
    stage name prefixed; of the arrays built here only the delay grid, which
    a ``dt`` near the largest float overflows, is checked.
    """
    stages = []
    raw_phase = _run_stage(stages, "unwrap", lambda: _unwrap(x, y))
    phase = _run_stage(stages, "smooth", lambda: _savgol(raw_phase, window_points, poly_order))
    freq = _run_stage(stages, "frequency", lambda: _frequency(phase, dt))
    flux = _run_stage(stages, "flux-inversion", lambda: _to_flux(freq, device, phi_idle))
    delays = np.arange(phase.size) * dt
    fit = _run_stage(stages, "fit", lambda: _fit(flux, finite("delays", delays), tau_pulse))
    # np.mean's sum and division, without its wrapper
    acquired = float(phase[-1] - np.add.reduce(phase[:3]) / 3)
    return PipelineResult(phase, freq, flux, fit, acquired, tuple(stages))


def _run_stage(stages: list, name: str, thunk):
    start = time.perf_counter()
    try:
        out = thunk()
    except ValueError as exc:
        raise ValueError(f"{name} stage: {exc}") from exc
    stages.append((name, time.perf_counter() - start, getattr(out, "shape", ())))
    return out
