"""Recover the line time constant from simulated Ramsey quadratures.

The pipeline mirrors the experimental analysis chain:

1. :func:`unwrap_phase` turns (X, Y) quadratures into a continuous phase.
2. :func:`savgol_smooth` suppresses readout noise with a local polynomial
   (Savitzky-Golay) filter whose edge windows are truncated one-sided fits.
3. :func:`frequency_from_phase` differentiates the phase (second-order
   central differences, one-sided at the ends) to get the detuning in Hz.
4. :func:`frequency_to_flux` inverts the dressed-frequency map in closed
   form on the monotone flux branch containing the idle point.
5. :func:`fit_transient` fits the square-pulse transient template
   ``A * (-exp(-d/tau) + exp(-(d+tau_pulse)/tau)) + B`` by variable
   projection: A and B solved in closed form, log tau bracketed by two
   scans of the cost and then found as a root of the cost's derivative.

:func:`run_pipeline` chains the stages and reports the fitted time constant
together with the total acquired phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import finite, integer, positive
from fluxshape.device import CouplerDevice, dressed_qubit_frequency

__all__ = [
    "TransientFit",
    "PipelineResult",
    "unwrap_phase",
    "savgol_smooth",
    "frequency_from_phase",
    "frequency_to_flux",
    "fit_transient",
    "run_pipeline",
]

_QUADRATURE_FLOOR = 1e-12
# positions of the 16 points of one log-tau scan across its bracket
_SCAN = np.linspace(0.0, 1.0, 16)
# bound on the evaluations of the root search in fit_transient; from the
# second scan's bracket, bisection alone reaches the 1e-9 stop in 28
_ROOT_STEPS = 64
# floats in one block of stacked Savitzky-Golay edge designs, so that a wide
# window's edge fits take a few MB, not one (half x window x order) stack
_SG_BLOCK = 2**16


def unwrap_phase(x, y) -> np.ndarray:
    """Continuous phase from quadratures, first point kept at its raw value.

    Successive differences are folded into (-pi, pi] before accumulating, so
    the result is free of 2*pi jumps as long as the underlying phase moves
    less than pi per sample.  Raises when a quadrature is not finite or a
    point has magnitude below 1e-6 (phase undefined there).
    """
    x = finite("x", np.atleast_1d(x))
    y = finite("y", np.atleast_1d(y))
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if np.any(x * x + y * y < _QUADRATURE_FLOOR):
        raise ValueError("quadrature magnitude too small to define a phase")
    raw = np.arctan2(y, x)
    d = np.diff(raw)
    d -= 2.0 * np.pi * np.round(d / (2.0 * np.pi))
    return np.concatenate([[raw[0]], raw[0] + np.cumsum(d)])


def savgol_smooth(series, window_points: int, poly_order: int) -> np.ndarray:
    """Savitzky-Golay smoothing with truncated one-sided edge windows.

    Interior points use the standard symmetric least-squares polynomial
    window (Savitzky & Golay 1964); within half a window of either end the
    window is clipped at the boundary and the polynomial is refit one-sided,
    so no points are discarded and no data is mirrored or extrapolated in.

    Point ``i <= half`` from the left fits offsets ``-i..half``, scaled by
    ``1/half``.  Its Vandermonde design, zero-padded to ``window_points``
    rows, has as pseudo-inverse that of the clipped design followed by zero
    columns, so the first row of that pseudo-inverse is the point's weight
    vector on the first ``window_points`` samples.  The padded designs are
    stacked and inverted by one ``np.linalg.pinv`` call per block of about
    2**16 floats (one block at the default window); row ``half`` is the
    symmetric window convolved over the interior, and the right edge is the
    left edge of the reversed series.
    """
    y = finite("series", np.atleast_1d(series))
    if y.ndim != 1:
        raise ValueError("series must be 1-D")
    n = y.size
    window_points = integer("window_points", window_points, 3)
    if window_points % 2 == 0:
        raise ValueError(f"window_points must be odd, got {window_points}")
    if window_points > n:
        raise ValueError(f"window_points={window_points} exceeds series length {n}")
    poly_order = integer("poly_order", poly_order, 1, window_points - 1)

    half = window_points // 2
    head, tail = y[:window_points], y[::-1][:window_points]
    powers = np.arange(poly_order + 1)
    rows_per_block = max(1, _SG_BLOCK // (window_points * powers.size))
    out = np.empty(n)
    for start in range(0, half + 1, rows_per_block):
        stop = min(start + rows_per_block, half + 1)
        offsets = np.arange(window_points) - np.arange(start, stop)[:, None]
        # abscissae scaled to [-1, 1] keep wide windows well conditioned
        design = np.where((offsets <= half)[..., None], (offsets[..., None] / half) ** powers, 0.0)
        weights = np.linalg.pinv(design)[:, 0]
        # row half lands on the first and last interior points, which the
        # convolution below overwrites
        out[start:stop] = weights @ head
        out[n - stop : n - start] = (weights @ tail)[::-1]
    out[half : n - half] = np.convolve(y, weights[-1][::-1], mode="valid")
    return out


def frequency_from_phase(phase, dt: float) -> np.ndarray:
    """Detuning in Hz from a phase record sampled every ``dt`` seconds.

    Uses second-order central differences with second-order one-sided
    stencils at both ends (the behavior of ``np.gradient``).
    """
    phase = finite("phase", np.atleast_1d(phase))
    if phase.ndim != 1 or phase.size < 3:
        raise ValueError("phase must be 1-D with at least three points")
    dt = positive("dt", dt)
    return np.gradient(phase, dt, edge_order=2) / (2.0 * np.pi)


def frequency_to_flux(freq_shift_hz, device: CouplerDevice, phi_idle: float):
    """Invert the dressed-frequency map around the idle flux, in closed form.

    ``freq_shift_hz`` is the detuning from the dressed frequency at
    ``phi_idle``.  The branch satisfies ``(omega - omega_q) * (omega -
    omega_c) = g**2``, which gives ``omega_c`` and then ``cos(pi * phi) =
    (omega_c / omega_max)**2`` on the half-period containing the idle point,
    where the map is monotone.  Raises for ``g = 0`` (the qubit does not
    follow the flux), and when any requested frequency leaves the branch's
    range: the whole trace is refused, naming its first such sample by index
    and detuning, rather than clipped, because a clipped sample would hand a
    corrupted record to the transient fit.
    """
    phi_idle = finite("phi_idle", phi_idle)
    shifts = finite("freq_shift_hz", np.atleast_1d(freq_shift_hz))
    if device.g == 0.0:
        raise ValueError("g must be positive to invert the flux branch, got 0.0")
    idle = dressed_qubit_frequency(phi_idle, device)
    target = idle + 2.0 * np.pi * shifts

    half = math.floor(phi_idle * 2.0)
    lo_edge = half / 2.0
    hi_edge = lo_edge + 0.5
    f_lo = dressed_qubit_frequency(lo_edge, device)
    f_hi = dressed_qubit_frequency(hi_edge, device)
    f_min, f_max = min(f_lo, f_hi), max(f_lo, f_hi)
    outside = np.flatnonzero((target < f_min) | (target > f_max))
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"sample {i} detunes {shifts[i].item()!r} Hz, outside the flux branch's range of "
            f"[{(f_min - idle) / (2.0 * np.pi):.6g}, {(f_max - idle) / (2.0 * np.pi):.6g}] Hz from the idle point"
        )

    omega_c = target - device.g * device.g / (target - device.omega_q)
    arc = np.arccos(np.clip((omega_c / device.omega_max) ** 2, 0.0, 1.0)) / np.pi
    # the flux map peaks at integer flux: it rises out of hi_edge on an odd
    # half-period and out of lo_edge on an even one
    phi = lo_edge + arc if half % 2 == 0 else hi_edge - arc
    return float(phi[0]) if np.ndim(freq_shift_hz) == 0 else phi


@dataclass(frozen=True)
class TransientFit:
    """Result of fitting the square-pulse transient template.

    The last four fields are the fit's diagnostics (see :func:`fit_transient`);
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


def _fit_rows(rows: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares fit of data ``y`` to ``[shape, 1]`` for each row, in place.

    ``rows`` holds ``w * shape`` and ``v`` holds ``w * (y - ybar)``, ``ybar``
    the ``w**2``-weighted mean.  Returns the slopes and leaves the weighted
    residuals in ``rows``, formed directly rather than from normal-equation
    sums so that their norms keep full precision near an exact fit.
    """
    rows -= (rows @ w / (w @ w))[:, None] * w
    slope = rows @ v / np.einsum("ij,ij->i", rows, rows)
    rows *= slope[:, None]
    rows -= v
    return slope


def fit_transient(flux, delays, tau_pulse: float, weights=None) -> TransientFit:
    """Fit ``A * (-exp(-d/tau) + exp(-(d+tau_pulse)/tau)) + B`` to a flux record.

    Variable projection (Golub & Pereyra 1973): A and B are linear, so each
    tau gets them from a closed-form weighted least-squares solve, leaving a
    one-dimensional problem in ``u = log(tau/span)``.  A 16-point scan over
    ``tau`` in ``[span/1000, 1000*span]`` and a second over the two cells
    around its best point bracket the minimum.  Inside that bracket a
    safeguarded root search (Brent 1973) solves ``g(u) = r . P(dmodel/du) =
    0``, ``r`` the weighted residual at the optimal A and B and ``P`` the
    projection off ``[w * shape, w]``: by the envelope theorem ``g`` is half
    the derivative of the cost.  The first step is Gauss-Newton,
    ``-g/|P J|**2``, later ones are secants on ``g``; a step that leaves the
    bracket or fails to halve is replaced by bisection, and the sign of
    ``g`` shrinks the bracket.  The search stops after a step below 1e-10
    or once the bracket is below 1e-9, and the last point evaluated gives
    tau, A, B and the diagnostics.

    The cost is ``sum((w * (model - y))**2)``; default weights are uniform
    except the two endpoints at half weight.  ``interior`` is true when the
    first scan's best point is not at an end of the range, and
    ``iterations`` counts the root search's evaluations.  ``tau_stderr`` is
    ``sqrt(cost/(n-3) * [(J^T W^2 J)^-1]_tau,tau)`` with ``J = [shape, 1,
    A * dshape/dtau]``.  ``converged`` needs ``interior``, finite A, B and
    tau, and ``tau_stderr`` at most 10% of tau.
    """
    y = finite("flux", np.atleast_1d(flux))
    d = finite("delays", np.atleast_1d(delays))
    if y.ndim != 1 or y.shape != d.shape:
        raise ValueError("flux and delays must be 1-D arrays of equal length")
    if y.size < 8:
        raise ValueError(f"need at least 8 samples to fit, got {y.size}")
    if np.any(np.diff(d) <= 0.0):
        raise ValueError("delays must be strictly increasing")
    tau_pulse = positive("tau_pulse", tau_pulse)
    if weights is None:
        w = np.ones(y.size)
        w[0] = w[-1] = 0.5
    else:
        w = finite("weights", np.atleast_1d(weights))
        if w.shape != y.shape or np.any(w < 0.0):
            raise ValueError("weights must be non-negative and match the data length")

    offset0 = y[-1]
    if float(np.max(np.abs(y - offset0))) == 0.0:
        return TransientFit(0.0, offset0, float("nan"), 0.0, False)

    w2 = w * w

    def centred(z):
        # w * (z - zbar), zbar the w**2-weighted mean of z
        return w * (z - (z @ w2) / w2.sum())

    span = d[-1] - d[0]
    # the range is on log(tau/span), so it never depends on the data
    lo, hi = math.log(1e-3), math.log(1e3)
    with np.errstate(all="ignore"):
        v = centred(y)
        for scan in range(2):
            grid = lo + (hi - lo) * _SCAN
            # exp(-d/tau) is the template up to a per-row factor, which the
            # fitted amplitude absorbs
            rows = np.multiply.outer(-np.exp(-grid) / span, d)
            np.exp(rows, out=rows)
            rows *= w
            _fit_rows(rows, v, w)
            cost = np.einsum("ij,ij->i", rows, rows)
            best = int(np.argmin(np.where(np.isfinite(cost), cost, np.inf)))
            if scan == 0:
                interior = 0 < best < grid.size - 1
            lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]

        u = grid[best]
        step = math.inf  # no step taken yet
        for iterations in range(1, _ROOT_STEPS + 1):
            tau = float(span * np.exp(u))
            e1 = np.exp(-d / tau)
            e2 = e1 * math.exp(-tau_pulse / tau)
            shape = e2 - e1
            resid = (w * shape)[None, :]
            amp = _fit_rows(resid, v, w)[0]
            # regressing w * dshape/du on [w * shape, w] leaves -P(J)/A in jac
            jac = (w * shape)[None, :]
            _fit_rows(jac, centred((e2 * (d + tau_pulse) - e1 * d) / tau), w)
            resid, jac = resid[0], -amp * jac[0]
            g = resid @ jac
            jj = jac @ jac
            # g < 0: the cost still falls at u, so the minimum lies above it
            if g < 0.0:
                lo = u
            else:
                hi = u
            if abs(step) < 1e-10 or hi - lo < 1e-9:
                break
            # Gauss-Newton first, then secants on g
            new = -g / jj if step == math.inf else -g * (u - u_last) / (g - g_last)
            if not (lo <= u + new <= hi and abs(new) <= 0.5 * abs(step)):
                new = 0.5 * (lo + hi) - u
            u_last, g_last, step = u, g, new
            u = u + new

        amp = float(amp)
        off = float((y - amp * shape) @ w2 / w2.sum())
        cost = float(resid @ resid)
        # the tau entry of (J^T W^2 J)^-1 is tau**2 over |P J|**2, J the u column
        tau_se = float(tau * np.sqrt(cost / (y.size - 3) / jj))
        residual_rms = float(np.sqrt(np.mean((amp * shape + off - y) ** 2)))
    converged = bool(interior and np.all(np.isfinite([amp, off, tau])) and tau_se <= 0.1 * tau)
    return TransientFit(amp, off, tau, residual_rms, converged, tau_se, cost, interior, iterations)


@dataclass(frozen=True)
class PipelineResult:
    """Stage outputs of the full extraction chain."""

    phase: np.ndarray
    frequency_shift_hz: np.ndarray
    flux: np.ndarray
    fit: TransientFit
    acquired_phase: float


def run_pipeline(
    x,
    y,
    dt: float,
    device: CouplerDevice,
    phi_idle: float,
    tau_pulse: float,
    window_points: int = 11,
    poly_order: int = 3,
) -> PipelineResult:
    """Run unwrap -> smooth -> differentiate -> flux inversion -> template fit.

    ``x`` and ``y`` are Ramsey quadratures on a uniform delay grid starting
    at zero with spacing ``dt``.  The acquired phase is the final smoothed
    phase minus the mean of the first three samples.  Stage failures are
    re-raised with the stage name prefixed.
    """
    raw_phase = _run_stage("unwrap", lambda: unwrap_phase(x, y))
    phase = _run_stage("smooth", lambda: savgol_smooth(raw_phase, window_points, poly_order))
    freq = _run_stage("frequency", lambda: frequency_from_phase(phase, dt))
    flux = _run_stage("flux-inversion", lambda: frequency_to_flux(freq, device, phi_idle))
    delays = np.arange(phase.size) * dt
    fit = _run_stage("fit", lambda: fit_transient(flux, delays, tau_pulse))
    acquired = float(phase[-1] - np.mean(phase[:3]))
    return PipelineResult(phase, freq, flux, fit, acquired)


def _run_stage(name: str, thunk):
    try:
        return thunk()
    except ValueError as exc:
        raise ValueError(f"{name} stage: {exc}") from exc
