import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.signal
from numpy.testing import assert_allclose

from fluxshape import (
    CouplerDevice,
    RamseyConfig,
    TransientFit,
    dressed_qubit_frequency,
    run_pipeline,
    simulate_ramsey,
    square_transient_waveform,
)
import fluxshape._checks
from fluxshape.extraction import _ROOT_STEPS, _fit, _frequency, _savgol, _to_flux, _unwrap
from fluxshape.rcline import _square_tail

from conftest import GHZ, MHZ, reference_device


def test_unwrap_linear_ramp():
    true = 0.3 + np.linspace(0.0, 12.0, 200)
    got = _unwrap(np.cos(true), np.sin(true))
    assert_allclose(got, true, rtol=1e-12)


def test_unwrap_matches_numpy_unwrap():
    rng = np.random.default_rng(8)
    true = np.cumsum(rng.uniform(-2.5, 2.5, 300))
    x, y = np.cos(true), np.sin(true)
    assert_allclose(_unwrap(x, y), np.unwrap(np.arctan2(y, x)), rtol=1e-12, atol=1e-12)


def test_unwrap_validation():
    with pytest.raises(ValueError):
        _unwrap([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        _unwrap([1.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        _unwrap([[1.0]], [[0.0]])


def test_savgol_matches_scipy_interior():
    rng = np.random.default_rng(2)
    y = np.sin(np.linspace(0, 6, 100)) + rng.normal(0, 0.1, 100)
    ours = _savgol(y, 11, 3)
    ref = scipy.signal.savgol_filter(y, 11, 3)
    assert_allclose(ours[5:-5], ref[5:-5], rtol=1e-12, atol=1e-12)


def test_savgol_reproduces_cubic_exactly():
    t = np.arange(40, dtype=float)
    y = 0.5 - 0.2 * t + 0.01 * t**2 - 3e-4 * t**3
    # a cubic is inside the model space of every window, edges included
    assert_allclose(_savgol(y, 11, 3), y, atol=1e-9)


def _per_point_savgol(y, window_points, poly_order):
    """Savitzky-Golay by one pinv per window: the centre one and one for each edge point."""
    half = window_points // 2
    n = y.size

    def weights(offsets):
        # the abscissae scaled by half keep the Vandermonde well conditioned
        return np.linalg.pinv(np.vander(offsets / half, poly_order + 1, increasing=True))[0]

    out = np.empty(n)
    out[half : n - half] = np.convolve(y, weights(np.arange(-half, half + 1))[::-1], mode="valid")
    for i in range(half):
        out[i] = weights(np.arange(-i, half + 1)) @ y[: i + half + 1]
    for i in range(n - half, n):
        out[i] = weights(np.arange(-half, n - i)) @ y[i - half :]
    return out


def test_savgol_matches_the_per_point_loop():
    rng = np.random.default_rng(4)
    for window in range(3, 52, 2):
        for order in range(1, min(window - 1, 5) + 1):
            for n in (window, window + 1, 241):
                y = rng.normal(0.0, 3.0, n)
                err = np.max(np.abs(_savgol(y, window, order) - _per_point_savgol(y, window, order)))
                assert err <= 1e-12 * np.max(np.abs(y)), (window, order, n, err)


def test_savgol_wide_window_reproduces_its_polynomial():
    # on raw integer offsets the edge fits of this window lose ~1e-8 of the
    # signal to the Vandermonde conditioning
    t = np.linspace(-1.0, 1.0, 241)
    y = np.polynomial.polynomial.polyval(t, [0.3, -1.0, 0.5, 2.0, -0.7, 0.1, 0.4])
    assert np.max(np.abs(_savgol(y, 101, 6) - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("window, order", [(11, 10), (7, 6), (5, 4), (11, 7)])
def test_savgol_interpolated_rows_keep_their_sample(window, order):
    # a clipped window of at most order + 1 points is interpolated, which pinv
    # reached through its rank-deficient branch: the weight is the unit vector
    # on the point's own sample; at order window - 1 that takes every row
    y = np.random.default_rng(9).normal(0.0, 3.0, 41)
    got = _savgol(y, window, order)
    interpolated = min(order - window // 2 + 1, window // 2 + 1)
    assert np.array_equal(got[:interpolated], y[:interpolated])
    assert np.array_equal(got[y.size - interpolated :], y[y.size - interpolated :])
    assert np.max(np.abs(got - _per_point_savgol(y, window, order))) <= 1e-12 * np.max(np.abs(y))
    if order == window - 1:
        assert np.array_equal(got, y)


def _exact_savgol_row(m, i, poly_order):
    """Weights of the degree-``poly_order`` least-squares fit to points 0..m-1, read at point i.

    Exact rationals: Gauss-Jordan on the normal equations of the monomials
    of ``j - i``, so that the fit's value at i is its constant coefficient.
    """
    offsets = [j - i for j in range(m)]
    size = poly_order + 1
    rows = [[Fraction(sum(o ** (a + b) for o in offsets)) for b in range(size)] + [Fraction(a == 0)] for a in range(size)]
    for c in range(size):
        pivot = [v / rows[c][c] for v in rows[c]]
        rows = [pivot if r == c else [v - row[c] * p for v, p in zip(row, pivot)] for r, row in enumerate(rows)]
    return np.array([float(sum(row[-1] * o**a for a, row in enumerate(rows))) for o in offsets])


@pytest.mark.parametrize("window, order", [(51, 20), (101, 30)])
def test_savgol_high_order_rows_match_exact_weights(window, order):
    # monomial designs lose these rows to their conditioning: one QR of the
    # scaled Vandermonde put row 0 off by 6.4e-2 at (51, 20) and by 2.1 at (101, 30)
    y = np.random.default_rng(12).normal(0.0, 3.0, 3 * window)
    got = _savgol(y, window, order)
    half = window // 2
    for i in (0, half // 2, half):
        weights = _exact_savgol_row(i + half + 1, i, order)
        assert abs(got[i] - weights @ y[: i + half + 1]) <= 1e-12 * np.max(np.abs(y)), i
        assert abs(got[-1 - i] - weights @ y[::-1][: i + half + 1]) <= 1e-12 * np.max(np.abs(y)), i


def test_savgol_wide_window_memory_is_bounded():
    # the edge rows' polynomials are built in blocks; one (501, 4, 1001)
    # stack of float64 alone would take 16 MB
    y = np.random.default_rng(6).normal(size=1001)
    tracemalloc.start()
    try:
        _savgol(y, 1001, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_savgol_reduces_noise():
    rng = np.random.default_rng(3)
    y = rng.normal(0.0, 1.0, 500)
    smooth = _savgol(y, 11, 3)
    assert np.var(smooth[10:-10]) < 0.5 * np.var(y)


def test_savgol_validation():
    y = np.zeros(20)
    with pytest.raises(ValueError):
        _savgol(y, 10, 3)
    with pytest.raises(ValueError):
        _savgol(y, 1, 0)
    with pytest.raises(ValueError):
        _savgol(y, 21, 3)
    with pytest.raises(ValueError):
        _savgol(y, 11, 11)
    with pytest.raises(ValueError):
        _savgol(y, 11, 0)
    # sizes are never truncated: 11.9 is not 11
    with pytest.raises(ValueError, match="^window_points must be an integer, got 11.9$"):
        _savgol(y, 11.9, 3)
    with pytest.raises(ValueError, match="^poly_order must be an integer, got 3.7$"):
        _savgol(y, 11, 3.7)


def test_frequency_from_phase_quadratic():
    dt = 0.25e-6
    t = np.arange(101) * dt
    phase = 0.4 + 2.0 * np.pi * (3e4 * t + 2e9 * t**2)
    freq = _frequency(phase, dt)
    assert_allclose(freq, 3e4 + 2.0 * 2e9 * t, rtol=1e-9)


def test_frequency_from_phase_constant_tone():
    dt = 1e-6
    t = np.arange(64) * dt
    freq = _frequency(2.0 * np.pi * 1.25e4 * t, dt)
    assert_allclose(freq, 1.25e4, rtol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 241, 961])
def test_frequency_from_phase_is_np_gradient_bit_for_bit(n):
    rng = np.random.default_rng(n)
    phase = np.cumsum(rng.normal(0.0, 0.3, n))
    for dt in (0.25e-6, 0.0625e-6, 1.0 / 3.0):
        ref = np.gradient(phase, dt, edge_order=2) / (2.0 * np.pi)
        assert np.array_equal(_frequency(phase, dt), ref), (n, dt)


def test_frequency_from_phase_validation():
    with pytest.raises(ValueError, match="^dt must be positive and finite, got 0.0$"):
        _frequency(np.array([0.0, 1.0, 2.0]), 0.0)


def test_frequency_to_flux_round_trip(device):
    phi = device.phi_idle + np.linspace(-0.05, 0.05, 21)
    f_idle = dressed_qubit_frequency(device.phi_idle, device)
    shift_hz = (dressed_qubit_frequency(phi, device) - f_idle) / (2.0 * np.pi)
    recovered = _to_flux(shift_hz, device, device.phi_idle)
    assert_allclose(recovered, phi, atol=1e-9)


def test_frequency_to_flux_scalar_and_errors(device):
    # one sample at zero detuning is the idle point; a detuning off the
    # branch, either way, or a nan is refused naming the sample
    out = _to_flux(np.zeros(1), device, device.phi_idle)
    assert out.shape == (1,) and abs(out[0] - device.phi_idle) < 1e-9
    for shift in (1e12, -1e13, math.nan):
        with pytest.raises(ValueError, match=rf"^sample 0 detunes {shift!r} Hz, outside the flux branch's range"):
            _to_flux(np.array([shift]), device, device.phi_idle)


def test_frequency_to_flux_closed_form_round_trip():
    # random devices with the qubit below and above the coupler maximum,
    # idling in either half-period; away from the flat top and the bottom of
    # the flux map the inversion is exact to rounding
    rng = np.random.default_rng(20)
    for k in range(40):
        omega_max = rng.uniform(4.0, 6.0) * GHZ
        ratio = rng.uniform(1.0, 1.05) if k % 2 else rng.uniform(0.95, 1.0)
        phi_idle = (-1) ** (k // 2) * rng.uniform(0.1, 0.4)
        device = CouplerDevice(ratio * omega_max, omega_max, rng.uniform(40.0, 120.0) * MHZ, 7e-5, phi_idle)
        edge = math.floor(2.0 * phi_idle) / 2.0
        phi = np.clip(phi_idle + rng.uniform(-0.1, 0.1, 200), edge + 0.02, edge + 0.48)
        f_idle = dressed_qubit_frequency(phi_idle, device)
        shift_hz = (dressed_qubit_frequency(phi, device) - f_idle) / (2.0 * np.pi)
        recovered = _to_flux(shift_hz, device, phi_idle)
        assert np.max(np.abs(recovered - phi)) <= 1e-12


def test_frequency_to_flux_rejects_zero_coupling():
    # with g = 0 the qubit does not follow the flux, so nothing is invertible
    device = reference_device()
    uncoupled = CouplerDevice(device.omega_q, device.omega_max, 0.0, device.flux_per_volt, device.phi_idle)
    with pytest.raises(ValueError, match="^g must be positive"):
        _to_flux(np.zeros(5), uncoupled, uncoupled.phi_idle)

def test_fit_transient_exact_template():
    delays = np.arange(241) * 0.25e-6
    for tau in (1e-6, 5e-6, 13e-6, 40e-6, 100e-6):
        for offset in (0.0, 3e-4):
            y = _square_tail(0.02, 8e-6, tau, delays) + offset
            fit = _fit(y, delays, 8e-6)
            assert fit.converged
            assert_allclose(fit.tau, tau, rtol=1e-6)
            assert_allclose(fit.amplitude, 0.02, rtol=1e-6)
            assert abs(fit.offset - offset) < 1e-9
            assert fit.residual_rms < 1e-12


def test_fit_transient_constant_input():
    delays = np.arange(20) * 1e-6
    fit = _fit(np.full(20, 0.3), delays, 8e-6)
    assert fit == TransientFit(0.0, 0.3, fit.tau, 0.0, False)
    assert math.isnan(fit.tau)


def test_fit_transient_default_weights_halve_endpoints():
    delays = np.arange(100) * 0.5e-6
    rng = np.random.default_rng(12)
    y = _square_tail(0.02, 8e-6, 13e-6, delays) + rng.normal(0, 2e-4, 100)
    fit = _fit(y, delays, 8e-6)
    model = _square_tail(fit.amplitude, 8e-6, fit.tau, delays) + fit.offset
    w = np.ones(100)
    w[0] = w[-1] = 0.5
    # uniform weights would give a cost 0.2 % higher here
    assert_allclose(fit.cost, np.sum((w * (model - y)) ** 2), rtol=1e-9)


def test_fit_transient_validation():
    delays = np.arange(10) * 1e-6
    y = np.zeros(10)
    with pytest.raises(ValueError, match="^flux must have length at least 8, got 5$"):
        _fit(y[:5], delays[:5], 8e-6)
    with pytest.raises(ValueError, match=r"^tau_pulse must be positive and finite, got -1.0$"):
        _fit(y, delays, -1.0)


def test_fit_transient_noise_monte_carlo():
    # 2 percent additive noise leaves tau recoverable to 5 percent (95th pct)
    delays = np.arange(241) * 0.25e-6
    tau = 13e-6
    clean = _square_tail(0.02, 8e-6, tau, delays)
    errors = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fit = _fit(clean + rng.normal(0.0, 0.02 * 0.02, delays.size), delays, 8e-6)
        assert fit.converged
        errors.append(abs(fit.tau - tau) / tau)
    assert np.percentile(errors, 95) < 0.05


def test_fit_transient_noise_only_not_converged():
    # a flat baseline plus noise holds no transient: no tau is resolved
    delays = np.arange(241) * 0.25e-6
    for seed in range(50):
        rng = np.random.default_rng(seed)
        fit = _fit(0.3 + rng.normal(0.0, 1e-4, delays.size), delays, 8e-6)
        assert not fit.converged


@pytest.mark.parametrize("tau_over_span", [1e-4, 3e3])
def test_fit_transient_tau_outside_bracket_not_converged(tau_over_span):
    # the search covers tau in [span/1000, 1000*span]; a noiseless record
    # whose tau lies outside has no start in range or runs into an edge
    delays = np.arange(241) * 0.25e-6
    y = _square_tail(0.02, 8e-6, tau_over_span * delays[-1], delays)
    assert not _fit(y, delays, 8e-6).converged


@pytest.mark.parametrize("record", ["ramp", "growth", "noise"])
def test_fit_transient_without_a_start_makes_one_evaluation(device, record):
    # a rising ramp, a growing exponential and a noise-only record give
    # beta >= 0 in y = alpha + beta * S + gamma * x, so no closed-form start:
    # the fit evaluates u = 0 alone and is not interior
    delays = np.arange(241) * 0.25e-6
    if record == "ramp":
        flux = 0.3 + 1e-4 * delays / delays[-1]
    elif record == "growth":
        flux = 0.3 + 1e-4 * np.exp(delays / 13e-6)
    else:
        zero = lambda t: np.full(np.shape(t), device.phi_idle)  # noqa: E731
        cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6, readout_noise_sigma=0.05, rng_seed=0)
        flux = run_pipeline(*simulate_ramsey(device, zero, cfg), 0.25e-6, device, device.phi_idle, 8e-6).flux
    fit = _fit(flux, delays, 8e-6)
    assert (fit.interior, fit.converged, fit.iterations) == (False, False, 1)
    assert fit.tau == delays[-1]


def test_fit_transient_rejects_non_finite_input(device):
    # a nan or inf in either quadrature is an error naming the stage and the
    # field, never a fit that merely reports converged=False
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, 0.25e-6, 241)
    for field in ("x", "y"):
        for bad in (math.inf, math.nan):
            args = {"x": x.copy(), "y": y.copy()}
            args[field][-1] = bad
            with pytest.raises(ValueError, match=f"^unwrap stage: {field} must be finite, got {bad!r} at index 240$"):
                run_pipeline(args["x"], args["y"], 0.25e-6, device, device.phi_idle, 8e-6)


def _square_quadratures(device, amplitude, tau, dt, n, **cfg_kwargs):
    delays = np.arange(n) * dt
    waveform = square_transient_waveform(amplitude, 8e-6, tau, device.phi_idle)
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, **cfg_kwargs)
    x, y = simulate_ramsey(device, waveform, cfg)
    return x, y, delays


def test_run_pipeline_recovers_tau_noiseless(device):
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, 0.05e-6, 1201)
    result = run_pipeline(x, y, 0.05e-6, device, device.phi_idle, 8e-6)
    assert result.fit.converged
    assert_allclose(result.fit.tau, 13e-6, rtol=1e-5)
    assert_allclose(result.fit.amplitude, 5e-4, rtol=0.02)
    assert abs(result.fit.offset - device.phi_idle) < 1e-6
    assert result.acquired_phase == result.phase[-1] - np.mean(result.phase[:3])
    assert abs(result.acquired_phase) > 0.1


def test_run_pipeline_amplitude_scales(device):
    x, y, _ = _square_quadratures(device, 2.5e-4, 13e-6, 0.05e-6, 1201)
    result = run_pipeline(x, y, 0.05e-6, device, device.phi_idle, 8e-6)
    assert_allclose(result.fit.amplitude, 2.5e-4, rtol=0.02)
    assert_allclose(result.fit.tau, 13e-6, rtol=1e-4)


def test_run_pipeline_stage_error_prefixes(device):
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, 0.25e-6, 241)
    with pytest.raises(ValueError, match="smooth stage"):
        run_pipeline(x, y, 0.25e-6, device, device.phi_idle, 8e-6, window_points=4)
    with pytest.raises(ValueError, match="unwrap stage"):
        run_pipeline(np.zeros(241), np.zeros(241), 0.25e-6, device, device.phi_idle, 8e-6)


@pytest.mark.parametrize("n", [241, 961])
def test_run_pipeline_checks_each_input_once_and_makes_no_linalg_call(device, monkeypatch, n):
    dt = 60e-6 / (n - 1)
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, dt, n, t2=75e-6, readout_noise_sigma=0.05, rng_seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("run_pipeline called np.linalg")

    for name in ("qr", "inv", "solve", "cholesky", "svd", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    calls = []
    check = fluxshape._checks.samples

    def counting_samples(name, *args, **kwargs):
        calls.append(name)
        return check(name, *args, **kwargs)

    # every module that imported the check by name
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("fluxshape") and getattr(module, "samples", None) is check:
            monkeypatch.setattr(module, "samples", counting_samples)
    result = run_pipeline(x, y, dt, device, device.phi_idle, 8e-6)
    assert result.fit.converged
    assert calls == ["x", "y"]


def test_run_pipeline_records_each_stage(device):
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, 0.25e-6, 241, t2=75e-6, readout_noise_sigma=0.05, rng_seed=1)
    stages = run_pipeline(x, y, 0.25e-6, device, device.phi_idle, 8e-6).stages
    names = [name for name, _, _ in stages]
    assert names == ["unwrap", "smooth", "frequency", "flux-inversion", "fit"]
    assert [shape for _, _, shape in stages] == [(241,)] * 4 + [()]
    assert all(isinstance(seconds, float) and seconds >= 0.0 for _, seconds, _ in stages)


@pytest.mark.parametrize("quadrature, bad", [("x", math.nan), ("y", -math.inf)])
def test_run_pipeline_rejects_non_finite_quadratures(device, quadrature, bad):
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, 0.25e-6, 241)
    (x if quadrature == "x" else y)[100] = bad
    with pytest.raises(ValueError, match=f"^unwrap stage: {quadrature} must be finite"):
        run_pipeline(x, y, 0.25e-6, device, device.phi_idle, 8e-6)


def _fit_rows(rows, v, w):
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


def _scan_fit(flux, delays, tau_pulse):
    """tau and converged by repeated 16-point scans of the cost down to a 1e-9 bracket.

    The search ``_fit`` made before its root search: each scan over
    u = log(tau/span) keeps the two cells around its best point, the first
    scan alone decides whether the minimum is interior, and the standard
    error comes from a separate solve at the final tau.
    """
    w = np.ones(flux.size)
    w[0] = w[-1] = 0.5
    w2 = w * w

    def centred(z):
        return w * (z - (z @ w2) / w2.sum())

    span = delays[-1] - delays[0]
    lo, hi = math.log(1e-3), math.log(1e3)
    interior = None
    v = centred(flux)
    while True:
        grid = lo + (hi - lo) * np.linspace(0.0, 1.0, 16)
        rows = w * np.exp(-np.multiply.outer(np.exp(-grid) / span, delays))
        _fit_rows(rows, v, w)
        cost = np.einsum("ij,ij->i", rows, rows)
        best = int(np.argmin(np.where(np.isfinite(cost), cost, np.inf)))
        if interior is None:
            interior = 0 < best < grid.size - 1
        if hi - lo < 1e-9:
            break
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    tau = float(span * np.exp(grid[best]))
    e1 = np.exp(-delays / tau)
    e2 = np.exp(-(delays + tau_pulse) / tau)
    resid = (w * (e2 - e1))[None, :]
    amp = float(_fit_rows(resid, v, w)[0])
    tau_resid = (w * (e2 - e1))[None, :]
    _fit_rows(tau_resid, centred(amp * (-e1 * delays + e2 * (delays + tau_pulse)) / (tau * tau)), w)
    tau_se = np.sqrt(resid[0] @ resid[0] / (flux.size - 3) / (tau_resid[0] @ tau_resid[0]))
    return tau, bool(interior and math.isfinite(amp) and tau_se <= 0.1 * tau)


def _profile(flux, delays, tau, tau_pulse):
    """Cost at ``tau`` with A and B at their optimum, and r . P(dmodel/du) with |r| and |P J|.

    Plain projections with the fit's weights, independent of the fit's code.
    """
    w = np.ones(flux.size)
    w[0] = w[-1] = 0.5

    def off_w(z):
        wz = w * z
        return wz - (wz @ w) / (w @ w) * w

    e1 = np.exp(-delays / tau)
    e2 = np.exp(-(delays + tau_pulse) / tau)
    p = off_w(e2 - e1)
    v = off_w(flux)
    amp = (p @ v) / (p @ p)
    r = amp * p - v
    j = off_w(amp * (e2 * (delays + tau_pulse) - e1 * delays) / tau)
    j -= (j @ p) / (p @ p) * p
    return r @ r, r @ j, math.sqrt(r @ r), math.sqrt(j @ j), math.sqrt(v @ v)


def _workload_traces(device):
    """Flux records built like the benchmark's ramsey ops: square-pulse tails on
    both delay grids over 60 us, and zero-pulse records read out with noise.

    Yields ``(n, sigma, seed)``, the flux record and its delays.
    """
    zero = lambda t: np.full(np.shape(t), device.phi_idle)  # noqa: E731
    cases = []
    for n, dt in ((241, 0.25e-6), (961, 0.0625e-6)):
        for tau in np.geomspace(5e-6, 30e-6, 8):
            for sigma in (0.0, 0.02, 0.05):
                cases.append((n, dt, square_transient_waveform(5e-4, 8e-6, tau, device.phi_idle), sigma, int(tau * 1e9)))
    cases.extend((241, 0.25e-6, zero, 0.05, seed) for seed in range(4))
    for n, dt, waveform, sigma, seed in cases:
        delays = np.arange(n) * dt
        cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6, readout_noise_sigma=sigma, rng_seed=seed)
        flux = run_pipeline(*simulate_ramsey(device, waveform, cfg), dt, device, device.phi_idle, 8e-6).flux
        yield (n, sigma, seed), flux, delays


def _aliased_traces(device):
    """Square-pulse flux records with tau log-uniform in 5-30 us and sigma
    cycling through {none, 0.02, 0.05}: 120 on the 241-point grid, where
    tails with tau below about 10 us alias, then the first 15 of 150 draws on
    each grid from a second seed.

    Yields ``(n, tau, sigma, seed)``, the flux record and its delays.
    """
    rng = np.random.default_rng(11)
    cases = [(241, 0.25e-6, tau, i) for i, tau in enumerate(np.exp(rng.uniform(math.log(5e-6), math.log(30e-6), 120)))]
    rng = np.random.default_rng(5)
    for n, dt in ((241, 0.25e-6), (961, 0.0625e-6)):
        taus = np.exp(rng.uniform(math.log(5e-6), math.log(30e-6), 150))
        cases += [(n, dt, tau, i) for i, tau in enumerate(taus[:15])]
    for n, dt, tau, seed in cases:
        sigma = (None, 0.02, 0.05)[seed % 3]
        delays = np.arange(n) * dt
        cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6, readout_noise_sigma=sigma, rng_seed=seed)
        waveform = square_transient_waveform(5e-4, 8e-6, tau, device.phi_idle)
        flux = run_pipeline(*simulate_ramsey(device, waveform, cfg), dt, device, device.phi_idle, 8e-6).flux
        yield (n, tau, sigma, seed), flux, delays


def _assert_matches_the_scan_search(traces):
    """Every converged flag equals ``_scan_fit``'s; converged fits find its minimum.

    Returns the number of converged fits.
    """
    converged = 0
    for case, flux, delays in traces:
        fit = _fit(flux, delays, 8e-6)
        ref_tau, ref_converged = _scan_fit(flux, delays, 8e-6)
        case = (*case, fit)
        assert fit.converged == ref_converged, case
        cost, g, r_norm, j_norm, v_norm = _profile(flux, delays, fit.tau, 8e-6)
        assert_allclose(fit.cost, cost, rtol=1e-6, err_msg=str(case))
        if not fit.converged:
            # a fit that does not converge may stop on a local stationary
            # point other than the scan's global minimum
            assert fit.iterations <= _ROOT_STEPS, case
            continue
        converged += 1
        # the scan compares costs, which are flat to rounding within about
        # sqrt(eps) of the minimum, so it resolves tau to about 1.5e-8
        assert abs(fit.tau - ref_tau) <= 1e-7 * ref_tau, case
        assert fit.iterations <= 8, case
        ref_cost = _profile(flux, delays, ref_tau, 8e-6)[0]
        # near an exact fit the cost itself carries a rounding error of
        # about 2 |r| * sqrt(n) * eps * |v|
        assert cost <= ref_cost * (1.0 + 1e-9) + 2.0 * r_norm * math.sqrt(flux.size) * 2.2e-16 * v_norm, case
        assert abs(g) <= 1e-8 * r_norm * j_norm, case
    return converged


def test_fit_transient_matches_the_scan_search(device):
    _assert_matches_the_scan_search(_workload_traces(device))


def test_fit_transient_keeps_every_flag_on_aliased_traces(device):
    # the closed-form start may land in another basin than the scan's
    # minimum on an aliased record: no flag may move there
    traces = list(_aliased_traces(device))
    converged = _assert_matches_the_scan_search(traces)
    # both flags occur, so the test checks each way
    assert 0 < converged < len(traces)


def _two_regression_fit(flux, delays, tau_pulse):
    """``_fit`` with a root search that regresses each row on its own.

    The search as it was before its evaluation stacked the data and dshape/du
    on one projected shape: at every u, one ``_fit_rows`` call gives A and
    the residual, and a second regresses the centred dshape/du on the shape
    for -P(J)/A.  The closed-form start, steps and stopping rules are those
    of ``_fit``.  Returns tau, its standard error, the cost,
    ``converged`` and ``interior``.
    """
    y, d = flux, delays
    w = np.ones(y.size)
    w[0] = w[-1] = 0.5
    w2 = w * w

    def centred(z):
        return w * (z - (z @ w2) / w2.sum())

    span = d[-1] - d[0]
    edge_lo, edge_hi = math.log(1e-3), math.log(1e3)
    with np.errstate(all="ignore"):
        v = centred(y)
        x = (d - d[0]) / span
        s = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
        beta = np.linalg.lstsq(np.column_stack((np.ones(y.size), s, x)), y, rcond=None)[0][1]
        u = float(np.log(-1.0 / beta))
        start = edge_lo < u < edge_hi
        lo, hi, u = (edge_lo, edge_hi, u) if start else (0.0, 0.0, 0.0)
        step = math.inf
        for _ in range(64):
            tau = float(span * np.exp(u))
            e1 = np.exp(-d / tau)
            e2 = e1 * math.exp(-tau_pulse / tau)
            shape = e2 - e1
            resid = (w * shape)[None, :]
            amp = _fit_rows(resid, v, w)[0]
            jac = (w * shape)[None, :]
            _fit_rows(jac, centred((e2 * (d + tau_pulse) - e1 * d) / tau), w)
            resid, jac = resid[0], -amp * jac[0]
            g = resid @ jac
            jj = jac @ jac
            if g < 0.0:
                lo = u
            else:
                hi = u
            if abs(step) < 1e-10 or hi - lo < 1e-9:
                break
            new = -g / jj if step == math.inf else -g * (u - u_last) / (g - g_last)
            if not (lo <= u + new <= hi and abs(new) <= 0.5 * abs(step)):
                new = 0.5 * (lo + hi) - u
            u_last, g_last, step = u, g, new
            u = u + new
        off = (y - amp * shape) @ w2 / w2.sum()
        cost = float(resid @ resid)
        tau_se = float(tau * np.sqrt(cost / (y.size - 3) / jj))
    interior = start and edge_lo + 1e-9 < u < edge_hi - 1e-9
    converged = bool(interior and np.all(np.isfinite([amp, off, tau])) and tau_se <= 0.1 * tau)
    return tau, tau_se, cost, converged, interior


def test_fit_transient_matches_the_two_regression_search(device):
    # stacking the two regressions reorders sums only; on these records it
    # moves tau by at most 1.2e-15, tau_stderr by 4.1e-12 and the cost by
    # 8.2e-12, relative
    for case, flux, delays in _workload_traces(device):
        fit = _fit(flux, delays, 8e-6)
        tau, tau_se, cost, converged, interior = _two_regression_fit(flux, delays, 8e-6)
        case = (*case, fit)
        assert (fit.converged, fit.interior) == (converged, interior), case
        assert abs(fit.tau - tau) <= 1e-12 * tau, case
        assert abs(fit.tau_stderr - tau_se) <= 1e-9 * tau_se, case
        _, _, r_norm, _, v_norm = _profile(flux, delays, fit.tau, 8e-6)
        # the near-exact-fit allowance of test_fit_transient_matches_the_scan_search
        allowance = 2.0 * r_norm * math.sqrt(flux.size) * 2.2e-16 * v_norm
        assert abs(fit.cost - cost) <= 1e-9 * cost + allowance, case


def test_fit_transient_fields_are_plain_python_values(device):
    # the fields go straight into JSON reports, which refuse numpy scalars
    # such as np.bool_
    delays = np.arange(20) * 1e-6
    flat = _fit(np.full(20, 0.3), delays, 8e-6)
    fits = [flat, *(_fit(flux, d, 8e-6) for _, flux, d in _workload_traces(device))]
    for fit in fits:
        types = {name: type(getattr(fit, name)) for name in TransientFit.__dataclass_fields__}
        assert types == {
            "amplitude": float, "offset": float, "tau": float, "residual_rms": float, "converged": bool,
            "tau_stderr": float, "cost": float, "interior": bool, "iterations": int,
        }, fit
