import math

import numpy as np
import pytest
import scipy.signal
from numpy.testing import assert_allclose

from fluxshape import (
    CouplerDevice,
    RamseyConfig,
    TransientFit,
    dressed_qubit_frequency,
    fit_transient,
    frequency_from_phase,
    frequency_to_flux,
    run_pipeline,
    savgol_smooth,
    simulate_ramsey,
    square_pulse_flux_transient,
    square_transient_waveform,
    unwrap_phase,
)

from conftest import GHZ, MHZ, reference_device


def test_unwrap_linear_ramp():
    true = 0.3 + np.linspace(0.0, 12.0, 200)
    got = unwrap_phase(np.cos(true), np.sin(true))
    assert_allclose(got, true, rtol=1e-12)


def test_unwrap_matches_numpy_unwrap():
    rng = np.random.default_rng(8)
    true = np.cumsum(rng.uniform(-2.5, 2.5, 300))
    x, y = np.cos(true), np.sin(true)
    assert_allclose(unwrap_phase(x, y), np.unwrap(np.arctan2(y, x)), rtol=1e-12, atol=1e-12)


def test_unwrap_validation():
    with pytest.raises(ValueError):
        unwrap_phase([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        unwrap_phase([1.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        unwrap_phase([[1.0]], [[0.0]])


def test_savgol_matches_scipy_interior():
    rng = np.random.default_rng(2)
    y = np.sin(np.linspace(0, 6, 100)) + rng.normal(0, 0.1, 100)
    ours = savgol_smooth(y, 11, 3)
    ref = scipy.signal.savgol_filter(y, 11, 3)
    assert_allclose(ours[5:-5], ref[5:-5], rtol=1e-12, atol=1e-12)


def test_savgol_reproduces_cubic_exactly():
    t = np.arange(40, dtype=float)
    y = 0.5 - 0.2 * t + 0.01 * t**2 - 3e-4 * t**3
    # a cubic is inside the model space of every window, edges included
    assert_allclose(savgol_smooth(y, 11, 3), y, atol=1e-9)


def test_savgol_reduces_noise():
    rng = np.random.default_rng(3)
    y = rng.normal(0.0, 1.0, 500)
    smooth = savgol_smooth(y, 11, 3)
    assert np.var(smooth[10:-10]) < 0.5 * np.var(y)


def test_savgol_validation():
    y = np.zeros(20)
    with pytest.raises(ValueError):
        savgol_smooth(y, 10, 3)
    with pytest.raises(ValueError):
        savgol_smooth(y, 1, 0)
    with pytest.raises(ValueError):
        savgol_smooth(y, 21, 3)
    with pytest.raises(ValueError):
        savgol_smooth(y, 11, 11)
    with pytest.raises(ValueError):
        savgol_smooth(y, 11, 0)
    with pytest.raises(ValueError):
        savgol_smooth(np.zeros((4, 5)), 3, 1)


def test_frequency_from_phase_quadratic():
    dt = 0.25e-6
    t = np.arange(101) * dt
    phase = 0.4 + 2.0 * np.pi * (3e4 * t + 2e9 * t**2)
    freq = frequency_from_phase(phase, dt)
    assert_allclose(freq, 3e4 + 2.0 * 2e9 * t, rtol=1e-9)


def test_frequency_from_phase_constant_tone():
    dt = 1e-6
    t = np.arange(64) * dt
    freq = frequency_from_phase(2.0 * np.pi * 1.25e4 * t, dt)
    assert_allclose(freq, 1.25e4, rtol=1e-12)


def test_frequency_from_phase_validation():
    with pytest.raises(ValueError):
        frequency_from_phase([0.0, 1.0], 1e-6)
    with pytest.raises(ValueError):
        frequency_from_phase([0.0, 1.0, 2.0], 0.0)


def test_frequency_to_flux_round_trip(device):
    phi = device.phi_idle + np.linspace(-0.05, 0.05, 21)
    f_idle = dressed_qubit_frequency(device.phi_idle, device)
    shift_hz = (dressed_qubit_frequency(phi, device) - f_idle) / (2.0 * np.pi)
    recovered = frequency_to_flux(shift_hz, device, device.phi_idle)
    assert_allclose(recovered, phi, atol=1e-9)


def test_frequency_to_flux_scalar_and_errors(device):
    out = frequency_to_flux(0.0, device, device.phi_idle)
    assert isinstance(out, float)
    assert abs(out - device.phi_idle) < 1e-9
    with pytest.raises(ValueError):
        frequency_to_flux(1e12, device, device.phi_idle)
    with pytest.raises(ValueError):
        frequency_to_flux(-1e13, device, device.phi_idle)
    with pytest.raises(ValueError):
        frequency_to_flux(math.nan, device, device.phi_idle)


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
        recovered = frequency_to_flux(shift_hz, device, phi_idle)
        assert np.max(np.abs(recovered - phi)) <= 1e-12


def test_frequency_to_flux_rejects_zero_coupling():
    # with g = 0 the qubit does not follow the flux, so nothing is invertible
    device = reference_device()
    uncoupled = CouplerDevice(device.omega_q, device.omega_max, 0.0, device.flux_per_volt, device.phi_idle)
    with pytest.raises(ValueError, match="^g must be positive"):
        frequency_to_flux(np.zeros(5), uncoupled, uncoupled.phi_idle)

def test_fit_transient_exact_template():
    delays = np.arange(241) * 0.25e-6
    for tau in (1e-6, 5e-6, 13e-6, 40e-6, 100e-6):
        for offset in (0.0, 3e-4):
            y = square_pulse_flux_transient(0.02, 8e-6, tau, delays, baseline=offset)
            fit = fit_transient(y, delays, 8e-6)
            assert fit.converged
            assert_allclose(fit.tau, tau, rtol=1e-6)
            assert_allclose(fit.amplitude, 0.02, rtol=1e-6)
            assert abs(fit.offset - offset) < 1e-9
            assert fit.residual_rms < 1e-12


def test_fit_transient_constant_input():
    delays = np.arange(20) * 1e-6
    fit = fit_transient(np.full(20, 0.3), delays, 8e-6)
    assert fit == TransientFit(0.0, 0.3, fit.tau, 0.0, False)
    assert math.isnan(fit.tau)


def test_fit_transient_default_weights_halve_endpoints():
    delays = np.arange(100) * 0.5e-6
    rng = np.random.default_rng(12)
    y = square_pulse_flux_transient(0.02, 8e-6, 13e-6, delays) + rng.normal(0, 2e-4, 100)
    w = np.ones(100)
    w[0] = w[-1] = 0.5
    assert fit_transient(y, delays, 8e-6) == fit_transient(y, delays, 8e-6, weights=w)


def test_fit_transient_validation():
    delays = np.arange(10) * 1e-6
    y = np.zeros(10)
    with pytest.raises(ValueError):
        fit_transient(y[:5], delays[:5], 8e-6)
    with pytest.raises(ValueError):
        fit_transient(y, delays[::-1], 8e-6)
    with pytest.raises(ValueError):
        fit_transient(y, delays[:-1], 8e-6)
    with pytest.raises(ValueError):
        fit_transient(y, delays, -1.0)
    with pytest.raises(ValueError):
        fit_transient(y, delays, 8e-6, weights=-np.ones(10))


def test_fit_transient_noise_monte_carlo():
    # 2 percent additive noise leaves tau recoverable to 5 percent (95th pct)
    delays = np.arange(241) * 0.25e-6
    tau = 13e-6
    clean = square_pulse_flux_transient(0.02, 8e-6, tau, delays)
    errors = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fit = fit_transient(clean + rng.normal(0.0, 0.02 * 0.02, delays.size), delays, 8e-6)
        assert fit.converged
        errors.append(abs(fit.tau - tau) / tau)
    assert np.percentile(errors, 95) < 0.05


def test_fit_transient_noise_only_not_converged():
    # a flat baseline plus noise holds no transient: no tau is resolved
    delays = np.arange(241) * 0.25e-6
    for seed in range(50):
        rng = np.random.default_rng(seed)
        fit = fit_transient(0.3 + rng.normal(0.0, 1e-4, delays.size), delays, 8e-6)
        assert not fit.converged


@pytest.mark.parametrize("tau_over_span", [1e-4, 3e3])
def test_fit_transient_tau_outside_bracket_not_converged(tau_over_span):
    # the search covers tau in [span/1000, 1000*span]; a noiseless record
    # whose tau lies outside has its minimum at the bracket edge
    delays = np.arange(241) * 0.25e-6
    y = square_pulse_flux_transient(0.02, 8e-6, tau_over_span * delays[-1], delays)
    assert not fit_transient(y, delays, 8e-6).converged


def test_fit_transient_rejects_non_finite_input():
    # a nan or inf in any input array is an error naming the field, never a
    # fit that merely reports converged=False
    delays = np.arange(241) * 0.25e-6
    y = square_pulse_flux_transient(0.02, 8e-6, 13e-6, delays)
    weights = np.ones(delays.size)
    for field in ("flux", "delays", "weights"):
        for bad in (math.inf, math.nan):
            args = {"flux": y.copy(), "delays": delays.copy(), "weights": weights.copy()}
            args[field][-1] = bad
            with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r} at index 240$"):
                fit_transient(args["flux"], args["delays"], 8e-6, weights=args["weights"])

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


@pytest.mark.parametrize("quadrature, bad", [("x", math.nan), ("y", -math.inf)])
def test_run_pipeline_rejects_non_finite_quadratures(device, quadrature, bad):
    x, y, _ = _square_quadratures(device, 5e-4, 13e-6, 0.25e-6, 241)
    (x if quadrature == "x" else y)[100] = bad
    with pytest.raises(ValueError, match=f"^unwrap stage: {quadrature} must be finite"):
        run_pipeline(x, y, 0.25e-6, device, device.phi_idle, 8e-6)
