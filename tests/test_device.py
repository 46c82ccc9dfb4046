import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    CouplerDevice,
    RamseyConfig,
    coupler_frequency,
    dressed_qubit_frequency,
    pulse_flux_waveform,
    ramsey_phase,
    simulate_ramsey,
    solve_biharmonic,
    square_pulse_flux_transient,
    square_train_response,
    square_transient_waveform,
    capacitor_voltage,
)

from conftest import (
    COUPLER_MAX_GHZ,
    COUPLING_MHZ,
    GHZ,
    IDLE_FLUX,
    MHZ,
    QUBIT_GHZ,
    line_with_tau,
    reference_device,
)


def resonance_flux(device: CouplerDevice) -> float:
    """Flux where the coupler crosses the bare qubit frequency."""
    return math.acos((device.omega_q / device.omega_max) ** 2) / math.pi


def test_coupler_device_validation():
    with pytest.raises(ValueError):
        CouplerDevice(omega_q=0.0, omega_max=1.0, g=0.1, flux_per_volt=1.0, phi_idle=0.0)
    with pytest.raises(ValueError):
        CouplerDevice(omega_q=1.0, omega_max=-1.0, g=0.1, flux_per_volt=1.0, phi_idle=0.0)
    with pytest.raises(ValueError):
        CouplerDevice(omega_q=1.0, omega_max=1.0, g=-0.1, flux_per_volt=1.0, phi_idle=0.0)
    with pytest.raises(ValueError):
        CouplerDevice(omega_q=1.0, omega_max=1.0, g=0.1, flux_per_volt=math.inf, phi_idle=0.0)
    for bad_idle in (0.5, -0.5, 0.7, math.nan):
        with pytest.raises(ValueError):
            CouplerDevice(omega_q=1.0, omega_max=1.0, g=0.1, flux_per_volt=1.0, phi_idle=bad_idle)
    ok = CouplerDevice(omega_q=1.0, omega_max=1.0, g=0.0, flux_per_volt=0.0, phi_idle=0.49)
    assert ok.g == 0.0


def test_coupler_frequency_special_points(device):
    assert coupler_frequency(0.0, device) == device.omega_max
    assert coupler_frequency(0.5, device) == 0.0
    assert coupler_frequency(-0.5, device) == 0.0
    assert_allclose(coupler_frequency(0.25, device), device.omega_max * 2.0 ** -0.25, rtol=1e-12)


def test_coupler_frequency_symmetry_and_periodicity(device):
    rng = np.random.default_rng(31)
    phi = rng.uniform(-3, 3, 200)
    assert np.array_equal(coupler_frequency(phi, device), coupler_frequency(-phi, device))
    # dyadic fluxes shift by whole periods without any rounding at all
    dyadic = np.arange(-32, 33) / 64.0
    assert np.array_equal(coupler_frequency(dyadic, device), coupler_frequency(dyadic + 1.0, device))
    assert np.array_equal(coupler_frequency(dyadic, device), coupler_frequency(dyadic - 2.0, device))
    assert_allclose(coupler_frequency(phi + 1.0, device), coupler_frequency(phi, device), rtol=1e-9)
    assert coupler_frequency(0.75, device) == coupler_frequency(0.25, device)


def test_coupler_frequency_scalar_and_array(device):
    values = coupler_frequency(np.array([0.0, 0.1, 0.25]), device)
    assert values.shape == (3,)
    assert values[1] == coupler_frequency(0.1, device)
    assert isinstance(coupler_frequency(0.1, device), float)


def test_dressed_decoupled_limit():
    device = CouplerDevice(
        omega_q=QUBIT_GHZ * GHZ, omega_max=COUPLER_MAX_GHZ * GHZ, g=0.0,
        flux_per_volt=0.0, phi_idle=0.0,
    )
    phi = np.linspace(-0.4, 0.4, 41)
    assert np.all(dressed_qubit_frequency(phi, device) == device.omega_q)


def test_dressed_reference_point(device):
    got = dressed_qubit_frequency(0.0, device)
    delta = device.omega_q - device.omega_max
    expected = 0.5 * (device.omega_q + device.omega_max) - math.sqrt(0.25 * delta**2 + device.g**2)
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(got, 4.739395 * GHZ, rtol=1e-6)
    # the hybridization pulls the monitored qubit ~33.6 MHz below its bare value
    assert_allclose(device.omega_q - got, 33.6 * MHZ, rtol=1e-2)


def test_dressed_matches_eigensolver(device):
    phi = np.linspace(-0.45, 0.45, 181)
    wc = coupler_frequency(phi, device)
    h = np.empty((phi.size, 2, 2))
    h[:, 0, 0] = device.omega_q
    h[:, 1, 1] = wc
    h[:, 0, 1] = h[:, 1, 0] = device.g
    lower = np.linalg.eigvalsh(h)[:, 0]
    assert_allclose(dressed_qubit_frequency(phi, device), lower, rtol=1e-12)


def test_dressed_minimum_gap(device):
    phi_res = resonance_flux(device)
    assert_allclose(phi_res, 0.0838, rtol=1e-2)
    wc = coupler_frequency(phi_res, device)
    assert_allclose(wc, device.omega_q, rtol=1e-12)
    delta = device.omega_q - wc
    gap = 2.0 * math.sqrt(0.25 * delta**2 + device.g**2)
    assert_allclose(gap, 2.0 * device.g, rtol=1e-12)
    # the gap is minimized there: nearby fluxes only widen it
    phi = np.linspace(phi_res - 0.01, phi_res + 0.01, 2001)
    wc = coupler_frequency(phi, device)
    gaps = 2.0 * np.sqrt(0.25 * (device.omega_q - wc) ** 2 + device.g**2)
    assert np.all(gaps >= 2.0 * device.g - 1e-3)
    assert_allclose(np.min(gaps), 2.0 * device.g, rtol=1e-6)


def test_dressed_continuous_across_resonance(device):
    phi_res = resonance_flux(device)
    phi = np.linspace(phi_res - 0.02, phi_res + 0.02, 20001)
    values = dressed_qubit_frequency(phi, device)
    # a branch swap would show up as a ~2g = 2*pi*126 MHz jump
    assert np.max(np.abs(np.diff(values))) < 0.1 * MHZ


def test_ramsey_config_validation():
    grid = np.array([0.0, 1e-6, 2e-6])
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=grid)
    assert cfg.t2 is None and cfg.readout_noise_sigma is None
    with pytest.raises(ValueError):
        cfg.delay_grid[0] = 1.0
    with pytest.raises(ValueError):
        RamseyConfig(tau_pulse=0.0, delay_grid=grid)
    with pytest.raises(ValueError):
        RamseyConfig(tau_pulse=8e-6, delay_grid=[1e-6])
    with pytest.raises(ValueError):
        RamseyConfig(tau_pulse=8e-6, delay_grid=[2e-6, 1e-6])
    with pytest.raises(ValueError):
        RamseyConfig(tau_pulse=8e-6, delay_grid=[-1e-6, 1e-6])
    with pytest.raises(ValueError):
        RamseyConfig(tau_pulse=8e-6, delay_grid=grid, t2=0.0)
    with pytest.raises(ValueError):
        RamseyConfig(tau_pulse=8e-6, delay_grid=grid, readout_noise_sigma=-0.1)


def test_ramsey_phase_at_idle_is_zero(device):
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=np.linspace(0.0, 60e-6, 25))
    phase = ramsey_phase(device, lambda t: np.full(np.shape(t), device.phi_idle), cfg)
    assert np.all(phase == 0.0)


def test_ramsey_phase_constant_detuning(device):
    phi_held = device.phi_idle + 1e-3
    delta = dressed_qubit_frequency(phi_held, device) - dressed_qubit_frequency(device.phi_idle, device)
    delays = np.array([0.0, 0.5e-6, 2e-6, 7e-6])
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays)
    phase = ramsey_phase(device, lambda t: np.full(np.shape(t), phi_held), cfg)
    assert_allclose(phase, delta * delays, rtol=1e-12)


def test_ramsey_phase_zero_delay_prepended(device):
    waveform = square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle)
    with_zero = RamseyConfig(tau_pulse=8e-6, delay_grid=[0.0, 1e-6, 3e-6])
    without_zero = RamseyConfig(tau_pulse=8e-6, delay_grid=[1e-6, 3e-6])
    p_full = ramsey_phase(device, waveform, with_zero)
    p_trim = ramsey_phase(device, waveform, without_zero)
    assert p_full[0] == 0.0
    assert np.array_equal(p_full[1:], p_trim)


def test_ramsey_phase_rejects_bad_waveform(device):
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=[0.0, 1e-6])
    with pytest.raises(ValueError):
        ramsey_phase(device, lambda t: np.full(np.shape(t), math.nan), cfg)


def test_simulate_ramsey_noiseless(device):
    delays = np.linspace(0.0, 60e-6, 41)
    idle = lambda t: np.full(np.shape(t), device.phi_idle)
    x, y = simulate_ramsey(device, idle, RamseyConfig(tau_pulse=8e-6, delay_grid=delays))
    assert np.all(x == 1.0) and np.all(y == 0.0)
    x, y = simulate_ramsey(device, idle, RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6))
    assert_allclose(x, np.exp(-delays / 75e-6), rtol=1e-15)
    assert np.all(y == 0.0)


def test_simulate_ramsey_noise_is_seeded(device):
    delays = np.linspace(0.0, 60e-6, 41)
    waveform = square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle)
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6, readout_noise_sigma=0.05, rng_seed=7)
    x1, y1 = simulate_ramsey(device, waveform, cfg)
    x2, y2 = simulate_ramsey(device, waveform, cfg)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    other = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6, readout_noise_sigma=0.05, rng_seed=8)
    x3, _ = simulate_ramsey(device, waveform, other)
    assert not np.array_equal(x1, x3)
    # noise is drawn X first, then Y, from one generator
    clean = RamseyConfig(tau_pulse=8e-6, delay_grid=delays, t2=75e-6)
    x0, y0 = simulate_ramsey(device, waveform, clean)
    rng = np.random.default_rng(7)
    assert np.array_equal(x1, x0 + rng.normal(0.0, 0.05, delays.size))
    assert np.array_equal(y1, y0 + rng.normal(0.0, 0.05, delays.size))


def test_square_transient_waveform_pieces():
    amp, width, tau, idle = 5e-4, 8e-6, 13e-6, -0.278
    waveform = square_transient_waveform(amp, width, tau, idle)
    assert waveform(-1e-9) == idle
    assert waveform(0.0) == idle + amp
    t_mid = 3e-6
    assert_allclose(waveform(t_mid), idle + amp * math.exp(-t_mid / tau), rtol=1e-15)
    t_after = 12e-6
    expected = idle + square_pulse_flux_transient(amp, width, tau, t_after - width)
    assert_allclose(waveform(t_after), expected, rtol=1e-15)
    arr = waveform(np.array([-1e-9, 0.0, t_mid, t_after]))
    assert arr.shape == (4,)
    assert arr[2] == waveform(t_mid)
    with pytest.raises(ValueError):
        square_transient_waveform(amp, -1e-6, tau, idle)
    with pytest.raises(ValueError):
        square_transient_waveform(amp, width, 0.0, idle)


def test_pulse_flux_waveform_pieces(device):
    omega = 2.0 * math.pi / 8e-6
    tau = 8.79 / omega
    line = line_with_tau(tau)
    pulse = solve_biharmonic(1.0, omega, tau)
    waveform = pulse_flux_waveform(pulse, line, device)
    assert waveform(-1e-12) == device.phi_idle
    t_mid = 2.5e-6
    expected = device.phi_idle + device.flux_per_volt * (
        pulse.evaluate(t_mid) - capacitor_voltage(pulse, line, t_mid)
    )
    assert_allclose(waveform(t_mid), expected, rtol=1e-15)
    t_after = 8e-6 + 4e-6
    v_end = capacitor_voltage(pulse, line, 8e-6)
    expected = device.phi_idle - device.flux_per_volt * v_end * math.exp(-4e-6 / tau)
    assert_allclose(waveform(t_after), expected, rtol=1e-12)
    # designed pulse hands off continuously at the period edge
    left = waveform(8e-6 * (1.0 - 1e-12))
    right = waveform(8e-6)
    assert abs(left - right) < 1e-12
    arr = waveform(np.array([t_mid, t_after]))
    assert arr[0] == waveform(t_mid)


def test_square_train_response_shape_and_settling():
    out = square_train_response(tau=10e-6, omega_max=2.0 * math.pi * 5e9, phi_idle=0.2)
    assert set(out) == {"t", "commanded", "flux", "frequency"}
    t, flux = out["t"], out["flux"]
    assert out["commanded"][0] == 0.1
    assert flux[0] == pytest.approx(0.2 + 0.1, rel=1e-12)
    # tail default is 3*tau, so the line has essentially discharged at the end
    assert abs(flux[-1] - 0.2) < 0.06 * 0.1
    # with tau equal to the pulse spacing the line never settles between
    # pulses: the second pulse rides on leftover charge and peaks lower
    period = 20e-6
    first = (t >= 0.0) & (t < 10e-6)
    second = (t >= period) & (t < period + 10e-6)
    peak1 = np.max(flux[first])
    peak2 = np.max(flux[second])
    assert abs(peak2 - peak1) > 0.01 * 0.1


def test_square_train_response_frequency_applies_flux_map():
    out = square_train_response(tau=10e-6, omega_max=2.0 * math.pi * 5e9, phi_idle=0.2, n_pulses=1)
    probe = CouplerDevice(omega_q=1.0, omega_max=2.0 * math.pi * 5e9, g=0.0, flux_per_volt=0.0, phi_idle=0.2)
    assert_allclose(out["frequency"], coupler_frequency(out["flux"], probe), rtol=1e-15)


def test_square_train_response_long_line_with_short_tail():
    # a line 1000x slower than the pulses: simulate a short tail explicitly
    out = square_train_response(
        tau=1e-3, omega_max=2.0 * math.pi * 5e9, phi_idle=0.0,
        tau_pulse=1e-6, gap=1e-6, n_pulses=2, tail=5e-6,
    )
    assert out["t"][-1] >= 9e-6
    # almost nothing has discharged this early
    assert abs(out["flux"][-1]) > 1e-4


def test_square_train_response_validation():
    with pytest.raises(ValueError):
        square_train_response(tau=0.0, omega_max=1.0, phi_idle=0.0)
    with pytest.raises(ValueError):
        square_train_response(tau=1e-5, omega_max=1.0, phi_idle=0.0, n_pulses=0)
    with pytest.raises(ValueError):
        square_train_response(tau=1e-5, omega_max=1.0, phi_idle=0.0, gap=-1e-6)
    with pytest.raises(ValueError):
        square_train_response(tau=1e-5, omega_max=1.0, phi_idle=0.0, tail=0.0)


@pytest.mark.parametrize("n_pulses, shown", [(2.9, "2.9"), (True, "True")])
def test_square_train_response_refuses_a_non_integer_pulse_count(n_pulses, shown):
    # 2.9 used to run two pulses
    with pytest.raises(ValueError, match=rf"^n_pulses must be an integer, got {shown}$"):
        square_train_response(tau=1e-5, omega_max=1.0, phi_idle=0.0, n_pulses=n_pulses)
