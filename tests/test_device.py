import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    CouplerDevice,
    HarmonicPulse,
    RamseyConfig,
    coupler_frequency,
    dressed_qubit_frequency,
    pulse_flux_waveform,
    simulate_ramsey,
    solve_biharmonic,
    square_transient_waveform,
    capacitor_voltage,
)
from fluxshape.device import _ramsey_phase
from fluxshape.rcline import _square_tail

from conftest import (
    COUPLER_MAX_GHZ,
    GHZ,
    MHZ,
    QUBIT_GHZ,
    line_with_tau,
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


@pytest.mark.parametrize("field", ["omega_q", "omega_max", "g"])
def test_coupler_device_refuses_a_frequency_the_dressed_map_would_overflow(field):
    # the dressed frequency squares these; 1e200 used to give an all-nan trace
    fields = dict(omega_q=1.0, omega_max=1.0, g=0.1, flux_per_volt=1.0, phi_idle=0.0)
    with pytest.raises(ValueError, match=rf"^{field} must be at most 1e\+100 rad/s, got 1e\+200 rad/s$"):
        CouplerDevice(**{**fields, field: 1e200})
    assert getattr(CouplerDevice(**{**fields, field: 1e100}), field) == 1e100


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


def test_dressed_array_call_matches_scalar_calls(device):
    # _ramsey_phase and extraction._to_flux append the idle point or the branch
    # edges to one array call, so each entry must equal its scalar call; the
    # sizes cover the vector loops' tails
    rng = np.random.default_rng(15)
    above = CouplerDevice(1.02 * device.omega_max, device.omega_max, device.g, device.flux_per_volt, device.phi_idle)
    uncoupled = CouplerDevice(device.omega_q, device.omega_max, 0.0, device.flux_per_volt, device.phi_idle)
    edges = [0.0, -0.0, 0.5, -0.5, 1.0, -1.5, device.phi_idle, math.floor(2.0 * device.phi_idle) / 2.0]
    phi = np.concatenate([edges, rng.uniform(-1.5, 1.5, 1000)])
    for dev in (device, above, uncoupled):
        scalars = np.array([dressed_qubit_frequency(p, dev) for p in phi.tolist()])
        for size in (*range(1, 20), phi.size):
            assert dressed_qubit_frequency(phi[:size], dev).tobytes() == scalars[:size].tobytes()


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
    phase = _ramsey_phase(device, lambda t: np.full(np.shape(t), device.phi_idle), cfg)
    assert np.all(phase == 0.0)


def test_ramsey_phase_constant_detuning(device):
    phi_held = device.phi_idle + 1e-3
    delta = dressed_qubit_frequency(phi_held, device) - dressed_qubit_frequency(device.phi_idle, device)
    delays = np.array([0.0, 0.5e-6, 2e-6, 7e-6])
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=delays)
    phase = _ramsey_phase(device, lambda t: np.full(np.shape(t), phi_held), cfg)
    assert_allclose(phase, delta * delays, rtol=1e-12)


def test_ramsey_phase_zero_delay_prepended(device):
    with_zero = RamseyConfig(tau_pulse=8e-6, delay_grid=[0.0, 1e-6, 3e-6])
    without_zero = RamseyConfig(tau_pulse=8e-6, delay_grid=[1e-6, 3e-6])
    # one sign detunes the qubit down at zero delay, where the empty first
    # segment sums to -0.0; the phase there must still be +0.0
    for amplitude in (5e-4, -5e-4):
        waveform = square_transient_waveform(amplitude, 8e-6, 13e-6, device.phi_idle)
        p_full = _ramsey_phase(device, waveform, with_zero)
        p_trim = _ramsey_phase(device, waveform, without_zero)
        assert p_full[0] == 0.0 and not np.signbit(p_full[0])
        assert np.array_equal(p_full[1:], p_trim)


def test_ramsey_phase_rejects_bad_waveform(device):
    cfg = RamseyConfig(tau_pulse=8e-6, delay_grid=[0.0, 1e-6])
    with pytest.raises(ValueError):
        _ramsey_phase(device, lambda t: np.full(np.shape(t), math.nan), cfg)


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


@pytest.mark.parametrize(
    "seed, message",
    [
        (2.9, "must be an integer, got 2.9"),
        (True, "must be an integer, got True"),
        (-1, "must be at least 0, got -1"),
        ("x", "must be an integer, got 'x'"),
    ],
    ids=["2.9", "True", "-1", "x"],
)
def test_ramsey_config_refuses_a_bad_seed_naming_it(seed, message):
    # 2.9 and True used to run seeds 2 and 1, and -1 failed later inside numpy
    with pytest.raises(ValueError, match=rf"^rng_seed {message}$"):
        RamseyConfig(tau_pulse=8e-6, delay_grid=[0.0, 1e-6], rng_seed=seed)


def test_square_transient_waveform_pieces():
    amp, width, tau, idle = 5e-4, 8e-6, 13e-6, -0.278
    waveform = square_transient_waveform(amp, width, tau, idle)
    # the standard undershoot at the trailing edge, then its decay
    assert_allclose(waveform(width), idle + amp * math.expm1(-width / tau), rtol=1e-15)
    t_after = 12e-6
    expected = idle + _square_tail(amp, width, tau, t_after - width)
    assert_allclose(waveform(t_after), expected, rtol=1e-15)
    arr = waveform(np.array([width, 10e-6, t_after]))
    assert arr.shape == (3,)
    assert arr[2] == waveform(t_after)
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
    t_after = 8e-6 + 4e-6
    v_end = capacitor_voltage(pulse, line, 8e-6)
    expected = device.phi_idle - device.flux_per_volt * v_end * math.exp(-4e-6 / tau)
    assert_allclose(waveform(t_after), expected, rtol=1e-12)
    assert waveform(8e-6) == device.phi_idle - device.flux_per_volt * v_end
    # the designed pulse hands off continuously at the period edge: the
    # delivered flux fpv * (V_in - V_c) just before it is the tail's start
    fpv, t_left = device.flux_per_volt, 8e-6 * (1.0 - 1e-12)
    left = fpv * (pulse.evaluate(t_left) - capacitor_voltage(pulse, line, t_left))
    assert abs(left - -fpv * v_end) < 1e-12
    arr = waveform(np.array([8e-6, t_after]))
    assert arr[1] == waveform(t_after)


@pytest.mark.parametrize("factory", ["square", "pulse"])
def test_waveforms_refuse_a_time_before_the_pulse_end(device, factory):
    # the waveforms are defined from the pulse end on, where every Ramsey
    # delay reads them; the pulse end itself is taken
    if factory == "square":
        waveform = square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle)
    else:
        waveform = pulse_flux_waveform(HarmonicPulse(8e-6, a=(0.0,), b=(1.0,)), line_with_tau(11.2e-6), device)
    # a time short of the end by a relative 1e-12 or less reads the end
    low = 8e-6 * (1.0 - 1e-12)
    assert waveform(low) == waveform(math.nextafter(8e-6, 0.0)) == waveform(8e-6)
    assert np.array_equal(waveform(np.array([low, 9e-6])), waveform(np.array([8e-6, 9e-6])))
    early = math.nextafter(low, 0.0)
    with pytest.raises(ValueError, match=rf"^t must be at least {low!r} and finite, got {early!r}$"):
        waveform(early)
    with pytest.raises(ValueError, match=rf"^t must be at least {low!r} and finite, got 0.0 at index 1$"):
        waveform(np.array([9e-6, 0.0, -1e-6]))
    assert isinstance(waveform(8e-6), float)
    assert waveform(np.array([8e-6, 9e-6])).shape == (2,)


def test_simulate_ramsey_pairs_a_period_with_a_pulse_designed_at_it(device):
    # 2*pi/(2*pi/T) rounds an ulp above T at T = 5.3 us, so the designed
    # pulse ends just after the config's tau_pulse; the first delay reads the
    # pulse end, and the trace is the one at the pulse's own period
    period = 5.3e-6
    pulse = solve_biharmonic(1.0, 2.0 * math.pi / period, 11.2e-6)
    assert pulse.tau_pulse > period
    waveform = pulse_flux_waveform(pulse, line_with_tau(11.2e-6), device)
    delays = np.arange(241) * 0.25e-6
    x, y = simulate_ramsey(device, waveform, RamseyConfig(tau_pulse=period, delay_grid=delays))
    x_own, y_own = simulate_ramsey(device, waveform, RamseyConfig(tau_pulse=pulse.tau_pulse, delay_grid=delays))
    assert_allclose(x, x_own, rtol=0.0, atol=1e-12)
    assert_allclose(y, y_own, rtol=0.0, atol=1e-12)


_OVERFLOWING_DELAY = r"^delay_grid must keep tau_pulse \+ delay finite, got 1e\+308 at index \d+ with tau_pulse 1e\+308$"


@pytest.mark.parametrize("factory", ["square", "pulse"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_waveforms_refuse_a_time_that_is_not_finite(device, factory, bad):
    # a non-finite time used to come back as the idle flux, or to be refused
    # as t_delay, a field of the tail's own function
    if factory == "square":
        waveform = square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle)
    else:
        waveform = pulse_flux_waveform(HarmonicPulse(8e-6, a=(0.0,), b=(1.0,)), line_with_tau(11.2e-6), device)
    with pytest.raises(ValueError, match=rf"^t must be finite, got {bad!r}$"):
        waveform(bad)
    with pytest.raises(ValueError, match=rf"^t must be finite, got {bad!r} at index 1$"):
        waveform(np.array([1e-5, bad, 2e-5]))
    # the simulator evaluates the waveform at tau_pulse + delay, which would
    # overflow here: the config refuses the grid
    with pytest.raises(ValueError, match=_OVERFLOWING_DELAY):
        RamseyConfig(tau_pulse=1e308, delay_grid=[0.0, 1e308])


def test_ramsey_refuses_an_overflowing_delay_before_any_waveform_call(device):
    # tau_pulse + delay overflows from about index 800 on: the grid is refused
    # at the boundary, so no waveform call is made, where the per-point
    # fallback of the waveform evaluation used to make 800 of them first
    calls = []
    waveform = square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle)

    def counting(t):
        calls.append(np.size(t))
        return waveform(t)

    with pytest.raises(ValueError, match=_OVERFLOWING_DELAY):
        simulate_ramsey(device, counting, RamseyConfig(tau_pulse=1e308, delay_grid=np.linspace(0.0, 1e308, 1000)))
    assert calls == []
    # a grid whose last time stays finite is taken
    config = RamseyConfig(tau_pulse=8e-6, delay_grid=[0.0, 1e308])
    assert config.delay_grid[-1] == 1e308


# The allocating, masked forms that the in-place kernels of coupler_frequency,
# dressed_qubit_frequency, the waveforms, _ramsey_phase and simulate_ramsey
# replaced: every output must match them bit for bit, signed zeros included


def _reference_coupler_frequency(phi, device):
    r = np.mod(np.abs(np.asarray(phi, dtype=float)), 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    out = device.omega_max * np.sqrt(np.where(r == 0.5, 0.0, np.maximum(np.cos(np.pi * r), 0.0)))
    return float(out) if out.ndim == 0 else out


def _reference_dressed(phi, device):
    wc = np.asarray(_reference_coupler_frequency(phi, device), dtype=float)
    if device.g == 0.0:
        out = np.full(wc.shape, device.omega_q)
    else:
        delta = device.omega_q - wc
        bend = np.sqrt(0.25 * delta * delta + device.g * device.g)
        branch = -1.0 if device.omega_q <= device.omega_max else 1.0
        out = 0.5 * (device.omega_q + wc) + branch * bend
    return float(out) if out.ndim == 0 else out


def _reference_tail_waveform(period, phi_idle, tail):
    def waveform(t):
        out = phi_idle + tail(np.atleast_1d(np.asarray(t, dtype=float)) - period)
        return float(out[0]) if np.ndim(t) == 0 else out

    return waveform


def _reference_ramsey_phase(device, waveform, config):
    pts = np.concatenate([[0.0], config.delay_grid])
    flux = np.asarray(waveform(config.tau_pulse + pts), dtype=float)
    freq = _reference_dressed(np.append(flux, device.phi_idle), device)
    detuning = freq[:-1] - freq[-1]
    return np.cumsum(0.5 * (detuning[1:] + detuning[:-1]) * np.diff(pts)) + 0.0


def _reference_simulate_ramsey(device, waveform, config):
    phase = _reference_ramsey_phase(device, waveform, config)
    delays = config.delay_grid
    env = np.exp(-delays / config.t2) if config.t2 is not None else np.ones(delays.shape)
    x, y = env * np.cos(phase), env * np.sin(phase)
    if config.readout_noise_sigma:
        rng = np.random.default_rng(config.rng_seed)
        x = x + rng.normal(0.0, config.readout_noise_sigma, delays.size)
        y = y + rng.normal(0.0, config.readout_noise_sigma, delays.size)
    return x, y


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


def _devices(device):
    above = CouplerDevice(1.02 * device.omega_max, device.omega_max, device.g, device.flux_per_volt, device.phi_idle)
    uncoupled = CouplerDevice(device.omega_q, device.omega_max, 0.0, device.flux_per_volt, device.phi_idle)
    return device, above, uncoupled


def test_flux_maps_match_their_reference_forms_bit_for_bit(device):
    rng = np.random.default_rng(25)
    # exact integers and half-integers of both signs, the values next to a
    # half, negative flux and a random spread
    special = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.5, 3.0, 0.25, -0.75, device.phi_idle]
    near_half = [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(-0.5, 0.0), np.nextafter(1.5, 2.0)]
    phi = np.concatenate([special, near_half, rng.uniform(-3.0, 3.0, 998), rng.uniform(-1e-3, 1e-3, 50)])
    for dev in _devices(device):
        for fn, ref in ((coupler_frequency, _reference_coupler_frequency), (dressed_qubit_frequency, _reference_dressed)):
            _assert_same_bits(fn(phi, dev), ref(phi, dev))
            _assert_same_bits(fn(phi.reshape(-1, 8), dev), ref(phi.reshape(-1, 8), dev))
            for value in [*special, *near_half, np.float64(0.3), np.asarray(-0.2)]:
                _assert_same_bits(fn(value, dev), ref(value, dev))
            kept = phi.copy()
            fn(phi, dev)
            assert np.array_equal(phi, kept)  # the caller's array is left alone


def test_waveforms_match_their_reference_forms_bit_for_bit(device):
    rng = np.random.default_rng(26)
    period = 8e-6
    line = line_with_tau(11.2e-6)
    pulse = solve_biharmonic(1.0, 2.0 * math.pi / period, 11.2e-6)
    amp, tau = -5e-4, 13e-6
    v_c_end = capacitor_voltage(pulse, line, period)
    fpv = device.flux_per_volt
    cases = [
        (square_transient_waveform(amp, period, tau, device.phi_idle),
         _reference_tail_waveform(period, device.phi_idle, lambda s: amp * (-np.exp(-s / tau) + np.exp(-(s + period) / tau)))),
        (pulse_flux_waveform(pulse, line, device),
         _reference_tail_waveform(period, device.phi_idle, lambda s: -fpv * v_c_end * np.exp(-s / line.tau))),
    ]
    # the pulse end and the times just past it, and grids past it
    edges = np.array([period, np.nextafter(period, 1.0), period + 1e-12, 20e-6])
    grids = [
        edges,
        np.concatenate([edges, rng.uniform(period, 70e-6, 500)]),
        period + np.arange(241) * 0.25e-6,
        period + np.sort(rng.uniform(0.0, 60e-6, 97)),
        np.array([period]),
        np.array([]),
    ]
    for waveform, reference in cases:
        for t in grids:
            _assert_same_bits(waveform(t), reference(t))
        for t in [*edges, 30e-6, np.float64(9e-6), np.asarray(12e-6)]:
            _assert_same_bits(waveform(t), reference(t))


def test_simulate_ramsey_matches_its_reference_form_bit_for_bit(device):
    rng = np.random.default_rng(27)
    waveforms = [
        square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle),
        square_transient_waveform(-5e-4, 8e-6, 5e-6, device.phi_idle),
        pulse_flux_waveform(HarmonicPulse(8e-6, a=(0.0,), b=(1.0,)), line_with_tau(11.2e-6), device),
        lambda t: np.full(np.shape(t), device.phi_idle),
    ]
    grids = [np.arange(241) * 0.25e-6, np.arange(961) * 0.0625e-6, np.sort(rng.uniform(0.0, 60e-6, 50)), [1e-6, 3e-6]]
    for dev in _devices(device):
        for waveform in waveforms:
            for grid in grids:
                for t2, sigma in ((None, None), (75e-6, None), (75e-6, 0.0), (None, 0.05), (75e-6, 0.05)):
                    config = RamseyConfig(8e-6, grid, t2=t2, readout_noise_sigma=sigma, rng_seed=int(rng.integers(2**31)))
                    _assert_same_bits(_ramsey_phase(dev, waveform, config), _reference_ramsey_phase(dev, waveform, config))
                    for got, want in zip(simulate_ramsey(dev, waveform, config), _reference_simulate_ramsey(dev, waveform, config)):
                        _assert_same_bits(got, want)
