import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    HarmonicPulse,
    RCLine,
    capacitor_voltage,
    capacitor_voltage_steady_state,
    integrate_line_response,
    line_current,
    solve_biharmonic,
    square_pulse_flux_transient,
    transient_coefficient,
)

from fluxshape import pulse as pulse_module
from fluxshape import rcline

from conftest import line_with_tau


def _random_pulse(rng, tau_pulse, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    return HarmonicPulse(
        tau_pulse,
        a0=float(rng.uniform(-1, 1)),
        a=tuple(rng.uniform(-1, 1, n)),
        b=tuple(rng.uniform(-1, 1, n)),
    )


def test_rcline_validation():
    with pytest.raises(ValueError):
        RCLine(0.0, 1e-6)
    with pytest.raises(ValueError):
        RCLine(50.0, -1e-6)
    line = RCLine(50.0, 2.2e-7)
    assert line.tau == pytest.approx(1.1e-5, rel=1e-15)


def test_transient_coefficient_values():
    assert transient_coefficient(HarmonicPulse(1.0), 0.5) == 0.0
    p = HarmonicPulse(8e-6, a=(0.0,), b=(1.0,))
    tau = 8.79 / p.omega
    k = transient_coefficient(p, tau)
    assert_allclose(k, -8.79 / (1.0 + 8.79**2), rtol=1e-12)
    assert_allclose(k, -0.112312, rtol=1e-4)
    # large omega*tau limit -b1/(omega*tau) agrees within 2 percent here
    assert_allclose(k, -1.0 / 8.79, rtol=0.02)


def test_transient_coefficient_designed_pulse_cancels():
    omega = 2.0 * math.pi / 8e-6
    tau = 8.79 / omega
    pulse = solve_biharmonic(1.0, omega, tau)
    assert abs(transient_coefficient(pulse, tau)) < 1e-14


def test_transient_coefficient_linearity():
    rng = np.random.default_rng(13)
    tau_pulse = 4e-6
    tau = 2.3e-6
    p1 = _random_pulse(rng, tau_pulse)
    p2 = HarmonicPulse(
        tau_pulse,
        a0=float(rng.uniform(-1, 1)),
        a=tuple(rng.uniform(-1, 1, p1.n_harmonics)),
        b=tuple(rng.uniform(-1, 1, p1.n_harmonics)),
    )
    alpha, beta = 0.7, -2.1
    combo = HarmonicPulse(
        tau_pulse,
        a0=alpha * p1.a0 + beta * p2.a0,
        a=tuple(alpha * x + beta * y for x, y in zip(p1.a, p2.a)),
        b=tuple(alpha * x + beta * y for x, y in zip(p1.b, p2.b)),
    )
    expected = alpha * transient_coefficient(p1, tau) + beta * transient_coefficient(p2, tau)
    assert_allclose(transient_coefficient(combo, tau), expected, rtol=1e-12)


def test_capacitor_voltage_dc_charging():
    line = RCLine(50.0, 2e-7)
    p = HarmonicPulse(1e-3, a0=1.0)
    t = np.linspace(0.0, 5.0 * line.tau, 300)
    assert_allclose(capacitor_voltage(p, line, t), 1.0 - np.exp(-t / line.tau), rtol=1e-12, atol=1e-15)
    assert np.all(capacitor_voltage(HarmonicPulse(1e-3), line, t) == 0.0)


def test_capacitor_voltage_steady_state_amplitude():
    p = HarmonicPulse(8e-6, a=(0.0,), b=(1.0,))
    tau = 8.79 / p.omega
    t = np.linspace(0.0, p.tau_pulse, 200001)
    amp = np.max(np.abs(capacitor_voltage_steady_state(p, tau, t)))
    assert_allclose(amp, 1.0 / math.sqrt(1.0 + 8.79**2), rtol=1e-8)
    assert_allclose(amp, 0.11304, rtol=1e-4)


def test_transient_isolation():
    # full response minus the periodic part is exactly the decaying term
    rng = np.random.default_rng(29)
    p = _random_pulse(rng, 6e-6)
    line = line_with_tau(2.0e-6)
    k = transient_coefficient(p, line.tau)
    t = np.linspace(0.0, 4 * p.tau_pulse, 500)
    diff = capacitor_voltage(p, line, t) - capacitor_voltage_steady_state(p, line.tau, t)
    assert_allclose(diff, -k * np.exp(-t / line.tau), rtol=0.0, atol=1e-10)


def test_line_current_dc_and_zero():
    line = RCLine(50.0, 2e-7)
    t = np.linspace(0.0, 5.0 * line.tau, 50)
    assert_allclose(line_current(HarmonicPulse(1.0, a0=1.0), line, t), np.exp(-t / line.tau) / 50.0, rtol=1e-12)
    assert np.all(line_current(HarmonicPulse(1.0), line, t) == 0.0)


def test_line_current_designed_pulse_endpoints():
    omega = 2.0 * math.pi / 8e-6
    tau = 8.79 / omega
    pulse = solve_biharmonic(1.0, omega, tau)
    line = RCLine(50.0, tau / 50.0)
    for t in (0.0, pulse.tau_pulse):
        assert abs(line_current(pulse, line, t)) < 1e-10


def test_ode_oracle_homogeneous_and_step():
    line = line_with_tau(1e-5)
    t = np.linspace(0.0, 5e-5, 2001)
    v, i = integrate_line_response(lambda s: np.zeros_like(s), line, t, v_c_initial=1.0)
    assert_allclose(v, np.exp(-t / line.tau), rtol=1e-8)
    assert_allclose(i, -np.exp(-t / line.tau) / line.resistance, rtol=1e-8)
    v, i = integrate_line_response(lambda s: np.ones_like(s), line, t)
    assert_allclose(v, 1.0 - np.exp(-t / line.tau), rtol=1e-8, atol=1e-12)


def test_ode_oracle_matches_closed_form():
    rng = np.random.default_rng(101)
    p = _random_pulse(rng, 5e-6)
    tau = 3.7 / p.omega
    line = line_with_tau(tau)
    step = min(tau / 50.0, p.tau_pulse / 200.0)
    n = int(math.ceil(5.0 * p.tau_pulse / step))
    t = np.linspace(0.0, 5.0 * p.tau_pulse, n + 1)
    v0 = capacitor_voltage(p, line, 0.0)
    v, i = integrate_line_response(p.evaluate, line, t, v_c_initial=v0)
    v_cf = capacitor_voltage(p, line, t)
    i_cf = line_current(p, line, t)
    assert np.max(np.abs(v - v_cf)) < 1e-6 * np.max(np.abs(v_cf))
    assert np.max(np.abs(i - i_cf)) < 1e-6 * np.max(np.abs(i_cf))


def test_ode_oracle_grid_validation():
    line = line_with_tau(1e-5)
    with pytest.raises(ValueError):
        integrate_line_response(lambda s: np.zeros_like(s), line, np.linspace(0.0, 1e-4, 11))
    with pytest.raises(ValueError):
        integrate_line_response(lambda s: np.zeros_like(s), line, np.array([0.0, 1e-7, 1e-7]))
    with pytest.raises(ValueError):
        integrate_line_response(lambda s: np.zeros_like(s), line, np.array([0.0]))


def test_ode_oracle_scalar_only_waveform():
    line = line_with_tau(1e-5)
    t = np.linspace(0.0, 1e-5, 101)
    v_vec, _ = integrate_line_response(lambda s: np.ones_like(s), line, t)
    v_scal, _ = integrate_line_response(lambda s: 1.0, line, t)
    assert np.array_equal(v_vec, v_scal)


def _three_call_rk4(v_in, line, t, v_c_initial=0.0):
    """RK4 reference that evaluates step starts, midpoints and ends separately and scans 256 steps per call."""
    h = np.diff(t)
    f0 = np.asarray(v_in(t[:-1]), dtype=float)
    fm = np.asarray(v_in(t[:-1] + 0.5 * h), dtype=float)
    f1 = np.asarray(v_in(t[1:]), dtype=float)
    decay, b0, bm, b1 = rcline._rk4_affine_coefficients(h / line.tau)
    forced = b0 * f0 + bm * fm + b1 * f1
    v = np.zeros(t.size)
    v[0] = v_c_initial
    for start in range(0, forced.size, rcline._CHUNK):
        stop = min(start + rcline._CHUNK, forced.size)
        q = np.cumprod(decay[start:stop])
        v[start + 1 : stop + 1] = q * (v[start] + np.cumsum(forced[start:stop] / q))
    return v, (np.concatenate([f0, f1[-1:]]) - v) / line.resistance


def test_ode_oracle_evaluates_each_grid_node_once():
    calls = []

    def counting(s):
        calls.append(np.size(s))
        return np.sin(s * 1e5)

    line = line_with_tau(1e-5)
    n = 1000
    integrate_line_response(counting, line, np.linspace(0.0, 1e-4, n + 1))
    assert calls == [n + 1, n]
    assert sum(calls) == 2 * n + 1


def test_ode_oracle_node_reuse_is_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = _random_pulse(rng, 8e-6)
        line = line_with_tau(float(rng.uniform(2e-6, 2e-5)))
        t = np.linspace(0.0, 20.0 * p.tau_pulse, int(rng.integers(5_000, 20_000)) + 1)
        for got, ref in zip(integrate_line_response(p.evaluate, line, t), _three_call_rk4(p.evaluate, line, t)):
            assert got.tobytes() == ref.tobytes()

    # a commanded square train as square_train_response builds it
    tau, tau_pulse, period, train_end = 1e-5, 1e-5, 2e-5, 6e-5

    def commanded(s):
        s = np.asarray(s, dtype=float)
        inside = (s >= 0.0) & (s < train_end) & (np.mod(s, period) < tau_pulse)
        return np.where(inside, 5e-4, 0.0)

    line = RCLine(1.0, tau)
    dt = tau / 60.0
    t = np.arange(int(math.ceil((train_end + 3.0 * tau) / dt)) + 1) * dt
    for got, ref in zip(integrate_line_response(commanded, line, t), _three_call_rk4(commanded, line, t)):
        assert got.tobytes() == ref.tobytes()


def _basis_step_coefficients(z):
    """RK4 affine coefficients found by stepping the basis vectors through the four stages."""

    def step(v, f0, fm, f1):
        k1 = z * (f0 - v)
        k2 = z * (fm - v - 0.5 * k1)
        k3 = z * (fm - v - 0.5 * k2)
        k4 = z * (f1 - v - k3)
        return v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    return step(1.0, 0.0, 0.0, 0.0), step(0.0, 1.0, 0.0, 0.0), step(0.0, 0.0, 1.0, 0.0), step(0.0, 0.0, 0.0, 1.0)


def test_rk4_coefficient_polynomials_match_the_basis_step():
    # the Horner polynomials and the stepped basis vectors round differently,
    # within 4 ulp (3 measured) over every step size the oracle accepts
    z = np.logspace(-9, math.log10(1.0 / 50.0), 20_001)
    for got, ref in zip(rcline._rk4_affine_coefficients(z), _basis_step_coefficients(z)):
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 513])
def test_ode_oracle_block_scan_matches_the_chunk_loop(n_steps):
    # one step, one row short of, at, just past and past two rows of the scan
    rng = np.random.default_rng(n_steps)
    p = _random_pulse(rng, 8e-6)
    line = line_with_tau(1.1e-5)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n_steps) * line.tau / 50.0)])
    for got, ref in zip(
        integrate_line_response(p.evaluate, line, t, v_c_initial=-0.37),
        _three_call_rk4(p.evaluate, line, t, v_c_initial=-0.37),
    ):
        assert got.tobytes() == ref.tobytes()


def test_ode_oracle_matches_a_scalar_rk4_loop():
    # the textbook stage-by-stage RK4 step on a non-uniform grid, one float at a time
    rng = np.random.default_rng(31)
    p = _random_pulse(rng, 8e-6)
    line = line_with_tau(1.1e-5)
    h = rng.uniform(0.2, 1.0, 300) * line.tau / 50.0
    t = np.concatenate([[0.0], np.cumsum(h)])
    f = lambda s: float(p.evaluate(s))
    v_ref = [0.8]
    for t0, dt in zip(t[:-1].tolist(), h.tolist()):
        v = v_ref[-1]
        k1 = dt * (f(t0) - v) / line.tau
        k2 = dt * (f(t0 + 0.5 * dt) - (v + 0.5 * k1)) / line.tau
        k3 = dt * (f(t0 + 0.5 * dt) - (v + 0.5 * k2)) / line.tau
        k4 = dt * (f(t0 + dt) - (v + k3)) / line.tau
        v_ref.append(v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
    v, i = integrate_line_response(p.evaluate, line, t, v_c_initial=0.8)
    v_ref = np.array(v_ref)
    assert np.max(np.abs(v - v_ref)) <= 1e-14 * np.max(np.abs(v_ref))
    i_ref = (p.evaluate(t) - v_ref) / line.resistance
    assert np.max(np.abs(i - i_ref)) <= 1e-14 * np.max(np.abs(i_ref))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ode_oracle_rejects_a_non_finite_time_grid(bad):
    line = RCLine(1.0, 1e-5)
    with pytest.raises(ValueError, match=rf"^t_grid must be finite, got {bad!r} at index 1$"):
        integrate_line_response(lambda s: np.ones_like(s), line, np.array([0.0, bad, 1e-7]))


def test_square_pulse_droop_and_undershoot():
    # raw square through the line: delivered current sags during the pulse
    # and undershoots below zero after it
    tau = 10e-6
    width = 20e-6
    line = line_with_tau(tau)

    def square(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0.0) & (t < width), 1.0, 0.0)

    t = np.linspace(0.0, 2.0 * width, 4001)
    _, i = integrate_line_response(square, line, t)
    during = (t > 0.0) & (t < width)
    after = t > width * 1.01
    assert i[during][-1] < 0.5 * i[during][0]
    assert np.min(i[after]) < 0.0


def test_square_pulse_flux_transient_values():
    # residual right after an 8 us pulse on a 13 us line
    val = square_pulse_flux_transient(1.0, 8e-6, 13e-6, 0.0)
    assert_allclose(val, -1.0 + math.exp(-8.0 / 13.0), rtol=1e-12)
    assert_allclose(val, -0.45960, rtol=1e-4)
    # far delays decay to the baseline
    assert_allclose(square_pulse_flux_transient(1.0, 8e-6, 13e-6, 1.0, baseline=0.25), 0.25, rtol=1e-12)
    # vanishing pulse width leaves nothing behind
    assert abs(square_pulse_flux_transient(1.0, 1e-18, 13e-6, 5e-6)) < 1e-10
    with pytest.raises(ValueError):
        square_pulse_flux_transient(1.0, 0.0, 13e-6, 0.0)
    with pytest.raises(ValueError):
        square_pulse_flux_transient(1.0, 8e-6, 13e-6, -1e-6)


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar-only"])
def test_ode_oracle_rejects_non_finite_waveform(vectorized):
    line = line_with_tau(1e-5)
    t = np.linspace(0.0, 1e-5, 1001)
    if vectorized:
        v_in = lambda s: np.where(s > 5e-6, math.nan, 1.0)
    else:
        # the comparison fails on an array, so the oracle falls back to scalar calls
        v_in = lambda s: math.nan if s > 5e-6 else 1.0
    with pytest.raises(ValueError, match=r"^waveform must be finite, got nan at index \d+$"):
        integrate_line_response(v_in, line, t)


def _explicit_sum(t, n, c, s, omega):
    theta = np.multiply.outer(t, n) * omega
    return (c * np.cos(theta) + s * np.sin(theta)).sum(axis=-1)


def _longdouble_sum(t, n, c, s, omega):
    ld = np.longdouble
    theta = np.multiply.outer(t.astype(ld), n.astype(ld)) * ld(omega)
    return (c.astype(ld) * np.cos(theta) + s.astype(ld) * np.sin(theta)).sum(axis=-1)


def _sum_error_bound(t, n_harm, c, s, omega):
    # eps * N * (1 + |w t|) * sum(|c_n| + |s_n|): the rounding of the argument
    # n*w*t grows with the phase, and the products and the sum add about N
    # roundings per unit of coefficient mass; both evaluation orders stay
    # within 0.84 of it at factor 1 over 2000 random spectra
    return 2.0 * np.finfo(float).eps * n_harm * (1.0 + np.abs(omega * t)) * np.sum(np.abs(c) + np.abs(s))


def test_closed_forms_match_explicit_harmonic_sums():
    # the Horner sum and the explicit sum both stay within one error formula
    # of a long-double evaluation at phases up to ~1000 rad; the pulse, the
    # capacitor voltage and the line current all go through that one sum,
    # and a pulse with no harmonics is its DC level
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.fail("np.longdouble has no extra precision on this platform, so it cannot serve as the reference")
    fourier_sum = pulse_module._fourier_sum
    rng = np.random.default_rng(5)
    for trial in range(60):
        n_harm = trial % 9
        pulse = HarmonicPulse(
            8e-6, a0=float(rng.uniform(-1, 1)),
            a=tuple(rng.uniform(-1, 1, n_harm)), b=tuple(rng.uniform(-1, 1, n_harm)),
        )
        line = line_with_tau(float(rng.uniform(1e-6, 3e-5)))
        w = pulse.omega
        t = np.concatenate([rng.uniform(0.0, 1000.0 / w, 5), rng.uniform(0.0, pulse.tau_pulse, 2)])
        n = np.arange(1, n_harm + 1)
        x = n * (w * line.tau)
        a, b = np.asarray(pulse.a), np.asarray(pulse.b)
        c, s = (a - x * b) / (1.0 + x * x), (x * a + b) / (1.0 + x * x)
        for cc, ss in ((a, b), (c, s), (n * s, -(n * c))):
            ref = _longdouble_sum(t, n, cc, ss, w)
            bound = _sum_error_bound(t, n_harm, cc, ss, w)
            assert np.all(np.abs(fourier_sum(t, w, cc, ss) - ref) <= bound)
            assert np.all(np.abs(_explicit_sum(t, n, cc, ss, w) - ref) <= bound)
        k = transient_coefficient(pulse, line.tau)
        decay = np.exp(-t / line.tau)
        assert np.array_equal(pulse.evaluate(t), pulse.a0 + fourier_sum(t, w, a, b))
        assert np.array_equal(capacitor_voltage(pulse, line, t), pulse.a0 + fourier_sum(t, w, c, s) - k * decay)
        assert np.array_equal(
            line_current(pulse, line, t),
            (k / line.resistance) * decay + line.capacitance * w * fourier_sum(t, w, n * s, -(n * c)),
        )
        if n_harm == 0:
            assert np.all(pulse.evaluate(t) == pulse.a0)
        assert pulse.evaluate(float(t[0])) == pulse.evaluate(t)[0]


def test_closed_forms_match_ode_oracle_on_random_spectra():
    # the oracle shares no code with the closed forms: random spectra
    # (N = 0..8), line time constants and omega*tau, each within
    # criterion 1's 1e-6 of the peak over three periods from zero pre-history
    rng = np.random.default_rng(23)
    for trial in range(36):
        n_harm = trial % 9
        pulse = HarmonicPulse(
            float(rng.uniform(2e-6, 2e-5)), a0=float(rng.uniform(-1, 1)),
            a=tuple(rng.uniform(-1, 1, n_harm)), b=tuple(rng.uniform(-1, 1, n_harm)),
        )
        omega_tau = float(np.exp(rng.uniform(math.log(0.3), math.log(30.0))))
        line = line_with_tau(omega_tau / pulse.omega)
        step = min(line.tau / 50.0, pulse.tau_pulse / (200.0 * max(n_harm, 1)))
        n = int(math.ceil(3.0 * pulse.tau_pulse / step))
        t = np.linspace(0.0, 3.0 * pulse.tau_pulse, n + 1)
        v, i = integrate_line_response(pulse.evaluate, line, t)
        v_cf = capacitor_voltage(pulse, line, t)
        i_cf = line_current(pulse, line, t)
        assert np.max(np.abs(v - v_cf)) < 1e-6 * np.max(np.abs(v_cf)), (trial, omega_tau)
        assert np.max(np.abs(i - i_cf)) < 1e-6 * np.max(np.abs(i_cf)), (trial, omega_tau)
