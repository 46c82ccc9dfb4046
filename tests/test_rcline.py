import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    HarmonicPulse,
    RCLine,
    capacitor_voltage,
    integrate_line_response,
    line_current,
    solve_biharmonic,
    square_transient_waveform,
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
    # a single sine at omega*tau = 8.79; over period 60 the tail exp(-t/tau)
    # is below 1e-18, so the voltage is the steady state alone
    p = HarmonicPulse(8e-6, a=(0.0,), b=(1.0,))
    line = line_with_tau(8.79 / p.omega)
    t = np.linspace(60.0 * p.tau_pulse, 61.0 * p.tau_pulse, 200001)
    amp = np.max(np.abs(capacitor_voltage(p, line, t)))
    assert_allclose(amp, 1.0 / math.sqrt(1.0 + 8.79**2), rtol=1e-8)
    assert_allclose(amp, 0.11304, rtol=1e-4)


def test_transient_isolation():
    # adding back the decaying term leaves a voltage that repeats every period
    rng = np.random.default_rng(29)
    p = _random_pulse(rng, 6e-6)
    line = line_with_tau(2.0e-6)
    k = transient_coefficient(p, line.tau)
    t = np.linspace(0.0, 3 * p.tau_pulse, 500)
    periodic = capacitor_voltage(p, line, t) + k * np.exp(-t / line.tau)
    later = capacitor_voltage(p, line, t + p.tau_pulse) + k * np.exp(-(t + p.tau_pulse) / line.tau)
    assert_allclose(later, periodic, rtol=0.0, atol=1e-12)


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
    v, i = integrate_line_response(lambda s: np.zeros_like(s), line, t)
    assert np.array_equal(v, np.zeros(t.size)) and np.array_equal(i, np.zeros(t.size))
    # a unit step from zero charges as 1 - exp(-t/tau), and the current decays as exp(-t/tau)/R
    v, i = integrate_line_response(lambda s: np.ones_like(s), line, t)
    assert_allclose(v, 1.0 - np.exp(-t / line.tau), rtol=1e-8, atol=1e-12)
    assert_allclose(i, np.exp(-t / line.tau) / line.resistance, rtol=1e-8)


def test_ode_oracle_matches_closed_form():
    rng = np.random.default_rng(101)
    p = _random_pulse(rng, 5e-6)
    tau = 3.7 / p.omega
    line = line_with_tau(tau)
    step = min(tau / 50.0, p.tau_pulse / 200.0)
    n = int(math.ceil(5.0 * p.tau_pulse / step))
    t = np.linspace(0.0, 5.0 * p.tau_pulse, n + 1)
    v, i = integrate_line_response(p.evaluate, line, t)
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


def test_ode_oracle_calls_the_waveform_once_and_takes_no_scalar():
    # a refusal from the waveform comes back from its one call, with no
    # retry per grid point, and a waveform that is not vectorized is refused
    line = line_with_tau(1e-5)
    t = np.linspace(0.0, 1e-5, 101)
    calls = []

    def refusing(s):
        calls.append(np.size(s))
        raise ValueError("refused")

    with pytest.raises(ValueError, match="^refused$"):
        integrate_line_response(refusing, line, t)
    assert calls == [101]
    with pytest.raises(ValueError, match=r"^waveform must be 1-D, got shape \(\)$"):
        integrate_line_response(lambda s: 1.0, line, t)


def _three_call_rk4(v_in, line, t):
    """RK4 reference that evaluates step starts, midpoints and ends separately and scans each step's own coefficients."""
    h = np.diff(t)
    f0 = np.asarray(v_in(t[:-1]), dtype=float)
    fm = np.asarray(v_in(t[:-1] + 0.5 * h), dtype=float)
    f1 = np.asarray(v_in(t[1:]), dtype=float)
    decay, b0, bm, b1 = rcline._rk4_affine_coefficients(h / line.tau)
    forced = b0 * f0 + bm * fm + b1 * f1
    v = np.zeros(t.size)
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


def test_ode_oracle_differences_the_grid_once(monkeypatch):
    # the order check and the step sizes share one np.diff of the grid
    sizes = []
    diff = np.diff

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return diff(a, *args, **kwargs)

    monkeypatch.setattr(np, "diff", counting)
    rcline.integrate_line_response(lambda s: np.ones_like(s), line_with_tau(1e-5), np.linspace(0.0, 1e-5, 101))
    assert sizes == [101]


def _assert_within_rounding(got, ref, n_steps):
    # each step rounds a few operations on either side (three forcing
    # products and their sum, then the update) and a decay factor of at most
    # 1 passes an error on without growing it, so the two integrations may
    # drift apart by up to 8 eps of the peak per step
    tol = 8.0 * np.finfo(float).eps * n_steps
    for x, y in zip(got, ref):
        assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(y))


def test_ode_oracle_node_reuse_matches_the_chunk_loop():
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = _random_pulse(rng, 8e-6)
        line = line_with_tau(float(rng.uniform(2e-6, 2e-5)))
        t = np.linspace(0.0, 20.0 * p.tau_pulse, int(rng.integers(5_000, 20_000)) + 1)
        _assert_within_rounding(integrate_line_response(p.evaluate, line, t), _three_call_rk4(p.evaluate, line, t), t.size - 1)

    # a commanded train of three square pulses, each tau wide and one tau apart
    tau, tau_pulse, period, train_end = 1e-5, 1e-5, 2e-5, 6e-5

    def commanded(s):
        s = np.asarray(s, dtype=float)
        inside = (s >= 0.0) & (s < train_end) & (np.mod(s, period) < tau_pulse)
        return np.where(inside, 5e-4, 0.0)

    line = RCLine(1.0, tau)
    dt = tau / 60.0
    t = np.arange(int(math.ceil((train_end + 3.0 * tau) / dt)) + 1) * dt
    _assert_within_rounding(integrate_line_response(commanded, line, t), _three_call_rk4(commanded, line, t), t.size - 1)


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


_BLOCK = pulse_module._BLOCK


@pytest.mark.parametrize(
    "n_steps", [1, 63, 64, 65, 255, 256, 257, 513, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 20_000, 200_000]
)
def test_ode_oracle_block_scan_matches_the_chunk_loop(n_steps):
    # one step, one row short of, at and just past a row of the scan, several
    # rows, one block short of, at, just past and past three blocks, and the
    # benchmark's two sizes, from zero charge under a drive that is nonzero
    # from the first node on, on a uniform grid from an offset
    rng = np.random.default_rng(n_steps)
    p = _random_pulse(rng, 8e-6)
    line = line_with_tau(1.1e-5)
    t0 = float(rng.uniform(0.0, 1e-4))
    t = np.linspace(t0, t0 + n_steps * float(rng.uniform(0.2, 1.0)) * line.tau / 50.0, n_steps + 1)
    assert p.evaluate(t0) != 0.0
    _assert_within_rounding(integrate_line_response(p.evaluate, line, t), _three_call_rk4(p.evaluate, line, t), n_steps)


def test_ode_oracle_matches_a_scalar_rk4_loop():
    # the textbook stage-by-stage RK4 step, one float at a time, on uniform
    # grids whose step is tau/50, 1e-9 tau, or so small that the step's decay
    # factor rounds to 1
    rng = np.random.default_rng(31)
    p = _random_pulse(rng, 8e-6)
    line = line_with_tau(1.1e-5)
    f = lambda s: float(p.evaluate(s))
    for z in (1.0 / 50.0, 1e-9, 1e-17):
        assert (rcline._rk4_affine_coefficients(z)[0] == 1.0) == (z == 1e-17)
        t = np.linspace(0.0, 300 * z * line.tau, 301)
        v_ref = [0.0]
        for t0, dt in zip(t[:-1].tolist(), np.diff(t).tolist()):
            v = v_ref[-1]
            k1 = dt * (f(t0) - v) / line.tau
            k2 = dt * (f(t0 + 0.5 * dt) - (v + 0.5 * k1)) / line.tau
            k3 = dt * (f(t0 + 0.5 * dt) - (v + 0.5 * k2)) / line.tau
            k4 = dt * (f(t0 + dt) - (v + k3)) / line.tau
            v_ref.append(v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
        v_ref = np.array(v_ref)
        i_ref = (p.evaluate(t) - v_ref) / line.resistance
        _assert_within_rounding(integrate_line_response(p.evaluate, line, t), (v_ref, i_ref), t.size - 1)


def test_ode_oracle_refuses_a_grid_that_is_not_uniform():
    # randomly spaced steps, and a linspace grid with one node moved by 4 ulp
    # of its largest, which spreads its steps past the 4 ulp allowed
    line = line_with_tau(1.1e-5)
    rng = np.random.default_rng(3)
    uneven = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 300) * line.tau / 50.0)])
    nudged = np.linspace(1e-4, 1e-4 + 300 * line.tau / 60.0, 301)
    nudged[-2] += 4.0 * np.spacing(nudged[-1])
    for t in (uneven, nudged):
        with pytest.raises(ValueError, match=r"^t_grid must be uniformly spaced, got steps from \S+ to \S+$"):
            integrate_line_response(lambda s: np.ones_like(s), line, t)


@pytest.mark.parametrize("n_steps", [1, 10, 999, 123_457, 2_000_000])
def test_ode_oracle_takes_linspace_and_arange_grids(n_steps):
    # linspace and arange(n) * dt grids, from zero and from an offset, spread
    # their steps by 2 ulp of their largest node at most, inside the 4 allowed
    rng = np.random.default_rng(n_steps)
    dt, t0 = float(rng.uniform(1e-10, 1e-8)), float(rng.uniform(0.0, 1e-4))
    line = line_with_tau(60.0 * dt)
    k = np.arange(n_steps + 1)
    for start in (0.0, t0):
        for t in (np.linspace(start, start + n_steps * dt, n_steps + 1), start + k * dt):
            v, _ = integrate_line_response(lambda s: np.ones_like(s), line, t)
            assert v[-1] > 0.0


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
    val = rcline._square_tail(1.0, 8e-6, 13e-6, 0.0)
    assert_allclose(val, -1.0 + math.exp(-8.0 / 13.0), rtol=1e-12)
    assert_allclose(val, -0.45960, rtol=1e-4)
    # far delays decay to zero
    assert rcline._square_tail(1.0, 8e-6, 13e-6, 1.0) == 0.0
    # vanishing pulse width leaves nothing behind
    assert abs(rcline._square_tail(1.0, 1e-18, 13e-6, 5e-6)) < 1e-10


@pytest.mark.parametrize("field", ["amplitude", "t_delay"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_square_pulse_flux_transient_refuses_a_non_finite_input(field, bad):
    # the square waveform is the transient's one public path: it refuses a
    # non-finite amplitude, and a time t_delay past the pulse end that is not
    # finite, each naming its field; a nan used to come back as the residual flux
    if field == "amplitude":
        with pytest.raises(ValueError, match=rf"^amplitude must be finite, got {bad!r}$"):
            square_transient_waveform(bad, 8e-6, 13e-6, 0.0)
    else:
        waveform = square_transient_waveform(1.0, 8e-6, 13e-6, 0.0)
        with pytest.raises(ValueError, match=rf"^t must be finite, got {bad!r} at index 1$"):
            waveform(8e-6 + np.array([0.0, bad, 2e-6]))


def test_ode_oracle_rejects_non_finite_waveform():
    line = line_with_tau(1e-5)
    t = np.linspace(0.0, 1e-5, 1001)
    with pytest.raises(ValueError, match=r"^waveform must be finite, got nan at index \d+$"):
        integrate_line_response(lambda s: np.where(s > 5e-6, math.nan, 1.0), line, t)


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


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_grid_kernels_allocate_no_temporary_that_grows_with_the_grid():
    # peaks in grid-sized arrays at 200 001 points, whole-array kernels then
    # blocked ones: the Fourier sum 7 -> 1.3 (its result and the block
    # buffers), then 1.09 on the matrix path (its result, which also holds
    # the uniform-grid test, and row and column factors of a few kB), 1.07
    # with the nodes from one matrix product, closed forms 7 -> 2 (the result
    # and the decaying tail, built in place), then 1.07 with the tail added
    # into the result block by block, the oracle on pulse.evaluate 10 -> 5.1,
    # then 3.3 with the midpoints in the steps' buffer and each buffer freed
    # before the next (3.27 on the matrix path)
    p = HarmonicPulse(8e-6, a0=0.1, a=(0.3, -0.2, 0.1), b=(1.0, 0.5, -0.3))
    line = line_with_tau(1.1e-5)
    t = np.linspace(0.0, 20 * p.tau_pulse, 200_001)
    a, b = np.asarray(p.a), np.asarray(p.b)
    assert _traced_peak(lambda: pulse_module._fourier_sum(t, p.omega, a, b)) <= 1.5 * t.nbytes
    assert _traced_peak(lambda: capacitor_voltage(p, line, t)) <= 1.2 * t.nbytes
    assert _traced_peak(lambda: line_current(p, line, t)) <= 1.2 * t.nbytes
    assert _traced_peak(lambda: integrate_line_response(p.evaluate, line, t)) <= 3.6 * t.nbytes


def _whole_array_capacitor_voltage(pulse, line, t):
    """:func:`capacitor_voltage` with its tail built in one grid-sized array and subtracted."""
    _, c, s = pulse._filtered_harmonics(line.tau)
    k = pulse.a0 + float(np.sum(c))
    t = np.asarray(t, dtype=float)
    out = pulse_module._fourier_sum(t, pulse.omega, c, s)
    out += pulse.a0
    out -= rcline._decay(t, line.tau, k)
    return float(out) if out.ndim == 0 else out


def _whole_array_line_current(pulse, line, t):
    """:func:`line_current` with its tail built in one grid-sized array and added."""
    n, c, s = pulse._filtered_harmonics(line.tau)
    k = pulse.a0 + float(np.sum(c))
    t = np.asarray(t, dtype=float)
    out = pulse_module._fourier_sum(t, pulse.omega, n * s, -(n * c))
    out *= line.capacitance * pulse.omega
    out += rcline._decay(t, line.tau, k / line.resistance)
    return float(out) if out.ndim == 0 else out


_TAIL_PULSES = {
    "k-positive": HarmonicPulse(8e-6, a0=0.7, a=(0.3, -0.2, 0.1), b=(1.0, 0.5, -0.3)),
    "k-negative": HarmonicPulse(8e-6, a0=-0.7, a=(0.3, -0.2, 0.1), b=(1.0, 0.5, -0.3)),
    "k-zero": HarmonicPulse(8e-6, a0=-0.0, a=(-0.0,), b=(0.0,)),
}


@pytest.mark.parametrize("shape", [(), (1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (200_001,), (3, _BLOCK - 5), "transposed"], ids=str)
def test_closed_form_tails_match_a_whole_array_decay(shape):
    # the tail added into the result block by block against the tail built
    # whole and subtracted (capacitor voltage) or added (current): a float
    # for a 0-d time, the shape of t otherwise, and every bit, for k of
    # either sign and zero; then the tail kernel itself for scales of +-0.0,
    # which no pulse gives as k, on results that hold zeros of either sign
    line = line_with_tau(1.1e-5)
    rng = np.random.default_rng(len(str(shape)))
    if shape == "transposed":
        t = rng.uniform(0.0, 1e-4, (_BLOCK + 3, 3)).T
    else:
        t = rng.uniform(0.0, 1e-4, shape)
        t = float(t) if shape == () else t
    signs = []
    for pulse in _TAIL_PULSES.values():
        signs.append(np.sign(transient_coefficient(pulse, line.tau)))
        for closed_form, reference in ((capacitor_voltage, _whole_array_capacitor_voltage), (line_current, _whole_array_line_current)):
            got, ref = closed_form(pulse, line, t), reference(pulse, line, t)
            assert type(got) is float if shape == () else got.shape == np.shape(t)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64)), closed_form.__name__
    assert signs == [1.0, -1.0, 0.0]
    base = rng.choice([0.0, -0.0, 0.25, -0.25], np.shape(t))
    for scale in (0.57, -0.83, 0.0, -0.0):
        for sign in (1.0, -1.0):
            got = base.copy()
            rcline._add_decay(got, t, line.tau, sign * scale)
            ref = base + rcline._decay(t, line.tau, scale) if sign > 0 else base - rcline._decay(t, line.tau, scale)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (scale, sign)


def test_ode_oracle_never_writes_into_the_callers_arrays():
    # the current gets its own array although the oracle's node values are
    # whatever the waveform returned: for the identity that is t_grid itself,
    # and it may be a view of the array it was given
    line = line_with_tau(1.1e-5)
    t = np.linspace(0.0, 2e-4, 2 * _BLOCK + 65)
    saved = t.copy()
    returned = []

    def view_of_argument(s):
        returned.append(s[::1])
        return returned[-1]

    for waveform in (lambda s: s, view_of_argument):
        v, i = integrate_line_response(waveform, line, t)
        assert np.array_equal(t.view(np.int64), saved.view(np.int64))
        for array in (t, *returned):
            assert not np.shares_memory(i, array)
            assert not np.shares_memory(v, array)
    assert returned


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("closed_form", [capacitor_voltage, line_current])
def test_closed_forms_refuse_a_time_before_zero_or_non_finite(closed_form, bad):
    # a nan used to come back as the voltage, and t = -1 as an overflowing current
    p = HarmonicPulse(8e-6, a0=0.1, a=(0.3,), b=(1.0,))
    line = line_with_tau(1.1e-5)
    rule = "non-negative and finite"
    with pytest.raises(ValueError, match=rf"^t must be {rule}, got {bad!r}$"):
        closed_form(p, line, bad)
    with pytest.raises(ValueError, match=rf"^t must be {rule}, got {bad!r} at index 1$"):
        closed_form(p, line, np.array([0.0, bad, 1e-6]))
