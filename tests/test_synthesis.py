import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fluxshape import (
    HarmonicPulse,
    solve_biharmonic,
    solve_top_harmonic,
    sweep_transient_coefficient,
    transient_coefficient,
)

OMEGA = 2.0 * math.pi / 8e-6


def test_solve_biharmonic_ratio():
    x = 8.79
    pulse = solve_biharmonic(1.0, OMEGA, x / OMEGA)
    expected = -(0.5) * (1.0 + 4.0 * x * x) / (1.0 + x * x)
    assert pulse.a0 == 0.0
    assert pulse.a == (0.0, 0.0)
    assert pulse.b[0] == 1.0
    assert_allclose(pulse.b[1], expected, rtol=1e-15)
    assert_allclose(pulse.b[1], -1.98083, rtol=1e-5)
    assert_allclose(pulse.tau_pulse, 8e-6, rtol=1e-15)


def test_solve_biharmonic_limits():
    assert_allclose(solve_biharmonic(1.0, 1.0, 1e9).b[1], -2.0, rtol=1e-6)
    assert_allclose(solve_biharmonic(1.0, 1.0, 1e-9).b[1], -0.5, rtol=1e-6)


def test_solve_biharmonic_cancels_at_design_point():
    rng = np.random.default_rng(19)
    for _ in range(20):
        b1 = float(rng.uniform(-2, 2)) or 1.0
        x = float(10.0 ** rng.uniform(-1, 2))
        tau = x / OMEGA
        pulse = solve_biharmonic(b1, OMEGA, tau)
        assert abs(transient_coefficient(pulse, tau)) < 1e-14 * abs(b1)


def test_solve_biharmonic_validation():
    with pytest.raises(ValueError):
        solve_biharmonic(0.0, OMEGA, 1e-5)
    with pytest.raises(ValueError):
        solve_biharmonic(math.inf, OMEGA, 1e-5)
    with pytest.raises(ValueError):
        solve_biharmonic(1.0, 0.0, 1e-5)
    with pytest.raises(ValueError):
        solve_biharmonic(1.0, OMEGA, -1e-5)


def test_solve_top_harmonic_reduces_to_biharmonic():
    tau = 8.79 / OMEGA
    pulse, _ = solve_top_harmonic(0.0, [0.0], [1.0], OMEGA, tau)
    ref = solve_biharmonic(1.0, OMEGA, tau)
    assert pulse.a == (0.0, 0.0)
    assert_allclose(pulse.b, ref.b, rtol=1e-14)


def test_solve_top_harmonic_mixed_coefficients():
    tau = 8.79 / OMEGA
    pulse, cond3 = solve_top_harmonic(0.0, [0.3], [1.0], OMEGA, tau)
    assert pulse.a[-1] == -0.3
    assert pulse.condition_one_residual() == 0.0
    assert abs(transient_coefficient(pulse, tau)) < 1e-14
    assert cond3 == pulse.condition_three_residual(tau)


def test_solve_top_harmonic_sine_only_cancels_current_residual():
    tau = 8.79 / OMEGA
    pulse, cond3 = solve_top_harmonic(0.0, [0.0, 0.0], [1.0, 0.4], OMEGA, tau)
    assert pulse.a == (0.0, 0.0, 0.0)
    assert abs(cond3) < 1e-15
    assert abs(transient_coefficient(pulse, tau)) < 1e-14


def test_solve_top_harmonic_construction_sweep():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_low = int(rng.integers(1, 16))
        a0 = float(rng.uniform(-1, 1))
        a = rng.uniform(-1, 1, n_low)
        b = rng.uniform(-1, 1, n_low)
        x = float(10.0 ** rng.uniform(-1, 2))
        tau = x / OMEGA
        pulse, _ = solve_top_harmonic(a0, a, b, OMEGA, tau)
        scale = max(abs(pulse.a0), max(abs(v) for v in pulse.a), max(abs(v) for v in pulse.b))
        assert abs(transient_coefficient(pulse, tau)) < 1e-12 * scale
        assert abs(pulse.condition_one_residual()) < 1e-12 * scale


def test_solve_top_harmonic_validation():
    with pytest.raises(ValueError):
        solve_top_harmonic(0.0, [1.0], [1.0, 2.0], OMEGA, 1e-5)
    with pytest.raises(ValueError):
        solve_top_harmonic(0.0, [], [], OMEGA, 1e-5)
    with pytest.raises(ValueError):
        solve_top_harmonic(math.nan, [1.0], [1.0], OMEGA, 1e-5)
    # top-harmonic leverage vanishes for extreme omega*tau in either direction
    with pytest.raises(ValueError, match=r"^tau_assumed makes the top harmonic degenerate: N\*omega\*tau = 20000000000000\.0 "):
        solve_top_harmonic(0.0, [1.0], [1.0], 1.0, 1e13)
    with pytest.raises(ValueError, match=r"^tau_assumed makes the top harmonic degenerate: N\*omega\*tau = 2e-13 "):
        solve_top_harmonic(0.0, [1.0], [1.0], 1.0, 1e-13)


def _k(b1, omega_tau, m):
    """The biharmonic design's residual at one (omega*tau, m) cell of the sweep."""
    return float(sweep_transient_coefficient(b1, [omega_tau], [m]).k_exp[0, 0])


def _limiting_pulse(a, b):
    # omega = 1, so that omega*tau = tau
    return HarmonicPulse(2.0 * math.pi, a=a, b=b)


def test_mischaracterized_exact_at_unity():
    assert abs(_k(1.0, 8.79, 1.0)) < 1e-16


def test_mischaracterized_frozen_values():
    k100 = _k(1.0, 8.79, 100.0)
    k001 = _k(1.0, 8.79, 0.01)
    assert_allclose(k100, 1.0865828358266744e-3, rtol=1e-12)
    assert_allclose(k001, -0.08331026428480615, rtol=1e-12)
    assert abs(k001) > 10.0 * abs(k100)


def test_mischaracterized_linearity_and_zero():
    k1 = _k(1.0, 8.79, 100.0)
    k2 = _k(-0.3, 8.79, 100.0)
    assert_allclose(k2, -0.3 * k1, rtol=1e-12)
    assert _k(0.0, 8.79, 100.0) == 0.0
    with pytest.raises(ValueError):
        _k(1.0, 8.79, 0.0)
    with pytest.raises(ValueError):
        _k(math.nan, 8.79, 2.0)


def test_mischaracterized_broadcast_matches_design_path():
    # the sweep against the pulse that solve_biharmonic actually designs,
    # evaluated by transient_coefficient one cell at a time
    rng = np.random.default_rng(23)
    for omega in (1.0, OMEGA, float(10.0 ** rng.uniform(4, 8))):
        b1 = float(rng.uniform(-2.0, 2.0)) or 1.0
        tau = 10.0 ** rng.uniform(-1.0, 2.0, 17) / omega
        m = 10.0 ** rng.uniform(-2.0, 2.0, 13)
        grid = sweep_transient_coefficient(b1, omega * tau, m).k_exp
        assert grid.shape == (17, 13)
        ref = np.array(
            [[transient_coefficient(solve_biharmonic(b1, omega, mm * tt), tt) for mm in m] for tt in tau]
        )
        if omega == 1.0:
            assert grid.tobytes() == ref.tobytes()
        else:
            # the design path rounds omega through the pulse period 2*pi/omega
            assert_allclose(grid, ref, rtol=1e-14, atol=1e-15 * abs(b1))
        assert _k(b1, omega * tau[3], m[5]) == grid[3, 5]


def test_mischaracterized_broadcast_validation():
    zeros = sweep_transient_coefficient(0.0, [2.0, 3.0], [0.5, 2.0]).k_exp
    assert_array_equal(zeros, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^omega_tau_values must be finite, got inf at index 1$"):
        sweep_transient_coefficient(1.0, [2.0, math.inf], [2.0])
    with pytest.raises(ValueError, match="^m_values must be positive and finite, got -1.0 at index 1$"):
        sweep_transient_coefficient(1.0, [2.0], [0.5, -1.0])
    with pytest.raises(ValueError, match="^b1 must be finite, got inf$"):
        sweep_transient_coefficient(math.inf, [2.0], [0.5])


def test_mischaracterized_approaches_asymptotes():
    # m >> 1 tends to the b2 = -2*b1 design, whose residual
    # 3x/(1 + 5x^2 + 4x^4) leads with 3/(4 x^3) at x = omega*tau >> 1
    x = 8.79
    assert_allclose(_k(1.0, x, 100.0), 3.0 / (4.0 * x**3), rtol=0.05)
    mid = 3.0 * x / (1.0 + 5.0 * x**2 + 4.0 * x**4)
    assert_allclose(_k(1.0, x, 1e9), mid, rtol=1e-6)


def test_mischaracterized_regime_separation():
    # strongly underestimated tau always hurts more than overestimated tau
    k = np.abs(sweep_transient_coefficient(1.0, [8.79], [0.01, 0.03, 0.1, 10.0, 30.0, 100.0]).k_exp[0])
    assert k[:3].min() > k[3:].max()


def test_asymptotic_biharmonic_values():
    # the b2 = -2*b1 design's residual tends to 3*b1/(4*(omega*tau)^3)
    wt = 8.79
    limiting = _limiting_pulse((0.0, 0.0), (1.0, -2.0))
    assert_allclose(3.0 / (4.0 * wt**3), 1.1044e-3, rtol=1e-3)
    assert_allclose(transient_coefficient(limiting, wt), 3.0 / (4.0 * wt**3), rtol=0.02)
    assert_allclose(transient_coefficient(limiting, 1e3), 3.0 / (4.0 * 1e3**3), rtol=1e-5)
    assert abs(transient_coefficient(limiting, 1e6)) < 1e-17


def test_asymptotic_sine_only_matches_mid_form():
    # the sine-only limiting design at N = 2 is b = (b1, -2*b1)
    wt = 8.79
    val = transient_coefficient(_limiting_pulse((0.0, 0.0), (1.0, -2.0)), wt)
    mid = 3.0 * wt / (1.0 + 5.0 * wt**2 + 4.0 * wt**4)
    assert_allclose(val, mid, rtol=1e-12)


def test_asymptotic_families_match_direct_evaluation():
    # the m >> 1 limiting designs of the cosine-only and sine-only families,
    # a_N = -N^2 sum(a_n/n^2) and b_N = -N sum(b_n/n), leave the written-out
    # residuals below on the line, for omega*tau > 1
    rng = np.random.default_rng(23)
    for _ in range(10):
        n_low = int(rng.integers(1, 6))
        c = rng.uniform(-1, 1, n_low)
        wt = float(10.0 ** rng.uniform(0.1, 2))
        n = np.arange(1, n_low + 1)
        n_top = n_low + 1
        top = 1.0 + (n_top * wt) ** 2

        a_top = -float(n_top**2 * np.sum(c / n**2))
        cos_pulse = _limiting_pulse((*c, a_top), (0.0,) * n_top)
        want = float(np.sum(c / (1.0 + (n * wt) ** 2))) + a_top / top
        assert_allclose(transient_coefficient(cos_pulse, wt), want, rtol=1e-12, atol=1e-15)

        b_top = -float(n_top * np.sum(c / n))
        sin_pulse = _limiting_pulse((0.0,) * n_top, (*c, b_top))
        want = -wt * float(np.sum(n * c / (1.0 + (n * wt) ** 2))) + n_top**2 * wt * float(np.sum(c / n)) / top
        assert_allclose(transient_coefficient(sin_pulse, wt), want, rtol=1e-12, atol=1e-15)


def test_solve_top_harmonic_cancels_random_spectra():
    # seeded spectra: N = 2..9 harmonics, coefficients uniform in [-1, 1],
    # omega*tau log-uniform over four decades and omega over four more, so
    # the pulse period 2*pi/omega does not always give omega back exactly
    rng = np.random.default_rng(2026)
    eps = np.finfo(float).eps
    for _ in range(240):
        n_low = int(rng.integers(1, 9))
        a0 = float(rng.uniform(-1.0, 1.0))
        a = rng.uniform(-1.0, 1.0, n_low)
        b = rng.uniform(-1.0, 1.0, n_low)
        omega = float(10.0 ** rng.uniform(4.0, 8.0))
        tau = float(10.0 ** rng.uniform(-2.0, 2.0)) / omega
        pulse, cond3 = solve_top_harmonic(a0, a, b, omega, tau)
        assert pulse.n_harmonics == n_low + 1
        scale = max(abs(pulse.a0), *map(abs, pulse.a), *map(abs, pulse.b))
        assert abs(transient_coefficient(pulse, tau)) < 1e-12 * scale
        assert abs(pulse.condition_one_residual()) <= 4.0 * eps * (abs(a0) + sum(map(abs, pulse.a)))
        assert cond3 == pulse.condition_three_residual(tau)


def test_omega_tau_beyond_the_bound_is_refused():
    # the squares of omega*tau overflow near 1e154; products up to 1e100 are accepted and stay finite
    pulse = solve_biharmonic(1.0, 1.0, 1e100)
    assert math.isfinite(transient_coefficient(pulse, 1e100))
    assert math.isfinite(_k(1.0, 1e100, 1.0))
    with pytest.raises(ValueError, match=r"^tau_assumed makes omega\*tau 2e\+100, above the limit 1e\+100$"):
        solve_biharmonic(1.0, 2.0, 1e100)
    with pytest.raises(ValueError, match=r"^tau makes omega\*tau"):
        transient_coefficient(pulse, 1e200)
    with pytest.raises(ValueError, match=r"^omega_tau_values makes omega\*tau 1e\+200"):
        sweep_transient_coefficient(1.0, [1.0, 1e200], [1e-160])
    with pytest.raises(ValueError, match=r"^m_values makes omega\*tau 1e\+160"):
        sweep_transient_coefficient(1.0, [1.0], [1.0, 1e160])


def test_mischaracterized_zero_b1_gives_positive_zeros():
    # the line-filtered spectrum gives +0.0 for b1 = 0.0 and for b1 = -0.0 alike
    for b1 in (0.0, -0.0):
        grid = sweep_transient_coefficient(b1, [0.5, 2.0, 30.0], [0.01, 1.0, 100.0]).k_exp
        assert grid.shape == (3, 3)
        assert grid.tobytes() == np.zeros((3, 3)).tobytes()
        assert math.copysign(1.0, _k(b1, 8.79, 2.0)) == 1.0
