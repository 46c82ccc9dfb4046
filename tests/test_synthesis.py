import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fluxshape import (
    HarmonicPulse,
    asymptotic_transient_coefficient,
    mischaracterized_transient_coefficient,
    solve_biharmonic,
    solve_top_harmonic,
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
    with pytest.raises(ValueError):
        solve_top_harmonic(0.0, [1.0], [1.0], 1.0, 1e13)
    with pytest.raises(ValueError):
        solve_top_harmonic(0.0, [1.0], [1.0], 1.0, 1e-13)


def test_mischaracterized_exact_at_unity():
    assert abs(mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 1.0)) < 1e-16


def test_mischaracterized_frozen_values():
    k100 = mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 100.0)
    k001 = mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 0.01)
    assert_allclose(k100, 1.0865828358266744e-3, rtol=1e-12)
    assert_allclose(k001, -0.08331026428480615, rtol=1e-12)
    assert abs(k001) > 10.0 * abs(k100)


def test_mischaracterized_linearity_and_zero():
    k1 = mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 100.0)
    k2 = mischaracterized_transient_coefficient(-0.3, 1.0, 8.79, 100.0)
    assert_allclose(k2, -0.3 * k1, rtol=1e-12)
    assert mischaracterized_transient_coefficient(0.0, 1.0, 8.79, 100.0) == 0.0
    with pytest.raises(ValueError):
        mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 0.0)
    with pytest.raises(ValueError):
        mischaracterized_transient_coefficient(math.nan, 1.0, 8.79, 2.0)


def test_mischaracterized_broadcast_matches_design_path():
    # the closed form against the pulse that solve_biharmonic actually
    # designs, evaluated by transient_coefficient one cell at a time
    rng = np.random.default_rng(23)
    for omega in (1.0, OMEGA, float(10.0 ** rng.uniform(4, 8))):
        b1 = float(rng.uniform(-2.0, 2.0)) or 1.0
        tau = 10.0 ** rng.uniform(-1.0, 2.0, 17) / omega
        m = 10.0 ** rng.uniform(-2.0, 2.0, 13)
        grid = mischaracterized_transient_coefficient(b1, omega, tau[:, None], m[None, :])
        assert grid.shape == (17, 13)
        ref = np.array(
            [[transient_coefficient(solve_biharmonic(b1, omega, mm * tt), tt) for mm in m] for tt in tau]
        )
        if omega == 1.0:
            assert grid.tobytes() == ref.tobytes()
        else:
            # the design path rounds omega through the pulse period 2*pi/omega
            assert_allclose(grid, ref, rtol=1e-14, atol=1e-15 * abs(b1))
        assert mischaracterized_transient_coefficient(b1, omega, tau[3], m[5]) == grid[3, 5]
    assert isinstance(mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 2.0), float)


def test_mischaracterized_broadcast_validation():
    zeros = mischaracterized_transient_coefficient(0.0, 1.0, [[2.0], [3.0]], [0.5, 2.0])
    assert_array_equal(zeros, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="tau_true"):
        mischaracterized_transient_coefficient(1.0, 1.0, [2.0, math.inf], 2.0)
    with pytest.raises(ValueError, match="m must"):
        mischaracterized_transient_coefficient(1.0, 1.0, 2.0, [0.5, -1.0])
    with pytest.raises(ValueError):
        mischaracterized_transient_coefficient(1.0, 1.0, [2.0, 3.0], [0.5, 1.0, 2.0])


def test_mischaracterized_approaches_asymptotes():
    k100 = mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 100.0)
    deep = asymptotic_transient_coefficient("biharmonic", [1.0], 1.0, 8.79)
    assert_allclose(k100, deep, rtol=0.05)
    k_inf = mischaracterized_transient_coefficient(1.0, 1.0, 8.79, 1e9)
    limit = asymptotic_transient_coefficient("sine-only", [1.0], 1.0, 8.79)
    assert_allclose(k_inf, limit, rtol=1e-6)


def test_mischaracterized_regime_separation():
    # strongly underestimated tau always hurts more than overestimated tau
    small = [abs(mischaracterized_transient_coefficient(1.0, 1.0, 8.79, m)) for m in (0.01, 0.03, 0.1)]
    large = [abs(mischaracterized_transient_coefficient(1.0, 1.0, 8.79, m)) for m in (10.0, 30.0, 100.0)]
    assert min(small) > max(large)


def test_asymptotic_biharmonic_values():
    wt = 8.79
    val = asymptotic_transient_coefficient("biharmonic", [1.0], 1.0, wt)
    assert_allclose(val, 3.0 / (4.0 * wt**3), rtol=1e-12)
    assert_allclose(val, 1.1044e-3, rtol=1e-3)
    assert abs(asymptotic_transient_coefficient("biharmonic", [1.0], 1.0, 1e6)) < 1e-17


def test_asymptotic_sine_only_matches_mid_form():
    wt = 8.79
    val = asymptotic_transient_coefficient("sine-only", [1.0], 1.0, wt)
    mid = 3.0 * wt / (1.0 + 5.0 * wt**2 + 4.0 * wt**4)
    assert_allclose(val, mid, rtol=1e-12)


def test_asymptotic_families_match_direct_evaluation():
    # each family formula equals the transient coefficient of the pulse it
    # describes, evaluated directly on the line
    rng = np.random.default_rng(23)
    for _ in range(10):
        n_low = int(rng.integers(1, 6))
        c = rng.uniform(-1, 1, n_low)
        wt = float(10.0 ** rng.uniform(0.1, 2))
        n = np.arange(1, n_low + 1)
        n_top = n_low + 1

        a_top = -float(n_top**2 * np.sum(c / n**2))
        cos_pulse = HarmonicPulse(2.0 * math.pi, a=(*c, a_top), b=(0.0,) * n_top)
        got = asymptotic_transient_coefficient("cosine-only", c, 1.0, wt)
        assert_allclose(got, transient_coefficient(cos_pulse, wt), rtol=1e-12, atol=1e-15)

        b_top = -float(n_top * np.sum(c / n))
        sin_pulse = HarmonicPulse(2.0 * math.pi, a=(0.0,) * n_top, b=(*c, b_top))
        got = asymptotic_transient_coefficient("sine-only", c, 1.0, wt)
        assert_allclose(got, transient_coefficient(sin_pulse, wt), rtol=1e-12, atol=1e-15)


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_transient_coefficient("triangular", [1.0], 1.0, 8.79)
    with pytest.raises(ValueError):
        asymptotic_transient_coefficient("sine-only", [1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        asymptotic_transient_coefficient("sine-only", [1.0], 1.0, 0.5)
    with pytest.raises(ValueError):
        asymptotic_transient_coefficient("biharmonic", [1.0, 2.0], 1.0, 8.79)
    with pytest.raises(ValueError):
        asymptotic_transient_coefficient("sine-only", [], 1.0, 8.79)
    with pytest.raises(ValueError):
        asymptotic_transient_coefficient("sine-only", [math.nan], 1.0, 8.79)
