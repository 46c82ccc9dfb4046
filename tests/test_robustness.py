import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    HarmonicPulse,
    capacitor_voltage,
    default_sweep_axes,
    net_zero_metrics,
    solve_biharmonic,
    sweep_transient_coefficient,
    transient_coefficient,
)

from conftest import line_with_tau


def test_default_sweep_axes():
    wt, m = default_sweep_axes()
    assert wt.shape == (50,) and m.shape == (50,)
    assert wt[0] == 1.0 and wt[-1] == 30.0
    assert m[0] == 0.01 and m[-1] == 100.0
    assert_allclose(np.diff(np.log(wt)), np.log(wt[1] / wt[0]), rtol=1e-9)
    assert_allclose(np.diff(np.log(m)), np.log(m[1] / m[0]), rtol=1e-9)


def test_sweep_design_column_vanishes():
    grid = sweep_transient_coefficient(1.0, [2.0, 8.79, 30.0], [0.01, 1.0, 100.0])
    assert np.all(np.abs(grid.k_exp[:, 1]) < 1e-14)


def test_sweep_matches_pointwise_evaluation():
    rng = np.random.default_rng(31)
    for _ in range(5):
        b1 = float(rng.uniform(-2.0, 2.0)) or 1.0
        wt = 10.0 ** rng.uniform(-1.0, 2.0, int(rng.integers(1, 12)))
        m = 10.0 ** rng.uniform(-2.0, 2.0, int(rng.integers(1, 12)))
        grid = sweep_transient_coefficient(b1, wt, m)
        assert grid.k_exp.shape == (wt.size, m.size)
        for i, x in enumerate(wt):
            for j, mm in enumerate(m):
                # bit-identical to designing the pulse and evaluating it
                pulse = solve_biharmonic(b1, 1.0, mm * x)
                assert grid.k_exp[i, j] == transient_coefficient(pulse, x)


def test_sweep_zero_amplitude():
    grid = sweep_transient_coefficient(0.0, [2.0, 8.79], [0.5, 1.0, 3.0])
    assert np.array_equal(grid.k_exp, np.zeros((2, 3)))


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_transient_coefficient(1.0, [-1.0], [1.0])
    with pytest.raises(ValueError):
        sweep_transient_coefficient(1.0, [2.0], [])
    with pytest.raises(ValueError):
        sweep_transient_coefficient(1.0, [[2.0]], [1.0])
    with pytest.raises(ValueError, match="b1"):
        sweep_transient_coefficient(math.nan, [2.0], [1.0])


def test_sweep_regimes():
    wt, m = default_sweep_axes()
    grid = sweep_transient_coefficient(1.0, np.concatenate([[2.0, 8.79, 30.0]]), m)
    k2, k879, k30 = np.abs(grid.k_exp)
    # overestimating tau (m > 1) costs far less than underestimating it
    assert k879[m >= 10.0].max() < 0.1 * k879[m <= 0.1].min()
    # shorter pulses relative to the line (larger omega*tau) are more robust
    assert k30.max() < k2.max()


def test_sweep_smooth_in_m():
    # residual varies slowly between neighboring m samples; near the zero at
    # m = 1 relative differences are meaningless, so compare only where the
    # magnitude is an appreciable fraction of the row maximum
    m = np.geomspace(0.01, 100.0, 60)
    grid = sweep_transient_coefficient(1.0, [8.79], m)
    k = grid.k_exp[0]
    floor = 0.01 * np.max(np.abs(k))
    checked = 0
    for a, b in zip(k[:-1], k[1:]):
        if a * b > 0.0 and min(abs(a), abs(b)) > floor:
            assert abs(b - a) < 0.5 * max(abs(a), abs(b))
            checked += 1
    assert checked > 30


def _single_and_limiting(x):
    # a bare sine against the m >> 1 limiting design b2 = -2*b1, omega = 1
    # so that omega*tau = tau
    single = HarmonicPulse(2.0 * math.pi, a=(0.0,), b=(1.0,))
    limiting = HarmonicPulse(2.0 * math.pi, a=(0.0, 0.0), b=(1.0, -2.0))
    return transient_coefficient(single, x), transient_coefficient(limiting, x)


def test_compare_single_vs_biharmonic_values():
    x = 8.79
    k_single, k_bi = _single_and_limiting(x)
    assert_allclose(k_single, -x / (1.0 + x * x), rtol=1e-12)
    assert_allclose(k_single, -0.11231203067562268, rtol=1e-12)
    assert_allclose(k_single, -0.11231, rtol=1e-3)
    assert_allclose(k_bi, 3.0 * x / (1.0 + 5.0 * x**2 + 4.0 * x**4), rtol=1e-12)
    assert 95.0 < abs(k_single) / abs(k_bi) < 115.0


def test_compare_crossover():
    # the design wins above omega*tau = 1/sqrt(2) and loses below
    for x in (2.0, 5.0, 10.0, 100.0):
        k_single, k_bi = _single_and_limiting(x)
        assert abs(k_bi) < abs(k_single)
    for x in (0.2, 0.5):
        k_single, k_bi = _single_and_limiting(x)
        assert abs(k_bi) > abs(k_single)
    k_single, k_bi = _single_and_limiting(1.0 / math.sqrt(2.0))
    assert_allclose(abs(k_bi), abs(k_single), rtol=1e-12)


def test_compare_limits():
    # -1/x against 3/(4 x^3) far above the crossover
    x = 1e4
    k_single, k_bi = _single_and_limiting(x)
    assert_allclose(k_single, -1.0 / x, rtol=1e-7)
    assert_allclose(k_bi, 3.0 / (4.0 * x**3), rtol=1e-7)


def test_net_zero_metrics_analytic():
    omega = 2.0 * math.pi / 8e-6
    tau = 8.79 / omega
    line = line_with_tau(tau)
    single = HarmonicPulse(8e-6, a=(0.0,), b=(1.0,))
    designed = HarmonicPulse(8e-6, a=(0.0, 0.0), b=(1.0, -2.0))
    m_single = net_zero_metrics(single, line)
    m_designed = net_zero_metrics(designed, line)
    # both are net-zero at the source, but only the design suppresses the
    # area left on the capacitor
    assert m_single["input_area"] == 0.0
    assert m_designed["input_area"] == 0.0
    assert abs(m_single["capacitor_area"]) > 1e-3 * 8e-6
    assert abs(m_designed["capacitor_area"]) < 0.1 * abs(m_single["capacitor_area"])
    dc = net_zero_metrics(HarmonicPulse(8e-6, a0=1.0), line)
    assert_allclose(dc["input_area"], 8e-6, rtol=1e-15)


def test_net_zero_capacitor_area_matches_quadrature():
    omega = 2.0 * math.pi / 8e-6
    tau = 8.79 / omega
    line = line_with_tau(tau)
    pulse = HarmonicPulse(8e-6, a0=0.2, a=(0.4,), b=(1.0,))
    t = np.linspace(0.0, 8e-6, 20001)
    numeric = np.trapezoid(capacitor_voltage(pulse, line, t), t)
    assert_allclose(net_zero_metrics(pulse, line)["capacitor_area"], numeric, rtol=1e-6)
