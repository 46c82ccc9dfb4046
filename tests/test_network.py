import cmath
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    RCFitResult,
    TwoPort,
    WiringElement,
    cascade,
    default_flux_chain,
    element_abcd,
    input_impedance,
    sweep_and_fit_rc,
    sweep_input_impedance,
)


def test_twoport_matmul_matches_numpy():
    rng = np.random.default_rng(41)
    m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p1 = TwoPort(*m1.ravel())
    p2 = TwoPort(*m2.ravel())
    prod = p1 @ p2
    ref = m1 @ m2
    assert_allclose([prod.a, prod.b, prod.c, prod.d], ref.ravel(), rtol=1e-15)
    assert prod.determinant() == prod.a * prod.d - prod.b * prod.c
    ident = TwoPort.identity()
    assert (ident @ p1) == p1


def test_element_abcd_formulas():
    f = 7e6
    w = 2.0 * math.pi * f
    r = element_abcd(WiringElement.series_resistor(47.0), f)
    assert (r.a, r.b, r.c, r.d) == (1.0, 47.0 + 0.0j, 0.0, 1.0)
    c = element_abcd(WiringElement.series_capacitor(1e-7), f)
    assert_allclose(c.b, 1.0 / (1j * w * 1e-7), rtol=1e-15)
    assert c.c == 0.0
    l = element_abcd(WiringElement.series_inductor(2e-9), f)
    assert_allclose(l.b, 1j * w * 2e-9, rtol=1e-15)
    line = element_abcd(WiringElement.transmission_line(50.0, 15e-9), f)
    theta = w * 15e-9
    assert_allclose(line.a, math.cos(theta), rtol=1e-15)
    assert_allclose(line.b, 1j * 50.0 * math.sin(theta), rtol=1e-15)
    assert_allclose(line.c, 1j * math.sin(theta) / 50.0, rtol=1e-15)
    assert element_abcd(WiringElement.attenuator(0.0), f) == TwoPort.identity()


def test_element_determinants_are_unity():
    elements = [
        WiringElement.series_resistor(47.0),
        WiringElement.series_capacitor(1e-7),
        WiringElement.series_inductor(2e-9),
        WiringElement.attenuator(20.0),
        WiringElement.transmission_line(50.0, 15e-9),
    ]
    for element in elements:
        det = element_abcd(element, 7e6).determinant()
        assert cmath.isclose(det, 1.0, rel_tol=1e-12)
    det = cascade(default_flux_chain(), 7e6).determinant()
    assert cmath.isclose(det, 1.0, rel_tol=1e-9)


def test_element_abcd_rejects_bad_frequency():
    r = WiringElement.series_resistor(47.0)
    for f in (0.0, -1e6, math.inf):
        with pytest.raises(ValueError):
            element_abcd(r, f)


def test_matched_attenuator_preserves_reference_impedance():
    net = cascade([WiringElement.attenuator(3.0)], 20e6)
    z = input_impedance(net, 50.0)
    assert_allclose(z, 50.0, rtol=1e-9)
    # and in a cascade of several stages
    net = cascade([WiringElement.attenuator(db) for db in (20.0, 3.0, 20.0)], 20e6)
    assert_allclose(input_impedance(net, 50.0), 50.0, rtol=1e-9)


def test_cascade_composition():
    f = 5e6
    r1 = WiringElement.series_resistor(20.0)
    r2 = WiringElement.series_resistor(30.0)
    both = cascade([r1, r2], f)
    assert both.b == 50.0 + 0.0j
    single = cascade([r1], f)
    assert single == element_abcd(r1, f)
    with pytest.raises(ValueError):
        cascade([], f)


def test_input_impedance_basic():
    ident = TwoPort.identity()
    assert input_impedance(ident, 37.0 + 5.0j) == 37.0 + 5.0j
    f = 1e3
    z_cap = input_impedance(cascade([WiringElement.series_capacitor(1e-7)], f), 0.0)
    assert_allclose(abs(z_cap), 1.0 / (2.0 * math.pi * f * 1e-7), rtol=1e-12)
    assert_allclose(abs(z_cap), 1591.5, rtol=1e-3)


def test_input_impedance_singular_cases():
    with pytest.raises(ValueError):
        input_impedance(TwoPort(1.0, 50.0, 0.0, 0.0), 0.0)
    # a quarter-wave shorted line presents an open: no finite impedance
    f_quarter = 1.0 / (4.0 * 15e-9)
    net = cascade([WiringElement.transmission_line(50.0, 15e-9)], f_quarter)
    with pytest.raises(ValueError):
        input_impedance(net, 0.0)


def _reference_abcd(element, f):
    """2x2 ABCD matrix of one element at one frequency, from textbook forms."""
    w = 2.0 * math.pi * f
    p = element.params

    def series(z):
        return np.array([[1.0, z], [0.0, 1.0]], dtype=complex)

    if element.kind == "series_resistor":
        return series(p["r_ohms"])
    if element.kind == "series_capacitor":
        return series(-1j / (w * p["c_farads"]))
    if element.kind == "series_inductor":
        return series(1j * w * p["l_henries"])
    if element.kind == "attenuator":
        # matched pi: shunt conductance, series resistance, shunt conductance
        k = 10.0 ** (p["db"] / 20.0)
        z0 = p["z0_ohms"]
        shunt = np.array([[1.0, 0.0], [(k - 1.0) / (z0 * (k + 1.0)), 1.0]], dtype=complex)
        return shunt @ series(z0 * (k * k - 1.0) / (2.0 * k)) @ shunt
    theta = w * p["delay_s"]
    z0 = p["z0_ohms"]
    return np.array(
        [[math.cos(theta), 1j * z0 * math.sin(theta)], [1j * math.sin(theta) / z0, math.cos(theta)]]
    )


def _reference_impedance(chain, load, f):
    m = functools.reduce(np.matmul, [_reference_abcd(e, f) for e in chain])
    return (m[0, 0] * load + m[0, 1]) / (m[1, 0] * load + m[1, 1])


def _random_chain(rng):
    makers = (
        lambda: WiringElement.series_resistor(rng.uniform(1.0, 100.0)),
        lambda: WiringElement.series_capacitor(10.0 ** rng.uniform(-9.0, -6.0)),
        lambda: WiringElement.series_inductor(10.0 ** rng.uniform(-10.0, -8.0)),
        lambda: WiringElement.attenuator(float(rng.choice([0.0, 3.0, 6.0, 20.0])), rng.uniform(25.0, 75.0)),
        lambda: WiringElement.transmission_line(rng.uniform(20.0, 80.0), 10.0 ** rng.uniform(-9.0, -8.0)),
    )
    return [makers[i]() for i in rng.integers(0, len(makers), int(rng.integers(1, 9)))]


def test_array_sweep_matches_per_frequency_reference():
    rng = np.random.default_rng(47)
    for _ in range(20):
        chain = _random_chain(rng)
        load = complex(rng.uniform(0.0, 100.0), rng.uniform(-10.0, 10.0))
        f = np.sort(10.0 ** rng.uniform(3.0, 8.0, 64))
        z = sweep_input_impedance(chain, load, f)
        assert z.shape == f.shape and z.dtype == complex
        assert_allclose(z, [_reference_impedance(chain, load, fi) for fi in f], rtol=1e-12)
        net = cascade(chain, f)
        assert_allclose(net.determinant(), np.ones(f.shape), rtol=1e-9)
        # a scalar frequency takes the same path (numpy's scalar and array
        # arithmetic may round the last bit differently)
        j = int(rng.integers(f.size))
        assert_allclose(input_impedance(cascade(chain, f[j]), load), z[j], rtol=1e-14)


def test_array_path_keeps_scalar_entries_for_scalar_frequency():
    net = cascade(default_flux_chain(), 7e6)
    assert all(np.ndim(entry) == 0 for entry in (net.a, net.b, net.c, net.d))
    net = cascade(default_flux_chain(), np.array([1e3, 7e6]))
    assert all(np.shape(entry) == (2,) for entry in (net.a, net.b, net.c, net.d))
    with pytest.raises(ValueError):
        element_abcd(WiringElement.series_resistor(47.0), [1e6, 0.0])


def test_array_sweep_singular_load_raises():
    # one quarter-wave point in the grid is enough to reject the sweep
    f_quarter = 1.0 / (4.0 * 15e-9)
    chain = [WiringElement.transmission_line(50.0, 15e-9)]
    with pytest.raises(ValueError, match="singular"):
        sweep_input_impedance(chain, 0.0, [1e6, f_quarter, 2e7])


def test_sweep_input_impedance_validation():
    chain = [WiringElement.series_resistor(50.0)]
    with pytest.raises(ValueError):
        sweep_input_impedance(chain, 0.0, [0.0, 1e6])
    with pytest.raises(ValueError):
        sweep_input_impedance(chain, 0.0, [])
    with pytest.raises(ValueError):
        sweep_input_impedance(chain, 0.0, [[1e6]])


def test_fit_recovers_pure_rc_exactly():
    chain = [WiringElement.series_resistor(47.0), WiringElement.series_capacitor(3.3e-7)]
    f = np.geomspace(1e3, 1e6, 31)
    fit = sweep_and_fit_rc(chain, 0.0, f)
    assert isinstance(fit, RCFitResult)
    assert_allclose(fit.effective_r, 47.0, rtol=1e-9)
    assert_allclose(fit.effective_c, 3.3e-7, rtol=1e-9)
    assert fit.fit_rms < 1e-9
    assert np.all(np.diff(np.abs(fit.z_in)) < 0.0)


def test_fit_default_flux_chain():
    f = np.geomspace(1e3, 1e6, 31)
    fit = sweep_and_fit_rc(default_flux_chain(), 0.0, f)
    # the attenuator ladder looks like its matched impedance in series with
    # the bias-tee capacitor
    assert_allclose(fit.effective_r, 50.0, rtol=1e-4)
    assert_allclose(fit.effective_c, 2.2e-7, rtol=1e-9)
    assert fit.fit_rms < 1e-9
    assert_allclose(fit.effective_r * fit.effective_c, 1.1e-5, rtol=1e-4)


def test_fit_band_excludes_resonances():
    # with a transmission line in the chain, the RC form holds at low
    # frequency but fails badly once the band includes the line resonances
    chain = [
        WiringElement.series_capacitor(2.2e-7),
        WiringElement.attenuator(3.0),
        WiringElement.transmission_line(50.0, 15e-9),
    ]
    f = np.geomspace(1e4, 5e7, 400)
    narrow = sweep_and_fit_rc(chain, 0.0, f, fit_band_hz=1e6)
    wide = sweep_and_fit_rc(chain, 0.0, f, fit_band_hz=5e7)
    assert wide.fit_rms > 10.0 * narrow.fit_rms


def test_fit_rejects_non_capacitive_chain():
    chain = [WiringElement.series_resistor(50.0)]
    f = np.geomspace(1e3, 1e6, 31)
    with pytest.raises(ValueError, match="not RC-like"):
        sweep_and_fit_rc(chain, 25.0, f)


def test_fit_needs_three_band_points():
    chain = [WiringElement.series_capacitor(1e-7)]
    with pytest.raises(ValueError):
        sweep_and_fit_rc(chain, 0.0, np.array([5e5, 2e6, 3e6, 4e6]), fit_band_hz=1e6)


def test_line_resonance_spacing():
    # |Z_in| of a mismatched line peaks every 1/(2*delay)
    delay = 15e-9
    f = np.arange(1e6, 1.5e8, 5e4)
    z = np.abs(sweep_input_impedance([WiringElement.transmission_line(50.0, delay)], 5.0, f))
    interior = np.nonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:]))[0] + 1
    spacings = np.diff(f[interior])
    assert spacings.size >= 3
    assert_allclose(spacings, 1.0 / (2.0 * delay), rtol=0.02)


def test_wirebond_reactance_scale():
    # a 2 nH wirebond at 20 MHz is a quarter-ohm detail on a 50 ohm chain
    b = element_abcd(WiringElement.series_inductor(2e-9), 20e6).b
    assert format(abs(b), ".3g") == "0.251"
    z_chain = input_impedance(cascade(default_flux_chain(), 20e6), 0.0)
    assert abs(b) < 0.01 * abs(z_chain)


def test_wiring_element_validation():
    with pytest.raises(ValueError):
        WiringElement("shunt_capacitor", {"c_farads": 1e-7})
    with pytest.raises(ValueError):
        WiringElement("series_resistor", {"ohms": 47.0})
    with pytest.raises(ValueError):
        WiringElement("series_resistor", {"r_ohms": 47.0, "extra": 1.0})
    with pytest.raises(ValueError):
        WiringElement.series_resistor(0.0)
    with pytest.raises(ValueError):
        WiringElement.attenuator(-3.0)
    with pytest.raises(ValueError):
        WiringElement.attenuator(3.0, z0=0.0)
    with pytest.raises(ValueError):
        WiringElement.transmission_line(50.0, -1e-9)
    with pytest.raises(ValueError):
        WiringElement.series_inductor(math.inf)


def test_zero_db_attenuator_is_the_identity_bit_for_bit():
    # the pi-network formula at k = 1, for scalar and array frequencies
    f = np.geomspace(1e3, 1e9, 7)
    for freq in (20e6, f):
        for db in (0.0, -0.0):
            got = element_abcd(WiringElement.attenuator(db), freq)
            for entry, want in zip((got.a, got.b, got.c, got.d), (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)):
                assert np.shape(entry) == np.shape(freq)
                assert np.asarray(entry).tobytes() == np.full(np.shape(freq), want).tobytes()
