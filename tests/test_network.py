import cmath
import functools
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    RCFitResult,
    WiringElement,
    default_flux_chain,
    sweep_and_fit_rc,
    sweep_input_impedance,
)
from fluxshape import network


def _entries(element, f):
    """One element's ABCD entries (a, b, c, d) at frequencies ``f``, as the sweep builds them."""
    f = np.asarray(f, dtype=float)
    return network._abcd(element, f, 2.0 * math.pi * f)


def test_element_abcd_formulas():
    f = np.array([7e6])
    w = 2.0 * math.pi * f
    # a resistor's entries are floats, whatever the grid
    assert _entries(WiringElement.series_resistor(47.0), f) == (1.0, 47.0, 0.0, 1.0)
    a, b, c, d = _entries(WiringElement.series_capacitor(1e-7), f)
    assert_allclose(b, 1.0 / (1j * w * 1e-7), rtol=1e-15)
    assert (a, c, d) == (1.0, 0.0, 1.0)
    a, b, c, d = _entries(WiringElement.series_inductor(2e-9), f)
    assert_allclose(b, 1j * w * 2e-9, rtol=1e-15)
    assert (a, c, d) == (1.0, 0.0, 1.0)
    a, b, c, d = _entries(WiringElement.transmission_line(50.0, 15e-9), f)
    theta = w * 15e-9
    assert_allclose(a, np.cos(theta), rtol=1e-15)
    assert_allclose(b, 1j * 50.0 * np.sin(theta), rtol=1e-15)
    assert_allclose(c, 1j * np.sin(theta) / 50.0, rtol=1e-15)
    assert_allclose(d, np.cos(theta), rtol=1e-15)
    assert _entries(WiringElement.attenuator(0.0), f) == (1.0, 0.0, 0.0, 1.0)


def test_element_determinants_are_unity():
    elements = [
        WiringElement.series_resistor(47.0),
        WiringElement.series_capacitor(1e-7),
        WiringElement.series_inductor(2e-9),
        WiringElement.attenuator(20.0),
        WiringElement.transmission_line(50.0, 15e-9),
    ]
    for element in elements:
        a, b, c, d = _entries(element, [7e6])
        assert_allclose(a * d - b * c, 1.0, rtol=1e-12)
    # so the chain's product, formed here from the same entries, has one too
    matrices = [np.reshape([complex(np.ravel(x)[0]) for x in _entries(e, [7e6])], (2, 2)) for e in default_flux_chain()]
    m = functools.reduce(np.matmul, matrices)
    assert cmath.isclose(np.linalg.det(m), 1.0, rel_tol=1e-9)


def test_element_abcd_rejects_bad_frequency():
    r = WiringElement.series_resistor(47.0)
    # samples refuses a non-finite entry before positive sees the grid
    for f, rule in ((0.0, "positive and finite"), (-1e6, "positive and finite"), (math.inf, "finite")):
        line = rf"^f_grid must be {rule}, got {re.escape(repr(f))} at index 1$"
        for chain in ([r], [r, r]):
            with pytest.raises(ValueError, match=line):
                sweep_input_impedance(chain, 0.0, [1e6, f])


def test_sweep_checks_the_frequencies_once_per_stage(monkeypatch):
    # the sweep checks its grid once for the whole chain, not once for each element
    chain = default_flux_chain()
    names = []
    check = network.positive

    def recording(name, value):
        names.append(name)
        return check(name, value)

    monkeypatch.setattr(network, "positive", recording)
    sweep_input_impedance(chain, 0.0, np.geomspace(1e3, 1e9, 50))
    assert len(chain) == 7
    assert names == ["f_grid"]


def test_matched_attenuator_preserves_reference_impedance():
    z = sweep_input_impedance([WiringElement.attenuator(3.0)], 50.0, [20e6])
    assert_allclose(z, 50.0, rtol=1e-9)
    # and in a cascade of several stages
    z = sweep_input_impedance([WiringElement.attenuator(db) for db in (20.0, 3.0, 20.0)], 50.0, [20e6])
    assert_allclose(z, 50.0, rtol=1e-9)


def test_cascade_composition():
    f = [5e6]
    r1 = WiringElement.series_resistor(20.0)
    r2 = WiringElement.series_resistor(30.0)
    assert sweep_input_impedance([r1, r2], 0.0, f).tolist() == [50.0 + 0.0j]
    assert sweep_input_impedance([r1], 0.0, f).tolist() == [20.0 + 0.0j]
    with pytest.raises(ValueError, match="^chain must contain at least one element$"):
        sweep_input_impedance([], 0.0, f)


def test_frequency_independent_chain_sweeps_to_the_grid_shape():
    # a resistor's and an attenuator's entries are floats, yet the sweep
    # returns one complex impedance per frequency
    f = np.geomspace(1e3, 1e9, 5)
    chain = [WiringElement.attenuator(3.0), WiringElement.series_resistor(20.0), WiringElement.attenuator(20.0)]
    z = sweep_input_impedance(chain, 50.0, f)
    assert z.shape == f.shape and z.dtype == complex
    assert np.all(z == z[0])
    assert_allclose(z, [_reference_impedance(chain, 50.0, fi) for fi in f], rtol=1e-12)


def test_cascade_takes_an_overflowing_capacitance_as_a_short():
    # w*C overflows to inf at 1 GHz, and 1/(j*inf) is a legitimate 0 ohms;
    # RuntimeWarnings fail the suite, so this also checks that none is raised
    chain = [WiringElement.series_capacitor(1e300), WiringElement.series_resistor(50.0)]
    z = sweep_input_impedance(chain, 0.0, [1e4, 1e9])
    assert np.array_equal(z.real, [50.0, 50.0]) and z.imag[1] == 0.0


def test_cascade_refuses_an_overflowing_inductance():
    # w*L overflows at 1 GHz; carried through the resistor it used to warn
    # and give nan + inf*j
    message = r"^series_inductor.l_henries 1e\+300 makes the reactance infinite at 1000000000.0 Hz$"
    for chain in ([WiringElement.series_inductor(1e300)],
                  [WiringElement.series_inductor(1e300), WiringElement.series_resistor(50.0)],
                  [WiringElement.series_resistor(50.0), WiringElement.series_inductor(1e300)]):
        with pytest.raises(ValueError, match=message):
            sweep_input_impedance(chain, 50.0, [1e4, 1e9])


def test_input_impedance_basic():
    f = np.array([1e3])
    z_cap = sweep_input_impedance([WiringElement.series_capacitor(1e-7)], 0.0, f)
    assert_allclose(np.abs(z_cap), 1.0 / (2.0 * math.pi * f * 1e-7), rtol=1e-12)
    assert_allclose(np.abs(z_cap), 1591.5, rtol=1e-3)


def test_input_impedance_singular_cases():
    # a quarter-wave shorted line presents an open: no finite impedance
    f_quarter = 1.0 / (4.0 * 15e-9)
    with pytest.raises(ValueError, match="^network is singular into this load at a swept frequency$"):
        sweep_input_impedance([WiringElement.transmission_line(50.0, 15e-9)], 0.0, [f_quarter])


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
        for element in chain:
            a, b, c, d = _entries(element, f)
            assert_allclose(a * d - b * c, np.ones(f.shape), rtol=1e-9)


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
    # the fit sweeps before it converts the grid, so both name the field
    for sweep in (sweep_input_impedance, sweep_and_fit_rc):
        with pytest.raises(ValueError, match=r"^f_grid must be finite, got 'x' at index 0$"):
            sweep(default_flux_chain(), 0.0, ["x"])


@pytest.mark.parametrize("load", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 0.0), "50"])
def test_sweep_input_impedance_refuses_a_non_finite_load(load):
    # a nan load used to warn and return all-nan impedances
    with pytest.raises(ValueError, match=r"^load must be a finite number, got "):
        sweep_input_impedance(default_flux_chain(), load, [1e3, 1e4])


def test_sweep_input_impedance_refuses_an_overflowing_chain():
    # at 1e-300 Hz the bias tee's 1/(j w C) times the attenuator ladder
    # overflows to inf, then inf * 0 to nan; the sweep used to warn and return it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^input impedance is not finite at f_grid 1e-300 Hz$"):
            sweep_input_impedance(default_flux_chain(), 0.0, [1e-300, 1e3])
        with pytest.raises(ValueError, match=r"^input impedance is not finite at f_grid 1e-300 Hz$"):
            sweep_and_fit_rc(default_flux_chain(), 0.0, [1e-300, 1e3, 1e4, 1e5])
        # w C underflows to zero, and 1/(j w C) divides by it
        with pytest.raises(ValueError, match=r"^input impedance is not finite at f_grid 1e-300 Hz$"):
            sweep_input_impedance([WiringElement.series_capacitor(1e-300)], 0.0, [1e-300, 1.0])


@pytest.mark.parametrize(
    "c, message",
    [
        # |Z_in|^2 itself overflows at the first frequency
        (1e-300, r"^the RC fit overflows \|Z_in\|\^2 or 1/f\^2 at f_grid 1000\.0 Hz$"),
        # |Z_in|^2 is finite, but the fitted (1/(2 pi C))^2 is not
        (6e-158, r"^the RC fit overflows below fit_band_hz 1000000\.0: "),
    ],
)
def test_fit_refuses_an_overflowing_fit(c, message):
    # both used to return nan or a zero capacitance, the first after a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            sweep_and_fit_rc([WiringElement.series_capacitor(c)], 0.0, np.geomspace(1e3, 1e6, 31))


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
    # a 2 nH wirebond at 20 MHz is a quarter-ohm detail on a 50 ohm chain;
    # shorted, the inductor's input impedance is its b entry bit for bit
    b = _entries(WiringElement.series_inductor(2e-9), [20e6])[1]
    z = sweep_input_impedance([WiringElement.series_inductor(2e-9)], 0.0, [20e6])
    assert z.tobytes() == b.tobytes()
    assert format(abs(z[0]), ".3g") == "0.251"
    z_chain = sweep_input_impedance(default_flux_chain(), 0.0, [20e6])[0]
    assert abs(z[0]) < 0.01 * abs(z_chain)


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
    # 10**(db/20) overflowed Python's float power with a traceback
    with pytest.raises(ValueError, match=r"^attenuator\.db must be at most 2000 dB, got 1e\+30 dB$"):
        WiringElement.attenuator(1e30)
    assert WiringElement.attenuator(2000.0).params["db"] == 2000.0


def test_zero_db_attenuator_is_the_identity_bit_for_bit():
    # the pi-network formula at k = 1 gives the identity's entries as floats,
    # and the sweep returns the load unchanged at every frequency
    f = np.geomspace(1e3, 1e9, 7)
    load = 37.0 + 5.0j
    for db in (0.0, -0.0):
        entries = _entries(WiringElement.attenuator(db), f)
        assert all(type(x) is float for x in entries)
        assert np.array(entries).tobytes() == np.array([1.0, 0.0, 0.0, 1.0]).tobytes()
        z = sweep_input_impedance([WiringElement.attenuator(db)], load, f)
        assert z.tobytes() == np.full(f.shape, load).tobytes()
