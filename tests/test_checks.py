import math
import operator
import re

import numpy as np
import pytest

from fluxshape import (
    CouplerDevice,
    HarmonicPulse,
    RamseyConfig,
    RCLine,
    WiringElement,
    integrate_line_response,
    solve_top_harmonic,
    square_transient_waveform,
    sweep_input_impedance,
    sweep_transient_coefficient,
)
from fluxshape import formats
from fluxshape._checks import at_least, finite, integer, nonnegative, positive, samples
from fluxshape.extraction import _fit, _savgol, _unwrap
from fluxshape.cli import build_parser

from conftest import DEVICE_RECORD


def test_scalars_come_back_as_floats():
    for value in (2, 2.5, np.float64(2.5), np.int64(3), "1.5", np.asarray(4.0)):
        out = positive("x", value)
        assert type(out) is float and out == float(value)
    assert finite("x", -0.0) == 0.0 and finite("x", -3) == -3.0


@pytest.mark.parametrize(
    "value, shown",
    [
        (math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0"), (0.0, "0.0"), ("x", "'x'"),
        ([1.0], "[1.0]"), ((1.0,), "(1.0,)"), (None, "None"), ({}, "{}"), (10**400, str(10**400)),
        (np.float64(-2.0), "-2.0"), (np.asarray(math.nan), "nan"),
    ],
)
def test_scalar_rejections_name_the_field(value, shown):
    with pytest.raises(ValueError, match="^" + re.escape(f"tau_s must be positive and finite, got {shown}") + "$"):
        positive("tau_s", value)


@pytest.mark.parametrize(
    "check, value, shown",
    [
        (positive, True, "True"),
        (finite, np.True_, "True"),
        (nonnegative, np.asarray(False), "False"),
        (positive, np.array([True, True]), "[True, True]"),
        (finite, np.array([1.0, True], dtype=object), "[1.0, True]"),
        (samples, [0.3, True], "[0.3, True]"),
        (samples, (2.0, False), "(2.0, False)"),
        (samples, np.array([False]), "[False]"),
    ],
)
def test_bools_are_refused_as_numbers(check, value, shown):
    # a JSON true would otherwise pass for 1.0; numeric strings still pass.
    # A scalar's message quotes it whole, a sequence's its first bool and that
    # entry's index
    first_bool = {"[True, True]": "True at index 0", "[1.0, True]": "True at index 1", "[0.3, True]": "True at index 1",
                  "(2.0, False)": "False at index 1", "[False]": "False at index 0"}
    rule = {positive: "positive and finite", nonnegative: "non-negative and finite"}.get(check, "finite")
    with pytest.raises(ValueError, match="^" + re.escape(f"x must be {rule}, got {first_bool.get(shown, shown)}") + "$"):
        check("x", value)
    assert samples("x", ["1.5", 2]).tolist() == [1.5, 2.0]


def test_finite_allows_zero_and_negatives_but_not_nan():
    assert finite("x", 0.0) == 0.0
    assert finite("x", -1e300) == -1e300
    with pytest.raises(ValueError, match="^x must be finite, got nan$"):
        finite("x", math.nan)


def test_arrays_keep_their_shape():
    grid = np.arange(1, 7).reshape(2, 3)
    out = positive("grid", grid)
    assert out.dtype == float and out.shape == (2, 3)
    assert np.array_equal(out, grid)
    floats = np.linspace(1.0, 2.0, 5)
    assert positive("grid", floats) is floats


def test_array_rejections_name_the_first_bad_entry_on_one_line():
    values = np.linspace(1.0, 2.0, 10_000)
    values[4321] = -1.0
    values[5000] = math.nan
    with pytest.raises(ValueError, match=r"^f_hz must be positive and finite, got -1.0 at index 4321$"):
        positive("f_hz", values)
    with pytest.raises(ValueError, match=r"^f_hz must be finite, got nan at index 5000$"):
        finite("f_hz", values)
    # an entry that is no number is quoted alone, at its flat index, however
    # long the sequence
    with pytest.raises(ValueError, match=r"^a must be finite, got 'x' at index 0$"):
        finite("a", np.asarray(["x"]))
    with pytest.raises(ValueError, match=r"^a must be finite, got \[1\] at index 1$"):
        finite("a", np.asarray([1.0, [1]], dtype=object))
    with pytest.raises(ValueError, match=r"^a must be finite, got 'x' at index 99999$"):
        samples("a", [0.1] * 99_999 + ["x"])
    with pytest.raises(ValueError, match=r"^a must be finite, got 'y' at index 4$"):
        finite("a", np.array([["1.5", "2"], ["3", "4"], ["y", "z"]]))
    # an integer no float can hold is refused, not an OverflowError
    with pytest.raises(ValueError, match=r"^a must be finite, got 9{400} at index 1$"):
        samples("a", [1.0, int("9" * 400)])


def test_at_least_names_the_first_entry_below_its_bound():
    assert at_least("t", 8e-6, 8e-6) == 8e-6
    grid = np.array([9e-6, 8e-6])
    assert at_least("t", grid, 8e-6) is grid
    with pytest.raises(ValueError, match=r"^t must be at least 8e-06 and finite, got 7e-06$"):
        at_least("t", 7e-6, 8e-6)
    with pytest.raises(ValueError, match=r"^t must be at least 8e-06 and finite, got 7e-06 at index 1$"):
        at_least("t", np.array([9e-6, 7e-6, math.nan]), 8e-6)
    with pytest.raises(ValueError, match=r"^t must be at least 8e-06 and finite, got inf$"):
        at_least("t", math.inf, 8e-6)


def test_integers_come_back_as_ints():
    for value in (3, np.int64(3), np.uint8(3)):
        out = integer("n", value, 1)
        assert type(out) is int and out == 3
    assert integer("n", 10**400, 0, math.inf) == 10**400


@pytest.mark.parametrize(
    "value, shown",
    [(11.9, "11.9"), (2.0, "2.0"), (True, "True"), ("3", "'3'"), (None, "None"), (np.float64(3.0), "3.0"),
     (np.array([3]), "[3]")],
)
def test_non_integers_are_refused_not_truncated(value, shown):
    with pytest.raises(ValueError, match="^" + re.escape(f"window_points must be an integer, got {shown}") + "$"):
        integer("window_points", value, 3)


def test_integer_range_names_the_field():
    with pytest.raises(ValueError, match="^--n-points must be at least 2, got 1$"):
        integer("--n-points", 1, 2)
    with pytest.raises(ValueError, match=r"^--sg-order must be at most 4, got 5$"):
        integer("--sg-order", 5, 1, 4)
    with pytest.raises(ValueError, match=r"^n must be at most 1\.7976931348623157e\+308, got 9{400}$"):
        integer("n", int("9" * 400), 0)


def test_nonnegative_admits_zero_and_names_the_first_negative_entry():
    assert nonnegative("g", 0) == 0.0 and type(nonnegative("g", 0)) is float
    assert nonnegative("g", -0.0) == 0.0
    with pytest.raises(ValueError, match=r"^g must be non-negative and finite, got -1e-300$"):
        nonnegative("g", -1e-300)
    with pytest.raises(ValueError, match=r"^g must be non-negative and finite, got inf$"):
        nonnegative("g", math.inf)
    values = np.zeros(100)
    values[37] = -2.0
    with pytest.raises(ValueError, match=r"^sigma must be non-negative and finite, got -2.0 at index 37$"):
        nonnegative("sigma", values)


def _masked_check(name, value, rule, sign):
    # the array path as a per-entry mask: isfinite, the sign test and their &,
    # then all(); the reference for deciding from the extremes
    arr = np.asarray(value, dtype=float)
    ok = np.isfinite(arr) if sign is None else np.isfinite(arr) & sign(arr, 0.0)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"{name} must be {rule}, got {arr.flat[i].item()!r} at index {i}")
    return arr


def _outcome(check, *args):
    try:
        out = check(*args)
    except ValueError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


def test_array_checks_match_the_per_entry_mask():
    # the extremes decide pass or fail; every return and every message of a
    # numeric array is the mask's
    rng = np.random.default_rng(43)
    specials = np.array([math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 5e-324])
    rules = [
        (finite, "finite", None),
        (positive, "positive and finite", operator.gt),
        (nonnegative, "non-negative and finite", operator.ge),
    ]
    for _ in range(2000):
        shape = tuple(int(n) for n in rng.integers(0, 6, size=rng.integers(1, 3)))
        values = rng.uniform(-0.5, 3.0, size=shape)
        sprinkle = rng.random(shape) < rng.choice([0.0, 0.05, 0.5])
        values[sprinkle] = rng.choice(specials, size=int(sprinkle.sum()))
        kind = rng.integers(3)
        if kind == 1:
            values = np.round(np.nan_to_num(values, nan=0.0, posinf=7.0, neginf=-7.0)).astype(int)
        elif kind == 2:
            values = np.nan_to_num(values) > 1.0
        for check, rule, sign in rules:
            if kind == 2:
                # a bool array is not numbers: it is refused at its first
                # entry, or whole when it has none
                shown = f"{values.flat[0].item()!r} at index 0" if values.size else repr(values.tolist())
                assert _outcome(check, "x", values) == f"x must be {rule}, got {shown}"
            else:
                assert _outcome(check, "x", values) == _outcome(_masked_check, "x", values, rule, sign), (values, rule)


def test_samples_come_back_as_one_dimensional_float_arrays():
    out = samples("t", [0, 1, 2], 3, size=3, increasing=True)
    assert out.dtype == float and out.tolist() == [0.0, 1.0, 2.0]
    floats = np.linspace(0.0, 1.0, 5)
    assert samples("t", floats, increasing=True) is floats
    assert samples("a", (), 0).shape == (0,)
    # a 0-d value is not a sequence of samples
    with pytest.raises(ValueError, match=r"^t must be 1-D, got shape \(\)$"):
        samples("t", np.float64(1.0))
    with pytest.raises(ValueError, match=r"^t must be finite, got \[1\] at index 1$"):
        samples("t", [1.0, [1]])
    with pytest.raises(ValueError, match=r"^t must be finite, got 'x' at index 0$"):
        samples("t", ["x"])
    # a decrease and a repeat are both refused, at the first fault
    with pytest.raises(ValueError, match=r"^t must be strictly increasing, got 0.5 after 1.0 at index 2$"):
        samples("t", [0.0, 1.0, 0.5, 0.5], increasing=True)


def _handle(tmp_path, *argv):
    """Run a subcommand's handler on the reference device, raising its refusal instead of printing it."""
    device = tmp_path / "device.json"
    formats.dump_json(DEVICE_RECORD, device)
    args = build_parser().parse_args([*argv, "--device", str(device), "--out-dir", str(tmp_path / "out")])
    return args.handler(args)


def _extract(tmp_path, delays):
    trace = tmp_path / "trace.csv"
    formats.write_csv(trace, ["tau_delay_s", "x_expect", "y_expect"], [delays, np.ones(delays.size), np.zeros(delays.size)])
    return _handle(tmp_path, "extract", "--trace", str(trace), "--tau-pulse-us", "8", "--fit-window-us", "60")


_TWO_D = np.ones((2, 3))
_OMEGA = 2.0 * math.pi / 8e-6
_LINE = RCLine(1.0, 1e-5)
_STEP = lambda s: np.ones_like(s)

# every entry point whose array arguments go through samples, nonnegative or
# at_least, and the pipeline kernels' length checks: (id, call that must
# refuse, the whole message)
_REFUSALS = [
    ("unwrap-2d", lambda tmp: _unwrap(_TWO_D, _TWO_D), "x must be 1-D, got shape (2, 3)"),
    ("unwrap-unequal", lambda tmp: _unwrap([1.0, 1.0, 1.0], [0.0, 0.0]), "y must have length 3, got 2"),
    ("unwrap-nan", lambda tmp: _unwrap([1.0, 1.0], [0.0, math.nan]), "y must be finite, got nan at index 1"),
    ("savgol-few", lambda tmp: _savgol(np.ones(9), 11, 3), "phase must have length at least 11, got 9"),
    ("fit-few", lambda tmp: _fit(np.ones(7), np.arange(7.0), 8e-6), "flux must have length at least 8, got 7"),
    ("oracle-2d", lambda tmp: integrate_line_response(_STEP, _LINE, np.zeros((2, 2))), "t_grid must be 1-D, got shape (2, 2)"),
    ("oracle-few", lambda tmp: integrate_line_response(_STEP, _LINE, [0.0]), "t_grid must have length at least 2, got 1"),
    (
        "oracle-not-increasing",
        lambda tmp: integrate_line_response(_STEP, _LINE, [0.0, 1e-7, 1e-7]),
        "t_grid must be strictly increasing, got 1e-07 after 1e-07 at index 2",
    ),
    (
        "oracle-not-uniform",
        lambda tmp: integrate_line_response(_STEP, _LINE, [0.0, 1e-7, 3e-7]),
        "t_grid must be uniformly spaced, got steps from 1e-07 to 2e-07",
    ),
    (
        "square-transient-negative",
        lambda tmp: square_transient_waveform(1.0, 8e-6, 1.3e-5, 0.0)(np.array([8e-6, 7e-6])),
        "t must be at least 7.999999999992e-06 and finite, got 7e-06 at index 1",
    ),
    (
        "device-g-negative",
        lambda tmp: CouplerDevice(1e10, 1e10, -1.0, 1.0, 0.0),
        "g must be non-negative and finite, got -1.0",
    ),
    ("ramsey-2d", lambda tmp: RamseyConfig(8e-6, np.zeros((2, 2))), "delay_grid must be 1-D, got shape (2, 2)"),
    ("ramsey-few", lambda tmp: RamseyConfig(8e-6, [0.0]), "delay_grid must have length at least 2, got 1"),
    (
        "ramsey-not-increasing",
        lambda tmp: RamseyConfig(8e-6, [0.0, 1e-6, 5e-7]),
        "delay_grid must be strictly increasing, got 5e-07 after 1e-06 at index 2",
    ),
    (
        "ramsey-negative-delay",
        lambda tmp: RamseyConfig(8e-6, [-1e-6, 0.0]),
        "delay_grid must be non-negative and finite, got -1e-06 at index 0",
    ),
    ("ramsey-nan", lambda tmp: RamseyConfig(8e-6, [0.0, math.nan]), "delay_grid must be finite, got nan at index 1"),
    (
        "ramsey-overflowing-delay",
        lambda tmp: RamseyConfig(1e308, [0.0, 1e308]),
        "delay_grid must keep tau_pulse + delay finite, got 1e+308 at index 1 with tau_pulse 1e+308",
    ),
    (
        "ramsey-negative-sigma",
        lambda tmp: RamseyConfig(8e-6, [0.0, 1e-6], readout_noise_sigma=-0.1),
        "readout_noise_sigma must be non-negative and finite, got -0.1",
    ),
    (
        "attenuator-negative-db",
        lambda tmp: WiringElement.attenuator(-3.0),
        "attenuator.db must be non-negative and finite, got -3.0",
    ),
    (
        "resistor-zero",
        lambda tmp: WiringElement.series_resistor(0.0),
        "series_resistor.r_ohms must be positive and finite, got 0.0",
    ),
    (
        "resistor-array",
        lambda tmp: WiringElement("series_resistor", {"r_ohms": np.array([1.0, 2.0])}),
        "series_resistor.r_ohms must be positive and finite, got [1.0, 2.0]",
    ),
    (
        "impedance-2d",
        lambda tmp: sweep_input_impedance([WiringElement.series_resistor(1.0)], 0.0, _TWO_D),
        "f_grid must be 1-D, got shape (2, 3)",
    ),
    (
        "impedance-empty",
        lambda tmp: sweep_input_impedance([WiringElement.series_resistor(1.0)], 0.0, []),
        "f_grid must have length at least 1, got 0",
    ),
    (
        "impedance-negative",
        lambda tmp: sweep_input_impedance([WiringElement.series_resistor(1.0)], 0.0, [1e6, -1e6]),
        "f_grid must be positive and finite, got -1000000.0 at index 1",
    ),
    ("sweep-2d", lambda tmp: sweep_transient_coefficient(1.0, _TWO_D, [1.0]), "omega_tau_values must be 1-D, got shape (2, 3)"),
    ("sweep-empty", lambda tmp: sweep_transient_coefficient(1.0, [1.0], []), "m_values must have length at least 1, got 0"),
    ("top-few", lambda tmp: solve_top_harmonic(0.0, [], [], _OMEGA, 1e-5), "a must have length at least 1, got 0"),
    ("top-unequal", lambda tmp: solve_top_harmonic(0.0, [0.3], [1.0, 2.0], _OMEGA, 1e-5), "b must have length 1, got 2"),
    ("top-nan", lambda tmp: solve_top_harmonic(0.0, [math.nan], [1.0], _OMEGA, 1e-5), "a must be finite, got nan at index 0"),
    ("pulse-unequal", lambda tmp: HarmonicPulse(8e-6, a=(0.0,), b=()), "b must have length 1, got 0"),
    ("pulse-2d", lambda tmp: HarmonicPulse(8e-6, a=((0.0,),), b=((1.0,),)), "a must be 1-D, got shape (1, 1)"),
    ("pulse-nan", lambda tmp: HarmonicPulse(8e-6, a=(0.0, math.nan), b=(1.0, 0.0)), "a must be finite, got nan at index 1"),
    (
        "cli-extract-not-increasing",
        lambda tmp: _extract(tmp, np.array([0.0, 2.5e-7, 2.5e-7, 7.5e-7])),
        "tau_delay_s must be strictly increasing, got 2.5e-07 after 2.5e-07 at index 2",
    ),
    (
        "cli-extract-few",
        lambda tmp: _extract(tmp, np.array([0.0, 2.5e-7])),
        "tau_delay_s must have length at least 3, got 2",
    ),
    (
        "cli-noise-sigma-negative",
        lambda tmp: _handle(
            tmp, "ramsey-sim", "--waveform", "square", "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
            "--tau-pulse-us", "8", "--delay-max-us", "10", "--delay-step-us", "0.5", "--noise-sigma", "-0.1",
        ),
        "--noise-sigma must be non-negative and finite, got -0.1",
    ),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in _REFUSALS], ids=[row[0] for row in _REFUSALS])
def test_array_arguments_are_refused_in_one_wording(tmp_path, call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(tmp_path)
