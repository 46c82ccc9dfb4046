import math
import re

import numpy as np
import pytest

from fluxshape._checks import finite, integer, positive


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
    with pytest.raises(ValueError, match=r"^a must be finite, got \['x'\]$"):
        finite("a", np.asarray(["x"]))
    with pytest.raises(ValueError, match=r"^a must be finite, got \[1.0, \[1\]\]$"):
        finite("a", np.asarray([1.0, [1]], dtype=object))


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
