import math
import re

import numpy as np
import pytest

from fluxshape._checks import finite, positive


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
