"""The one boundary check for numeric inputs.

:func:`finite` and :func:`positive` return a float, or a float array for an
ndarray of one or more dimensions, and raise a one-line ValueError naming
the field when the conversion fails or a value is out of range.  Anything
else goes through ``float``, so a list never passes for a scalar and a
scalar never builds an array; callers convert sequences with ``np.asarray``.
"""

from __future__ import annotations

import math

import numpy as np


def finite(name: str, value):
    """``value`` as a float or float array, every entry finite."""
    return _check(name, value, "finite", False)


def positive(name: str, value):
    """``value`` as a float or float array, every entry positive and finite."""
    return _check(name, value, "positive and finite", True)


def _check(name: str, value, rule: str, strict: bool):
    if not (isinstance(value, np.ndarray) and value.ndim):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if not (math.isfinite(x) and (x > 0.0 or not strict)):
            # tolist shows a numpy scalar or 0-d array as the plain value it holds
            raise ValueError(f"{name} must be {rule}, got {getattr(value, 'tolist', lambda: value)()!r}")
        return x
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be {rule}, got {value.tolist()!r}") from None
    ok = np.isfinite(arr) & (arr > 0.0) if strict else np.isfinite(arr)
    if not np.all(ok):
        # the first offending entry keeps the message on one line
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"{name} must be {rule}, got {arr.flat[i].item()!r} at index {i}")
    return arr
