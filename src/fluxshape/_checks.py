"""The one boundary check for numeric inputs.

:func:`finite` and :func:`positive` return a float, or a float array for an
ndarray of one or more dimensions, and raise a one-line ValueError naming
the field when the conversion fails or a value is out of range.  Anything
else goes through ``float``, so a list never passes for a scalar and a
scalar never builds an array; callers convert sequences with ``np.asarray``.
:func:`integer` is the same check for sizes and counts, and
:func:`omega_tau_in_range` bounds the products omega*tau the closed forms square.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

# omega*tau (or omega*tau*m) above this is refused: the closed forms square
# it, and twice it, which overflows near 1e154, while no modelled line comes
# within decades of it
_OMEGA_TAU_MAX = 1e100


def finite(name: str, value):
    """``value`` as a float or float array, every entry finite."""
    return _check(name, value, "finite", False)


def positive(name: str, value):
    """``value`` as a float or float array, every entry positive and finite."""
    return _check(name, value, "positive and finite", True)


def integer(name: str, value, low: int, high: float = sys.float_info.max) -> int:
    """``value`` as an int in ``low..high``, or a one-line ValueError naming the field.

    Only values with ``__index__`` (Python and numpy integers) pass, so a
    float such as 11.9 is refused rather than truncated, and so is a bool.
    The default ``high`` is the largest float, so that the value converts to
    a float without overflow; Python compares an int with a float exactly.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {getattr(value, 'tolist', lambda: value)()!r}") from None
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be at most {high!r}, got {value}")
    return value


def omega_tau_in_range(name: str, value):
    """``value``, a product omega*tau (float or float array), or a one-line ValueError naming the field.

    The error quotes the first product above ``_OMEGA_TAU_MAX``.
    """
    over = np.asarray(value) > _OMEGA_TAU_MAX
    if np.any(over):
        worst = np.asarray(value)[over].flat[0].item()
        raise ValueError(f"{name} makes omega*tau {worst!r}, above the limit {_OMEGA_TAU_MAX:g}")
    return value


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
