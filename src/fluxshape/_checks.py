"""The one boundary check for numeric inputs.

:func:`finite`, :func:`positive`, :func:`nonnegative` and :func:`at_least`
return a float, or a float array for an ndarray of one or more dimensions,
and raise a one-line
ValueError naming the field when the conversion fails or a value is out of
range; for an array, or a sequence that does not convert, the line quotes
the first offending entry and its flat index.
Anything else goes through ``float``, so a list never passes for a scalar
and a scalar never builds an array, and a numeric string passes.  A bool,
Python or numpy, is refused as a value and as an entry: JSON's ``true`` is
not the number 1.  :func:`samples` is the check for a
sequence of samples: it converts any sequence to a finite 1-D float array and
checks its length, and on request that it pairs with another array and that
it strictly increases; :func:`length` and :func:`steps` are its length and
order checks, the latter returning the steps it tested.  :func:`integer` is
the same check for sizes and counts, :func:`omega_tau_in_range` bounds the
products omega*tau the closed forms square, and :func:`at_most` bounds any
other checked float that a formula would overflow.
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

_BOOLS = frozenset((bool, np.bool_))


def finite(name: str, value):
    """``value`` as a float or float array, every entry finite."""
    return _check(name, value, "finite", None)


def positive(name: str, value):
    """``value`` as a float or float array, every entry positive and finite."""
    return _check(name, value, "positive and finite", operator.gt)


def nonnegative(name: str, value):
    """``value`` as a float or float array, every entry non-negative and finite."""
    return _check(name, value, "non-negative and finite", operator.ge)


def at_least(name: str, value, low: float):
    """``value`` as a float or float array, every entry at least ``low`` and finite."""
    return _check(name, value, f"at least {low!r} and finite", operator.ge, low)


def samples(name: str, value, min_size: int = 1, *, size: int | None = None, increasing: bool = False) -> np.ndarray:
    """``value`` as a finite 1-D float array of at least ``min_size`` entries.

    ``size`` asks for exactly that many entries, the length of the array
    ``value`` pairs with; ``increasing`` asks for every entry to exceed the
    one before it, and a fault quotes the entry, its predecessor and its
    index.  A 0-d value is refused: a caller that takes a scalar as one
    sample passes ``np.atleast_1d(value)``.
    """
    arr = _floats(name, value, "finite")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    length(name, arr.size, min_size)
    if size is not None and arr.size != size:
        raise ValueError(f"{name} must have length {size}, got {arr.size}")
    _check(name, arr, "finite", None)
    if increasing:
        steps(name, arr)
    return arr


def length(name: str, size: int, min_size: int) -> int:
    """``size``, an array's length, or a one-line ValueError naming the field when it is below ``min_size``."""
    if size < min_size:
        raise ValueError(f"{name} must have length at least {min_size}, got {size}")
    return size


def steps(name: str, arr: np.ndarray) -> np.ndarray:
    """``np.diff(arr)`` of a 1-D float array, every step positive.

    A fault quotes the first entry that does not exceed its predecessor,
    that predecessor and the entry's index.  A caller that needs the steps
    as well as the order check takes them from here rather than from a
    second ``np.diff``.
    """
    h = np.diff(arr)
    # the least step decides; the mask only words the refusal
    if h.size and not np.minimum.reduce(h) > 0.0:
        i = int(np.argmin(h > 0.0)) + 1
        raise ValueError(
            f"{name} must be strictly increasing, got {arr[i].item()!r} after {arr[i - 1].item()!r} at index {i}"
        )
    return h


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
        raise ValueError(f"{name} must be an integer, got {_shown(value)!r}") from None
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be at most {high!r}, got {value}")
    return value


def at_most(name: str, value: float, high: float, unit: str) -> float:
    """``value``, a checked float, or a one-line ValueError naming the field when it exceeds ``high`` (in ``unit``)."""
    if value > high:
        raise ValueError(f"{name} must be at most {high:g}{unit}, got {value!r}{unit}")
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


def _holds_bool(value) -> bool:
    # a bool, Python or numpy, as the value or as an entry of an array or a
    # list: JSON's true is not the number 1
    if isinstance(value, np.ndarray):
        kind = value.dtype.kind
        return kind == "b" or (kind == "O" and not _BOOLS.isdisjoint(map(type, value.flat)))
    if isinstance(value, (list, tuple)):
        return not _BOOLS.isdisjoint(map(type, value))
    return type(value) in _BOOLS


def _floats(name: str, value, rule: str) -> np.ndarray:
    # value as a float array, or a one-line ValueError naming the field when
    # it holds a bool or an entry that is no number
    try:
        if _holds_bool(value):
            raise TypeError
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        shown = _first_fault(value)
    raise ValueError(f"{name} must be {rule}, got {shown}")


def _first_fault(value) -> str:
    # the first entry that is no finite number, and its flat index, so that a
    # long sequence is not echoed whole; a scalar is quoted whole, and so is a
    # sequence that numpy cannot lay out entry by entry
    try:
        entries = np.asarray(value, dtype=object)
    except (TypeError, ValueError):
        entries = np.empty(())
    for i, entry in enumerate(entries.flat if entries.ndim else ()):
        if not math.isfinite(_number(entry)):
            return f"{_shown(entry)!r} at index {i}"
    return repr(_shown(value))


def _number(value) -> float:
    # value as a float, or nan when it is a bool or no number
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan
    # a bool converts to 0.0 or 1.0, so only those are looked at again
    return math.nan if (x == 0.0 or x == 1.0) and _holds_bool(value) else x


def _shown(value):
    # tolist shows a numpy scalar or array as the plain value it holds
    return getattr(value, "tolist", lambda: value)()


def _check(name: str, value, rule: str, sign, low: float = 0.0):
    # sign compares an entry with low (operator.gt or operator.ge), or is None
    if not (isinstance(value, np.ndarray) and value.ndim):
        x = _number(value)
        if not _passes(x, sign, low):
            raise ValueError(f"{name} must be {rule}, got {_shown(value)!r}")
        return x
    arr = _floats(name, value, rule)
    # the extremes decide, one reduction each and no grid-sized mask; a nan
    # propagates through both and fails
    if arr.size and not (_passes(np.minimum.reduce(arr, None), sign, low) and math.isfinite(np.maximum.reduce(arr, None))):
        # the mask names the first offending entry, which keeps the message on one line
        ok = np.isfinite(arr) if sign is None else np.isfinite(arr) & sign(arr, low)
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"{name} must be {rule}, got {arr.flat[i].item()!r} at index {i}")
    return arr


def _passes(x, sign, low: float) -> bool:
    return math.isfinite(x) and (sign is None or sign(x, low))
