"""ABCD model of the room-temperature-to-chip wiring chain.

Each wiring element (attenuator, bias-tee capacitor, wirebond inductor,
lossless delay line, series resistor) has a 2x2 transmission (ABCD) matrix
[[a, b], [c, d]].  :func:`sweep_input_impedance` computes a terminated
chain's input impedance without forming the chain's matrix product: it
carries the load's voltage and current, ``(v, i) = (Z_L, 1)``, back from the
load end through each element, ``(v, i) <- (a*v + b*i, c*v + d*i)``, and
returns ``v / i``, which is ``(A*Z_L + B) / (C*Z_L + D)`` of the product.

At low frequency a typical flux-line chain looks like an effective series RC
(the bias-tee capacitor in series with the attenuators' resistive ladder),
which is what makes the first-order transient model of the pulse-design
modules a good description.  :func:`sweep_and_fit_rc` extracts that
effective R and C from the low-frequency impedance magnitude and reports how
well the RC form holds; adding a delay line makes the fit degrade above the
band where standing waves appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxshape._checks import at_most, nonnegative, positive, samples

__all__ = [
    "WiringElement",
    "RCFitResult",
    "sweep_input_impedance",
    "sweep_and_fit_rc",
    "default_flux_chain",
]


# attenuations above this are refused: the attenuator's matrix squares
# k = 10**(db/20), which passes 1e100 here and overflows near 3000 dB
_DB_MAX = 2000.0

_ELEMENT_KINDS = {
    "attenuator": ("db", "z0_ohms"),
    "series_resistor": ("r_ohms",),
    "series_capacitor": ("c_farads",),
    "series_inductor": ("l_henries",),
    "transmission_line": ("z0_ohms", "delay_s"),
}


@dataclass(frozen=True, eq=False)
class WiringElement:
    """One element of a wiring chain; construct via the factory methods."""

    kind: str
    params: dict

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _ELEMENT_KINDS:
            raise ValueError(f"kind must be one of {', '.join(_ELEMENT_KINDS)}, got {self.kind!r}")
        expected = set(_ELEMENT_KINDS[self.kind])
        if set(self.params) != expected:
            raise ValueError(
                f"element {self.kind!r} needs params {sorted(expected)}, got {sorted(self.params)}"
            )
        params = {}
        for key, value in self.params.items():
            # only the attenuator's db may be zero: a 0 dB attenuator is the identity
            check = nonnegative if key == "db" else positive
            # each parameter is one number; as a list, an array is refused
            params[key] = check(f"{self.kind}.{key}", value.tolist() if isinstance(value, np.ndarray) else value)
        if "db" in params:
            at_most(f"{self.kind}.db", params["db"], _DB_MAX, " dB")
        object.__setattr__(self, "params", params)

    @staticmethod
    def attenuator(db: float, z0: float = 50.0) -> "WiringElement":
        """Matched resistive pi attenuator; db = 0 gives an identity element."""
        return WiringElement("attenuator", {"db": db, "z0_ohms": z0})

    @staticmethod
    def series_resistor(r: float) -> "WiringElement":
        return WiringElement("series_resistor", {"r_ohms": r})

    @staticmethod
    def series_capacitor(c: float) -> "WiringElement":
        return WiringElement("series_capacitor", {"c_farads": c})

    @staticmethod
    def series_inductor(l: float) -> "WiringElement":
        return WiringElement("series_inductor", {"l_henries": l})

    @staticmethod
    def transmission_line(z0: float, delay: float) -> "WiringElement":
        """Lossless line characterized by impedance z0 and one-way delay in seconds."""
        return WiringElement("transmission_line", {"z0_ohms": z0, "delay_s": delay})


def _abcd(element: WiringElement, f: np.ndarray, w: np.ndarray):
    # one element's ABCD entries (a, b, c, d) at checked frequencies f in Hz
    # and w = 2*pi*f; a resistor's and an attenuator's are floats, since they
    # do not depend on frequency
    kind = element.kind
    p = element.params
    if kind == "series_resistor":
        return 1.0, p["r_ohms"], 0.0, 1.0
    if kind == "series_capacitor":
        # a w*C that overflows is a short: 1/(j*inf) is 0 ohms
        return 1.0, 1.0 / (1j * w * p["c_farads"]), 0.0, 1.0
    if kind == "series_inductor":
        b = 1j * w * p["l_henries"]
        # a w*L that overflows leaves no finite matrix
        bad = np.flatnonzero(~np.isfinite(b))
        if bad.size:
            raise ValueError(
                f"series_inductor.l_henries {p['l_henries']!r} makes the reactance infinite at {f[bad[0]].item()!r} Hz"
            )
        return 1.0, b, 0.0, 1.0
    if kind == "attenuator":
        z0 = p["z0_ohms"]
        # at 0 dB, k = 1 gives the identity bit for bit
        k = 10.0 ** (p["db"] / 20.0)
        r_series = z0 * (k * k - 1.0) / (2.0 * k)
        y_shunt = (k - 1.0) / (z0 * (k + 1.0))
        a = 1.0 + r_series * y_shunt
        return a, r_series, y_shunt * (2.0 + r_series * y_shunt), a
    # the transmission line: WiringElement admits no other kind
    theta = w * p["delay_s"]
    z0 = p["z0_ohms"]
    cos = np.cos(theta)
    sin = np.sin(theta)
    return cos, 1j * z0 * sin, 1j * sin / z0, cos


def sweep_input_impedance(elements, load: complex, f_grid) -> np.ndarray:
    """Input impedance of a chain, source side first, terminated by ``load`` ohms, over a frequency grid (Hz).

    ``load`` is a finite real or complex number.  The chain's ABCD product
    is applied to ``[load; 1]`` from the right, one element at a time (see
    the module docstring).  A frequency at which the chain is singular into
    the load, or at which the impedance overflows, is refused with a
    one-line ValueError.
    """
    f = positive("f_grid", samples("f_grid", f_grid))
    elements = list(elements)
    if not elements:
        raise ValueError("chain must contain at least one element")
    try:
        finite_load = bool(np.isfinite(load))
    except (TypeError, ValueError):
        finite_load = False
    if not finite_load:
        raise ValueError(f"load must be a finite number, got {load!r}")
    v = np.full(f.shape, load, dtype=complex)
    i = np.ones(f.shape, dtype=complex)
    # an overflow (or a 1/(j w C) whose w C underflows) is refused below
    # rather than warned about on the way
    with np.errstate(all="ignore"):
        w = 2.0 * math.pi * f
        for element in reversed(elements):
            a, b, c, d = _abcd(element, f, w)
            v, i = a * v + b * i, c * v + d * i
        if np.any(np.abs(i) < 1e-15):
            raise ValueError("network is singular into this load at a swept frequency")
        z = v / i
    ok = np.isfinite(z)
    if not ok.all():
        raise ValueError(f"input impedance is not finite at f_grid {f[np.argmin(ok)].item()!r} Hz")
    return z


@dataclass(frozen=True, eq=False)
class RCFitResult:
    """Effective series RC extracted from a low-frequency impedance sweep."""

    f_hz: np.ndarray
    z_in: np.ndarray
    effective_r: float
    effective_c: float
    fit_rms: float


def sweep_and_fit_rc(elements, load: complex, f_grid, fit_band_hz: float = 1e6) -> RCFitResult:
    """Sweep the chain and fit |Z_in| to a series RC in the low-frequency band.

    For a series RC, ``|Z|^2 = R^2 + (1/(2*pi*C))^2 / f^2``, linear in 1/f^2,
    so the fit is an exact least squares on that form over points with
    ``f <= fit_band_hz``.  ``fit_rms`` is the root-mean-square deviation of
    |Z_in| from the fitted form over the band, in ohms.
    """
    # the sweep checks the grid first, so a fault in it is named f_grid
    z = sweep_input_impedance(elements, load, f_grid)
    f = np.asarray(f_grid, dtype=float)
    band = f <= positive("fit_band_hz", fit_band_hz)
    if np.count_nonzero(band) < 3:
        raise ValueError("need at least three sweep points inside the fit band")
    # |Z|^2, 1/f^2 and the fitted form can overflow for a finite Z and f:
    # each is refused rather than warned about, and LAPACK, which would print
    # about an overflowed row, never sees one
    with np.errstate(all="ignore"):
        zz = np.abs(z[band]) ** 2
        inv_f2 = 1.0 / f[band] ** 2
        ok = np.isfinite(zz) & np.isfinite(inv_f2)
        if not ok.all():
            raise ValueError(f"the RC fit overflows |Z_in|^2 or 1/f^2 at f_grid {f[band][np.argmin(ok)].item()!r} Hz")
        design = np.column_stack([np.ones(inv_f2.size), inv_f2])
        (alpha, beta), *_ = np.linalg.lstsq(design, zz, rcond=None)
        if beta <= 0.0:
            raise ValueError("no capacitive 1/f^2 rise inside the fit band; chain is not RC-like there")
        effective_r = math.sqrt(alpha) if alpha > 0.0 else 0.0
        effective_c = 1.0 / (2.0 * math.pi * math.sqrt(beta))
        z_fit = np.sqrt(np.maximum(alpha + beta * inv_f2, 0.0))
        fit_rms = float(np.sqrt(np.mean((z_fit - np.abs(z[band])) ** 2)))
    if not math.isfinite(fit_rms):
        raise ValueError(f"the RC fit overflows below fit_band_hz {fit_band_hz!r}: |Z_in| is out of its range")
    return RCFitResult(f, z, float(effective_r), float(effective_c), fit_rms)


def default_flux_chain(bias_tee_c: float = 2.2e-7, attenuations_db=(20.0, 3.0, 20.0, 3.0, 20.0)):
    """Representative flux-line chain: bias tee, 50-ohm attenuator ladder, 1 nH wirebond.

    Terminated in a short on chip, the low-frequency behavior is a series RC
    with R close to 50 ohms (the ladder input resistance) and C the bias-tee
    capacitor, giving a time constant near 11 us with the defaults.
    """
    chain = [WiringElement.series_capacitor(bias_tee_c)]
    chain.extend(WiringElement.attenuator(db) for db in attenuations_db)
    chain.append(WiringElement.series_inductor(1e-9))
    return chain
