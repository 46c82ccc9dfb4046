"""ABCD two-port model of the room-temperature-to-chip wiring chain.

Each wiring element (attenuator, bias-tee capacitor, wirebond inductor,
lossless delay line, series resistor) maps to a 2x2 transmission (ABCD)
matrix; a chain is the ordered matrix product from the source side toward
the load.  The input impedance seen by the source into a terminated chain is
``(A*Z_L + B) / (C*Z_L + D)``.

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

from fluxshape._checks import finite, positive

__all__ = [
    "TwoPort",
    "WiringElement",
    "RCFitResult",
    "element_abcd",
    "cascade",
    "input_impedance",
    "sweep_input_impedance",
    "sweep_and_fit_rc",
    "default_flux_chain",
]


@dataclass(frozen=True)
class TwoPort:
    """ABCD transmission matrix [[a, b], [c, d]]; b in ohms, c in siemens."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __matmul__(self, other: "TwoPort") -> "TwoPort":
        return TwoPort(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def determinant(self) -> complex:
        """a*d - b*c; equals 1 for any reciprocal network."""
        return self.a * self.d - self.b * self.c

    @staticmethod
    def identity() -> "TwoPort":
        return TwoPort(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


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
        params = {key: finite(f"{self.kind}.{key}", value) for key, value in self.params.items()}
        for key, v in params.items():
            # only the attenuator's db may be zero: a 0 dB attenuator is the identity
            if v < 0.0 or (v == 0.0 and key != "db"):
                raise ValueError(f"{self.kind}.{key} must be positive, got {self.params[key]!r}")
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


def element_abcd(element: WiringElement, f) -> TwoPort:
    """ABCD matrix of one element at frequency ``f`` in Hz.

    ``f`` is a scalar or an array of frequencies; every entry of the
    returned matrix is then a complex scalar or a complex array of the
    same shape.
    """
    f = np.asarray(f, dtype=float)
    positive("frequency", f)
    w = 2.0 * math.pi * f
    # [()] turns a 0-d array into a scalar and leaves other arrays as they are
    one = np.ones(f.shape, dtype=complex)[()]
    zero = np.zeros(f.shape, dtype=complex)[()]
    kind = element.kind
    p = element.params
    if kind == "series_resistor":
        return TwoPort(one, p["r_ohms"] * one, zero, one)
    if kind == "series_capacitor":
        return TwoPort(one, 1.0 / (1j * w * p["c_farads"]), zero, one)
    if kind == "series_inductor":
        return TwoPort(one, 1j * w * p["l_henries"], zero, one)
    if kind == "attenuator":
        z0 = p["z0_ohms"]
        # at 0 dB, k = 1 gives the identity bit for bit
        k = 10.0 ** (p["db"] / 20.0)
        r_series = z0 * (k * k - 1.0) / (2.0 * k)
        y_shunt = (k - 1.0) / (z0 * (k + 1.0))
        a = (1.0 + r_series * y_shunt) * one
        return TwoPort(a, r_series * one, y_shunt * (2.0 + r_series * y_shunt) * one, a)
    if kind == "transmission_line":
        theta = w * p["delay_s"]
        z0 = p["z0_ohms"]
        cos = np.cos(theta) * one
        sin = np.sin(theta)
        return TwoPort(cos, 1j * z0 * sin, 1j * sin / z0, cos)
    raise ValueError(f"unknown element kind {kind!r}")


def cascade(elements, f) -> TwoPort:
    """ABCD matrix of a chain, source side first, at a scalar or array ``f``."""
    elements = list(elements)
    if not elements:
        raise ValueError("chain must contain at least one element")
    net = element_abcd(elements[0], f)
    for element in elements[1:]:
        net = net @ element_abcd(element, f)
    return net


def input_impedance(network: TwoPort, load: complex):
    """Impedance seen into a two-port terminated by ``load`` ohms.

    The entries of ``network`` may be scalars or arrays over frequency (as
    :func:`cascade` returns them); the result has the same shape.
    """
    denom = network.c * load + network.d
    if np.any(np.abs(denom) < 1e-15):
        raise ValueError("network is singular into this load at a swept frequency")
    return (network.a * load + network.b) / denom


def sweep_input_impedance(elements, load: complex, f_grid) -> np.ndarray:
    """Input impedance of a terminated chain over a frequency grid (Hz)."""
    f = positive("f_grid", np.asarray(f_grid))
    if np.ndim(f) != 1 or f.size == 0:
        raise ValueError("f_grid must be a non-empty 1-D sequence")
    return input_impedance(cascade(elements, f), load)


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
    f = np.asarray(f_grid, dtype=float)
    z = sweep_input_impedance(elements, load, f)
    band = f <= positive("fit_band_hz", fit_band_hz)
    if np.count_nonzero(band) < 3:
        raise ValueError("need at least three sweep points inside the fit band")
    zz = np.abs(z[band]) ** 2
    inv_f2 = 1.0 / f[band] ** 2
    design = np.column_stack([np.ones(inv_f2.size), inv_f2])
    (alpha, beta), *_ = np.linalg.lstsq(design, zz, rcond=None)
    if beta <= 0.0:
        raise ValueError("no capacitive 1/f^2 rise inside the fit band; chain is not RC-like there")
    effective_r = math.sqrt(alpha) if alpha > 0.0 else 0.0
    effective_c = 1.0 / (2.0 * math.pi * math.sqrt(beta))
    z_fit = np.sqrt(np.maximum(alpha + beta * inv_f2, 0.0))
    fit_rms = float(np.sqrt(np.mean((z_fit - np.abs(z[band])) ** 2)))
    return RCFitResult(f, z, float(effective_r), float(effective_c), fit_rms)


def default_flux_chain(
    bias_tee_c: float = 2.2e-7,
    attenuations_db=(20.0, 3.0, 20.0, 3.0, 20.0),
    wirebond_l: float = 1e-9,
    z0: float = 50.0,
):
    """Representative flux-line chain: bias tee, attenuator ladder, wirebond.

    Terminated in a short on chip, the low-frequency behavior is a series RC
    with R close to z0 (the ladder input resistance) and C the bias-tee
    capacitor, giving a time constant near 11 us with the defaults.
    """
    chain = [WiringElement.series_capacitor(bias_tee_c)]
    chain.extend(WiringElement.attenuator(db, z0) for db in attenuations_db)
    chain.append(WiringElement.series_inductor(wirebond_l))
    return chain
