"""On-disk interchange formats: JSON schemas and CSV layouts.

All file formats used by the command-line interface live here so the
schemas stay in one auditable place.  JSON keys carry explicit units
(``tau_pulse_s``, ``omega_q_ghz``); in-memory objects are always SI
(seconds, ohms, farads, rad/s, Phi0).

CSV files are comma-separated with a single header row; floats are written
with ``repr``-level precision (17 significant digits) so outputs are
bit-stable across runs with the same inputs.
"""

from __future__ import annotations

import json

import numpy as np

from fluxshape._checks import finite, positive
from fluxshape.device import CouplerDevice
from fluxshape.network import WiringElement
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import RCLine

__all__ = [
    "pulse_to_dict",
    "pulse_from_dict",
    "rcline_to_dict",
    "rcline_from_dict",
    "device_to_dict",
    "device_from_dict",
    "chain_to_list",
    "chain_from_list",
    "load_json",
    "dump_json",
    "write_csv",
    "read_csv_columns",
    "format_float",
]

_GHZ = 2.0 * np.pi * 1e9
_MHZ = 2.0 * np.pi * 1e6


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def pulse_to_dict(pulse: HarmonicPulse) -> dict:
    return {
        "tau_pulse_s": pulse.tau_pulse,
        "a0": pulse.a0,
        "a": list(pulse.a),
        "b": list(pulse.b),
    }


def pulse_from_dict(data: dict) -> HarmonicPulse:
    try:
        return HarmonicPulse(
            tau_pulse=positive("tau_pulse_s", data["tau_pulse_s"]),
            a0=data.get("a0", 0.0),
            a=tuple(data.get("a", ())),
            b=tuple(data.get("b", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed pulse record: {exc}") from exc


def rcline_to_dict(line: RCLine) -> dict:
    return {"r_ohms": line.resistance, "c_farads": line.capacitance}


def rcline_from_dict(data: dict) -> RCLine:
    try:
        return RCLine(positive("r_ohms", data["r_ohms"]), positive("c_farads", data["c_farads"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed line record: {exc}") from exc


def device_to_dict(device: CouplerDevice) -> dict:
    return {
        "omega_q_ghz": device.omega_q / _GHZ,
        "omega_max_ghz": device.omega_max / _GHZ,
        "g_mhz": device.g / _MHZ,
        "flux_per_volt_phi0": device.flux_per_volt,
        "phi_idle_phi0": device.phi_idle,
    }


def device_from_dict(data: dict) -> CouplerDevice:
    try:
        return CouplerDevice(
            omega_q=positive("omega_q_ghz", data["omega_q_ghz"]) * _GHZ,
            omega_max=positive("omega_max_ghz", data["omega_max_ghz"]) * _GHZ,
            g=finite("g_mhz", data["g_mhz"]) * _MHZ,
            flux_per_volt=finite("flux_per_volt_phi0", data["flux_per_volt_phi0"]),
            phi_idle=finite("phi_idle_phi0", data["phi_idle_phi0"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed device record: {exc}") from exc


def chain_to_list(elements) -> list:
    return [{"kind": e.kind, **e.params} for e in elements]


def chain_from_list(data) -> list:
    if not isinstance(data, list) or not data:
        raise ValueError("chain must be a non-empty JSON list of elements")
    elements = []
    for entry in data:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"malformed chain element: {entry!r}")
        params = {k: v for k, v in entry.items() if k != "kind"}
        elements.append(WiringElement(entry["kind"], params))
    return elements


def load_json(path):
    """Parse a UTF-8 JSON file; a file that is not one raises a one-line ValueError naming it."""
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; deep nesting
    # such as 100 000 '[' exhausts the decoder's recursion
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid UTF-8 JSON: {exc}") from None


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a comma-separated header line."""
    columns = [np.asarray(col) for col in columns]
    n = columns[0].shape[0]
    if any(col.shape != (n,) for col in columns):
        raise ValueError("all columns must be 1-D with equal length")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(format_float(col[i]) for col in columns) + "\n")


def read_csv_columns(path, expected_header) -> list:
    """Read a CSV written by :func:`write_csv`, checking the header.

    Every data row must have one cell per header column and every cell must
    parse to a finite float; otherwise a ValueError names the data row
    (1-based) and, for a bad cell, its column.  A file that is not UTF-8
    text, or whose header differs, raises a ValueError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not valid UTF-8 text: {exc}") from None
    expected = ",".join(expected_header)
    if header != expected:
        # a header can be a whole file long; quote only its start
        shown = repr(header[:100])
        if len(shown) > 80:
            shown = shown[:77] + "..."
        raise ValueError(f"{path} has the CSV header {shown}, want {expected!r}")
    if not rows:
        raise ValueError("CSV contains no data rows")
    data = np.empty((len(rows), len(expected_header)))
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != data.shape[1]:
            raise ValueError(f"CSV data row {i + 1} has {len(cells)} cells, want {data.shape[1]} ({expected})")
        for j, (name, cell) in enumerate(zip(expected_header, cells)):
            try:
                data[i, j] = finite(name, cell)
            except ValueError:
                raise ValueError(f"CSV column {name!r} holds {cell!r}, not a finite number, in data row {i + 1}") from None
    return [data[:, j] for j in range(data.shape[1])]
