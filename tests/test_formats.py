import numpy as np
import pytest

from fluxshape import HarmonicPulse, RCLine, WiringElement
from fluxshape.formats import (
    chain_from_list,
    chain_to_list,
    device_from_dict,
    device_to_dict,
    dump_json,
    format_float,
    load_json,
    pulse_from_dict,
    pulse_to_dict,
    rcline_from_dict,
    rcline_to_dict,
    read_csv_columns,
    write_csv,
)

from conftest import reference_device


def test_pulse_round_trip():
    pulse = HarmonicPulse(8e-6, a0=0.1, a=(0.2, -0.3), b=(1.0, -1.98))
    assert pulse_from_dict(pulse_to_dict(pulse)) == pulse
    minimal = pulse_from_dict({"tau_pulse_s": 8e-6})
    assert minimal == HarmonicPulse(8e-6)
    with pytest.raises(ValueError):
        pulse_from_dict({"a0": 0.1})


def test_rcline_round_trip():
    line = RCLine(50.0, 2.2e-7)
    assert rcline_from_dict(rcline_to_dict(line)) == line
    with pytest.raises(ValueError):
        rcline_from_dict({"r_ohms": 50.0})


def test_device_round_trip():
    device = reference_device()
    again = device_from_dict(device_to_dict(device))
    assert again.omega_q == pytest.approx(device.omega_q, rel=1e-15)
    assert again.omega_max == pytest.approx(device.omega_max, rel=1e-15)
    assert again.g == pytest.approx(device.g, rel=1e-15)
    assert again.flux_per_volt == device.flux_per_volt
    assert again.phi_idle == device.phi_idle
    with pytest.raises(ValueError):
        device_from_dict({"omega_q_ghz": 4.7})


def test_chain_round_trip():
    chain = [
        WiringElement.series_capacitor(2.2e-7),
        WiringElement.attenuator(20.0),
        WiringElement.transmission_line(50.0, 15e-9),
    ]
    data = chain_to_list(chain)
    again = chain_from_list(data)
    assert [e.kind for e in again] == [e.kind for e in chain]
    assert all(a.params == b.params for a, b in zip(again, chain))
    with pytest.raises(ValueError):
        chain_from_list([])
    with pytest.raises(ValueError):
        chain_from_list([{"db": 3.0}])
    with pytest.raises(ValueError):
        chain_from_list({"kind": "attenuator"})


def test_json_round_trip_and_determinism(tmp_path):
    data = {"b": [1.0, 2.5e-7], "a": {"nested": -0.1}}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    dump_json(data, p1)
    dump_json(data, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert load_json(p1) == data
    # keys come out sorted regardless of insertion order
    assert p1.read_text().index('"a"') < p1.read_text().index('"b"')


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(44)
    t = rng.uniform(-1e3, 1e3, 50)
    v = rng.normal(size=50) * 1e-7
    path = tmp_path / "trace.csv"
    write_csv(path, ["t_s", "v_volts"], [t, v])
    t2, v2 = read_csv_columns(path, ["t_s", "v_volts"])
    # .17g rendering is lossless for doubles
    assert np.array_equal(t, t2)
    assert np.array_equal(v, v2)


def test_csv_header_and_shape_validation(tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(path, ["x", "y"], [np.arange(3.0), np.arange(3.0)])
    with pytest.raises(ValueError):
        read_csv_columns(path, ["x", "z"])
    with pytest.raises(ValueError):
        write_csv(path, ["x", "y"], [np.arange(3.0), np.arange(4.0)])
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    with pytest.raises(ValueError):
        read_csv_columns(empty, ["x", "y"])


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "trace.csv"
    write_csv(path, ["t_s", "x_expect"], [np.arange(4.0), np.ones(4)])
    lines = path.read_text().splitlines()
    lines[3] = "2," + cell
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"column 'x_expect' .* data row 3$"):
        read_csv_columns(path, ["t_s", "x_expect"])


def test_csv_names_non_number_cell(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,x_expect\n0,1\n1,abc\n")
    with pytest.raises(ValueError, match=r"^CSV column 'x_expect' holds 'abc', not a finite number, in data row 2$"):
        read_csv_columns(path, ["t_s", "x_expect"])


@pytest.mark.parametrize("row", ["1", "1,2,3"])
def test_csv_names_ragged_row(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"t_s,x_expect\n0,1\n{row}\n")
    with pytest.raises(ValueError, match=r"^CSV data row 2 has \d cells, want 2 \(t_s,x_expect\)$"):
        read_csv_columns(path, ["t_s", "x_expect"])

def test_format_float_is_shortest_exact():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0
    assert format_float(2.0) == "2"
