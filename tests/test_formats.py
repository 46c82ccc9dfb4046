import numpy as np
import pytest

from fluxshape import HarmonicPulse, RCLine, WiringElement
from fluxshape import formats
from fluxshape.formats import (
    chain_from_list,
    device_from_dict,
    dump_json,
    format_float,
    load_json,
    pulse_from_dict,
    pulse_to_dict,
    rcline_from_dict,
    read_csv_columns,
    write_csv,
)

from conftest import DEVICE_RECORD, GHZ, MHZ, reference_device


def test_pulse_round_trip():
    pulse = HarmonicPulse(8e-6, a0=0.1, a=(0.2, -0.3), b=(1.0, -1.98))
    assert pulse_from_dict(pulse_to_dict(pulse)) == pulse
    minimal = pulse_from_dict({"tau_pulse_s": 8e-6})
    assert minimal == HarmonicPulse(8e-6)
    with pytest.raises(ValueError):
        pulse_from_dict({"a0": 0.1})


def test_rcline_round_trip():
    assert rcline_from_dict({"r_ohms": 50.0, "c_farads": 2.2e-7}) == RCLine(50.0, 2.2e-7)
    with pytest.raises(ValueError):
        rcline_from_dict({"r_ohms": 50.0})


def test_device_round_trip(tmp_path):
    # the reference record, written and read back, is the reference device
    path = tmp_path / "device.json"
    dump_json(DEVICE_RECORD, path)
    assert load_json(path) == DEVICE_RECORD
    assert device_from_dict(load_json(path)) == reference_device()
    with pytest.raises(ValueError):
        device_from_dict({"omega_q_ghz": 4.7})


def test_chain_round_trip():
    chain = [
        WiringElement.series_capacitor(2.2e-7),
        WiringElement.attenuator(20.0),
        WiringElement.transmission_line(50.0, 15e-9),
    ]
    data = [
        {"kind": "series_capacitor", "c_farads": 2.2e-7},
        {"kind": "attenuator", "db": 20.0, "z0_ohms": 50.0},
        {"kind": "transmission_line", "z0_ohms": 50.0, "delay_s": 15e-9},
    ]
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


@pytest.mark.parametrize(
    "header, columns, message",
    [
        (["a", "b"], [np.arange(3.0)], r"^CSV header has 2 fields for 1 columns$"),
        (["a"], [np.arange(3.0), np.arange(3.0)], r"^CSV header has 1 fields for 2 columns$"),
        ([], [], r"^write_csv needs at least one column$"),
        (["t_s", "z"], [np.arange(3.0), np.arange(3.0) + 1j], r"^CSV column 'z' must be real-valued, got dtype complex128$"),
        (["t_s", "z"], [np.arange(3.0), np.array(["1", "2", "3"])], r"^CSV column 'z' must be real-valued, got dtype <U1$"),
        (["a"], [np.float64(1.0)], r"^all columns must be 1-D with equal length$"),
        (["a", "b"], [np.arange(3.0), np.ones((3, 1))], r"^all columns must be 1-D with equal length$"),
    ],
    ids=["header-long", "header-short", "no-columns", "complex", "strings", "0-d", "2-d"],
)
def test_write_csv_refuses_before_opening_the_file(tmp_path, header, columns, message):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(path, header, columns)
    assert not path.exists()


def _per_cell_write_csv(path, header, columns):
    """Reference writer: one ``format(float(cell), ".17g")`` call per cell, a row per write."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(columns[0].shape[0]):
            fh.write(",".join(format(float(col[i]), ".17g") for col in columns) + "\n")


_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, np.nan, np.inf, -np.inf, 0.1, 2.0])
_INT64 = np.array([0, -1, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)], dtype=np.int64)


# block edges: empty, one row, one row short of a block, one block, one row
# past it, and several blocks with a partial last one
@pytest.mark.parametrize(
    "n",
    [0, 1, formats._BLOCK_ROWS - 1, formats._BLOCK_ROWS, formats._BLOCK_ROWS + 1, 2 * formats._BLOCK_ROWS + 1808],
)
def test_write_csv_matches_the_per_cell_writer_byte_for_byte(tmp_path, n):
    rng = np.random.default_rng([53, n])
    wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 308.0, n)
    columns = [
        np.where(rng.random(n) < 0.25, rng.choice(_SPECIAL, n), wide),
        rng.normal(size=n) * 1e-7,
        np.where(rng.random(n) < 0.25, rng.choice(_INT64, n), rng.integers(-(2**62), 2**62, n)),
        np.arange(n) * 2.5e-10,
    ]
    assert columns[2].dtype == np.int64
    header = ["x", "v_volts", "count", "t_s"]
    path, reference = tmp_path / "block.csv", tmp_path / "cell.csv"
    write_csv(path, header, columns)
    _per_cell_write_csv(reference, header, columns)
    assert path.read_bytes() == reference.read_bytes()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == n + 1
    for i, line in enumerate(lines[1:]):
        assert line.split(",") == [format_float(col[i]) for col in columns]


def test_format_float_is_shortest_exact():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0
    assert format_float(2.0) == "2"


def _random_magnitude(rng, low=-300.0, high=300.0):
    # a signed value whose magnitude is log-uniform, or a signed zero
    if rng.random() < 0.1:
        return float(rng.choice([0.0, -0.0]))
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(low, high))


def _positive_magnitude(rng, low=-300.0, high=300.0):
    return float(10.0 ** rng.uniform(low, high))


def _bits(*values):
    # compared as bytes, -0.0 and 0.0 differ
    return np.array(values, dtype=float).tobytes()


def test_json_round_trips_are_lossless(tmp_path):
    # seeded pulses, lines and chains survive dump_json/load_json bit for bit
    rng = np.random.default_rng(31)
    path = tmp_path / "record.json"
    factories = {
        "attenuator": lambda: WiringElement.attenuator(float(rng.choice([0.0, -0.0, 10.0 ** rng.uniform(-3, 2)])),
                                                       _positive_magnitude(rng)),
        "series_resistor": lambda: WiringElement.series_resistor(_positive_magnitude(rng)),
        "series_capacitor": lambda: WiringElement.series_capacitor(_positive_magnitude(rng)),
        "series_inductor": lambda: WiringElement.series_inductor(_positive_magnitude(rng)),
        "transmission_line": lambda: WiringElement.transmission_line(_positive_magnitude(rng), _positive_magnitude(rng)),
    }
    kinds_seen = set()
    for _ in range(60):
        n = int(rng.integers(0, 9))
        pulse = HarmonicPulse(
            _positive_magnitude(rng),
            _random_magnitude(rng),
            tuple(_random_magnitude(rng) for _ in range(n)),
            tuple(_random_magnitude(rng) for _ in range(n)),
        )
        dump_json(pulse_to_dict(pulse), path)
        again = pulse_from_dict(load_json(path))
        assert _bits(again.tau_pulse, again.a0, *again.a, *again.b) == _bits(pulse.tau_pulse, pulse.a0, *pulse.a, *pulse.b)
        assert again.n_harmonics == n

        line = RCLine(_positive_magnitude(rng), _positive_magnitude(rng))
        dump_json({"r_ohms": line.resistance, "c_farads": line.capacitance}, path)
        again = rcline_from_dict(load_json(path))
        assert _bits(again.resistance, again.capacitance) == _bits(line.resistance, line.capacitance)

        chain = [factories[kind]() for kind in rng.choice(list(factories), int(rng.integers(1, 8)))]
        dump_json([{"kind": e.kind, **e.params} for e in chain], path)
        again = chain_from_list(load_json(path))
        assert [e.kind for e in again] == [e.kind for e in chain]
        for e, f in zip(again, chain):
            keys = sorted(f.params)
            assert sorted(e.params) == keys
            assert _bits(*(e.params[k] for k in keys)) == _bits(*(f.params[k] for k in keys))
        kinds_seen.update(e.kind for e in chain)
    assert kinds_seen == set(factories)


def test_device_round_trips_hold_their_fields(tmp_path):
    # the three fields stored in GHz or MHz come back as angular frequencies
    # within 1e-15, the other two exactly
    rng = np.random.default_rng(37)
    path = tmp_path / "device.json"
    # CouplerDevice takes angular frequencies up to 1e100 rad/s, 2*pi*1e90 GHz and 2*pi*1e93 MHz
    for _ in range(60):
        record = {
            "omega_q_ghz": _positive_magnitude(rng, -100.0, 90.0),
            "omega_max_ghz": _positive_magnitude(rng, -100.0, 90.0),
            "g_mhz": float(rng.choice([0.0, _positive_magnitude(rng, -100.0, 93.0)])),
            "flux_per_volt_phi0": _random_magnitude(rng),
            "phi_idle_phi0": float(rng.uniform(-0.4999, 0.4999)) if rng.random() < 0.9 else -0.0,
        }
        dump_json(record, path)
        device = device_from_dict(load_json(path))
        assert device.omega_q == pytest.approx(record["omega_q_ghz"] * GHZ, rel=1e-15)
        assert device.omega_max == pytest.approx(record["omega_max_ghz"] * GHZ, rel=1e-15)
        assert device.g == pytest.approx(record["g_mhz"] * MHZ, rel=1e-15, abs=0.0)
        assert _bits(device.flux_per_volt, device.phi_idle) == _bits(record["flux_per_volt_phi0"], record["phi_idle_phi0"])
