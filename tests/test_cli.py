import json
import math
import os
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxshape import (
    capacitor_voltage,
    line_current,
    run_pipeline,
    sweep_transient_coefficient,
)
from fluxshape import cli, formats
from fluxshape.cli import main

from conftest import DEVICE_RECORD, IDLE_FLUX, reference_device

TAU_PULSE_US = 8.0
OMEGA = 2.0 * math.pi / (TAU_PULSE_US * 1e-6)
TAU_ASSUMED_US = 8.79 * TAU_PULSE_US / (2.0 * math.pi)


@pytest.fixture(autouse=True)
def _isolated_seed_env(monkeypatch):
    monkeypatch.delenv("FLUXSHAPE_SEED", raising=False)


def write_device(tmp_path):
    path = tmp_path / "device.json"
    formats.dump_json(DEVICE_RECORD, path)
    return str(path)


def write_single_sine(tmp_path):
    path = tmp_path / "single.json"
    formats.dump_json({"tau_pulse_s": TAU_PULSE_US * 1e-6, "a": [0.0], "b": [1.0]}, path)
    return str(path)


def write_line(tmp_path, tau_s, resistance=50.0):
    path = tmp_path / "line.json"
    formats.dump_json({"r_ohms": resistance, "c_farads": tau_s / resistance}, path)
    return str(path)


def test_design_biharmonic(tmp_path):
    out = tmp_path / "design"
    rc = main([
        "design", "--family", "biharmonic", "--b1", "1",
        "--tau-pulse-us", "8", "--tau-assumed-us", "11.2",
        "--out-dir", str(out),
    ])
    assert rc == 0
    pulse = formats.pulse_from_dict(formats.load_json(out / "pulse.json"))
    x = OMEGA * 11.2e-6
    assert_allclose(pulse.b[1], -0.5 * (1.0 + 4.0 * x * x) / (1.0 + x * x), rtol=1e-12)
    assert_allclose(pulse.b[1], -1.98083, rtol=1e-4)
    diag = formats.load_json(out / "diagnostics.json")
    assert set(diag) == {"k_exp_at_assumed", "cond1", "cond3"}
    assert abs(diag["k_exp_at_assumed"]) < 1e-14
    assert abs(diag["cond1"]) < 1e-14
    manifest = formats.load_json(out / "manifest.json")
    assert manifest["command"] == "design"
    assert manifest["outputs"] == ["pulse.json", "diagnostics.json"]


def test_design_from_request_file(tmp_path):
    request = tmp_path / "request.json"
    formats.dump_json(
        {"family": "biharmonic", "b1": 1.0, "tau_pulse_s": 8e-6, "tau_assumed_s": 0.1},
        request,
    )
    out = tmp_path / "design"
    assert main(["design", "--request", str(request), "--out-dir", str(out)]) == 0
    pulse = formats.pulse_from_dict(formats.load_json(out / "pulse.json"))
    # far above the crossover the second harmonic saturates at -2*b1
    assert_allclose(pulse.b[1], -2.0, rtol=1e-5)


def test_design_top_harmonic(tmp_path):
    out = tmp_path / "design"
    rc = main([
        "design", "--family", "top-harmonic", "--a0", "0", "--a", "0.3", "--b", "1.0",
        "--tau-pulse-us", "8", "--tau-assumed-us", f"{TAU_ASSUMED_US!r}",
        "--out-dir", str(out),
    ])
    assert rc == 0
    pulse = formats.pulse_from_dict(formats.load_json(out / "pulse.json"))
    assert pulse.a[-1] == -0.3
    assert abs(formats.load_json(out / "diagnostics.json")["k_exp_at_assumed"]) < 1e-14


def test_design_missing_b1_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main([
        "design", "--family", "biharmonic",
        "--tau-pulse-us", "8", "--tau-assumed-us", "11.2",
        "--out-dir", str(out),
    ])
    assert rc == 2
    assert "--b1" in capsys.readouterr().err
    assert not out.exists()


def test_kexp_designed_and_single_sine(tmp_path, capsys):
    out = tmp_path / "design"
    main([
        "design", "--family", "biharmonic", "--b1", "1",
        "--tau-pulse-us", "8", "--tau-assumed-us", f"{TAU_ASSUMED_US!r}",
        "--out-dir", str(out),
    ])
    capsys.readouterr()
    rc = main(["kexp", "--pulse", str(out / "pulse.json"), "--tau-us", f"{TAU_ASSUMED_US!r}"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip())) < 1e-14

    single = write_single_sine(tmp_path)
    kexp_out = tmp_path / "kexp"
    rc = main(["kexp", "--pulse", single, "--tau-us", f"{TAU_ASSUMED_US!r}", "--out-dir", str(kexp_out)])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    assert_allclose(printed, -0.11231203067562268, rtol=1e-12)
    report = formats.load_json(kexp_out / "kexp.json")
    assert report["k_exp"] == printed
    assert formats.load_json(kexp_out / "manifest.json")["command"] == "kexp"


def test_respond_matches_library(tmp_path):
    out = tmp_path / "design"
    main([
        "design", "--family", "biharmonic", "--b1", "1",
        "--tau-pulse-us", "8", "--tau-assumed-us", f"{TAU_ASSUMED_US!r}",
        "--out-dir", str(out),
    ])
    tau_s = TAU_ASSUMED_US * 1e-6
    line_path = write_line(tmp_path, tau_s)
    resp = tmp_path / "resp"
    rc = main([
        "respond", "--pulse", str(out / "pulse.json"), "--line", line_path,
        "--dt-us", "0.1", "--n-periods", "2", "--out-dir", str(resp),
    ])
    assert rc == 0
    t, v_in, v_c, i = formats.read_csv_columns(
        resp / "response.csv", ["t_s", "v_in_volts", "v_c_volts", "i_amps"]
    )
    pulse = formats.pulse_from_dict(formats.load_json(out / "pulse.json"))
    line = formats.rcline_from_dict(formats.load_json(line_path))
    t_ref, v_ref = pulse.sample(0.1e-6, 2)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(v_in, v_ref)
    assert np.array_equal(v_c, capacitor_voltage(pulse, line, t_ref))
    assert np.array_equal(i, line_current(pulse, line, t_ref))


def test_sweep_default_grid(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--b1", "1", "--grid", "default", "--out-dir", str(out)]) == 0
    omega_tau, m, k = formats.read_csv_columns(out / "sweep.csv", ["omega_tau", "m", "k_exp"])
    assert omega_tau.size == 2500
    assert omega_tau[0] == 1.0 and m[0] == 0.01
    assert omega_tau[-1] == 30.0 and m[-1] == 100.0
    assert np.all(np.isfinite(k))


def test_sweep_explicit_axes(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--b1", "1", "--omega-tau", "8.79", "--m", "0.01,1,100",
        "--out-dir", str(out),
    ])
    assert rc == 0
    # README's explicit-axes sweep, byte for byte: k at m = 0.01, at the design point and at m = 100
    assert (out / "sweep.csv").read_bytes() == (
        b"omega_tau,m,k_exp\n"
        b"8.7899999999999991,0.01,-0.083310264284806146\n"
        b"8.7899999999999991,1,0\n"
        b"8.7899999999999991,100,0.0010865828358266744\n"
    )


def test_sweep_csv_row_major(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--b1", "1", "--omega-tau", "2,8.79", "--m", "0.5,1,2", "--out-dir", str(out)]) == 0
    omega_tau, m, k = formats.read_csv_columns(out / "sweep.csv", ["omega_tau", "m", "k_exp"])
    grid = sweep_transient_coefficient(1.0, [2.0, 8.79], [0.5, 1.0, 2.0])
    assert omega_tau.tolist() == [2.0, 2.0, 2.0, 8.79, 8.79, 8.79]
    assert m.tolist() == [0.5, 1.0, 2.0] * 2
    assert np.array_equal(k, grid.k_exp.ravel())
    assert (omega_tau[3], m[3], k[3]) == (8.79, 0.5, grid.k_exp[1, 0])


def test_sweep_flag_conflicts(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", "default", "--m", "1", "--out-dir", str(out)]) == 2
    assert "--grid" in capsys.readouterr().err
    assert main(["sweep", "--omega-tau", "8.79", "--out-dir", str(out)]) == 2
    assert "together" in capsys.readouterr().err


def test_ramsey_then_extract_recovers_tau(tmp_path, capsys):
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    rc = main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--out-dir", str(sim),
    ])
    assert rc == 0
    delays, x, y = formats.read_csv_columns(
        sim / "trace.csv", ["tau_delay_s", "x_expect", "y_expect"]
    )
    assert delays.size == 241 and delays[0] == 0.0

    ext = tmp_path / "ext"
    rc = main([
        "extract", "--trace", str(sim / "trace.csv"), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(ext),
    ])
    assert rc == 0
    report = formats.load_json(ext / "report.json")
    assert report["converged"] is True
    assert_allclose(report["tau_s"], 13e-6, rtol=1e-4)
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[-1].startswith("tau_us=")
    assert_allclose(float(out_lines[-1].removeprefix("tau_us=")), 13.0, rtol=1e-4)
    assert (ext / "manifest.json").exists()


def test_extract_nonconvergence_exit_code(tmp_path, capsys):
    # an amplitude-zero pulse leaves a perfectly flat trace: the template
    # fit cannot converge, diagnostics are written, the manifest is not
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "0", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "30", "--delay-step-us", "0.5",
        "--out-dir", str(sim),
    ])
    ext = tmp_path / "ext"
    rc = main([
        "extract", "--trace", str(sim / "trace.csv"), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "30", "--out-dir", str(ext),
    ])
    assert rc == 3
    assert "converge" in capsys.readouterr().err
    report = formats.load_json(ext / "report.json")
    assert report["converged"] is False
    assert report["tau_s"] is None
    assert not (ext / "manifest.json").exists()


def test_extract_noise_only_trace_exit_code(tmp_path, capsys):
    # a zero-amplitude pulse read out with noise holds no transient: the fit
    # finds no tau resolved to 10% and extract exits 3
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "0", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--noise-sigma", "0.05", "--seed", "1", "--out-dir", str(sim),
    ])
    ext = tmp_path / "ext"
    rc = main([
        "extract", "--trace", str(sim / "trace.csv"), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(ext),
    ])
    assert rc == 3
    assert "converge" in capsys.readouterr().err
    assert formats.load_json(ext / "report.json")["converged"] is False
    assert not (ext / "manifest.json").exists()

def test_extract_window_validation(tmp_path, capsys):
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--out-dir", str(sim),
    ])
    rc = main([
        "extract", "--trace", str(sim / "trace.csv"), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "1", "--out-dir", str(tmp_path / "e"),
    ])
    assert rc == 2
    assert "--fit-window-us" in capsys.readouterr().err


def test_extract_rejects_non_finite_trace(tmp_path, capsys):
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--out-dir", str(sim),
    ])
    trace = sim / "trace.csv"
    lines = trace.read_text().splitlines()
    cells = lines[100].split(",")
    cells[1] = "inf"
    lines[100] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([
        "extract", "--trace", str(trace), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(tmp_path / "ext"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "'x_expect'" in err[0] and "data row 100" in err[0]
    assert not (tmp_path / "ext" / "report.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cells: cells[:1] + ["abc"] + cells[2:], "'x_expect' holds 'abc', not a finite number, in data row 100"),
        (lambda cells: cells[:2], "data row 100 has 2 cells, want 3"),
    ],
    ids=["non-number", "missing-cell"],
)
def test_extract_names_malformed_trace_cell(tmp_path, capsys, edit, message):
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--out-dir", str(sim),
    ])
    trace = sim / "trace.csv"
    lines = trace.read_text().splitlines()
    lines[100] = ",".join(edit(lines[100].split(",")))
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([
        "extract", "--trace", str(trace), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(tmp_path / "ext"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


def test_extract_rejects_zero_coupling(tmp_path, capsys):
    # with g = 0 the dressed qubit does not move with flux, so the flux
    # inversion has nothing to invert
    device = write_device(tmp_path)
    sim = tmp_path / "sim"
    main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--out-dir", str(sim),
    ])
    uncoupled = tmp_path / "uncoupled.json"
    formats.dump_json({**formats.load_json(device), "g_mhz": 0}, uncoupled)
    capsys.readouterr()
    rc = main([
        "extract", "--trace", str(sim / "trace.csv"), "--device", str(uncoupled),
        "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(tmp_path / "ext"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "g must be positive" in err[0]
    assert not (tmp_path / "ext" / "report.json").exists()

def test_ramsey_pulse_waveform_and_period_check(tmp_path, capsys):
    device = write_device(tmp_path)
    design = tmp_path / "design"
    main([
        "design", "--family", "biharmonic", "--b1", "1",
        "--tau-pulse-us", "8", "--tau-assumed-us", f"{TAU_ASSUMED_US!r}",
        "--out-dir", str(design),
    ])
    line_path = write_line(tmp_path, TAU_ASSUMED_US * 1e-6)
    sim = tmp_path / "sim"
    rc = main([
        "ramsey-sim", "--device", device, "--waveform", "pulse",
        "--pulse", str(design / "pulse.json"), "--line", line_path,
        "--tau-pulse-us", "8", "--delay-max-us", "40", "--delay-step-us", "0.5",
        "--out-dir", str(sim),
    ])
    assert rc == 0
    assert (sim / "trace.csv").exists()
    rc = main([
        "ramsey-sim", "--device", device, "--waveform", "pulse",
        "--pulse", str(design / "pulse.json"), "--line", line_path,
        "--tau-pulse-us", "7", "--delay-max-us", "40", "--delay-step-us", "0.5",
        "--out-dir", str(tmp_path / "sim2"),
    ])
    assert rc == 2
    assert "period" in capsys.readouterr().err


def test_ramsey_pulse_file_an_ulp_past_the_flag_period(tmp_path, capsys):
    # 10 * 1e-6 rounds to 9.999999999999999e-06, an ulp short of the file's
    # 1e-05: the two agree to 1e-12, the first delay reads the pulse end, and
    # the report keeps the flag's period
    pulse = _write_json(tmp_path, "pulse.json", {"tau_pulse_s": 1e-05, "a": [0.0], "b": [1.0]})
    sim = tmp_path / "sim"
    rc = main([
        "ramsey-sim", "--device", write_device(tmp_path), "--waveform", "pulse", "--pulse", pulse,
        "--line", write_line(tmp_path, TAU_ASSUMED_US * 1e-6), "--tau-pulse-us", "10",
        "--delay-max-us", "40", "--delay-step-us", "0.5", "--out-dir", str(sim),
    ])
    assert rc == 0, capsys.readouterr().err
    _, x, y = formats.read_csv_columns(str(sim / "trace.csv"), ["tau_delay_s", "x_expect", "y_expect"])
    assert x.size == 81 and np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    assert formats.load_json(sim / "manifest.json")["parameters"]["tau_pulse_s"] == 10 * 1e-6


def test_ramsey_missing_square_options(tmp_path, capsys):
    device = write_device(tmp_path)
    rc = main([
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--out-dir", str(tmp_path / "sim"),
    ])
    assert rc == 2
    assert "--line-tau-us" in capsys.readouterr().err


def _noisy_sim_args(device, out_dir, seed):
    return [
        "ramsey-sim", "--device", device, "--waveform", "square",
        "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
        "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
        "--t2-us", "75", "--noise-sigma", "0.05", "--seed", str(seed),
        "--out-dir", str(out_dir),
    ]


def test_ramsey_sim_byte_determinism(tmp_path):
    device = write_device(tmp_path)
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        assert main(_noisy_sim_args(device, tmp_path / name, seed)) == 0
    read = lambda name: (tmp_path / name / "trace.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    device = write_device(tmp_path)
    monkeypatch.setenv("FLUXSHAPE_SEED", "123")
    assert main(_noisy_sim_args(device, tmp_path / "env", 0)) == 0
    monkeypatch.delenv("FLUXSHAPE_SEED")
    assert main(_noisy_sim_args(device, tmp_path / "flag", 123)) == 0
    trace_env = (tmp_path / "env" / "trace.csv").read_bytes()
    trace_flag = (tmp_path / "flag" / "trace.csv").read_bytes()
    assert trace_env == trace_flag
    assert formats.load_json(tmp_path / "env" / "manifest.json")["rng_seed"] == 123


def test_impedance_default_chain_with_fit(tmp_path):
    out = tmp_path / "imp"
    assert main(["impedance", "--chain", "default", "--fit", "--out-dir", str(out)]) == 0
    fit = formats.load_json(out / "rc_fit.json")
    assert_allclose(fit["effective_r_ohms"], 50.0, rtol=1e-3)
    assert_allclose(fit["effective_c_farads"], 2.2e-7, rtol=1e-6)
    f, z_abs, z_re, z_im = formats.read_csv_columns(
        out / "impedance.csv", ["f_hz", "z_abs_ohms", "z_re", "z_im"]
    )
    assert f.size == 400
    assert_allclose(z_abs, np.hypot(z_re, z_im), rtol=1e-12)
    manifest = formats.load_json(out / "manifest.json")
    assert manifest["outputs"] == ["impedance.csv", "rc_fit.json"]


def test_impedance_custom_chain_and_validation(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    formats.dump_json(
        [{"kind": "series_resistor", "r_ohms": 47.0}, {"kind": "series_capacitor", "c_farads": 3.3e-7}],
        chain_path,
    )
    out = tmp_path / "imp"
    rc = main([
        "impedance", "--chain", str(chain_path), "--fit",
        "--f-start-hz", "1e3", "--f-stop-hz", "1e6", "--n-points", "31",
        "--out-dir", str(out),
    ])
    assert rc == 0
    fit = formats.load_json(out / "rc_fit.json")
    assert_allclose(fit["effective_r_ohms"], 47.0, rtol=1e-9)
    # 0 ohms, the on-chip short, is the default load and may also be given
    short = tmp_path / "short"
    assert main(["impedance", "--chain", str(chain_path), "--load-ohms", "0", "--n-points", "5",
                 "--out-dir", str(short)]) == 0
    assert formats.load_json(short / "manifest.json")["parameters"]["load_ohms"] == 0.0
    assert main(["impedance", "--chain", "default", "--f-start-hz", "0",
                 "--out-dir", str(tmp_path / "bad")]) == 2
    assert "f-start" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--f-stop-hz", "inf"), ("--f-start-hz", "nan")])
def test_impedance_rejects_non_finite_range(tmp_path, capsys, flag, value):
    # a RuntimeWarning from building the grid would be a second stderr line;
    # as an error it would escape main() instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["impedance", "--chain", "default", flag, value, "--out-dir", str(tmp_path / "imp")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0]
    assert not (tmp_path / "imp" / "impedance.csv").exists()


def test_unknown_arguments_exit_2(tmp_path, capsys):
    assert main(["sweep", "--definitely-not-a-flag", "1", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    formats.dump_json(data, path)
    return str(path)


def _assert_named_rejection(capsys, rc, out, name):
    # exit 2, one stderr line that starts with the field's name, nothing written
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be"), err
    assert not out.exists()


_DEVICE_SQUARE_ARGS = [
    "--waveform", "square", "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
    "--tau-pulse-us", "8", "--delay-max-us", "10", "--delay-step-us", "0.5",
]


@pytest.mark.parametrize(
    "case",
    [
        "request-tau-list", "request-b1-dict", "chain-r-list", "delay-max-inf",
        "load-nan", "device-string", "pulse-coefficient-string", "noise-sigma-negative", "chain-kind-list",
        "n-points-past-float", "n-periods-past-float", "n-periods-zero", "seed-negative", "seed-env-negative",
        "sg-window-even", "sg-window-two", "sg-order-zero", "sg-order-at-window",
        "request-b1-bool", "line-r-bool", "pulse-coefficient-bool", "pulse-coefficient-past-float",
    ],
)
def test_cli_names_the_bad_field(tmp_path, capsys, monkeypatch, case):
    out = tmp_path / "out"
    device = write_device(tmp_path)
    request = {"family": "biharmonic", "b1": 1.0, "tau_pulse_s": 8e-6, "tau_assumed_s": 1.12e-5}
    if case == "request-tau-list":
        argv, name = ["design", "--request", _write_json(tmp_path, "r.json", {**request, "tau_pulse_s": [1]})], "tau_pulse_s"
    elif case == "request-b1-dict":
        argv, name = ["design", "--request", _write_json(tmp_path, "r.json", {**request, "b1": {"a": 1}})], "b1"
    elif case == "request-b1-bool":
        # JSON's true is not the number 1
        argv, name = ["design", "--request", _write_json(tmp_path, "r.json", {**request, "b1": True})], "b1"
    elif case == "line-r-bool":
        line = _write_json(tmp_path, "l.json", {"r_ohms": True, "c_farads": "2e-7"})
        pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]})
        argv, name = ["respond", "--pulse", pulse, "--line", line, "--dt-us", "1"], "r_ohms"
    elif case == "pulse-coefficient-bool":
        pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.3], "b": [True]})
        argv, name = ["kexp", "--pulse", pulse, "--tau-us", "11.2"], "b"
    elif case == "pulse-coefficient-past-float":
        # an integer entry no float can hold used to end in an OverflowError traceback
        pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [int("9" * 400)], "b": [1.0]})
        argv, name = ["kexp", "--pulse", pulse, "--tau-us", "11.2"], "a"
    elif case == "chain-r-list":
        chain = _write_json(tmp_path, "c.json", [{"kind": "series_resistor", "r_ohms": [1]}])
        argv, name = ["impedance", "--chain", chain], "series_resistor.r_ohms"
    elif case == "delay-max-inf":
        argv = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--delay-max-us", "inf"]
        name = "--delay-max-us"
    elif case == "chain-kind-list":
        argv, name = ["impedance", "--chain", _write_json(tmp_path, "c.json", [{"kind": ["x"]}])], "kind"
    elif case == "load-nan":
        argv, name = ["impedance", "--chain", "default", "--load-ohms", "nan"], "--load-ohms"
    elif case == "device-string":
        bad = _write_json(tmp_path, "d.json", {**formats.load_json(device), "omega_q_ghz": "x"})
        argv, name = ["ramsey-sim", "--device", bad, *_DEVICE_SQUARE_ARGS], "omega_q_ghz"
    elif case == "noise-sigma-negative":
        argv = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--noise-sigma", "-1"]
        name = "--noise-sigma"
    elif case == "seed-negative":
        argv, name = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--seed", "-1"], "--seed"
    elif case == "seed-env-negative":
        monkeypatch.setenv("FLUXSHAPE_SEED", "-1")
        argv, name = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS], "FLUXSHAPE_SEED"
    elif case == "n-points-past-float":
        # an integer no float can hold: argparse takes it, float() would overflow
        argv, name = ["impedance", "--chain", "default", "--n-points", "9" * 401], "--n-points"
    elif case.startswith("n-periods"):
        pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]})
        periods = "9" * 401 if case == "n-periods-past-float" else "0"
        argv = ["respond", "--pulse", pulse, "--line", write_line(tmp_path, 11.2e-6), "--dt-us", "1",
                "--n-periods", periods]
        name = "--n-periods"
    elif case.startswith("sg-"):
        # the smoothing flags are checked before the trace is read
        flags = {
            "sg-window-even": ["--sg-window", "4"],
            "sg-window-two": ["--sg-window", "2"],
            "sg-order-zero": ["--sg-order", "0"],
            "sg-order-at-window": ["--sg-window", "5", "--sg-order", "5"],
        }[case]
        argv = ["extract", "--trace", str(tmp_path / "trace.csv"), "--device", device,
                "--tau-pulse-us", "8", "--fit-window-us", "60", *flags]
        name = flags[-2]
    else:
        pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": ["x"], "b": [1.0]})
        argv, name = ["kexp", "--pulse", pulse, "--tau-us", "11.2"], "a"
    _assert_named_rejection(capsys, main([*argv, "--out-dir", str(out)]), out, name)


def test_kexp_quotes_one_bad_coefficient_of_a_long_pulse_record(tmp_path, capsys):
    # the refusal names the entry and its index instead of echoing all
    # 100 000 coefficients (a 500 030-byte line before)
    out = tmp_path / "out"
    pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.1] * 99_999 + ["x"], "b": [0.0] * 100_000})
    rc = main(["kexp", "--pulse", pulse, "--tau-us", "11.2", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: a must be finite, got 'x' at index 99999\n"
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize(
    "delay_max_us, delay_step_us",
    [("1e300", "1e-300"), ("1e6", "1e-6"), (str(cli.MAX_DELAYS), "1")],
    ids=["overflowing-ratio", "terabyte-grid", "one-past-the-cap"],
)
def test_ramsey_sim_caps_the_delay_count(tmp_path, capsys, delay_max_us, delay_step_us):
    # rejected before the grid is built: 1e12 delays would not fit in memory
    out = tmp_path / "out"
    argv = ["ramsey-sim", "--device", write_device(tmp_path), *_DEVICE_SQUARE_ARGS]
    rc = main([*argv, "--delay-max-us", delay_max_us, "--delay-step-us", delay_step_us, "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --delay-max-us / --delay-step-us must give at most"), err
    assert f"{cli.MAX_DELAYS} delays" in err[0]
    assert not out.exists()


def test_delay_count_at_the_cap():
    assert cli._delay_count(60.0, 0.25) == 241
    # the floored grid 0, 1, ..., 99999 holds exactly MAX_DELAYS delays
    for ratio in (cli.MAX_DELAYS - 1.0, cli.MAX_DELAYS - 0.6, cli.MAX_DELAYS - 0.5, cli.MAX_DELAYS - 0.3):
        assert cli._delay_count(ratio, 1.0) == cli.MAX_DELAYS
    # 100000 adds the delay at 100000 us, one past the cap
    with pytest.raises(ValueError, match="must give at most"):
        cli._delay_count(float(cli.MAX_DELAYS), 1.0)


def _numeric_fields(data, label=lambda key: key):
    """(name in the error, path to the value) for every number in a JSON record."""
    for key, value in data.items():
        if isinstance(value, list):
            for i in range(len(value)):
                yield label(key), (key, i)
        elif isinstance(value, (int, float)):
            yield label(key), (key,)


def test_cli_rejects_every_malformed_json_number(tmp_path, capsys):
    # every number of every JSON input, replaced by something that is not a
    # finite number, gives exit 2 and one stderr line naming the field; then
    # seeded draws corrupt two fields of one input at once
    device = formats.load_json(write_device(tmp_path))
    pulse = {"tau_pulse_s": 8e-6, "a0": 0.1, "a": [0.0, 0.2], "b": [1.0, -0.5]}
    line = {"r_ohms": 50.0, "c_farads": 2.2e-7}
    chain = [
        {"kind": "series_capacitor", "c_farads": 2.2e-7},
        {"kind": "attenuator", "db": 20.0, "z0_ohms": 50.0},
        {"kind": "transmission_line", "z0_ohms": 50.0, "delay_s": 1e-9},
    ]
    biharmonic = {"family": "biharmonic", "b1": 1.0, "tau_pulse_s": 8e-6, "tau_assumed_s": 1.12e-5}
    top = {"family": "top-harmonic", "a0": 0.0, "a": [0.3, 0.1], "b": [1.0, 0.2],
           "tau_pulse_s": 8e-6, "tau_assumed_s": 1.12e-5}
    pulse_ok = _write_json(tmp_path, "pulse_ok.json", pulse)
    commands = {
        "device": ["ramsey-sim", "--device", None, *_DEVICE_SQUARE_ARGS],
        "pulse": ["kexp", "--pulse", None, "--tau-us", "11.2"],
        "line": ["respond", "--pulse", pulse_ok, "--line", None, "--dt-us", "1"],
        "chain": ["impedance", "--chain", None, "--n-points", "10"],
        "request": ["design", "--request", None],
    }
    # (input kind, record, element index in a chain, name in the error, path to the value)
    fields = [("device", device, None, *f) for f in _numeric_fields(device)]
    fields += [("pulse", pulse, None, *f) for f in _numeric_fields(pulse)]
    fields += [("line", line, None, *f) for f in _numeric_fields(line)]
    fields += [("request", req, None, *f) for req in (biharmonic, top) for f in _numeric_fields(req)]
    for j, element in enumerate(chain):
        fields += [("chain", chain, j, *f) for f in _numeric_fields(element, lambda k: f"{element['kind']}.{k}")]
    assert len(fields) == 28
    bad_values = (math.nan, math.inf, "x", [1], None, {})

    def run(kind, record, edits):
        data = json.loads(json.dumps(record))
        for element, path, bad in edits:
            target = data if element is None else data[element]
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = bad
        argv = [str(tmp_path / f"{kind}.json") if a is None else a for a in commands[kind]]
        formats.dump_json(data, tmp_path / f"{kind}.json")
        out = tmp_path / "out"
        rc = main([*argv, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert not out.exists()
        return err[0]

    for kind, record, element, name, path in fields:
        for bad in bad_values:
            assert run(kind, record, [(element, path, bad)]).startswith(f"error: {name} must be")

    rng = np.random.default_rng(20261018)
    for _ in range(60):
        first = fields[rng.integers(len(fields))]
        partners = [f for f in fields if f[1] is first[1] and f[4:] != first[4:]]
        second = partners[rng.integers(len(partners))]
        edits = [(f[2], f[4], bad_values[rng.integers(len(bad_values))]) for f in (first, second)]
        message = run(first[0], first[1], edits)
        assert any(message.startswith(f"error: {f[3]} must be") for f in (first, second)), message


def test_ramsey_sim_delays_stay_within_the_maximum(tmp_path):
    # 1 / 0.6 is floored: the grid stops at 0.6 us instead of running to 1.2 us
    out = tmp_path / "sim"
    argv = ["ramsey-sim", "--device", write_device(tmp_path), *_DEVICE_SQUARE_ARGS]
    assert main([*argv, "--delay-max-us", "1", "--delay-step-us", "0.6", "--out-dir", str(out)]) == 0
    delays, _, _ = formats.read_csv_columns(out / "trace.csv", ["tau_delay_s", "x_expect", "y_expect"])
    assert delays.tolist() == [0.0, 0.6e-6]
    assert cli._delay_count(1.0, 0.6) == 2
    # 0.3 / 0.1 is 2.9999999999999996 in floats and still counts as three steps
    assert 0.3 / 0.1 < 3.0 and cli._delay_count(0.3, 0.1) == 4
    # every grid the README, the tests and the benchmark use divides exactly
    grids = [(60, 0.25, 241), (60, 0.0625, 961), (30, 0.5, 61), (40, 0.5, 81), (10, 0.5, 21)]
    assert [cli._delay_count(m, s) for m, s, _ in grids] == [count for _, _, count in grids]


@pytest.mark.parametrize(
    "case",
    ["respond-petabyte", "respond-one-past-the-cap", "impedance-terabyte", "impedance-one-past-the-cap"],
)
def test_respond_and_impedance_cap_their_grids(tmp_path, capsys, case):
    # rejected before any array is built
    out = tmp_path / "out"
    pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]})
    line = write_line(tmp_path, 11.2e-6)
    respond = ["respond", "--pulse", pulse, "--line", line]
    argv, flags = {
        "respond-petabyte": ([*respond, "--dt-us", "1e-9", "--n-periods", "100000"], "--n-periods / --dt-us"),
        # 8 us / 0.8 ns is 10 000 rows a period
        "respond-one-past-the-cap": (
            [*respond, "--dt-us", "0.0008", "--n-periods", str(cli.MAX_RESPONSE_ROWS // 10_000 + 1)],
            "--n-periods / --dt-us",
        ),
        "impedance-terabyte": (["impedance", "--chain", "default", "--n-points", "100000000000"], "--n-points"),
        "impedance-one-past-the-cap": (
            ["impedance", "--chain", "default", "--n-points", str(cli.MAX_FREQUENCIES + 1)],
            "--n-points",
        ),
    }[case]
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flags} must give at most"), err
    assert not out.exists()


def test_grid_caps_at_the_boundary(tmp_path, monkeypatch, capsys):
    # the caps lowered to small grids, so the run at the cap stays cheap
    pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]})
    respond = ["respond", "--pulse", pulse, "--line", write_line(tmp_path, 11.2e-6), "--dt-us", "0.05"]
    monkeypatch.setattr(cli, "MAX_RESPONSE_ROWS", 160)
    assert main([*respond, "--out-dir", str(tmp_path / "at")]) == 0
    t, *_ = formats.read_csv_columns(tmp_path / "at" / "response.csv", ["t_s", "v_in_volts", "v_c_volts", "i_amps"])
    assert t.size == 160
    monkeypatch.setattr(cli, "MAX_RESPONSE_ROWS", 159)
    assert main([*respond, "--out-dir", str(tmp_path / "past")]) == 2
    assert capsys.readouterr().err.strip() == "error: --n-periods / --dt-us must give at most 159 rows, got 160"

    impedance = ["impedance", "--chain", "default"]
    monkeypatch.setattr(cli, "MAX_FREQUENCIES", 50)
    assert main([*impedance, "--n-points", "50", "--out-dir", str(tmp_path / "z-at")]) == 0
    assert main([*impedance, "--n-points", "51", "--out-dir", str(tmp_path / "z-past")]) == 2
    assert capsys.readouterr().err.strip() == "error: --n-points must give at most 50 frequencies, got 51"
    assert not (tmp_path / "past").exists() and not (tmp_path / "z-past").exists()


def test_out_dir_holds_exactly_the_manifest_outputs(tmp_path):
    # every subcommand, both design families, both waveforms, impedance with and without --fit
    device = write_device(tmp_path)
    line = write_line(tmp_path, TAU_ASSUMED_US * 1e-6)
    pulse, trace = str(tmp_path / "biharmonic" / "pulse.json"), str(tmp_path / "square" / "trace.csv")
    chain = _write_json(tmp_path, "chain.json", [{"kind": "series_resistor", "r_ohms": 47.0}])
    design = ["--tau-pulse-us", "8", "--tau-assumed-us", "11.2"]
    sim = ["ramsey-sim", "--device", device, "--tau-pulse-us", "8"]
    designed = ["pulse.json", "diagnostics.json"]
    runs = [
        ("biharmonic", ["design", "--family", "biharmonic", "--b1", "1", *design], designed),
        ("top", ["design", "--family", "top-harmonic", "--a", "0.3", "--b", "1", *design], designed),
        ("kexp", ["kexp", "--pulse", pulse, "--tau-us", "11.2"], ["kexp.json"]),
        ("respond", ["respond", "--pulse", pulse, "--line", line, "--dt-us", "0.1"], ["response.csv"]),
        ("sweep", ["sweep", "--omega-tau", "8.79", "--m", "0.5,1"], ["sweep.csv"]),
        ("square", [*sim, "--waveform", "square", "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
                    "--delay-max-us", "60", "--delay-step-us", "0.25"], ["trace.csv"]),
        ("pulse", [*sim, "--waveform", "pulse", "--pulse", pulse, "--line", line,
                   "--delay-max-us", "10", "--delay-step-us", "0.5"], ["trace.csv"]),
        ("extract", ["extract", "--trace", trace, "--device", device, "--tau-pulse-us", "8", "--fit-window-us", "60"],
         ["report.json"]),
        ("impedance", ["impedance", "--chain", chain, "--n-points", "31"], ["impedance.csv"]),
        ("impedance-fit", ["impedance", "--chain", "default", "--fit"], ["impedance.csv", "rc_fit.json"]),
    ]
    for name, argv, outputs in runs:
        out = tmp_path / name
        assert main([*argv, "--out-dir", str(out)]) == 0, name
        manifest = formats.load_json(out / "manifest.json")
        assert (manifest["command"], manifest["outputs"]) == (argv[0], outputs), name
        assert sorted(os.listdir(out)) == sorted(["manifest.json", *outputs]), name
    commands = {argv[0] for _, argv, _ in runs}
    assert commands == {"design", "kexp", "respond", "sweep", "ramsey-sim", "extract", "impedance"}


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--family", "biharmonic", "--b1", "1", "--tau-pulse-us", "8", "--tau-assumed-us", "-1"],
        ["respond", "--pulse", "PULSE", "--line", "LINE", "--dt-us", "3"],
        ["kexp", "--pulse", "PULSE", "--tau-us", "0"],
        ["sweep", "--omega-tau", "8.79", "--m", "-1"],
        ["ramsey-sim", "--device", "DEVICE", *_DEVICE_SQUARE_ARGS, "--t2-us", "0"],
        ["extract", "--trace", "MISSING.csv", "--device", "DEVICE", "--tau-pulse-us", "8", "--fit-window-us", "60"],
        # fails late, inside the fit, after the impedance sweep has run
        ["impedance", "--chain", "default", "--fit", "--fit-band-hz", "1e3"],
    ],
    ids=["design", "respond", "kexp", "sweep", "ramsey-sim", "extract", "impedance-fit"],
)
def test_validation_error_creates_no_out_dir(tmp_path, capsys, argv):
    pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]})
    names = {"PULSE": pulse, "LINE": write_line(tmp_path, 11.2e-6), "DEVICE": write_device(tmp_path),
             "MISSING.csv": str(tmp_path / "missing.csv")}
    out = tmp_path / "out"
    assert main([*(names.get(a, a) for a in argv), "--out-dir", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


def test_nonconvergence_writes_only_the_report(tmp_path, capsys):
    device = write_device(tmp_path)
    sim, ext = tmp_path / "sim", tmp_path / "ext"
    # the later --square-amp-phi0 wins: a flat trace, so the fit cannot converge
    argv = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--square-amp-phi0", "0", "--out-dir", str(sim)]
    assert main(argv) == 0
    rc = main([
        "extract", "--trace", str(sim / "trace.csv"), "--device", device,
        "--tau-pulse-us", "8", "--fit-window-us", "10", "--out-dir", str(ext),
    ])
    assert rc == 3
    assert capsys.readouterr().err == "error: transient fit did not converge; report.json holds diagnostics\n"
    assert os.listdir(ext) == ["report.json"]


@pytest.mark.parametrize(
    "amp, sigma, code", [("5e-4", "0.05", 0), ("0", "0.05", 3), ("0", "0", 3)], ids=["converged", "noise-only", "flat"]
)
def test_extract_report_holds_fit_diagnostics(tmp_path, capsys, amp, sigma, code):
    device = write_device(tmp_path)
    sim, ext = tmp_path / "sim", tmp_path / "ext"
    argv = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--square-amp-phi0", amp,
            "--delay-max-us", "60", "--delay-step-us", "0.25", "--noise-sigma", sigma, "--seed", "1"]
    assert main([*argv, "--out-dir", str(sim)]) == 0
    trace = str(sim / "trace.csv")
    rc = main(["extract", "--trace", trace, "--device", device, "--tau-pulse-us", "8",
               "--fit-window-us", "60", "--out-dir", str(ext)])
    assert rc == code
    report = formats.load_json(ext / "report.json")
    delays, x, y = formats.read_csv_columns(trace, ["tau_delay_s", "x_expect", "y_expect"])
    fit = run_pipeline(x, y, delays[1], reference_device(), IDLE_FLUX, 8e-6).fit
    assert report["converged"] is fit.converged is (code == 0)
    assert report["interior"] is fit.interior
    assert type(report["iterations"]) is int and report["iterations"] == fit.iterations
    assert report["cost"] == fit.cost
    if amp == "0" and sigma == "0":
        # nothing to fit: no tau, so no standard error and no search
        assert report["tau_s"] is report["tau_stderr_s"] is None
        assert (report["cost"], report["iterations"]) == (0.0, 0)
    else:
        assert report["tau_stderr_s"] == fit.tau_stderr > 0.0
        assert 1 <= report["iterations"] <= 10
        assert (report["tau_stderr_s"] <= 0.1 * report["tau_s"]) is (code == 0)


def test_malformed_input_files_exit_2_naming_the_file(tmp_path, capsys):
    # seeded fuzz over every file a command reads: a truncated JSON document,
    # random bytes and a directory each give exit 2 and one stderr line that
    # names the file, never a traceback
    rng = np.random.default_rng(17)
    device, line, pulse = write_device(tmp_path), write_line(tmp_path, 11.2e-6), write_single_sine(tmp_path)
    sim = tmp_path / "sim"
    assert main(["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--out-dir", str(sim)]) == 0
    trace = str(sim / "trace.csv")
    request = {"family": "biharmonic", "b1": 1.0, "tau_pulse_s": 8e-6, "tau_assumed_s": 1.12e-5}
    slots = [
        (["design", "--request", None], request),
        (["ramsey-sim", "--device", None, *_DEVICE_SQUARE_ARGS], formats.load_json(device)),
        (["kexp", "--pulse", None, "--tau-us", "11.2"], formats.load_json(pulse)),
        (["respond", "--pulse", pulse, "--line", None, "--dt-us", "0.1"], formats.load_json(line)),
        (["impedance", "--chain", None], [{"kind": "series_resistor", "r_ohms": 50.0}]),
        (["extract", "--trace", trace, "--device", None, "--tau-pulse-us", "8", "--fit-window-us", "10"],
         formats.load_json(device)),
        (["extract", "--trace", None, "--device", device, "--tau-pulse-us", "8", "--fit-window-us", "10"], None),
    ]
    bad_dir = tmp_path / "a-directory"
    bad_dir.mkdir()
    for k, (argv, document) in enumerate(slots):
        bad_files = [str(bad_dir)]
        for j in range(3):
            path = tmp_path / f"bytes-{k}-{j}"
            path.write_bytes(b"\xff" + rng.bytes(int(rng.integers(1, 200))))
            bad_files.append(str(path))
            if document is not None:
                text = json.dumps(document)
                path = tmp_path / f"truncated-{k}-{j}.json"
                path.write_text(text[: int(rng.integers(1, len(text)))], encoding="utf-8")
                bad_files.append(str(path))
        if document is not None:
            # deep enough to exhaust the JSON decoder's recursion
            path = tmp_path / f"nested-{k}.json"
            path.write_text("[" * 100_000, encoding="utf-8")
            bad_files.append(str(path))
        for bad in bad_files:
            out = tmp_path / "out"
            rc = main([bad if a is None else a for a in argv] + ["--out-dir", str(out)])
            err = capsys.readouterr().err.splitlines()
            assert rc == 2 and len(err) == 1 and err[0].startswith("error: ") and bad in err[0], (argv, bad, err)
            assert not out.exists()


@pytest.mark.parametrize(
    "case, name",
    [
        ("sweep", "--omega-tau"),
        ("sweep-m", "--m"),
        ("design", "--tau-assumed-us"),
        ("design-request", "tau_assumed_s"),
        ("kexp", "--tau-us"),
        ("respond", "r_ohms * c_farads"),
        ("ramsey-pulse", "r_ohms * c_farads"),
    ],
)
def test_omega_tau_past_the_bound_exits_2_naming_the_field(tmp_path, capsys, case, name):
    # omega*tau near 1e154 would overflow the closed forms' squares into nan
    # cells and warnings; anything above 1e100 is refused at the boundary
    out = tmp_path / "out"
    pulse = write_single_sine(tmp_path)
    huge_line = _write_json(tmp_path, "line.json", {"r_ohms": 1e150, "c_farads": 1e100})
    argv = {
        "sweep": ["sweep", "--b1", "1", "--omega-tau", "1e200,8.79", "--m", "1,1e160"],
        "sweep-m": ["sweep", "--b1", "1", "--omega-tau", "8.79", "--m", "1,1e160"],
        "design": ["design", "--family", "biharmonic", "--b1", "1", "--tau-pulse-us", "8", "--tau-assumed-us", "1e200"],
        "design-request": ["design", "--request", _write_json(tmp_path, "r.json", {
            "family": "biharmonic", "b1": 1.0, "tau_pulse_s": 8e-6, "tau_assumed_s": 1e194})],
        "kexp": ["kexp", "--pulse", pulse, "--tau-us", "1e200"],
        "respond": ["respond", "--pulse", pulse, "--line", huge_line, "--dt-us", "1"],
        "ramsey-pulse": ["ramsey-sim", "--device", write_device(tmp_path), "--waveform", "pulse", "--pulse", pulse,
                         "--line", huge_line, "--tau-pulse-us", "8", "--delay-max-us", "10", "--delay-step-us", "1"],
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--out-dir", str(out)])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert rc == 2 and captured.out == ""
    assert len(err) == 1 and err[0].startswith(f"error: {name} makes omega*tau "), err
    assert err[0].endswith("above the limit 1e+100")
    assert not out.exists()


_OVERFLOW_REFUSALS = {
    "impedance": "error: input impedance is not finite at f_grid 1e-300 Hz",
    "impedance-fit": "error: input impedance is not finite at f_grid 1e-300 Hz",
    "impedance-fit-capacitor": "error: the RC fit overflows |Z_in|^2 or 1/f^2 at f_grid 1000.0 Hz",
    "attenuator-db": "error: attenuator.db must be at most 2000 dB",
    "device-omega-q": "error: omega_q must be at most 1e+100 rad/s",
    "device-omega-max": "error: omega_max must be at most 1e+100 rad/s",
    "device-g": "error: g must be at most 1e+100 rad/s",
}


@pytest.mark.parametrize("case", list(_OVERFLOW_REFUSALS))
def test_overflowing_inputs_exit_2_in_one_line(tmp_path, capfd, case):
    # these used to write nan rows or a NaN fit after RuntimeWarnings, print
    # LAPACK's DLASCL lines, or end in an OverflowError traceback; capfd also
    # sees what LAPACK writes to the process's own stderr
    out = tmp_path / "out"
    default = ["impedance", "--chain", "default", "--f-start-hz", "1e-300"]
    if case.startswith("device-"):
        key = {"device-omega-q": "omega_q_ghz", "device-omega-max": "omega_max_ghz", "device-g": "g_mhz"}[case]
        device = _write_json(tmp_path, "device.json", {**DEVICE_RECORD, key: 1e200})
        argv = ["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS]
    else:
        argv = {
            "impedance": default,
            "impedance-fit": [*default, "--fit"],
            "impedance-fit-capacitor": ["impedance", "--fit", "--chain", _write_json(
                tmp_path, "capacitor.json", [{"kind": "series_capacitor", "c_farads": 1e-300}])],
            "attenuator-db": ["impedance", "--chain", _write_json(
                tmp_path, "attenuator.json", [{"kind": "attenuator", "db": 1e30, "z0_ohms": 50.0}])],
        }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--out-dir", str(out)])
    captured = capfd.readouterr()
    err = captured.err.splitlines()
    assert rc == 2 and captured.out == ""
    assert len(err) == 1 and err[0].startswith(_OVERFLOW_REFUSALS[case]), err
    assert not out.exists()


@pytest.mark.parametrize("case", ["respond-dt", "extract-sg-window", "b1-flag", "b1-key", "b-flag", "load-negative"])
def test_refusals_name_the_flag_or_key_given(tmp_path, capsys, case):
    # the library's checks word these, but the line names what the user typed, in its units
    out = tmp_path / "out"
    design = ["design", "--tau-pulse-us", "8", "--tau-assumed-us", "11.2"]
    if case == "respond-dt":
        pulse = _write_json(tmp_path, "p.json", {"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]})
        argv = ["respond", "--pulse", pulse, "--line", write_line(tmp_path, 11.2e-6), "--dt-us", "3"]
        message = "--dt-us=3.0 undersamples the pulse; need --dt-us <= tau_pulse/4 = 2"
    elif case == "extract-sg-window":
        device = write_device(tmp_path)
        main(["ramsey-sim", "--device", device, *_DEVICE_SQUARE_ARGS, "--delay-max-us", "60",
              "--delay-step-us", "0.25", "--out-dir", str(tmp_path / "sim")])
        capsys.readouterr()
        # the fit window keeps the whole 241-point trace, so only the smoothing window is at fault
        argv = ["extract", "--trace", str(tmp_path / "sim" / "trace.csv"), "--device", device,
                "--tau-pulse-us", "8", "--fit-window-us", "60", "--sg-window", "9999"]
        message = "--sg-window must be at most 241, got 9999"
    elif case == "b1-flag":
        argv = [*design, "--family", "biharmonic", "--b1", "0"]
        message = "--b1 must be finite and non-zero, got 0.0"
    elif case == "b1-key":
        request = {"family": "biharmonic", "b1": 0.0}
        argv = [*design, "--request", _write_json(tmp_path, "r.json", request)]
        message = "b1 must be finite and non-zero, got 0.0"
    elif case == "load-negative":
        # a passive load is never negative; 0, the on-chip short, is the default
        argv = ["impedance", "--chain", "default", "--load-ohms", "-50", "--n-points", "5"]
        message = "--load-ohms must be non-negative and finite, got -50.0"
    else:
        argv = [*design, "--family", "top-harmonic", "--a", "0.3", "--b", "1,2"]
        message = "--b must have length 1, got 2"
    rc = main([*argv, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["--tau-assumed-us", "tau_assumed_s"])
def test_degenerate_top_harmonic_exits_2_naming_the_tau_source(tmp_path, capsys, source):
    # N*omega*tau = 1.6e-14 leaves the top harmonic no leverage on the tail
    out = tmp_path / "out"
    if source == "--tau-assumed-us":
        argv = ["design", "--family", "top-harmonic", "--a", "0.3", "--b", "1", "--tau-pulse-us", "8",
                "--tau-assumed-us", "1e-14"]
    else:
        argv = ["design", "--request", _write_json(tmp_path, "r.json", {
            "family": "top-harmonic", "a": [0.3], "b": [1.0], "tau_pulse_s": 8e-6, "tau_assumed_s": 1e-20})]
    rc = main([*argv, "--out-dir", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1, err
    assert err[0] == (
        f"error: {source} makes the top harmonic degenerate: N*omega*tau = 1.5707963267948967e-14 "
        "leaves no leverage on the transient"
    )
    assert not out.exists()


def test_extract_quotes_only_the_start_of_a_bad_header(tmp_path, capsys):
    # a 100 000-character header is named by file, not echoed whole
    trace = tmp_path / "trace.csv"
    trace.write_text("[" * 100_000 + "\n0,1,0\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["extract", "--trace", str(trace), "--device", write_device(tmp_path),
            "--tau-pulse-us", "8", "--fit-window-us", "10", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 300, err
    assert err[0].startswith(f"error: {trace} has the CSV header '[[[") and "want 'tau_delay_s,x_expect,y_expect'" in err[0]
    assert not out.exists()


def test_extract_refuses_a_trace_past_the_flux_branch(tmp_path, capsys):
    # idling 0.0005 Phi0 below the top of the flux map, a noiseless +0.5 MHz
    # detuning leaves the invertible branch; the whole trace is refused and
    # the message names the first sample past the edge
    device = _write_json(tmp_path, "device.json", {**DEVICE_RECORD, "phi_idle_phi0": -0.0005})
    delays = np.arange(241) * 0.25e-6
    phase = 2.0 * np.pi * 0.5e6 * delays
    trace = tmp_path / "trace.csv"
    formats.write_csv(trace, ["tau_delay_s", "x_expect", "y_expect"], [delays, np.cos(phase), np.sin(phase)])
    out = tmp_path / "out"
    argv = ["extract", "--trace", str(trace), "--device", device,
            "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: flux-inversion stage: sample 0 detunes 5000"), err
    assert "Hz, outside the flux branch's range" in err[0]
    assert not out.exists()


def test_extract_refuses_a_subnormal_delay_step_in_one_line(tmp_path, capsys):
    # delays 5e-323 s apart overflow the frequency stage's stencils to inf and
    # nan; the flux inversion refuses the nan, and no RuntimeWarning, which
    # would print a line of its own, comes first
    delays = np.arange(20) * 5e-323
    phase = 0.01 * np.arange(20)
    trace = tmp_path / "trace.csv"
    formats.write_csv(trace, ["tau_delay_s", "x_expect", "y_expect"], [delays, np.cos(phase), np.sin(phase)])
    out = tmp_path / "out"
    argv = ["extract", "--trace", str(trace), "--device", write_device(tmp_path),
            "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1, err
    assert err[0].startswith("error: flux-inversion stage: sample 0 detunes nan Hz"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["respond", "ramsey-sim"])
def test_subnormal_line_tau_runs_without_warnings(tmp_path, capsys, command):
    # c_farads 5e-324 makes tau subnormal, so t / tau overflows; the settling
    # tail is then exactly zero, which is right, and no warning is printed
    design = tmp_path / "design"
    main(["design", "--family", "biharmonic", "--b1", "1", "--tau-pulse-us", "8",
          "--tau-assumed-us", "11.2", "--out-dir", str(design)])
    line = _write_json(tmp_path, "line.json", {"r_ohms": 50.0, "c_farads": 5e-324})
    pulse = ["--pulse", str(design / "pulse.json"), "--line", line]
    out = tmp_path / "out"
    argv = {
        "respond": ["respond", *pulse, "--dt-us", "0.05", "--n-periods", "3"],
        "ramsey-sim": ["ramsey-sim", "--device", write_device(tmp_path), "--waveform", "pulse", *pulse,
                       "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_extract_refuses_a_detuning_at_the_bare_qubit_frequency(tmp_path, capsys):
    # at omega_q 1e30 GHz the coupler's pull is below one ulp, so every
    # target rounds onto omega_q itself, where omega_c is not finite: that
    # is off the branch, not a divide by zero
    device = _write_json(tmp_path, "device.json", {**DEVICE_RECORD, "omega_q_ghz": 1e30})
    delays = np.arange(241) * 0.25e-6
    phase = 2.0 * np.pi * 0.5e6 * delays
    trace = tmp_path / "trace.csv"
    formats.write_csv(trace, ["tau_delay_s", "x_expect", "y_expect"], [delays, np.cos(phase), np.sin(phase)])
    out = tmp_path / "out"
    argv = ["extract", "--trace", str(trace), "--device", device,
            "--tau-pulse-us", "8", "--fit-window-us", "60", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: flux-inversion stage: sample 0 detunes 5000"), err
    assert "Hz, outside the flux branch's range" in err[0]
    assert not out.exists()


# the flags of README's commands that take integers; every other flag whose
# value is a number, or a list of numbers, takes floats
_INTEGER_FLAGS = {"--n-periods", "--n-points", "--seed", "--sg-window", "--sg-order"}
_FUZZ_VALUES = ["0", "-1", "5e-324", "1e-320", "1e-9", "1e300", "1.7e308"]


def _readme_session(tmp_path):
    """A fixed copy of README's 11 commands from Subcommands on, plus one, each without its --out-dir.

    The copy does not follow later edits to README.  The added last command
    runs the pulse waveform at 5.1 us, where the designed pulse's period
    2*pi/(2*pi/T) rounds above the flag's T; every README command runs at
    8 us, where the two are equal.  The designed pulses and the square trace
    the later commands read are made first, on inputs in ``tmp_path``, and
    the added command must run as given.
    """
    device, line = write_device(tmp_path), write_line(tmp_path, 11.2e-6)
    chain = _write_json(tmp_path, "chain.json", [
        {"kind": "series_capacitor", "c_farads": 2.2e-7}, {"kind": "attenuator", "db": 20.0, "z0_ohms": 50.0}])
    pulse, trace = str(tmp_path / "design" / "pulse.json"), str(tmp_path / "sim" / "trace.csv")
    pulse_51 = str(tmp_path / "design_51" / "pulse.json")
    session = [
        ["design", "--family", "biharmonic", "--b1", "1.0", "--tau-pulse-us", "8", "--tau-assumed-us", "11.2"],
        ["design", "--family", "top-harmonic", "--a0", "0.0", "--a", "0.3", "--b", "1.0",
         "--tau-pulse-us", "8", "--tau-assumed-us", "11.2"],
        ["respond", "--pulse", pulse, "--line", line, "--dt-us", "0.05", "--n-periods", "3"],
        ["kexp", "--pulse", pulse, "--tau-us", "11.2"],
        ["sweep", "--b1", "1", "--grid", "default"],
        ["sweep", "--b1", "1", "--omega-tau", "8.79", "--m", "0.01,1,100"],
        ["ramsey-sim", "--device", device, "--waveform", "square", "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
         "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25", "--t2-us", "75",
         "--noise-sigma", "0.05", "--seed", "1"],
        ["ramsey-sim", "--device", device, "--waveform", "pulse", "--pulse", pulse, "--line", line,
         "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25"],
        ["extract", "--trace", trace, "--device", device, "--tau-pulse-us", "8", "--fit-window-us", "60"],
        ["impedance", "--chain", "default", "--fit"],
        ["impedance", "--chain", chain, "--f-start-hz", "1e4", "--f-stop-hz", "5e7", "--n-points", "400"],
        ["ramsey-sim", "--device", device, "--waveform", "pulse", "--pulse", pulse_51, "--line", line,
         "--tau-pulse-us", "5.1", "--delay-max-us", "60", "--delay-step-us", "0.25"],
    ]
    assert main([*session[0], "--out-dir", str(tmp_path / "design")]) == 0
    assert main([*session[0][:-4], "--tau-pulse-us", "5.1", "--tau-assumed-us", "11.2",
                 "--out-dir", str(tmp_path / "design_51")]) == 0
    assert main([*session[6], "--out-dir", str(tmp_path / "sim")]) == 0
    assert main([*session[-1], "--out-dir", str(tmp_path / "sim_51")]) == 0
    return session


def _is_number_list(text: str) -> bool:
    try:
        return all(math.isfinite(float(part)) for part in text.split(","))
    except ValueError:
        return False


def _set_flags(argv, values):
    """``argv`` with each flag in ``values`` written ``--flag=value``, so that argparse takes a negative value."""
    out = []
    for before, token in zip([None, *argv], argv):
        if token in values:
            out.append(f"{token}={values[token]}")
        elif before not in values:
            out.append(token)
    return out


def test_readme_commands_with_edge_numbers_exit_0_2_or_3(tmp_path, capsys):
    # seeded argv fuzz: each float flag of README's commands set to each edge
    # value in turn, then 120 runs with two of a command's float flags set at
    # once; run in process, where a RuntimeWarning is an error, each run exits
    # 0, 2 or 3 without raising, and an exit 2 writes one stderr line
    session = _readme_session(tmp_path)
    flags = [[flag for flag, value in zip(argv[1:-1], argv[2:]) if flag.startswith("--") and flag not in _INTEGER_FLAGS
              and _is_number_list(value)] for argv in session]
    runs = [(c, {flag: value}) for c, fuzzed in enumerate(flags) for flag in fuzzed for value in _FUZZ_VALUES]
    rng = np.random.default_rng(2)
    pairs = [c for c, fuzzed in enumerate(flags) if len(fuzzed) >= 2]
    for c in rng.choice(pairs, 120):
        runs.append((c, {str(flag): str(rng.choice(_FUZZ_VALUES)) for flag in rng.choice(flags[c], 2, replace=False)}))
    assert len(runs) > 300
    capsys.readouterr()
    for k, (c, values) in enumerate(runs):
        argv = _set_flags(session[c], values)
        out = tmp_path / f"run{k}"
        rc = main([*argv, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc in (0, 2, 3), (argv, rc, err)
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
            assert not out.exists()


# edge values the fuzz above found: (index of the README command, the flags
# set, the start of the one stderr line); each run used to end in a
# traceback, to warn before its refusal, to name a library field rather than
# the flag, or to write nan
_EDGE_REFUSALS = [
    (0, {"--tau-pulse-us": "1e-320"}, "--tau-pulse-us * 1e-6 must be positive and finite, got 0.0"),
    (2, {"--dt-us": "1e-320"}, "--dt-us * 1e-6 must be positive and finite, got 0.0"),
    (3, {"--tau-us": "1e-320"}, "--tau-us * 1e-6 must be positive and finite, got 0.0"),
    (6, {"--tau-pulse-us": "1e-320"}, "--tau-pulse-us * 1e-6 must be positive and finite, got 0.0"),
    (6, {"--line-tau-us": "1e-320"}, "--line-tau-us * 1e-6 must be positive and finite, got 0.0"),
    (6, {"--t2-us": "1e-320"}, "--t2-us * 1e-6 must be positive and finite, got 0.0"),
    (6, {"--delay-max-us": "1e-319", "--delay-step-us": "5e-324"},
     "--delay-step-us * 1e-6 must be positive and finite, got 0.0"),
    (8, {"--tau-pulse-us": "1e-320"}, "--tau-pulse-us * 1e-6 must be positive and finite, got 0.0"),
    (0, {"--b1": "1.7e308"}, "b2 from b1 must be finite, got -inf"),
    (1, {"--b": "1.7e308"}, "b_N from a0, a and b must be finite, got -inf"),
    (4, {"--b1": "1.7e308"}, "k_exp from b1 must be finite, got inf at index 15"),
    (5, {"--m": "1.7e308"}, "--m makes omega*tau inf, above the limit 1e+100"),
    (10, {"--f-stop-hz": "1.7e308"}, "input impedance is not finite at f_grid 2.93"),
]


@pytest.mark.parametrize("command, values, message", _EDGE_REFUSALS)
def test_readme_commands_refuse_edge_numbers_in_one_line(tmp_path, capsys, command, values, message):
    argv = _set_flags(_readme_session(tmp_path)[command], values)
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert not (tmp_path / "out").exists()


def test_ramsey_sim_takes_a_tail_that_underflows_without_a_warning(tmp_path):
    # a pulse 1e300 line time constants long leaves no tail: the exponents
    # overflow to -inf, and the idle phase comes back with no warning
    argv = _set_flags(_readme_session(tmp_path)[6], {"--line-tau-us": "1e-9", "--tau-pulse-us": "1e300"})
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    _, x, y = formats.read_csv_columns(str(tmp_path / "out" / "trace.csv"), ["tau_delay_s", "x_expect", "y_expect"])
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
