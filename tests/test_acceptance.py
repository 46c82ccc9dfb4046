"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict and headline numbers for every criterion.
"""

import math
import time

import numpy as np

from fluxshape import (
    HarmonicPulse,
    RamseyConfig,
    RCLine,
    WiringElement,
    capacitor_voltage,
    coupler_frequency,
    dressed_qubit_frequency,
    integrate_line_response,
    line_current,
    net_zero_metrics,
    pulse_flux_waveform,
    run_pipeline,
    simulate_ramsey,
    solve_biharmonic,
    solve_top_harmonic,
    square_transient_waveform,
    sweep_and_fit_rc,
    sweep_input_impedance,
    transient_coefficient,
)
from fluxshape import formats
from fluxshape.cli import main

from conftest import DEVICE_RECORD, line_with_tau, reference_device


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_pulse(rng, tau_pulse, n_max):
    n = int(rng.integers(1, n_max + 1))
    return HarmonicPulse(
        tau_pulse,
        a0=float(rng.uniform(-1, 1)),
        a=tuple(rng.uniform(-1, 1, n)),
        b=tuple(rng.uniform(-1, 1, n)),
    )


def test_criterion_01_closed_forms_match_ode_oracle():
    # 100 random pulses: closed-form capacitor voltage and delivered current
    # track a fixed-step RK4 integration to 1e-6 relative over 5 periods
    rng = np.random.default_rng(20260825)
    tau_pulse = 8e-6
    omega = 2.0 * math.pi / tau_pulse
    worst_v = worst_i = 0.0
    start = time.perf_counter()
    for _ in range(100):
        pulse = _random_pulse(rng, tau_pulse, 8)
        x = float(10.0 ** rng.uniform(-1, 2))
        tau = x / omega
        line = line_with_tau(tau)
        step = min(tau / 50.0, tau_pulse / 200.0)
        n = int(math.ceil(5.0 * tau_pulse / step))
        t = np.linspace(0.0, 5.0 * tau_pulse, n + 1)
        v_num, i_num = integrate_line_response(pulse.evaluate, line, t)
        v_ref = capacitor_voltage(pulse, line, t)
        i_ref = line_current(pulse, line, t)
        worst_v = max(worst_v, float(np.max(np.abs(v_num - v_ref)) / np.max(np.abs(v_ref))))
        worst_i = max(worst_i, float(np.max(np.abs(i_num - i_ref)) / np.max(np.abs(i_ref))))
    elapsed = time.perf_counter() - start
    ok = worst_v < 1e-6 and worst_i < 1e-6 and elapsed < 10.0
    _verdict(1, ok, f"max rel err V_c {worst_v:.2e}, I {worst_i:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_designed_pulses_cancel_exactly():
    # every designed pulse has |k_exp| < 1e-12*max|coeff| at its design point;
    # sine-only designs also start and end with zero delivered current to
    # 1e-10 relative (with cosine content the endpoint current is set by the
    # uncontrollable endpoint-slope sum, checked here against its identity)
    rng = np.random.default_rng(7041)
    omega = 2.0 * math.pi / 8e-6
    worst_k = worst_i = worst_ident = 0.0
    cases = 0

    def k_ratio(pulse, tau):
        scale = max(abs(pulse.a0), max(map(abs, pulse.a)), max(map(abs, pulse.b)))
        return abs(transient_coefficient(pulse, tau)) / scale

    def endpoint_current_ratio(pulse, tau):
        line = RCLine(50.0, tau / 50.0)
        t = np.linspace(0.0, pulse.tau_pulse, 2001)
        i_max = float(np.max(np.abs(line_current(pulse, line, t))))
        ends = max(abs(line_current(pulse, line, 0.0)), abs(line_current(pulse, line, pulse.tau_pulse)))
        return ends / i_max

    for x in np.geomspace(0.1, 100.0, 25):
        tau = x / omega
        for b1 in (1.0, -0.3):
            pulse = solve_biharmonic(b1, omega, tau)
            worst_k = max(worst_k, k_ratio(pulse, tau))
            worst_i = max(worst_i, endpoint_current_ratio(pulse, tau))
            cases += 1
    for _ in range(10):
        n_low = int(rng.integers(1, 8))
        x = float(10.0 ** rng.uniform(-1, 2))
        tau = x / omega
        b_low = rng.uniform(-1, 1, n_low)
        pulse, _ = solve_top_harmonic(0.0, np.zeros(n_low), b_low, omega, tau)
        worst_k = max(worst_k, k_ratio(pulse, tau))
        worst_i = max(worst_i, endpoint_current_ratio(pulse, tau))
        cases += 1
    for _ in range(10):
        n_low = int(rng.integers(1, 8))
        x = float(10.0 ** rng.uniform(-1, 2))
        tau = x / omega
        pulse, cond3 = solve_top_harmonic(
            float(rng.uniform(-1, 1)), rng.uniform(-1, 1, n_low), rng.uniform(-1, 1, n_low), omega, tau
        )
        worst_k = max(worst_k, k_ratio(pulse, tau))
        line = RCLine(50.0, tau / 50.0)
        ident = abs(line_current(pulse, line, 0.0) - line.capacitance * omega * cond3)
        t = np.linspace(0.0, pulse.tau_pulse, 2001)
        worst_ident = max(worst_ident, ident / float(np.max(np.abs(line_current(pulse, line, t)))))
        cases += 1
    ok = worst_k < 1e-12 and worst_i < 1e-10 and worst_ident < 1e-10
    _verdict(
        2,
        ok,
        f"{cases} designs: max |k|/|coeff| {worst_k:.1e}, endpoint current {worst_i:.1e} rel, "
        f"cosine-endpoint identity {worst_ident:.1e} rel",
    )
    assert ok


def test_criterion_03_reference_mischaracterization_numbers(tmp_path, capsys):
    # headline numbers at omega*tau = 8.79, b1 = 1, via the CLI sweep and
    # kexp commands: exact design zero at m=1, the m=100 residual against the
    # deep-overestimate asymptote, the bare single-sine value, and the
    # under/overestimate asymmetry
    out = tmp_path / "sweep"
    assert main(["sweep", "--b1", "1", "--omega-tau", "8.79", "--m", "0.01,1,100", "--out-dir", str(out)]) == 0
    _, m, k = formats.read_csv_columns(out / "sweep.csv", ["omega_tau", "m", "k_exp"])
    k001, k1, k100 = (float(k[list(m).index(v)]) for v in (0.01, 1.0, 100.0))

    asym = 3.0 / (4.0 * 8.79**3)
    ok = abs(k1) < 1e-14
    ok &= abs(asym - 1.104e-3) < 1e-3 * 1.104e-3
    ok &= abs(abs(k100) - asym) < 0.05 * asym
    ok &= abs(k001) >= 10.0 * abs(k100)

    pulse_path = tmp_path / "single.json"
    formats.dump_json({"tau_pulse_s": 8e-6, "a": [0.0], "b": [1.0]}, pulse_path)
    tau_us = 8.79 * 8.0 / (2.0 * math.pi)
    capsys.readouterr()
    assert main(["kexp", "--pulse", str(pulse_path), "--tau-us", f"{tau_us!r}"]) == 0
    k_single = float(capsys.readouterr().out.strip())
    ok &= abs(k_single - (-0.11231)) < 1e-3 * 0.11231
    _verdict(
        3,
        ok,
        f"k(m=1)={k1:.1e}, |k(m=100)|={abs(k100):.3e} vs asymptote {asym:.3e} "
        f"[{abs(abs(k100) - asym) / asym:.1%}], single-sine {k_single:.5f}, "
        f"|k(0.01)|/|k(100)|={abs(k001) / abs(k100):.0f}x",
    )
    assert ok


def _simulate_square_and_extract(device, seed_sigma, dt, n_points):
    t2, sigma, seed = seed_sigma
    delays = np.arange(n_points) * dt
    waveform = square_transient_waveform(5e-4, 8e-6, 13e-6, device.phi_idle)
    config = RamseyConfig(
        tau_pulse=8e-6, delay_grid=delays, t2=t2, readout_noise_sigma=sigma, rng_seed=seed
    )
    x, y = simulate_ramsey(device, waveform, config)
    return run_pipeline(x, y, dt, device, device.phi_idle, 8e-6)


def test_criterion_04_pipeline_recovers_time_constant():
    # square-pulse transient on the reference device: the Ramsey pipeline
    # recovers tau = 13 us within 5% noiseless and within 10% at sigma = 0.05
    # (95th percentile over 100 seeds)
    device = reference_device()
    start = time.perf_counter()
    clean = _simulate_square_and_extract(device, (75e-6, None, 0), 0.25e-6, 241)
    err_clean = abs(clean.fit.tau - 13e-6) / 13e-6
    errors = []
    for seed in range(100):
        result = _simulate_square_and_extract(device, (75e-6, 0.05, seed), 0.25e-6, 241)
        errors.append(abs(result.fit.tau - 13e-6) / 13e-6 if result.fit.converged else math.inf)
    p95 = float(np.percentile(errors, 95))
    elapsed = time.perf_counter() - start
    ok = clean.fit.converged and err_clean < 0.05 and p95 < 0.10 and elapsed < 30.0
    _verdict(4, ok, f"noiseless err {err_clean:.2e}, noisy p95 {p95:.2%} (100 seeds), {elapsed:.1f}s")
    assert ok


def test_criterion_05_acquired_phase_ordering():
    # acquired Ramsey phase across pulse types, 11 noise seeds each:
    # |single| > |m=0.01| > |m=0.1| >> (m >= 1 designs ~ zero-pulse floor)
    device = reference_device()
    tau_true = 11.2e-6
    omega = 2.0 * math.pi / 8e-6
    line = line_with_tau(tau_true)
    dt, n_points = 0.25e-6, 241
    delays = np.arange(n_points) * dt

    waveforms = {"zero": lambda t: np.full(np.shape(t), device.phi_idle)}
    waveforms["single"] = pulse_flux_waveform(HarmonicPulse(8e-6, a=(0.0,), b=(1.0,)), line, device)
    for m in (0.01, 0.1, 1.0, 10.0, 100.0):
        pulse = solve_biharmonic(1.0, omega, m * tau_true)
        waveforms[f"m{m:g}"] = pulse_flux_waveform(pulse, line, device)

    means = {}
    for name, waveform in waveforms.items():
        acquired = []
        for seed in range(11):
            config = RamseyConfig(
                tau_pulse=8e-6, delay_grid=delays, t2=75e-6, readout_noise_sigma=0.05, rng_seed=seed
            )
            x, y = simulate_ramsey(device, waveform, config)
            result = run_pipeline(x, y, dt, device, device.phi_idle, 8e-6)
            acquired.append(abs(result.acquired_phase))
        means[name] = float(np.mean(acquired))

    group = max(means["m1"], means["m10"], means["m100"])
    ok = means["single"] > means["m0.01"] > means["m0.1"]
    ok &= means["m0.1"] > 3.0 * group
    ok &= group <= 3.0 * means["zero"]
    ok &= means["single"] >= 10.0 * means["zero"]
    detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
    _verdict(5, ok, detail + " rad")
    assert ok


def test_criterion_06_net_zero_areas():
    # both pulses are net-zero at the source; only the designed one also
    # suppresses the capacitor-voltage area (to below 10% of the single sine)
    omega = 2.0 * math.pi / 8e-6
    tau = 8.79 / omega
    line = line_with_tau(tau)
    single = net_zero_metrics(HarmonicPulse(8e-6, a=(0.0,), b=(1.0,)), line)
    limiting = net_zero_metrics(HarmonicPulse(8e-6, a=(0.0, 0.0), b=(1.0, -2.0)), line)
    ratio = abs(limiting["capacitor_area"]) / abs(single["capacitor_area"])
    ok = single["input_area"] == 0.0 and limiting["input_area"] == 0.0 and ratio < 0.10
    _verdict(
        6,
        ok,
        f"input areas ({single['input_area']}, {limiting['input_area']}) V*s, "
        f"capacitor-area ratio {ratio:.2%}",
    )
    assert ok


def test_criterion_07_avoided_crossing():
    # the dressed branches are closest where the coupler crosses the bare
    # qubit, with gap exactly 2g = 2*pi*126 MHz; flux-map special points
    device = reference_device()
    two_g = 2.0 * math.pi * 126e6
    phi = np.linspace(0.0, 0.2, 200001)
    wc = coupler_frequency(phi, device)
    gaps = 2.0 * np.sqrt(0.25 * (device.omega_q - wc) ** 2 + device.g**2)
    gap_err = abs(float(np.min(gaps)) - two_g) / two_g
    phi_res = math.acos((device.omega_q / device.omega_max) ** 2) / math.pi
    wc_res = coupler_frequency(phi_res, device)
    gap_res = 2.0 * math.sqrt(0.25 * (device.omega_q - wc_res) ** 2 + device.g**2)
    lower = dressed_qubit_frequency(phi, device)
    upper = device.omega_q + wc - lower
    branch_gap_err = abs(float(np.min(upper - lower)) - two_g) / two_g

    ok = gap_err < 1e-6 and branch_gap_err < 1e-6
    ok &= abs(gap_res - two_g) < 1e-9 * two_g
    ok &= coupler_frequency(0.0, device) == device.omega_max
    ok &= coupler_frequency(0.5, device) == 0.0
    ok &= abs(coupler_frequency(0.25, device) - device.omega_max * 2.0**-0.25) < 1e-12 * device.omega_max
    _verdict(
        7,
        ok,
        f"min gap err {gap_err:.1e} (grid), {abs(gap_res - two_g) / two_g:.1e} (analytic), "
        f"flux map exact at 0, 0.25, 0.5",
    )
    assert ok


def test_criterion_08_network_properties():
    # pure-RC chain recovered exactly; a mismatched delay line shows |Z_in|
    # peaks spaced 1/(2*delay); the 2 nH wirebond at 20 MHz reads 0.251 ohm
    f_band = np.geomspace(1e3, 1e6, 31)
    chain = [WiringElement.series_resistor(47.0), WiringElement.series_capacitor(3.3e-7)]
    fit = sweep_and_fit_rc(chain, 0.0, f_band)
    r_err = abs(fit.effective_r - 47.0) / 47.0
    c_err = abs(fit.effective_c - 3.3e-7) / 3.3e-7

    delay = 15e-9
    f = np.arange(1e6, 1.5e8, 5e4)
    z = np.abs(sweep_input_impedance([WiringElement.transmission_line(50.0, delay)], 5.0, f))
    interior = np.nonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:]))[0] + 1
    spacings = np.diff(f[interior])
    spacing_err = float(np.max(np.abs(spacings - 1.0 / (2.0 * delay))) * 2.0 * delay)

    # shorted, the wirebond's input impedance is its reactance j*w*L
    reactance = abs(sweep_input_impedance([WiringElement.series_inductor(2e-9)], 0.0, [20e6])[0])
    ok = r_err < 1e-9 and c_err < 1e-9
    ok &= spacings.size >= 3 and spacing_err < 0.02
    ok &= format(reactance, ".3g") == "0.251"
    _verdict(
        8,
        ok,
        f"RC fit err (R {r_err:.1e}, C {c_err:.1e}), resonance spacing err {spacing_err:.2%}, "
        f"wirebond reactance {format(reactance, '.3g')} ohm",
    )
    assert ok


def test_criterion_09_cli_determinism(tmp_path, monkeypatch):
    # repeated CLI runs with a fixed seed produce byte-identical artifacts
    monkeypatch.delenv("FLUXSHAPE_SEED", raising=False)
    device_path = tmp_path / "device.json"
    formats.dump_json(DEVICE_RECORD, device_path)

    def run_all(tag):
        base = tmp_path / tag
        assert main([
            "ramsey-sim", "--device", str(device_path), "--waveform", "square",
            "--square-amp-phi0", "5e-4", "--line-tau-us", "13",
            "--tau-pulse-us", "8", "--delay-max-us", "60", "--delay-step-us", "0.25",
            "--t2-us", "75", "--noise-sigma", "0.05", "--seed", "5",
            "--out-dir", str(base / "sim"),
        ]) == 0
        assert main([
            "sweep", "--b1", "1", "--omega-tau", "2,8.79", "--m", "0.5,1,2",
            "--out-dir", str(base / "sweep"),
        ]) == 0
        assert main([
            "design", "--family", "biharmonic", "--b1", "1",
            "--tau-pulse-us", "8", "--tau-assumed-us", "11.2",
            "--out-dir", str(base / "design"),
        ]) == 0
        return {
            rel: (base / rel).read_bytes()
            for rel in (
                "sim/trace.csv", "sim/manifest.json",
                "sweep/sweep.csv", "design/pulse.json", "design/manifest.json",
            )
        }

    first = run_all("first")
    second = run_all("second")
    same = [rel for rel in first if first[rel] == second[rel]]
    ok = len(same) == len(first)
    _verdict(9, ok, f"{len(same)}/{len(first)} artifacts byte-identical across repeated runs")
    assert ok
