"""Command-line interface.

Every subcommand validates its inputs and computes its outputs before
anything touches the disk.  A handler returns what it produced; ``main``
alone then creates ``--out-dir``, writes the files in order and writes
``manifest.json`` last.  The manifest lists the inputs, exactly the files
written, in write order, and the parameters, so its presence marks a
completed run.  Exit codes: 0 success, 2 validation or I/O failure (a
validation error writes nothing, not even the out-dir), 3 numerical
non-convergence (diagnostics written, no manifest).

The environment variable ``FLUXSHAPE_SEED`` overrides ``--seed`` wherever a
seed is consumed, for deterministic pipelines driven from the outside.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple

import numpy as np

import fluxshape
from fluxshape import formats
from fluxshape._checks import finite, integer, omega_tau_in_range, positive
from fluxshape.device import (
    RamseyConfig,
    pulse_flux_waveform,
    simulate_ramsey,
    square_transient_waveform,
)
from fluxshape.extraction import run_pipeline
from fluxshape.network import default_flux_chain, sweep_and_fit_rc, sweep_input_impedance
from fluxshape.rcline import capacitor_voltage, line_current, transient_coefficient
from fluxshape.robustness import default_sweep_axes, sweep_transient_coefficient
from fluxshape.synthesis import solve_biharmonic, solve_top_harmonic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

# the largest grids the CLI builds, each written out in full: the ramsey-sim
# delays, the respond rows and the impedance frequencies
MAX_DELAYS = 100_000
MAX_RESPONSE_ROWS = 10_000_000
MAX_FREQUENCIES = 1_000_000


class _Run(NamedTuple):
    """What a subcommand produced; ``main`` writes it."""

    inputs: list
    # file name -> JSON-ready object, or (header, columns) for a .csv; written in this order
    outputs: dict
    parameters: dict
    rng_seed: int | None = None
    code: int = EXIT_OK


def _float_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _resolve_seed(args_seed: int) -> int:
    env = os.environ.get("FLUXSHAPE_SEED")
    if env is None:
        return integer("--seed", args_seed, 0, math.inf)
    try:
        seed = int(env)
    except ValueError as exc:
        raise ValueError(f"FLUXSHAPE_SEED must be an integer, got {env!r}") from exc
    return integer("FLUXSHAPE_SEED", seed, 0, math.inf)


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _at_most(cap: int, size, flags: str, unit: str) -> None:
    """Refuse a grid of ``size`` points above ``cap`` before it is built.

    ``size`` may be a ratio: as in ``HarmonicPulse.sample``, one within 1e-9
    above a whole number counts as that number.  An overflowing ratio is inf.
    """
    if not size - 1e-9 <= cap:
        got = math.ceil(size - 1e-9) if math.isfinite(size) else size
        raise ValueError(f"{flags} must give at most {cap} {unit}, got {got}")


def _cmd_design(args) -> _Run:
    request = formats.load_json(args.request) if args.request else {}
    if not isinstance(request, dict):
        raise ValueError("--request file must contain a JSON object")

    def field(flag, key, check, scale=1.0, default=None):
        # an explicit flag wins over the request file; errors name the one used
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            return check(flag, value) * scale
        return check(key, request[key] if key in request else _require(default, flag))

    family = _require(args.family or request.get("family"), "--family")
    tau_pulse_s = field("--tau-pulse-us", "tau_pulse_s", positive, 1e-6)
    tau_assumed_s = field("--tau-assumed-us", "tau_assumed_s", positive, 1e-6)
    omega = 2.0 * math.pi / tau_pulse_s
    tau_source = "tau_assumed_s" if args.tau_assumed_us is None else "--tau-assumed-us"
    omega_tau_in_range(tau_source, omega * tau_assumed_s)

    if family == "biharmonic":
        pulse = solve_biharmonic(field("--b1", "b1", finite), omega, tau_assumed_s)
    elif family == "top-harmonic":
        a0 = field("--a0", "a0", finite, default=0.0)
        a_low = _require(args.a if args.a is not None else request.get("a"), "--a")
        b_low = _require(args.b if args.b is not None else request.get("b"), "--b")
        try:
            pulse, _ = solve_top_harmonic(a0, a_low, b_low, omega, tau_assumed_s)
        except ValueError as exc:
            # the library names its argument tau_assumed; the line names the flag or key it came from
            if not str(exc).startswith("tau_assumed "):
                raise
            raise ValueError(tau_source + str(exc)[len("tau_assumed") :]) from None
    else:
        raise ValueError(f"--family must be 'biharmonic' or 'top-harmonic', got {family!r}")

    diagnostics = {
        "k_exp_at_assumed": transient_coefficient(pulse, tau_assumed_s),
        "cond1": pulse.condition_one_residual(),
        "cond3": pulse.condition_three_residual(tau_assumed_s),
    }
    return _Run(
        [args.request] if args.request else [],
        {"pulse.json": formats.pulse_to_dict(pulse), "diagnostics.json": diagnostics},
        {"family": family, "tau_pulse_s": tau_pulse_s, "tau_assumed_s": tau_assumed_s},
    )


def _cmd_respond(args) -> _Run:
    pulse = formats.pulse_from_dict(formats.load_json(args.pulse))
    line = formats.rcline_from_dict(formats.load_json(args.line))
    omega_tau_in_range("r_ohms * c_farads", pulse.omega * line.tau)
    dt = positive("--dt-us", args.dt_us) * 1e-6
    n_periods = integer("--n-periods", args.n_periods, 1)
    _at_most(MAX_RESPONSE_ROWS, n_periods * pulse.tau_pulse / dt, "--n-periods / --dt-us", "rows")
    t, v_in = pulse.sample(dt, n_periods)
    columns = [t, v_in, capacitor_voltage(pulse, line, t), line_current(pulse, line, t)]
    return _Run(
        [args.pulse, args.line],
        {"response.csv": (["t_s", "v_in_volts", "v_c_volts", "i_amps"], columns)},
        {"dt_s": dt, "n_periods": n_periods},
    )


def _cmd_kexp(args) -> _Run:
    pulse = formats.pulse_from_dict(formats.load_json(args.pulse))
    tau = positive("--tau-us", args.tau_us) * 1e-6
    omega_tau_in_range("--tau-us", pulse.omega * tau)
    value = transient_coefficient(pulse, tau)
    print(formats.format_float(value))
    return _Run([args.pulse], {"kexp.json": {"k_exp": value, "tau_s": tau}}, {"tau_s": tau})


def _cmd_sweep(args) -> _Run:
    explicit = args.omega_tau is not None or args.m is not None
    if args.grid is not None and explicit:
        raise ValueError("--grid cannot be combined with --omega-tau/--m")
    if (args.omega_tau is None) != (args.m is None):
        raise ValueError("--omega-tau and --m must be given together (or use --grid default)")
    if explicit:
        omega_tau = omega_tau_in_range("--omega-tau", positive("--omega-tau", np.asarray(args.omega_tau)))
        m = positive("--m", np.asarray(args.m))
        # the design's omega*tau is the grid's omega*tau times m
        omega_tau_in_range("--m", np.max(omega_tau) * m)
    else:
        omega_tau, m = default_sweep_axes()
    grid = sweep_transient_coefficient(args.b1, omega_tau, m)
    # row-major: omega_tau is the slow axis
    columns = [np.repeat(grid.omega_tau, grid.m.size), np.tile(grid.m, grid.omega_tau.size), grid.k_exp.ravel()]
    return _Run(
        [],
        {"sweep.csv": (["omega_tau", "m", "k_exp"], columns)},
        {"b1": args.b1, "n_omega_tau": int(grid.omega_tau.size), "n_m": int(grid.m.size)},
    )


def _delay_count(delay_max_us: float, delay_step_us: float) -> int:
    """Number of delays 0, step, 2 step, ... up to max on the ramsey-sim grid, at most MAX_DELAYS."""
    if positive("--delay-max-us", delay_max_us) < positive("--delay-step-us", delay_step_us):
        raise ValueError("--delay-step-us must be no larger than --delay-max-us")
    # floored, so no delay passes the maximum; a ratio short of a whole number
    # by a relative 1e-9 or less counts as that number (0.3 / 0.1 gives four delays)
    steps = delay_max_us / delay_step_us * (1.0 + 1e-9)
    # refused exactly when the floored count passes the cap; an overflowing
    # ratio is inf here, so it never reaches int()
    if steps >= MAX_DELAYS:
        raise ValueError(
            f"--delay-max-us / --delay-step-us must give at most {MAX_DELAYS} delays, "
            f"got {delay_max_us!r} / {delay_step_us!r}"
        )
    return int(steps) + 1


def _cmd_ramsey_sim(args) -> _Run:
    device = formats.device_from_dict(formats.load_json(args.device))
    tau_pulse = positive("--tau-pulse-us", args.tau_pulse_us) * 1e-6
    inputs = [args.device]

    if args.waveform == "square":
        amp = _require(args.square_amp_phi0, "--square-amp-phi0")
        line_tau = positive("--line-tau-us", _require(args.line_tau_us, "--line-tau-us")) * 1e-6
        waveform = square_transient_waveform(amp, tau_pulse, line_tau, device.phi_idle)
    elif args.waveform == "pulse":
        pulse_path = _require(args.pulse, "--pulse")
        line_path = _require(args.line, "--line")
        pulse = formats.pulse_from_dict(formats.load_json(pulse_path))
        line = formats.rcline_from_dict(formats.load_json(line_path))
        if abs(pulse.tau_pulse - tau_pulse) > 1e-12 * tau_pulse:
            raise ValueError(
                f"--tau-pulse-us disagrees with the pulse file period {pulse.tau_pulse!r} s"
            )
        omega_tau_in_range("r_ohms * c_farads", pulse.omega * line.tau)
        waveform = pulse_flux_waveform(pulse, line, device)
        inputs.extend([pulse_path, line_path])
    else:
        raise ValueError(f"--waveform must be 'square' or 'pulse', got {args.waveform!r}")

    delays = np.arange(_delay_count(args.delay_max_us, args.delay_step_us)) * (args.delay_step_us * 1e-6)
    if args.noise_sigma is not None and args.noise_sigma < 0.0:
        raise ValueError(f"--noise-sigma must be non-negative, got {args.noise_sigma!r}")
    seed = _resolve_seed(args.seed)
    config = RamseyConfig(
        tau_pulse=tau_pulse,
        delay_grid=delays,
        t2=positive("--t2-us", args.t2_us) * 1e-6 if args.t2_us is not None else None,
        readout_noise_sigma=args.noise_sigma,
        rng_seed=seed,
    )
    x, y = simulate_ramsey(device, waveform, config)
    return _Run(
        inputs,
        {"trace.csv": (["tau_delay_s", "x_expect", "y_expect"], [delays, x, y])},
        {
            "waveform": args.waveform,
            "tau_pulse_s": tau_pulse,
            "delay_max_s": args.delay_max_us * 1e-6,
            "delay_step_s": args.delay_step_us * 1e-6,
            "t2_s": args.t2_us * 1e-6 if args.t2_us is not None else None,
            "noise_sigma": args.noise_sigma,
        },
        rng_seed=seed,
    )


def _cmd_extract(args) -> _Run:
    sg_window = integer("--sg-window", args.sg_window, 3)
    if sg_window % 2 == 0:
        raise ValueError(f"--sg-window must be odd, got {sg_window}")
    sg_order = integer("--sg-order", args.sg_order, 1, sg_window - 1)
    device = formats.device_from_dict(formats.load_json(args.device))
    delays, x, y = formats.read_csv_columns(args.trace, ["tau_delay_s", "x_expect", "y_expect"])
    steps = np.diff(delays)
    if delays.size < 3 or np.any(steps <= 0.0):
        raise ValueError("trace delays must be strictly increasing with at least three points")
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-6 * dt:
        raise ValueError("trace delay grid must be uniform")
    if abs(delays[0]) > 1e-9 * delays[-1]:
        raise ValueError("trace delay grid must start at zero delay")

    window_s = args.fit_window_us * 1e-6
    keep = delays <= window_s * (1.0 + 1e-12)
    if np.count_nonzero(keep) < max(8, sg_window):
        raise ValueError(
            f"--fit-window-us keeps only {int(np.count_nonzero(keep))} samples; "
            f"need at least {max(8, sg_window)}"
        )
    tau_pulse = positive("--tau-pulse-us", args.tau_pulse_us) * 1e-6
    result = run_pipeline(
        x[keep],
        y[keep],
        dt,
        device,
        device.phi_idle,
        tau_pulse,
        window_points=sg_window,
        poly_order=sg_order,
    )
    fit = result.fit
    report = {
        # JSON has no nan: an undefined tau or standard error is null
        "tau_s": fit.tau if math.isfinite(fit.tau) else None,
        "tau_stderr_s": fit.tau_stderr if math.isfinite(fit.tau_stderr) else None,
        "A": fit.amplitude,
        "B": fit.offset,
        "acquired_phase_rad": result.acquired_phase,
        "residual_rms": fit.residual_rms,
        "cost": fit.cost,
        "interior": fit.interior,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    if fit.converged:
        print(f"tau_us={formats.format_float(fit.tau * 1e6)}")
    else:
        print("error: transient fit did not converge; report.json holds diagnostics", file=sys.stderr)
    return _Run(
        [args.trace, args.device],
        {"report.json": report},
        {
            "tau_pulse_s": tau_pulse,
            "fit_window_s": window_s,
            "sg_window": sg_window,
            "sg_order": sg_order,
        },
        code=EXIT_OK if fit.converged else EXIT_NONCONVERGENCE,
    )


def _cmd_impedance(args) -> _Run:
    if args.chain == "default":
        elements = default_flux_chain()
        inputs = []
    else:
        elements = formats.chain_from_list(formats.load_json(args.chain))
        inputs = [args.chain]
    if positive("--f-start-hz", args.f_start_hz) >= args.f_stop_hz:
        raise ValueError("need 0 < --f-start-hz < --f-stop-hz")
    n_points = integer("--n-points", args.n_points, 2)
    _at_most(MAX_FREQUENCIES, n_points, "--n-points", "frequencies")
    f = np.geomspace(args.f_start_hz, args.f_stop_hz, n_points)
    load = complex(args.load_ohms)

    if args.fit:
        fit = sweep_and_fit_rc(elements, load, f, fit_band_hz=positive("--fit-band-hz", args.fit_band_hz))
        z = fit.z_in
    else:
        z = sweep_input_impedance(elements, load, f)
    outputs = {"impedance.csv": (["f_hz", "z_abs_ohms", "z_re", "z_im"], [f, np.abs(z), z.real, z.imag])}
    if args.fit:
        outputs["rc_fit.json"] = {
            "effective_r_ohms": fit.effective_r,
            "effective_c_farads": fit.effective_c,
            "fit_rms_ohms": fit.fit_rms,
            "fit_band_hz": args.fit_band_hz,
        }
    return _Run(
        inputs,
        outputs,
        {
            "f_start_hz": args.f_start_hz,
            "f_stop_hz": args.f_stop_hz,
            "n_points": n_points,
            "load_ohms": args.load_ohms,
            "fit": bool(args.fit),
        },
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxshape",
        description="Design transient-immune flux pulses and verify them against simulated experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="synthesize a transient-immune pulse")
    p.add_argument("--family", choices=["biharmonic", "top-harmonic"])
    p.add_argument("--b1", type=float, help="fundamental sine amplitude in volts (biharmonic)")
    p.add_argument("--a0", type=float, help="DC coefficient in volts (top-harmonic)")
    p.add_argument("--a", type=_float_list, help="lower cosine coefficients, comma-separated (top-harmonic)")
    p.add_argument("--b", type=_float_list, help="lower sine coefficients, comma-separated (top-harmonic)")
    p.add_argument("--tau-pulse-us", type=float, help="pulse period in microseconds")
    p.add_argument("--tau-assumed-us", type=float, help="assumed line time constant in microseconds")
    p.add_argument("--request", help="JSON file with the same fields in SI units; flags take precedence")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("respond", help="closed-form line response of a pulse")
    p.add_argument("--pulse", required=True, help="pulse JSON file")
    p.add_argument("--line", required=True, help="RC line JSON file")
    p.add_argument("--dt-us", type=float, required=True)
    p.add_argument("--n-periods", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_respond)

    p = sub.add_parser("kexp", help="transient coefficient of a pulse on a given line")
    p.add_argument("--pulse", required=True, help="pulse JSON file")
    p.add_argument("--tau-us", type=float, required=True)
    p.add_argument("--out-dir")
    p.set_defaults(handler=_cmd_kexp)

    p = sub.add_parser("sweep", help="mischaracterization sweep of the two-harmonic design")
    p.add_argument("--b1", type=float, default=1.0)
    p.add_argument("--grid", choices=["default"],
                   help="built-in 50x50 log grid: omega*tau in [1, 30], m in [0.01, 100]")
    p.add_argument("--omega-tau", type=_float_list, help="explicit omega*tau values, comma-separated")
    p.add_argument("--m", type=_float_list, help="explicit mischaracterization factors, comma-separated")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("ramsey-sim", help="simulate the Ramsey transient-detection experiment")
    p.add_argument("--device", required=True, help="device JSON file")
    p.add_argument("--waveform", choices=["square", "pulse"], required=True)
    p.add_argument("--square-amp-phi0", type=float, help="commanded square amplitude in Phi0 (square)")
    p.add_argument("--line-tau-us", type=float, help="line time constant in microseconds (square)")
    p.add_argument("--pulse", help="pulse JSON file (pulse)")
    p.add_argument("--line", help="RC line JSON file (pulse)")
    p.add_argument("--tau-pulse-us", type=float, required=True)
    p.add_argument("--delay-max-us", type=float, required=True)
    p.add_argument("--delay-step-us", type=float, required=True)
    p.add_argument("--t2-us", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_ramsey_sim)

    p = sub.add_parser("extract", help="recover the line time constant from a Ramsey trace")
    p.add_argument("--trace", required=True, help="trace CSV from ramsey-sim")
    p.add_argument("--device", required=True, help="device JSON file")
    p.add_argument("--tau-pulse-us", type=float, required=True)
    p.add_argument("--fit-window-us", type=float, required=True,
                   help="analysis window; must be chosen explicitly")
    p.add_argument("--sg-window", type=int, default=11, help="smoothing window, odd number of points")
    p.add_argument("--sg-order", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("impedance", help="input impedance of a wiring chain")
    p.add_argument("--chain", required=True, help="chain JSON file, or 'default'")
    p.add_argument("--f-start-hz", type=float, default=1e3)
    p.add_argument("--f-stop-hz", type=float, default=1e8)
    p.add_argument("--n-points", type=int, default=400)
    p.add_argument("--load-ohms", type=float, default=0.0)
    p.add_argument("--fit", action="store_true", help="also fit an effective series RC")
    p.add_argument("--fit-band-hz", type=float, default=1e6)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_impedance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        # every float flag must be finite; handlers check positivity where it is physical
        for dest, value in vars(args).items():
            if isinstance(value, (float, list)):
                finite("--" + dest.replace("_", "-"), np.asarray(value) if isinstance(value, list) else value)
        run = args.handler(args)
        if args.out_dir is None:  # kexp without --out-dir only prints
            return run.code
        outputs = dict(run.outputs)
        if run.code == EXIT_OK:
            outputs["manifest.json"] = {
                "command": args.command,
                "tool_version": fluxshape.__version__,
                "inputs": run.inputs,
                "outputs": list(run.outputs),
                "parameters": run.parameters,
                "rng_seed": run.rng_seed,
            }
        os.makedirs(args.out_dir, exist_ok=True)
        for name, payload in outputs.items():
            path = os.path.join(args.out_dir, name)
            if name.endswith(".csv"):
                formats.write_csv(path, *payload)
            else:
                formats.dump_json(payload, path)
        return run.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
