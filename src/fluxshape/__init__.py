"""Flux-control pulse shaping immune to first-order line transients.

The package designs Fourier-series flux pulses whose slow settling tail on a
series-RC control line cancels exactly, quantifies how the cancellation
degrades when the line time constant is mischaracterized, and verifies the
closed forms against an independent ODE integration and against a simulated
qubit-based Ramsey experiment with a full extraction pipeline.
"""

from fluxshape.device import (
    CouplerDevice,
    RamseyConfig,
    coupler_frequency,
    dressed_qubit_frequency,
    pulse_flux_waveform,
    ramsey_phase,
    simulate_ramsey,
    square_train_response,
    square_transient_waveform,
)
from fluxshape.extraction import (
    PipelineResult,
    TransientFit,
    fit_transient,
    frequency_from_phase,
    frequency_to_flux,
    run_pipeline,
    savgol_smooth,
    unwrap_phase,
)
from fluxshape.network import (
    RCFitResult,
    TwoPort,
    WiringElement,
    cascade,
    default_flux_chain,
    element_abcd,
    input_impedance,
    sweep_and_fit_rc,
    sweep_input_impedance,
)
from fluxshape.pulse import HarmonicPulse
from fluxshape.rcline import (
    RCLine,
    capacitor_voltage,
    capacitor_voltage_steady_state,
    integrate_line_response,
    line_current,
    square_pulse_flux_transient,
    transient_coefficient,
)
from fluxshape.robustness import (
    PhaseStatistics,
    SweepGrid,
    compare_single_vs_biharmonic,
    default_sweep_axes,
    net_zero_metrics,
    phase_statistics,
    sweep_transient_coefficient,
)
from fluxshape.synthesis import (
    asymptotic_transient_coefficient,
    mischaracterized_transient_coefficient,
    solve_biharmonic,
    solve_top_harmonic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HarmonicPulse",
    "RCLine",
    "capacitor_voltage",
    "capacitor_voltage_steady_state",
    "line_current",
    "transient_coefficient",
    "integrate_line_response",
    "square_pulse_flux_transient",
    "solve_biharmonic",
    "solve_top_harmonic",
    "mischaracterized_transient_coefficient",
    "asymptotic_transient_coefficient",
    "SweepGrid",
    "PhaseStatistics",
    "default_sweep_axes",
    "sweep_transient_coefficient",
    "compare_single_vs_biharmonic",
    "net_zero_metrics",
    "phase_statistics",
    "CouplerDevice",
    "RamseyConfig",
    "coupler_frequency",
    "dressed_qubit_frequency",
    "ramsey_phase",
    "simulate_ramsey",
    "pulse_flux_waveform",
    "square_transient_waveform",
    "square_train_response",
    "TransientFit",
    "PipelineResult",
    "unwrap_phase",
    "savgol_smooth",
    "frequency_from_phase",
    "frequency_to_flux",
    "fit_transient",
    "run_pipeline",
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
