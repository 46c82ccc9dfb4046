"""Shared constructors for the test suite."""

import numpy as np
import pytest

from fluxshape import CouplerDevice, RCLine

GHZ = 2.0 * np.pi * 1e9
MHZ = 2.0 * np.pi * 1e6

# Reference working point used throughout: a 4.7730 GHz fixed qubit coupled
# at 63 MHz to a coupler whose zero-flux maximum is 4.8575 GHz, idling on the
# steep side of the flux map.
QUBIT_GHZ = 4.7730
COUPLER_MAX_GHZ = 4.8575
COUPLING_MHZ = 63.0
IDLE_FLUX = -0.278
FLUX_PER_VOLT = 7e-5


# the reference device as a device.json record spells it
DEVICE_RECORD = {
    "omega_q_ghz": QUBIT_GHZ,
    "omega_max_ghz": COUPLER_MAX_GHZ,
    "g_mhz": COUPLING_MHZ,
    "flux_per_volt_phi0": FLUX_PER_VOLT,
    "phi_idle_phi0": IDLE_FLUX,
}


def reference_device(phi_idle=IDLE_FLUX, flux_per_volt=FLUX_PER_VOLT) -> CouplerDevice:
    return CouplerDevice(
        omega_q=QUBIT_GHZ * GHZ,
        omega_max=COUPLER_MAX_GHZ * GHZ,
        g=COUPLING_MHZ * MHZ,
        flux_per_volt=flux_per_volt,
        phi_idle=phi_idle,
    )


def line_with_tau(tau: float, resistance: float = 50.0) -> RCLine:
    return RCLine(resistance, tau / resistance)


@pytest.fixture
def device() -> CouplerDevice:
    return reference_device()
