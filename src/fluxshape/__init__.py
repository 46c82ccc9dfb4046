"""Flux-control pulse shaping immune to first-order line transients.

The package designs Fourier-series flux pulses whose slow settling tail on a
series-RC control line cancels exactly, quantifies how the cancellation
degrades when the line time constant is mischaracterized, and verifies the
closed forms against an independent ODE integration and against a simulated
qubit-based Ramsey experiment with a full extraction pipeline.

Every public name of the seven layer modules is exported here; ``formats``
is not (import it as ``fluxshape.formats``).
"""

from fluxshape import device, extraction, network, pulse, rcline, robustness, synthesis
from fluxshape.device import *  # noqa: F401,F403
from fluxshape.extraction import *  # noqa: F401,F403
from fluxshape.network import *  # noqa: F401,F403
from fluxshape.pulse import *  # noqa: F401,F403
from fluxshape.rcline import *  # noqa: F401,F403
from fluxshape.robustness import *  # noqa: F401,F403
from fluxshape.synthesis import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAYERS = (pulse, rcline, synthesis, robustness, device, extraction, network)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
