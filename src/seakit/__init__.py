"""Controller synthesis and closed-loop simulation for a velocity-sourced
cable-driven series elastic actuator.

The package covers the full chain: polynomial and transfer-function
primitives, the physical plant model, quadratic-optimal 2-DOF synthesis
with its Youla-parameterization underpinnings, deterministic closed-loop
simulation (torque and impedance modes), nonparametric FRF estimation,
and a CLI that reproduces the published experiments as presets.

The public names are those each module lists in its own ``__all__``.
"""

from . import (
    config, identify, plant, polynomials, presets, simulation, synthesis, transfer,
)
from .errors import NumericsError
from .polynomials import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403
from .plant import *  # noqa: F401,F403
from .synthesis import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .identify import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .presets import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (
    polynomials, transfer, plant, synthesis, simulation, identify, config, presets,
)
__all__ = ["NumericsError", *(name for m in _MODULES for name in m.__all__)]
