"""Dual Gauss-Newton / prox-linear minibatch directions and training loops.

The package computes regularized Gauss-Newton (prox-linear) directions for
finite-sum compositions of convex losses with nonlinear model outputs, either
by CG on the parameter-space normal equations or by an equivalent CG on a
small output-space dual system, and wires the directions into standard
stochastic training loops with full cost and descent accounting.

The public names are each module's own ``__all__``; ``cli`` is reached by
module path.
"""

from . import cgsolver, data, directions, exceptions, linop, losses, models, trainer
from .cgsolver import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .directions import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .linop import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .trainer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (cgsolver, data, directions, exceptions, linop, losses, models, trainer)
    for name in module.__all__
]
