"""Operator-valued frame systems relative to a bounded operator.

The package computes optimal frame constants, canonical and approximate
dual families, iterative reconstruction traces, lifts to ordinary vector
frames, and erasure survival certificates, with a JSON CLI on top.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

from .constructions import *
from .duals import *
from .errors import *
from .gsystem import *
from .linops import *
from .redundancy import *
from .serialization import *

__version__ = "0.1.0"

# each submodule is bound here by its own import above
__all__ = sorted(name for module in (constructions, duals, errors, gsystem, linops, redundancy,
                                     serialization) for name in module.__all__)
