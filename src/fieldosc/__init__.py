"""fieldosc: a simulation and verification toolkit for the chain of
equivalences between a charge in a uniform electromagnetic field, a driven
harmonic oscillator, and a plain harmonic oscillator, classically
(canonical maps) and quantum mechanically (unitary grid maps), plus the
Hill/Floquet analysis of time-dependent fields.

Every closed form in the package is cross-checked against an independent
brute-force oracle in the test suite.  The package exports the public
names (`__all__`) of `core`, `classical`, `quantum` and `tdfields`.
"""

from . import classical, core, quantum, tdfields
from .core import *
from .classical import *
from .quantum import *
from .tdfields import *

__all__ = core.__all__ + classical.__all__ + quantum.__all__ + tdfields.__all__

__version__ = "0.1.0"
