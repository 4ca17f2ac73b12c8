"""State-space mechanics and quadrature-based field calculators.

The library splits into small layers: :mod:`mechfield.vectors` holds the
3D vector and position algebra, :mod:`mechfield.solver` the flat state layout
and the evolution methods written once against it,
:mod:`mechfield.mechanics` concrete physics as acceleration functions
(gravity, oscillators, spring chains, pendulums),
:mod:`mechfield.fields` the electric and magnetic field integrators, and
:mod:`mechfield.cli` a scenario-running command line.
"""

from . import errors, fields, mechanics, solver, vectors
from .errors import *
from .fields import *
from .mechanics import *
from .solver import *
from .vectors import *

__all__ = [*errors.__all__, *vectors.__all__, *solver.__all__, *mechanics.__all__, *fields.__all__]
