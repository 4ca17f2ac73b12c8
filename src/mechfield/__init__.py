"""State-space mechanics and quadrature-based field calculators.

The library splits into small layers: :mod:`mechfield.vectors` holds the
3D vector and position algebra, :mod:`mechfield.solver` the flat state layout
and the evolution methods written once against it,
:mod:`mechfield.mechanics` concrete physics as acceleration functions
(gravity, oscillators, spring chains, pendulums),
:mod:`mechfield.fields` the electric and magnetic field integrators, and
:mod:`mechfield.cli` a scenario-running command line.
"""

from .errors import DomainError
from .fields import (
    BIOT_SAVART_CONSTANT,
    COULOMB_CONSTANT,
    Curve,
    ScalarField,
    VectorField,
    circular_loop,
    crossed_line_integral,
    electric_field_of_line_charge,
    line_integral,
    line_segment,
    magnetic_field_of_line_current,
)
from .mechanics import (
    EARTH_MASS,
    GRAVITATIONAL_CONSTANT,
    damped_driven_osc,
    gravity_accel,
    pendulum_accel,
    satellite_accel,
    spring_chain_accel,
)
from .solver import (
    AccelerationFunction,
    DifferentialEquation,
    EvolutionMethod,
    InitialValueProblem,
    State,
    euler_cromer_step,
    euler_method,
    rk4_method,
    second_order_equation,
    solution_stream,
)
from .vectors import (
    Position,
    Vec3,
    X_HAT,
    Y_HAT,
    Z_HAT,
    ZERO,
    displacement,
    format_scalar,
    parse_triple,
)

__all__ = [
    "DomainError",
    # vectors
    "Vec3",
    "Position",
    "ZERO",
    "X_HAT",
    "Y_HAT",
    "Z_HAT",
    "displacement",
    "format_scalar",
    "parse_triple",
    # solver
    "State",
    "AccelerationFunction",
    "DifferentialEquation",
    "EvolutionMethod",
    "InitialValueProblem",
    "second_order_equation",
    "euler_cromer_step",
    "euler_method",
    "rk4_method",
    "solution_stream",
    # mechanics
    "GRAVITATIONAL_CONSTANT",
    "EARTH_MASS",
    "satellite_accel",
    "damped_driven_osc",
    "gravity_accel",
    "spring_chain_accel",
    "pendulum_accel",
    # fields
    "COULOMB_CONSTANT",
    "BIOT_SAVART_CONSTANT",
    "Curve",
    "ScalarField",
    "VectorField",
    "circular_loop",
    "line_segment",
    "line_integral",
    "crossed_line_integral",
    "electric_field_of_line_charge",
    "magnetic_field_of_line_current",
]
