"""Named, runnable simulation scenarios.

Each scenario bundles what the CLI needs: default timestep and step
count, its parameters, each declared once with its default and a help
text naming its unit (the CLI makes its ``simulate`` flags from these),
and a builder that turns resolved parameters into a concrete run. A run
holds the initial state in the flat layout of :mod:`mechfield.solver`,
``(t, q..., v...)``, its acceleration function, and the CSV header and
row for its trajectory; the differential equation that every evolution
method steps is derived from the acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

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
    State,
    euler_cromer_method,
    second_order_equation,
)
from .vectors import X_HAT, ZERO

__all__ = ["Param", "Scenario", "ScenarioRun", "SCENARIOS"]

PARTICLE_HEADER = "t,x,y,z,vx,vy,vz"
ANGULAR_HEADER = "t,theta,omega"


class ScenarioRun(NamedTuple):
    """A scenario instantiated with concrete parameter values.

    With one body, a particle or the pendulum, the state already is the
    CSV row, so the default ``row`` is the identity.
    """

    initial: State
    accel: AccelerationFunction
    header: str = PARTICLE_HEADER
    row: Callable[[State], Sequence[float]] = tuple

    @property
    def equation(self) -> DifferentialEquation:
        """The first-order form, which every evolution method steps."""
        return second_order_equation(self.accel)

    @property
    def cromer_step(self) -> Callable[[float, State], State]:
        """Euler-Cromer as ``step(dt, state)``: only ``perfbench/layers.py`` reads it, and it goes with that."""
        return partial(euler_cromer_method, self.equation)


class Param(NamedTuple):
    """A scenario parameter's default and its help text, unit included."""

    default: float
    help: str


@dataclass(frozen=True)
class Scenario:
    """Registry entry: parameter declarations plus a builder from parameters to a run."""

    name: str
    description: str
    dt: float
    steps: int
    params: Mapping[str, Param]
    build: Callable[[Mapping[str, float]], ScenarioRun]

    @property
    def defaults(self) -> dict[str, float]:
        """Each parameter's default, by name: a fresh dict on every access."""
        return {name: param.default for name, param in self.params.items()}


def _system_header(count: int) -> str:
    columns = ["t"]
    for i in range(1, count + 1):
        columns += [f"x{i}", f"y{i}", f"z{i}", f"vx{i}", f"vy{i}", f"vz{i}"]
    return ",".join(columns)


def _system_row(state: State) -> tuple[float, ...]:
    """Regroup (t, q..., v...) as t, then each particle's x, y, z, vx, vy, vz."""
    n = len(state) // 2
    values = [state[0]]
    for i in range(1, n + 1, 3):
        values += state[i:i + 3]
        values += state[n + i:n + i + 3]
    return tuple(values)


def _build_sho(params: Mapping[str, float]) -> ScenarioRun:
    return ScenarioRun((0.0, *X_HAT, *ZERO), damped_driven_osc(0.0, 0.0, 0.0))


def _build_ddho(params: Mapping[str, float]) -> ScenarioRun:
    accel = damped_driven_osc(params["beta"], params["amp"], params["omega"])
    return ScenarioRun((0.0, *X_HAT, *ZERO), accel)


ORBIT_RADIUS = 7e6  # m


def _build_satellite(params: Mapping[str, float]) -> ScenarioRun:
    speed = math.sqrt(GRAVITATIONAL_CONSTANT * EARTH_MASS / ORBIT_RADIUS)
    return ScenarioRun((0.0, ORBIT_RADIUS, 0.0, 0.0, 0.0, speed, 0.0), satellite_accel)


def _build_pendulum(params: Mapping[str, float]) -> ScenarioRun:
    accel = pendulum_accel(params["g"], params["length"])
    return ScenarioRun((0.0, params["theta0"], params["omega0"]), accel, ANGULAR_HEADER)


# Illustrative Sun-Earth-Moon setup: real masses, circular-orbit seed
# velocities at 1 AU and at the mean lunar distance. Not an ephemeris.
SUN_MASS = 1.989e30  # kg
THREE_BODY_EARTH_MASS = 5.972e24  # kg
MOON_MASS = 7.35e22  # kg
ASTRONOMICAL_UNIT = 1.496e11  # m
LUNAR_DISTANCE = 3.844e8  # m


def _build_three_body(params: Mapping[str, float]) -> ScenarioRun:
    masses = [SUN_MASS, THREE_BODY_EARTH_MASS, MOON_MASS]
    earth_speed = math.sqrt(GRAVITATIONAL_CONSTANT * SUN_MASS / ASTRONOMICAL_UNIT)
    moon_speed = earth_speed + math.sqrt(
        GRAVITATIONAL_CONSTANT * THREE_BODY_EARTH_MASS / LUNAR_DISTANCE
    )
    q = (0.0, 0.0, 0.0, ASTRONOMICAL_UNIT, 0.0, 0.0, ASTRONOMICAL_UNIT + LUNAR_DISTANCE, 0.0, 0.0)
    v = (0.0, 0.0, 0.0, 0.0, earth_speed, 0.0, 0.0, moon_speed, 0.0)
    return ScenarioRun((0.0, *q, *v), gravity_accel(masses), _system_header(3), _system_row)


def _build_spring_chain(params: Mapping[str, float]) -> ScenarioRun:
    count = int(params["particles"])
    if count < 1:
        raise ValueError("spring chain needs at least one particle")
    spacing = params["spacing"]
    amplitude = params["amplitude"]
    # transverse pluck along the lowest standing-wave mode
    q: list[float] = []
    for i in range(count):
        q += ((i + 1) * spacing, amplitude * math.sin((i + 1) * math.pi / (count + 1)), 0.0)
    accel = spring_chain_accel(params["k"], spacing, params["mass"], fixed_ends=True)
    return ScenarioRun((0.0, *q, *[0.0] * len(q)), accel, _system_header(count), _system_row)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="sho",
            description="simple harmonic oscillator, unit mass and spring constant, released from x = 1 m",
            dt=0.01,
            steps=1000,
            params={},
            build=_build_sho,
        ),
        Scenario(
            name="ddho",
            description="damped driven harmonic oscillator released from x = 1 m",
            dt=0.01,
            steps=1000,
            params={
                "beta": Param(0.0, "damping constant, kg/s"),
                "amp": Param(1.0, "drive amplitude, N"),
                "omega": Param(0.7, "drive angular frequency, rad/s"),
            },
            build=_build_ddho,
        ),
        Scenario(
            name="satellite",
            description="satellite on a circular orbit of radius 7e6 m about a fixed Earth",
            dt=1.0,
            steps=5828,
            params={},
            build=_build_satellite,
        ),
        Scenario(
            name="pendulum",
            description="pendulum about a fixed pivot, angle and angular velocity state",
            dt=0.01,
            steps=1000,
            params={
                "g": Param(9.8, "gravitational acceleration, m/s^2"),
                "length": Param(1.0, "arm length, m"),
                "theta0": Param(0.2, "initial angle, rad"),
                "omega0": Param(0.0, "initial angular velocity, rad/s"),
            },
            build=_build_pendulum,
        ),
        Scenario(
            name="three-body",
            description="Sun, Earth, and Moon under mutual gravitation (illustrative seed values)",
            dt=3600.0,
            steps=8766,
            params={},
            build=_build_three_body,
        ),
        Scenario(
            name="spring-chain",
            description="point masses joined by springs between fixed ends, plucked transversely",
            dt=0.1,
            steps=2000,
            params={
                "particles": Param(100, "particle count"),
                "k": Param(1.0, "spring constant, N/m"),
                "spacing": Param(1.0, "lattice spacing, m"),
                "mass": Param(1.0, "particle mass, kg"),
                "amplitude": Param(0.1, "pluck amplitude, m"),
            },
            build=_build_spring_chain,
        ),
    )
}
