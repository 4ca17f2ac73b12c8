"""Named, runnable simulation scenarios.

Each scenario bundles what the CLI needs: default timestep and step
count, parameter defaults, and a builder that turns resolved parameters
into a concrete run. A run holds the initial state in the flat layout of
:mod:`mechfield.solver`, ``(t, q..., v...)``, its differential equation
for the generic methods, its Euler-Cromer stepper, and the CSV header and
row for its trajectory.
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
    euler_cromer_step,
    second_order_equation,
)
from .vectors import X_HAT, ZERO

__all__ = ["Scenario", "ScenarioRun", "SCENARIOS"]

PARTICLE_HEADER = "t,x,y,z,vx,vy,vz"
ANGULAR_HEADER = "t,theta,omega"


class ScenarioRun(NamedTuple):
    """A scenario instantiated with concrete parameter values."""

    initial: State
    equation: DifferentialEquation
    cromer_step: Callable[[float, State], State]
    header: str
    row: Callable[[State], Sequence[float]]


@dataclass(frozen=True)
class Scenario:
    """Registry entry: defaults plus a builder from parameters to a run."""

    name: str
    description: str
    dt: float
    steps: int
    defaults: Mapping[str, float]
    build: Callable[[Mapping[str, float]], ScenarioRun]


def _run(
    accel: AccelerationFunction,
    q: Sequence[float],
    v: Sequence[float],
    header: str = PARTICLE_HEADER,
    row: Callable[[State], Sequence[float]] = tuple,
) -> ScenarioRun:
    """The run that starts at t = 0 from coordinates q and velocities v.

    With one body, a particle or the pendulum, the state already is the
    CSV row, so ``row`` is the identity.
    """
    return ScenarioRun(
        initial=(0.0, *q, *v),
        equation=second_order_equation(accel),
        cromer_step=partial(euler_cromer_step, accel),
        header=header,
        row=row,
    )


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
    return _run(damped_driven_osc(0.0, 0.0, 0.0), X_HAT, ZERO)


def _build_ddho(params: Mapping[str, float]) -> ScenarioRun:
    return _run(damped_driven_osc(params["beta"], params["amp"], params["omega"]), X_HAT, ZERO)


ORBIT_RADIUS = 7e6  # m


def _build_satellite(params: Mapping[str, float]) -> ScenarioRun:
    speed = math.sqrt(GRAVITATIONAL_CONSTANT * EARTH_MASS / ORBIT_RADIUS)
    return _run(satellite_accel, (ORBIT_RADIUS, 0.0, 0.0), (0.0, speed, 0.0))


def _build_pendulum(params: Mapping[str, float]) -> ScenarioRun:
    return _run(
        pendulum_accel(params["g"], params["length"]),
        (params["theta0"],),
        (params["omega0"],),
        ANGULAR_HEADER,
    )


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
    return _run(gravity_accel(masses), q, v, _system_header(3), _system_row)


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
    return _run(accel, q, (0.0,) * len(q), _system_header(count), _system_row)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="sho",
            description="simple harmonic oscillator, unit mass and spring constant, released from x = 1 m",
            dt=0.01,
            steps=1000,
            defaults={},
            build=_build_sho,
        ),
        Scenario(
            name="ddho",
            description="damped driven harmonic oscillator released from x = 1 m",
            dt=0.01,
            steps=1000,
            defaults={"beta": 0.0, "amp": 1.0, "omega": 0.7},
            build=_build_ddho,
        ),
        Scenario(
            name="satellite",
            description="satellite on a circular orbit of radius 7e6 m about a fixed Earth",
            dt=1.0,
            steps=5828,
            defaults={},
            build=_build_satellite,
        ),
        Scenario(
            name="pendulum",
            description="pendulum about a fixed pivot, angle and angular velocity state",
            dt=0.01,
            steps=1000,
            defaults={"g": 9.8, "length": 1.0, "theta0": 0.2, "omega0": 0.0},
            build=_build_pendulum,
        ),
        Scenario(
            name="three-body",
            description="Sun, Earth, and Moon under mutual gravitation (illustrative seed values)",
            dt=3600.0,
            steps=8766,
            defaults={},
            build=_build_three_body,
        ),
        Scenario(
            name="spring-chain",
            description="point masses joined by springs between fixed ends, plucked transversely",
            dt=0.1,
            steps=2000,
            defaults={"particles": 100, "k": 1.0, "spacing": 1.0, "mass": 1.0, "amplitude": 0.1},
            build=_build_spring_chain,
        ),
    )
}
