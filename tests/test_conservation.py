"""Physics gate: drift of each scenario's conserved quantities, and RK4's order on the energy.

Golden hashes pin the bytes; these tests say whether bytes are right. Each
(scenario, method) pair runs through :func:`solution_stream` at the
scenario's default dt, for the parameters and step count of ``RUNS``, and
the largest relative drift of each conserved quantity must stay under a
bound a little above the value the code gives today, or a few times it
where that value is round-off. The quantities are written here, apart
from the library: the energy of every conservative scenario, spring-chain
anchor springs included, and the three-body total momentum. A changed
method or force, for example RK4 with its weights swapped, Euler-Cromer
moving the coordinates with the old velocities, a dropped anchor spring
or a pull by the wrong mass, exceeds one.
"""

import math
from itertools import islice

import pytest

from mechfield.cli import METHODS
from mechfield.mechanics import EARTH_MASS, GRAVITATIONAL_CONSTANT
from mechfield.scenarios import MOON_MASS, SCENARIOS, SUN_MASS, THREE_BODY_EARTH_MASS
from mechfield.solver import solution_stream

# Parameters over the defaults, and steps at the default dt. The two wide
# scenarios run shorter: three-body of 8766 steps, spring-chain of 100
# particles x 2000 steps.
RUNS = {
    "sho": ({}, 1000),
    "pendulum": ({}, 1000),
    "satellite": ({}, 5828),
    "three-body": ({}, 1000),
    "spring-chain": ({"particles": 8}, 500),
}

# Each conserved quantity is a function of the state giving its components:
# one for an energy, three for a momentum.


def sho_energy(s: tuple) -> tuple[float]:
    """Unit mass on a unit spring: (|v|^2 + |r|^2) / 2."""
    return (0.5 * sum(c * c for c in s[1:]),)


def pendulum_energy(s: tuple) -> tuple[float]:
    """Per unit mass: L^2 omega^2 / 2 + g L (1 - cos theta), at the default g and L."""
    g, length = (SCENARIOS["pendulum"].defaults[name] for name in ("g", "length"))
    _, theta, omega = s
    return (0.5 * length * length * omega * omega + g * length * (1.0 - math.cos(theta)),)


def satellite_energy(s: tuple) -> tuple[float]:
    """Per unit mass: |v|^2 / 2 - G M / |r|."""
    _, x, y, z, vx, vy, vz = s
    return (0.5 * (vx * vx + vy * vy + vz * vz) - GRAVITATIONAL_CONSTANT * EARTH_MASS / math.hypot(x, y, z),)


THREE_BODY_MASSES = (SUN_MASS, THREE_BODY_EARTH_MASS, MOON_MASS)


def bodies(s: tuple) -> list[tuple[float, tuple, tuple]]:
    """Each particle's mass, position and velocity, from the flat (t, q..., v...) state."""
    n = len(s) // 2
    return [(m, s[1 + 3 * i:4 + 3 * i], s[n + 1 + 3 * i:n + 4 + 3 * i]) for i, m in enumerate(THREE_BODY_MASSES)]


def three_body_energy(s: tuple) -> tuple[float]:
    """Kinetic energy minus G m_i m_j / r_ij over each pair."""
    particles = bodies(s)
    kinetic = sum(0.5 * m * (vx * vx + vy * vy + vz * vz) for m, _, (vx, vy, vz) in particles)
    potential = sum(GRAVITATIONAL_CONSTANT * mi * mj / math.dist(qi, qj)
                    for i, (mi, qi, _) in enumerate(particles) for mj, qj, _ in particles[i + 1:])
    return (kinetic - potential,)


def three_body_momentum(s: tuple) -> tuple[float, float, float]:
    """Total momentum, the sum of m v."""
    particles = bodies(s)
    return tuple(sum(m * v[axis] for m, _, v in particles) for axis in range(3))


def spring_chain_energy(s: tuple) -> tuple[float]:
    """Kinetic energy plus k (length - spacing)^2 / 2 over every spring, the two anchor springs included."""
    k, spacing, mass = (SCENARIOS["spring-chain"].defaults[name] for name in ("k", "spacing", "mass"))
    n = len(s) // 2
    ends = [(0.0, 0.0, 0.0), *(s[i:i + 3] for i in range(1, n + 1, 3)), ((n // 3 + 1) * spacing, 0.0, 0.0)]
    stretch = sum((math.dist(left, right) - spacing) ** 2 for left, right in zip(ends, ends[1:]))
    return (0.5 * mass * sum(v * v for v in s[n + 1:]) + 0.5 * k * stretch,)


CONSERVED = {
    ("sho", "energy"): sho_energy,
    ("pendulum", "energy"): pendulum_energy,
    ("satellite", "energy"): satellite_energy,
    ("three-body", "energy"): three_body_energy,
    ("three-body", "momentum"): three_body_momentum,
    ("spring-chain", "energy"): spring_chain_energy,
}


def largest_drift(name: str, method: str, halvings: int = 0, quantity: str = "energy") -> float:
    """Largest |Q - Q0| / |Q0| of a conserved quantity over the run of ``RUNS``, at dt / 2**halvings."""
    scenario = SCENARIOS[name]
    params, steps = RUNS[name]
    run = scenario.build({**scenario.defaults, **params})
    dt, steps = scenario.dt / 2**halvings, steps * 2**halvings
    states = solution_stream(METHODS[method], dt, run.equation, run.initial)
    conserved = CONSERVED[name, quantity]
    start = conserved(run.initial)
    return max(math.dist(conserved(state), start) for state in islice(states, steps + 1)) / math.hypot(*start)


# Measured today, for Euler, Euler-Cromer and RK4: sho 0.105 (Euler grows
# energy by (1 + dt^2) per step), 5.0e-3, 1.4e-11; pendulum 1.64, 1.6e-2,
# 1.3e-8; satellite 1.32e-2, 1.16e-6, 1.5e-14; three-body 1.03e-3,
# 4.7e-7, 2.2e-15; spring-chain 3.11, 1.18e-2, 2.4e-7. RK4 on satellite
# and three-body is at round-off, so those bounds allow a few times it.
DRIFT_BOUNDS = {
    ("sho", "euler"): 0.11,
    ("sho", "euler-cromer"): 6e-3,
    ("sho", "rk4"): 2e-11,
    ("pendulum", "euler"): 1.7,
    ("pendulum", "euler-cromer"): 2e-2,
    ("pendulum", "rk4"): 2e-8,
    ("satellite", "euler"): 1.4e-2,
    ("satellite", "euler-cromer"): 1.3e-6,
    ("satellite", "rk4"): 5e-14,
    ("three-body", "euler"): 1.1e-3,
    ("three-body", "euler-cromer"): 5e-7,
    ("three-body", "rk4"): 1e-14,
    ("spring-chain", "euler"): 3.3,
    ("spring-chain", "euler-cromer"): 1.3e-2,
    ("spring-chain", "rk4"): 3e-7,
}

# Every method moves total momentum by the sum of equal and opposite
# pulls, which is zero but for round-off: measured 3.4e-15, 1.6e-15, 1.0e-15.
MOMENTUM_BOUND = 1e-14


@pytest.mark.parametrize("name, method", sorted(DRIFT_BOUNDS))
def test_energy_drift_is_bounded(name, method):
    assert largest_drift(name, method) < DRIFT_BOUNDS[name, method]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_three_body_momentum_drift_is_round_off(method):
    assert largest_drift("three-body", method, quantity="momentum") < MOMENTUM_BOUND


@pytest.mark.parametrize("name", ["pendulum", "sho"])
def test_rk4_energy_error_falls_as_dt_to_the_fifth(name):
    # measured: sho 32x then 27x, pendulum 32x then 32x
    errors = [largest_drift(name, "rk4", halvings) for halvings in range(3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 20.0 < coarse / fine < 45.0
