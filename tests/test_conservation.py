"""Physics gate: energy drift of the conservative scenarios, and RK4's order on it.

Golden hashes pin the bytes; these tests say whether bytes are right. Each
(scenario, method) pair runs at the scenario's default dt and step count
through :func:`solution_stream`, and its largest relative energy drift
must stay under a bound a little above the value the code gives today.
A changed method, for example RK4 with its weights swapped or
Euler-Cromer moving the coordinates with the old velocities, exceeds one.
"""

import math
from itertools import islice

import pytest

from mechfield.cli import METHODS
from mechfield.scenarios import SCENARIOS
from mechfield.solver import InitialValueProblem, solution_stream


def sho_energy(s: tuple) -> float:
    """Unit mass on a unit spring: (|v|^2 + |r|^2) / 2."""
    return 0.5 * sum(c * c for c in s[1:])


def pendulum_energy(s: tuple) -> float:
    """Per unit mass: L^2 omega^2 / 2 + g L (1 - cos theta), at the default g and L."""
    g, length = (SCENARIOS["pendulum"].defaults[name] for name in ("g", "length"))
    _, theta, omega = s
    return 0.5 * length * length * omega * omega + g * length * (1.0 - math.cos(theta))


ENERGY = {"sho": sho_energy, "pendulum": pendulum_energy}


def largest_drift(name: str, method: str, halvings: int = 0) -> float:
    """Largest |E - E0| / E0 over the default duration, at dt / 2**halvings."""
    scenario = SCENARIOS[name]
    run = scenario.build(scenario.defaults)
    dt, steps = scenario.dt / 2**halvings, scenario.steps * 2**halvings
    states = solution_stream(METHODS[method], dt, InitialValueProblem(run.equation, run.initial))
    energy = ENERGY[name]
    start = energy(run.initial)
    return max(abs(energy(state) - start) / start for state in islice(states, steps + 1))


# Measured today: sho 0.105 (Euler grows energy by (1 + dt^2) per step),
# 5.0e-3, 1.4e-11; pendulum 1.64, 1.6e-2, 1.3e-8.
DRIFT_BOUNDS = {
    ("sho", "euler"): 0.11,
    ("sho", "euler-cromer"): 6e-3,
    ("sho", "rk4"): 2e-11,
    ("pendulum", "euler"): 1.7,
    ("pendulum", "euler-cromer"): 2e-2,
    ("pendulum", "rk4"): 2e-8,
}


@pytest.mark.parametrize("name, method", sorted(DRIFT_BOUNDS))
def test_energy_drift_is_bounded(name, method):
    assert largest_drift(name, method) < DRIFT_BOUNDS[name, method]


@pytest.mark.parametrize("name", sorted(ENERGY))
def test_rk4_energy_error_falls_as_dt_to_the_fifth(name):
    # measured: sho 32x then 27x, pendulum 32x then 32x
    errors = [largest_drift(name, "rk4", halvings) for halvings in range(3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 20.0 < coarse / fine < 45.0
