"""Second-order systems on one flat state layout, with pluggable evolution methods.

Every problem here is a second-order system of n coordinates q and their
velocities v. Its state is one flat tuple of floats
``(t, q1..qn, v1..vn)``: a particle has n = 3, a pendulum n = 1, and N
particles n = 3N, their (x, y, z) triples one after another. A
*differential equation* maps a state to its rate of change, a tuple of the
same layout ``(1.0, v1..vn, a1..an)``. An *acceleration function*
``accel(t, q, v)`` returns the n accelerations, and
:func:`second_order_equation` turns one into a differential equation.

Every evolution method is ``method(equation, dt, state) -> state``.
:func:`euler_method` and :func:`rk4_method` are written once, component by
component, so they run on any flat tuple, including first-order ones such
as ``(y,)`` for y' = y. :func:`euler_cromer_method` reads the velocities'
half of the rate, so it needs the second-order layout, and the equation
:func:`second_order_equation` builds refuses a state of even length, which
has no such layout. A derivative with the wrong number of components raises
``ValueError`` instead of being cut short to fit.

The independent variable is always time, in seconds.
"""

from __future__ import annotations

from itertools import count
from math import isfinite
from typing import Callable, Iterator, Sequence

from .errors import DomainError
from .vectors import format_row

__all__ = [
    "State",
    "AccelerationFunction",
    "DifferentialEquation",
    "EvolutionMethod",
    "second_order_equation",
    "euler_cromer_method",
    "euler_method",
    "rk4_method",
    "solution_stream",
]

State = tuple[float, ...]

# An acceleration function encodes Newton's second law: it maps the time,
# the coordinates and the velocities to the n accelerations.
AccelerationFunction = Callable[[float, State, State], Sequence[float]]

# A differential equation maps a state to its derivative; an evolution
# method advances a state through a finite time interval using one.
DifferentialEquation = Callable[[State], State]
EvolutionMethod = Callable[[DifferentialEquation, float, State], State]


def second_order_equation(accel: AccelerationFunction) -> DifferentialEquation:
    """First-order form of a second-order system.

    Time runs at unit rate, each coordinate changes at its velocity, and
    each velocity at the acceleration supplied by ``accel``. A state of
    even length has no ``(t, q..., v...)`` layout and raises ``ValueError``.
    """

    def equation(y: State) -> State:
        if not len(y) % 2:  # the halves below would shift by one: q would take a velocity
            raise ValueError(f"a state of {len(y)} components is not (t, q..., v...)")
        n = len(y) // 2
        v = y[n + 1:]
        return (1.0, *v, *accel(y[0], y[1:n + 1], v))

    return equation


def euler_cromer_method(equation: DifferentialEquation, dt: float, y: State) -> State:
    """One semi-implicit (Euler-Cromer) step of a state ``(t, q..., v...)``.

    Velocities update first with the rate's accelerations, and the
    coordinates move with the *new* velocities. This small change keeps
    the energy error of oscillatory systems bounded instead of growing,
    which is why it is the default method for the trajectory scenarios.
    """
    if not len(y) % 2:  # the halves below would silently drop a component
        raise ValueError(f"a state of {len(y)} components is not (t, q..., v...)")
    rate = equation(y)
    if len(rate) != len(y):
        raise ValueError(f"derivative has {len(rate)} components for a state of {len(y)}")
    n = len(y) // 2
    v = [b + c * dt for b, c in zip(y[n + 1:], rate[n + 1:])]
    return (y[0] + rate[0] * dt, *[x + b * dt for x, b in zip(y[1:n + 1], v)], *v)


def euler_method(equation: DifferentialEquation, dt: float, y: State) -> State:
    """First-order evolution: move each component by its rate times dt."""
    rate = equation(y)
    if len(rate) != len(y):  # zip would silently truncate the state
        raise ValueError(f"derivative has {len(rate)} components for a state of {len(y)}")
    return tuple([a + b * dt for a, b in zip(y, rate)])


def rk4_method(equation: DifferentialEquation, dt: float, y: State) -> State:
    """Classical fourth-order Runge-Kutta evolution, fixed step.

    Four derivative evaluations combined with weights 1/6, 1/3, 1/3, 1/6,
    component by component, so it runs on any flat state.
    """
    h = dt / 2.0
    k1 = equation(y)
    if len(k1) != len(y):
        raise ValueError(f"derivative has {len(k1)} components for a state of {len(y)}")
    k2 = equation(tuple([a + b * h for a, b in zip(y, k1)]))
    k3 = equation(tuple([a + b * h for a, b in zip(y, k2)]))
    k4 = equation(tuple([a + b * dt for a, b in zip(y, k3)]))
    w = dt / 6.0
    return tuple([
        a + (b1 + (b2 + b3) * 2.0 + b4) * w
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ])


def solution_stream(method: EvolutionMethod, dt: float, equation: DifferentialEquation, initial: State) -> Iterator[State]:
    """Unbounded stream of states solving ``equation`` from the state ``initial``.

    Element 0 is ``initial``; each later element applies the evolution
    method to the previous one, computed on demand. Every call
    builds a fresh stream, so consuming twice yields identical elements.
    Element k that is not finite raises ``DomainError`` naming k and its
    time instead, and a ``DomainError`` the method raises computing
    element k gains `` at step k``.
    """
    state = initial
    for step in count():
        if not isfinite(sum(state)) and not all(map(isfinite, state)):  # the sum alone may overflow
            raise DomainError(f"state is not finite at step {step}, t = {format_row((state[0],))}")
        yield state
        try:
            state = method(equation, dt, state)
        except DomainError as exc:
            raise DomainError(f"{exc} at step {step + 1}") from exc
