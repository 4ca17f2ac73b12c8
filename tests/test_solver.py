"""Stepper, evolution-method, and solution-stream tests."""

import itertools
import math
import random

import pytest

from mechfield.cli import METHODS
from mechfield.mechanics import satellite_accel
from mechfield.scenarios import SCENARIOS
from mechfield.solver import (
    InitialValueProblem,
    euler_cromer_method,
    euler_method,
    rk4_method,
    second_order_equation,
    solution_stream,
)
from mechfield.vectors import Vec3, X_HAT, ZERO


def constant_accel(a: Vec3):
    return lambda t, q, v: a


FREE = constant_accel(ZERO)


def particle(t: float, r: Vec3, v: Vec3) -> tuple:
    """A one-particle state in the flat layout (t, x, y, z, vx, vy, vz)."""
    return (t, *r, *v)


def random_state(rng: random.Random) -> tuple:
    return particle(
        rng.uniform(0, 10),
        Vec3(*(rng.uniform(-5, 5) for _ in range(3))),
        Vec3(*(rng.uniform(-5, 5) for _ in range(3))),
    )


def euler_step(a: Vec3, dt: float, state: tuple) -> tuple:
    """Oracle: one explicit Euler step for a particle, in vector algebra."""
    t, r, v = state[0], Vec3(*state[1:4]), Vec3(*state[4:])
    return particle(t + dt, r + v * dt, v + a * dt)


# --- explicit Euler ---------------------------------------------------------


def test_euler_step_position_uses_old_velocity():
    s = particle(0.0, ZERO, ZERO)
    out = euler_method(second_order_equation(constant_accel(Vec3(0, 0, -10))), 0.1, s)
    assert out == particle(0.1, ZERO, Vec3(0, 0, -1.0))


def test_euler_step_zero_dt_is_identity():
    s = particle(2.0, Vec3(1, 2, 3), Vec3(4, 5, 6))
    assert euler_method(second_order_equation(constant_accel(Vec3(0, 0, -10))), 0.0, s) == s


def test_euler_method_zero_dt():
    s = particle(1.0, Vec3(1, 0, 0), Vec3(0, 1, 0))
    assert euler_method(second_order_equation(FREE), 0.0, s) == s


def test_euler_step_uniform_motion():
    s = particle(0.0, ZERO, Vec3(1, 0, 0))
    assert euler_method(second_order_equation(FREE), 1.0, s) == particle(1.0, Vec3(1, 0, 0), Vec3(1, 0, 0))


# --- Euler-Cromer -----------------------------------------------------------


def test_euler_cromer_step_position_uses_new_velocity():
    s = particle(0.0, ZERO, ZERO)
    out = euler_cromer_method(second_order_equation(constant_accel(Vec3(0, 0, -10))), 0.1, s)
    assert out == particle(0.1, Vec3(0, 0, -0.1), Vec3(0, 0, -1.0))


def test_steppers_coincide_for_zero_acceleration():
    rng = random.Random(11)
    equation = second_order_equation(FREE)
    for _ in range(100):
        s = random_state(rng)
        dt = rng.uniform(-2, 2)
        assert euler_method(equation, dt, s) == euler_cromer_method(equation, dt, s)


def accel_cromer_step(accel, dt: float, y: tuple) -> tuple:
    """Oracle: the Euler-Cromer step as once written against the acceleration function."""
    n = len(y) // 2
    t = y[0]
    q = y[1:n + 1]
    v = y[n + 1:]
    a = accel(t, q, v)
    v = [b + c * dt for b, c in zip(v, a)]
    return (t + dt, *[x + b * dt for x, b in zip(q, v)], *v)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_euler_cromer_method_matches_acceleration_stepper_bit_for_bit(name):
    scenario = SCENARIOS[name]
    run = scenario.build(scenario.defaults)
    equation = run.equation
    state = expected = run.initial
    for _ in range(500):
        state = euler_cromer_method(equation, scenario.dt, state)
        expected = accel_cromer_step(run.accel, scenario.dt, expected)
        assert repr(state) == repr(expected)


# --- every method -----------------------------------------------------------


@pytest.mark.parametrize("method", list(METHODS.values()))
def test_methods_zero_dt_is_identity(method):
    for a, s in (
        (Vec3(0, 0, -10), particle(2.0, Vec3(1, 2, 3), Vec3(4, 5, 6))),
        (Vec3(3, 0, 0), particle(1.0, Vec3(1, 1, 1), Vec3(2, 2, 2))),
        (ZERO, particle(1.0, Vec3(1, 0, 0), Vec3(0, 1, 0))),
    ):
        assert method(second_order_equation(constant_accel(a)), 0.0, s) == s


# --- differential equation construction -------------------------------------


def test_particle_equation_free_particle():
    eq = second_order_equation(FREE)
    d = eq(particle(5.0, Vec3(1, 2, 3), Vec3(4, 5, 6)))
    assert d == (1.0, 4, 5, 6, 0, 0, 0)


def test_particle_equation_time_rate_is_always_one():
    rng = random.Random(3)
    eq = second_order_equation(constant_accel(Vec3(0, -9.8, 0)))
    for _ in range(50):
        assert eq(random_state(rng))[0] == 1.0


def test_particle_equation_chains_satellite_acceleration():
    s = particle(0.0, Vec3(7e6, 0, 0), Vec3(0, 7500, 0))
    d = second_order_equation(satellite_accel)(s)
    assert d[1:4] == (0, 7500, 0)
    assert d[4:] == satellite_accel(s[0], s[1:4], s[4:])


# --- derivative length ------------------------------------------------------


@pytest.mark.parametrize("method", list(METHODS.values()))
@pytest.mark.parametrize("wrong", [(1.0,), (1.0, 2.0, 3.0, 4.0)])
def test_generic_methods_refuse_acceleration_of_wrong_length(method, wrong):
    equation = second_order_equation(lambda t, q, v: wrong)
    with pytest.raises(ValueError, match="derivative has"):
        method(equation, 0.1, (0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("method", [euler_method, rk4_method])
def test_generic_methods_refuse_derivative_of_wrong_length(method):
    with pytest.raises(ValueError, match="derivative has 1 components for a state of 2"):
        method(lambda y: y[:1], 0.1, (1.0, 2.0))


@pytest.mark.parametrize("state", [(1.0, 2.0), (), (0.0, 1.0, 2.0, 3.0, 0.0, 0.0)])
def test_euler_cromer_refuses_state_without_velocity_half(state):
    # valid for the first-order methods, but no (t, q..., v...) layout
    with pytest.raises(ValueError, match=r"is not \(t, q\.\.\., v\.\.\.\)"):
        euler_cromer_method(lambda y: y, 0.1, state)


# --- generic evolution methods ----------------------------------------------


def test_euler_method_reproduces_euler_step_exactly():
    rng = random.Random(42)
    a = Vec3(0.3, -1.2, 2.5)
    eq = second_order_equation(constant_accel(a))
    for _ in range(200):
        s = random_state(rng)
        dt = rng.uniform(-1, 1)
        assert euler_method(eq, dt, s) == euler_step(a, dt, s)


def test_euler_method_on_scalar_state():
    # dy/dt = y, y0 = 1, one step of 0.5
    assert euler_method(lambda y: y, 0.5, (1.0,)) == (1.5,)


def test_rk4_zero_dt():
    s = particle(1.0, Vec3(1, 0, 0), Vec3(0, 1, 0))
    assert rk4_method(second_order_equation(FREE), 0.0, s) == s


def test_rk4_single_step_value():
    # dy/dt = y over dt = 1: stage sum 1 + 1 + 1/2 + 1/6 + 1/24
    (y,) = rk4_method(lambda y: y, 1.0, (1.0,))
    assert y == pytest.approx(2.708333333333333, rel=1e-15)


def _global_error(method, dt: float) -> float:
    y = (1.0,)
    for _ in range(round(1.0 / dt)):
        y = method(lambda v: v, dt, y)
    return abs(y[0] - math.e)


def test_rk4_error_drops_sixteen_fold_when_dt_halves():
    ratio = _global_error(rk4_method, 1e-2) / _global_error(rk4_method, 5e-3)
    assert 13.0 < ratio < 19.0


# --- state-space laws --------------------------------------------------------


def shift(state: tuple, delta: tuple) -> tuple:
    """Advance a flat state by a rate held over unit time: one Euler update."""
    return euler_method(lambda y: delta, 1.0, state)


def test_shift_laws_for_particle_state():
    rng = random.Random(5)
    zero = particle(0.0, ZERO, ZERO)
    for _ in range(100):
        s = random_state(rng)
        d1 = particle(rng.uniform(-1, 1), Vec3(1, 2, 3) * rng.random(), Vec3(-1, 0, 2) * rng.random())
        d2 = tuple(c * rng.uniform(-2, 2) for c in d1)
        assert shift(s, zero) == s
        once = shift(shift(s, d1), d2)
        combined = shift(s, tuple(a + b for a, b in zip(d1, d2)))
        assert once[0] == pytest.approx(combined[0], abs=1e-12)
        assert (Vec3(*once[1:4]) - Vec3(*combined[1:4])).magnitude() <= 1e-12
        assert (Vec3(*once[4:]) - Vec3(*combined[4:])).magnitude() <= 1e-12


def test_shift_laws_for_scalar_state():
    assert shift((3.25,), (0.0,)) == (3.25,)
    assert shift(shift((1.5,), (0.25,)), (0.5,)) == shift((1.5,), (0.75,))


# --- solution streams ---------------------------------------------------------


def test_stream_starts_at_initial_state():
    s0 = particle(0.0, X_HAT, ZERO)
    problem = InitialValueProblem(second_order_equation(FREE), s0)
    for method in METHODS.values():
        assert next(solution_stream(method, 0.1, problem)) == s0


def test_stream_matches_manual_iteration():
    a = Vec3(0, 0, -9.8)
    problem = InitialValueProblem(second_order_equation(constant_accel(a)), particle(0.0, ZERO, X_HAT))
    stream = solution_stream(euler_method, 0.05, problem)
    manual = particle(0.0, ZERO, X_HAT)
    for state in itertools.islice(stream, 20):
        assert state == manual
        manual = euler_step(a, 0.05, manual)


def test_stream_time_accumulates():
    problem = InitialValueProblem(second_order_equation(FREE), particle(0.0, ZERO, ZERO))
    states = list(itertools.islice(solution_stream(euler_method, 0.25, problem), 5))
    assert states[4][0] == 1.0


def test_stream_reconsumption_is_identical():
    problem = InitialValueProblem(
        second_order_equation(constant_accel(Vec3(0.1, 0.2, 0.3))),
        particle(0.0, Vec3(1, 1, 1), ZERO),
    )
    first = list(itertools.islice(solution_stream(rk4_method, 0.1, problem), 50))
    second = list(itertools.islice(solution_stream(rk4_method, 0.1, problem), 50))
    assert first == second


# --- Euler-Cromer streams ------------------------------------------------------


def test_solve_states_starts_at_initial_state():
    from mechfield.mechanics import damped_driven_osc

    s0 = particle(0.0, Vec3(1, 0, 0), Vec3(0, 0, 0))
    problem = InitialValueProblem(second_order_equation(damped_driven_osc(0.0, 1.0, 0.7)), s0)
    assert next(solution_stream(euler_cromer_method, 0.01, problem)) == s0


def test_solve_states_free_particle_keeps_velocity():
    problem = InitialValueProblem(second_order_equation(FREE), particle(0.0, ZERO, Vec3(2, -1, 0)))
    for state in itertools.islice(solution_stream(euler_cromer_method, 0.5, problem), 10):
        assert state[4:] == (2, -1, 0)


def test_solve_states_sho_returns_after_one_cycle():
    from mechfield.mechanics import damped_driven_osc

    equation = second_order_equation(damped_driven_osc(0.0, 0.0, 0.0))
    problem = InitialValueProblem(equation, particle(0.0, X_HAT, ZERO))
    stream = solution_stream(euler_cromer_method, 0.01, problem)
    state = next(itertools.islice(stream, 628, None))  # t = 6.28, one period of the unit SHO
    assert (Vec3(*state[1:4]) - X_HAT).magnitude() < 1e-3
