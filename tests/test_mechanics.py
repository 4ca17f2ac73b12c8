"""Tests for the concrete physics: gravity, oscillators, chains, pendulums."""

import math
import random

import pytest

from mechfield.errors import DomainError
from mechfield.fields import circular_loop, line_segment
from mechfield.mechanics import (
    EARTH_MASS,
    GRAVITATIONAL_CONSTANT as G,
    damped_driven_osc,
    gravity_accel,
    pendulum_accel,
    satellite_accel,
    spring_chain_accel,
)
from mechfield.solver import (
    euler_cromer_method,
    euler_method,
    rk4_method,
    second_order_equation,
    solution_stream,
)
from mechfield.vectors import Vec3, X_HAT, ZERO


def system(t: float, particles) -> tuple:
    """Flat state (t, x1, y1, z1, x2, ..., vx1, vy1, vz1, vx2, ...) of (r, v) pairs."""
    return (t, *(c for r, _ in particles for c in r), *(c for _, v in particles for c in v))


def triples(values) -> list[Vec3]:
    """Per-particle vectors of a flat (x1, y1, z1, x2, ...) sequence."""
    return [Vec3(*values[i:i + 3]) for i in range(0, len(values), 3)]


def accel_at(accel, state):
    n = len(state) // 2
    return accel(state[0], state[1:n + 1], state[n + 1:])


def shift(state: tuple, delta: tuple) -> tuple:
    """Advance a flat state by a rate held over unit time: one Euler update."""
    return euler_method(lambda y: delta, 1.0, state)


def plus(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def times(a: tuple, scalar: float) -> tuple:
    return tuple(x * scalar for x in a)


# --- satellite ----------------------------------------------------------------


def test_satellite_accel_inverse_square_value():
    a = Vec3(*satellite_accel(0.0, Vec3(7e6, 0, 0), ZERO))
    expected = G * EARTH_MASS / 7e6**2  # scalar oracle, direction is -x
    assert a.x == pytest.approx(-expected, rel=1e-12)
    assert a.y == 0.0 and a.z == 0.0


def test_satellite_accel_ignores_time_and_velocity():
    r = Vec3(3e6, -4e6, 1e6)
    a1 = satellite_accel(0.0, r, ZERO)
    a2 = satellite_accel(99.0, r, Vec3(1e4, -2e4, 3e4))
    assert a1 == a2


def test_satellite_accel_is_antiparallel_inverse_square():
    rng = random.Random(17)
    for _ in range(50):
        r = Vec3(*(rng.uniform(-1, 1) * 1e7 for _ in range(3)))
        if r.magnitude() < 1e5:
            continue
        a = Vec3(*satellite_accel(0.0, r, ZERO))
        assert a.cross(r).magnitude() <= 1e-9 * a.magnitude() * r.magnitude()
        assert a.dot(r) < 0
        assert a.magnitude() * r.magnitude() ** 2 == pytest.approx(G * EARTH_MASS, rel=1e-12)


def test_satellite_accel_rejects_origin():
    with pytest.raises(DomainError, match="satellite at origin"):
        satellite_accel(0.0, ZERO, ZERO)


@pytest.mark.parametrize("distance", [1e-110, 1e-100, 5e-7])
def test_satellite_accel_refuses_a_distance_nearer_than_gravity_does(distance):
    # at 1e-110 m |r|^3 underflows to 0, and at 1e-100 m the pull overflows to inf
    with pytest.raises(DomainError, match="^satellite at origin$"):
        satellite_accel(0.0, Vec3(distance, 0, 0), ZERO)


def test_satellite_accel_refuses_a_distance_whose_cube_overflows():
    # beyond about 5.6e102 m |r|^3 is inf, and dividing by it would make the pull a silent 0
    for distance in (1e103, 1e160):
        with pytest.raises(DomainError, match="^satellite too far from the origin$"):
            satellite_accel(0.0, Vec3(distance, 0, 0), ZERO)
    assert satellite_accel(0.0, Vec3(0, 0, 1e100), ZERO)[2] == pytest.approx(-G * EARTH_MASS / 1e200, rel=1e-12, abs=0)
    # a NaN distance is not refused here: the solution stream names the state that is not finite
    assert all(map(math.isnan, satellite_accel(0.0, Vec3(math.nan, 0, 0), ZERO)))


# --- damped driven oscillator ---------------------------------------------------


def test_ddho_drive_cancels_spring_at_release():
    accel = damped_driven_osc(0.0, 1.0, 0.7)
    assert accel(0.0, X_HAT, ZERO) == ZERO


def test_ddho_spring_only_limit():
    accel = damped_driven_osc(0.0, 0.0, 0.0)
    r = Vec3(0.3, -0.4, 0.5)
    assert accel(2.0, r, Vec3(1, 1, 1)) == -r


def test_ddho_damping_term():
    accel = damped_driven_osc(1.0, 0.0, 0.0)
    assert accel(0.0, ZERO, Vec3(2, 0, 0)) == Vec3(-2, 0, 0)


@pytest.mark.parametrize("omega, t", [(1e308, 10.0), (1.0, math.inf)])
def test_ddho_infinite_drive_phase_is_domain_error(omega, t):
    with pytest.raises(DomainError, match="^drive phase is not finite$"):
        damped_driven_osc(0.0, 1.0, omega)(t, X_HAT, ZERO)


# --- systems of particles ----------------------------------------------------------


def one_particle_system(r: Vec3, v: Vec3) -> tuple:
    return system(0.0, [(r, v)])


def test_system_step_single_particle_hand_value():
    out = euler_cromer_method(
        second_order_equation(lambda t, q, v: Vec3(0, 0, -10)), 0.1, one_particle_system(ZERO, ZERO)
    )
    assert out == system(0.1, [(Vec3(0, 0, -0.1), Vec3(0, 0, -1.0))])


def test_system_step_matches_particle_stepper_exactly():
    """Stepping two decoupled particles together equals stepping each alone."""
    rng = random.Random(23)
    a, b = Vec3(0.5, -1.5, 2.0), Vec3(-1.0, 0.25, 3.0)
    for _ in range(100):
        r1, v1, r2, v2 = (Vec3(*(rng.uniform(-5, 5) for _ in range(3))) for _ in range(4))
        dt = rng.uniform(0, 1)
        pair = euler_cromer_method(
            second_order_equation(lambda t, q, v: (*a, *b)), dt, system(0.0, [(r1, v1), (r2, v2)])
        )
        one = euler_cromer_method(second_order_equation(lambda t, q, v: a), dt, one_particle_system(r1, v1))
        two = euler_cromer_method(second_order_equation(lambda t, q, v: b), dt, one_particle_system(r2, v2))
        assert pair == system(one[0], [(one[1:4], one[4:]), (two[1:4], two[4:])])


def test_system_step_zero_dt():
    state = system(3.0, [(Vec3(1, 0, 0), Vec3(0, 1, 0)), (Vec3(2, 0, 0), ZERO)])
    out = euler_cromer_method(second_order_equation(lambda t, q, v: (*ZERO, *ZERO)), 0.0, state)
    assert out == state


def test_system_step_free_particles_decouple():
    state = system(0.0, [(ZERO, Vec3(1, 0, 0)), (Vec3(5, 0, 0), Vec3(0, 2, 0))])
    out = euler_cromer_method(second_order_equation(lambda t, q, v: (*ZERO, *ZERO)), 0.5, state)
    assert out == system(0.5, [(Vec3(0.5, 0, 0), Vec3(1, 0, 0)), (Vec3(5, 1, 0), Vec3(0, 2, 0))])


def test_system_equation_structure():
    state = system(1.0, [(Vec3(1, 0, 0), Vec3(0, 3, 0))])
    d = second_order_equation(lambda t, q, v: Vec3(0, 0, -9.8))(state)
    assert d == (1.0, 0, 3, 0, 0, 0, -9.8)


def test_system_state_shift_laws():
    state = system(0.0, [(Vec3(1, 2, 3), Vec3(0, 1, 0)), (ZERO, ZERO)])
    zero = (0.0,) * 13
    d1 = system(1.0, [(Vec3(0.1, 0, 0), Vec3(0, 0.2, 0)), (Vec3(0, 0, 0.3), ZERO)])
    d2 = times(d1, -0.5)
    assert shift(state, zero) == state
    stepped = shift(shift(state, d1), d2)
    combined = shift(state, plus(d1, d2))
    assert stepped[0] == pytest.approx(combined[0], abs=1e-12)
    for v1, v2 in zip(triples(stepped[1:]), triples(combined[1:])):
        assert (v1 - v2).magnitude() <= 1e-12


# --- gravity -------------------------------------------------------------------


def test_gravity_two_equal_masses_obey_third_law_exactly():
    accel = gravity_accel([2e24, 2e24])
    state = system(0.0, [(Vec3(1, 2, 3), ZERO), (Vec3(-4, 0, 7), ZERO)])
    a1, a2 = triples(accel_at(accel, state))
    assert a1 == -a2


def test_gravity_hand_value():
    accel = gravity_accel([1.0, 1.0])
    a1, _ = triples(accel_at(accel, system(0.0, [(ZERO, ZERO), (X_HAT, ZERO)])))
    assert a1 == Vec3(G, 0, 0)


def test_gravity_two_body_matches_satellite_accel():
    rng = random.Random(29)
    accel = gravity_accel([EARTH_MASS, 1000.0])
    for _ in range(20):
        r = Vec3(*(rng.uniform(1e6, 2e7) for _ in range(3)))
        _, a_test = triples(accel_at(accel, system(0.0, [(ZERO, ZERO), (r, ZERO)])))
        oracle = Vec3(*satellite_accel(0.0, r, ZERO))
        assert (a_test - oracle).magnitude() <= 1e-12 * oracle.magnitude()


def test_gravity_momentum_conservation():
    rng = random.Random(31)
    for _ in range(50):
        masses = [rng.uniform(1e20, 1e25) for _ in range(3)]
        accel = gravity_accel(masses)
        state = system(
            0.0,
            [(Vec3(*(rng.uniform(-1e8, 1e8) for _ in range(3))), ZERO) for _ in range(3)],
        )
        accels = triples(accel_at(accel, state))
        total = Vec3(0, 0, 0)
        scale = 0.0
        for m, a in zip(masses, accels):
            total = total + a * m
            scale += (a * m).magnitude()
        assert total.magnitude() <= 1e-9 * scale


def test_gravity_singularity_is_an_error():
    accel = gravity_accel([1.0, 1.0])
    state = system(0.0, [(ZERO, ZERO), (Vec3(1e-7, 0, 0), ZERO)])
    with pytest.raises(DomainError, match="gravitational singularity"):
        accel_at(accel, state)


def test_gravity_refuses_bodies_whose_distance_cubed_overflows():
    accel = gravity_accel([1e30, 1e30])
    for distance in (1e103, 1e160):
        with pytest.raises(DomainError, match="^gravitating bodies too far apart$"):
            accel_at(accel, system(0.0, [(ZERO, ZERO), (Vec3(distance, 0, 0), ZERO)]))
    a1, a2 = triples(accel_at(accel, system(0.0, [(ZERO, ZERO), (Vec3(1e100, 0, 0), ZERO)])))
    assert a1.x == pytest.approx(G * 1e30 / 1e200, rel=1e-12, abs=0)
    assert a2 == -a1


def test_gravity_refuses_a_pull_too_small_to_be_a_normal_float():
    # G * 1 kg / (3e102 m)^3 is about 2.5e-318, a subnormal that has lost digits: refused, not a blurred 7.4e-216
    accel = gravity_accel([1.0, 1.0])
    with pytest.raises(DomainError, match="^gravitating bodies too far apart$"):
        accel_at(accel, system(0.0, [(ZERO, ZERO), (Vec3(3e102, 0, 0), ZERO)]))
    a1, _ = triples(accel_at(accel, system(0.0, [(ZERO, ZERO), (Vec3(1e99, 0, 0), ZERO)])))
    assert a1.x == pytest.approx(G / 1e198, rel=1e-12, abs=0)


def test_gravity_pulls_a_heavy_body_toward_a_light_one_near_it():
    # the light body's pull, about 6.7e-311, is a negligible subnormal: the bodies are 1 m apart, not too far
    a1, a2 = triples(accel_at(gravity_accel([1e-300, 1.0]), system(0.0, [(ZERO, ZERO), (X_HAT, ZERO)])))
    assert a1 == Vec3(G, 0.0, 0.0)
    assert a2.x == pytest.approx(-G * 1e-300, rel=1e-6, abs=0)


def test_gravity_rejects_wrong_particle_count():
    with pytest.raises(ValueError):
        accel_at(gravity_accel([1.0, 1.0]), one_particle_system(ZERO, ZERO))
    with pytest.raises(ValueError, match="^gravity state has 4 coordinates, not 3 for each of 1 masses$"):
        gravity_accel([1.0])(0.0, (1.0, 2.0, 3.0, 4.0), (0.0,) * 4)


def test_gravity_rejects_bad_masses():
    with pytest.raises(ValueError):
        gravity_accel([])
    with pytest.raises(ValueError):
        gravity_accel([1.0, -2.0])


# --- spring chain -----------------------------------------------------------------


def lattice(count: int, spacing: float = 1.0) -> list:
    return [(Vec3((i + 1) * spacing, 0.0, 0.0), ZERO) for i in range(count)]


def test_spring_chain_equilibrium_has_zero_acceleration():
    accel = spring_chain_accel(5, k=2.0, spacing=1.0, mass=0.5)
    for a in triples(accel_at(accel, system(0.0, lattice(5)))):
        assert a.magnitude() <= 1e-12


def test_spring_chain_transverse_displacement_restores():
    accel = spring_chain_accel(1, k=1.0, spacing=1.0, mass=1.0)
    state = one_particle_system(Vec3(1.0, 0.2, 0.0), ZERO)
    (a,) = triples(accel_at(accel, state))
    assert a.y < 0  # back toward the axis
    assert abs(a.x) <= 1e-12 and a.z == 0.0


def test_spring_chain_uniform_translation_loads_only_the_ends():
    accel = spring_chain_accel(6, k=1.0, spacing=1.0, mass=1.0)
    shifted = [(r + Vec3(0.1, 0, 0), v) for r, v in lattice(6)]
    accels = triples(accel_at(accel, system(0.0, shifted)))
    assert accels[0].magnitude() > 1e-3
    assert accels[-1].magnitude() > 1e-3
    for a in accels[1:-1]:
        assert a.magnitude() <= 1e-12


def test_spring_chain_lowest_mode_frequency():
    """Longitudinal pluck along the lowest mode; count zero crossings.

    The analytic dispersion relation for an n-particle fixed-end chain
    gives omega_1 = 2 sqrt(k/m) sin(pi / (2 (n + 1))).
    """
    n, k, m, spacing, amp = 8, 1.0, 1.0, 1.0, 0.01
    omega1 = 2.0 * math.sqrt(k / m) * math.sin(math.pi / (2 * (n + 1)))
    period = 2.0 * math.pi / omega1

    particles = [
        (Vec3((i + 1) * spacing + amp * math.sin((i + 1) * math.pi / (n + 1)), 0.0, 0.0), ZERO)
        for i in range(n)
    ]
    state = system(0.0, particles)
    equation = second_order_equation(spring_chain_accel(n, k, spacing, m))

    mid = n // 2
    mid_x = 1 + 3 * mid  # index of the middle particle's x in the flat state
    equilibrium_x = (mid + 1) * spacing
    dt = 0.05
    crossings = []
    previous = state[mid_x] - equilibrium_x
    for _ in range(int(5 * period / dt)):
        nxt = euler_cromer_method(equation, dt, state)
        deviation = nxt[mid_x] - equilibrium_x
        if (previous > 0) != (deviation > 0):
            fraction = previous / (previous - deviation)
            crossings.append(state[0] + fraction * dt)
        previous = deviation
        state = nxt

    measured = 2.0 * (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    assert measured == pytest.approx(period, rel=0.01)


def anchored_chain_oracle(k: float, spacing: float, mass: float):
    """The chain kernel before it computed each spring once: every particle sums its two neighbors' pulls."""
    inverse_mass = 1.0 / mass

    def accel(t, q, v):
        n = len(q) // 3
        points = [q[i:i + 3] for i in range(0, len(q), 3)]
        points = [(0.0, 0.0, 0.0)] + points + [((n + 1) * spacing, 0.0, 0.0)]
        offset = 1
        out = []
        for i in range(offset, offset + n):
            x, y, z = points[i]
            fx = fy = fz = 0.0
            for j in (i - 1, i + 1):
                if not 0 <= j < len(points):
                    continue
                xj, yj, zj = points[j]
                dx = xj - x
                dy = yj - y
                dz = zj - z
                length = math.sqrt(dx * dx + dy * dy + dz * dz)
                scale = k * (length - spacing) / length
                fx = fx + dx * scale
                fy = fy + dy * scale
                fz = fz + dz * scale
            out += (fx * inverse_mass, fy * inverse_mass, fz * inverse_mass)
        return out

    return accel


# A particle's (y, z) off the chain's axis: anywhere, in a plane through the axis at z = +0.0 or
# -0.0, or on the axis (longitudinal motion). Zero components check the sign of zero in each force.
TRANSVERSE = (
    lambda rng, spacing: (rng.gauss(0.0, spacing), rng.gauss(0.0, spacing)),
    lambda rng, spacing: (rng.gauss(0.0, spacing), 0.0),
    lambda rng, spacing: (rng.gauss(0.0, spacing), -0.0),
    lambda rng, spacing: (0.0, 0.0),
    lambda rng, spacing: (-0.0, -0.0),
)


@pytest.mark.parametrize("stretch", [0.6, 1.4])  # compressed and stretched lattices
@pytest.mark.parametrize("count", [1, 2, 100])
def test_spring_chain_matches_the_anchored_oracle_bit_for_bit(count, stretch):
    rng = random.Random(count * 10 + int(stretch * 10))
    for k, spacing, mass in ((1.0, 1.0, 1.0), (2.7, 0.3, 0.45), (0.05, 13.0, 7.0)):
        accel, oracle = spring_chain_accel(count, k, spacing, mass), anchored_chain_oracle(k, spacing, mass)
        for transverse in TRANSVERSE:
            for _ in range(10):
                q = []
                for i in range(count):
                    jitter = spacing * rng.uniform(-0.2, 0.2)
                    q += ((i + 1) * spacing * stretch + jitter, *transverse(rng, spacing))
                v = [rng.uniform(-1.0, 1.0) for _ in q]
                assert repr(accel(0.0, q, v)) == repr(oracle(0.0, q, v))


def test_spring_chain_rejects_bad_parameters():
    with pytest.raises(ValueError):
        spring_chain_accel(1, k=0.0, spacing=1.0, mass=1.0)
    with pytest.raises(ValueError):
        spring_chain_accel(1, k=1.0, spacing=-1.0, mass=1.0)
    with pytest.raises(ValueError):
        spring_chain_accel(1, k=1.0, spacing=1.0, mass=1.0)(0.0, (), ())
    with pytest.raises(ValueError, match="^spring chain needs at least one particle$"):
        spring_chain_accel(0, k=1.0, spacing=1.0, mass=1.0)


@pytest.mark.parametrize("count", [1, 2])
def test_spring_chain_whose_right_anchor_overflows_is_refused_at_build(count):
    with pytest.raises(ValueError, match="^spring chain lattice is not finite$") as raised:
        spring_chain_accel(count, k=1, spacing=1e308, mass=1)
    assert not isinstance(raised.value, DomainError)


@pytest.mark.parametrize("length", [4, 5, 6])  # 6 is two whole particles for a chain of one
def test_spring_chain_refuses_a_state_that_is_not_whole_particles(length):
    q = [1.0, 0.0, 0.0, 5.0, 0.0, 0.0][:length]
    with pytest.raises(ValueError, match=f"^spring chain state has {length} coordinates, not 3 for each of 1 particles$"):
        spring_chain_accel(1, k=1.0, spacing=1.0, mass=1.0)(0.0, q, [0.0] * length)


@pytest.mark.parametrize(
    "particles",
    [
        [(Vec3(1.0, 0.5, 0.0), ZERO), (Vec3(1.0, 0.5, 0.0), ZERO)],
        [(ZERO, ZERO)],  # on the fixed anchor at the origin
        lattice(2) + [(Vec3(4.0, 0.0, 0.0), ZERO)],  # on the anchor at (n + 1) * spacing, the last spring
    ],
)
def test_spring_chain_coincident_neighbors_is_domain_error(particles):
    accel = spring_chain_accel(len(particles), k=1.0, spacing=1.0, mass=1.0)
    with pytest.raises(DomainError, match="^spring chain neighbors coincide$"):
        accel_at(accel, system(0.0, particles))


# --- pendulum ----------------------------------------------------------------------


def test_pendulum_stable_equilibrium():
    d = second_order_equation(pendulum_accel(9.8, 1.0))((0.0, 0.0, 0.0))
    assert d == (1.0, 0.0, 0.0)


def test_pendulum_unstable_equilibrium():
    (alpha,) = pendulum_accel(9.8, 1.0)(0.0, (math.pi,), (0.0,))
    assert abs(alpha) <= 1e-12  # sin(pi) at float precision


def test_pendulum_right_angle():
    (alpha,) = pendulum_accel(9.8, 1.0)(0.0, (math.pi / 2,), (0.0,))
    assert alpha == pytest.approx(-9.8, rel=1e-15)


def test_pendulum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pendulum_accel(0.0, 1.0)
    with pytest.raises(ValueError):
        pendulum_accel(9.8, -1.0)


BUILDERS = {  # each physics builder with one parameter x, the others valid
    "circular_loop": circular_loop,
    "line_segment": line_segment,
    "pendulum-g": lambda x: pendulum_accel(x, 1.0),
    "pendulum-length": lambda x: pendulum_accel(9.8, x),
    "spring-chain-k": lambda x: spring_chain_accel(1, x, 1.0, 1.0),
    "spring-chain-spacing": lambda x: spring_chain_accel(1, 1.0, x, 1.0),
    "spring-chain-mass": lambda x: spring_chain_accel(1, 1.0, 1.0, x),
    "gravity-first": lambda x: gravity_accel([x]),
    "gravity-second": lambda x: gravity_accel([1.0, x]),
    "ddho-beta": lambda x: damped_driven_osc(x, 0.0, 0.0),
    "ddho-amp": lambda x: damped_driven_osc(0.0, x, 0.0),
    "ddho-omega": lambda x: damped_driven_osc(0.0, 0.0, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS)
def test_every_builder_refuses_a_parameter_that_is_not_finite(builder, value):
    with pytest.raises(ValueError) as raised:
        builder(value)
    assert not isinstance(raised.value, DomainError)


@pytest.mark.parametrize(
    ("build", "quantity"),
    [
        (lambda: pendulum_accel(9.8, 1e-310), "pendulum rate g / length"),
        (lambda: pendulum_accel(1e308, 0.5), "pendulum rate g / length"),
        (lambda: spring_chain_accel(2, 1.0, 1.0, 1e-310), "spring chain inverse mass 1 / mass"),
    ],
    ids=["pendulum-length-1e-310", "pendulum-g-1e308", "spring-chain-mass-1e-310"],
)
def test_every_builder_refuses_finite_parameters_whose_ratio_overflows(build, quantity):
    # each parameter is finite, but the rate the acceleration multiplies by is inf
    with pytest.raises(ValueError, match=f"^{quantity} is not finite$") as raised:
        build()
    assert not isinstance(raised.value, DomainError)


@pytest.mark.parametrize("theta", [math.inf, -math.inf])
def test_pendulum_infinite_angle_is_domain_error(theta):
    with pytest.raises(DomainError, match="^pendulum angle is not finite$"):
        pendulum_accel(9.8, 1.0)(0.0, (theta,), (0.0,))


def test_angular_state_shift_laws():
    s = (0.0, 0.3, -0.1)
    zero = (0.0, 0.0, 0.0)
    d1 = (1.0, 0.05, -0.2)
    d2 = times(d1, 0.25)
    assert shift(s, zero) == s
    stepped = shift(shift(s, d1), d2)
    combined = shift(s, plus(d1, d2))
    for got, want in zip(stepped, combined):  # t, theta, omega
        assert got == pytest.approx(want, abs=1e-12)


def test_angular_cromer_step_uses_new_omega():
    out = euler_cromer_method(second_order_equation(lambda t, q, v: (-2.0,)), 0.1, (0.0, 1.0, 0.0))
    assert out == (0.1, 1.0 + (-0.2) * 0.1, -0.2)


def test_pendulum_small_angle_period():
    """RK4 integration reproduces 2 pi sqrt(length / g) for small swings."""
    g, length, theta0 = 9.8, 1.0, 0.01
    equation = second_order_equation(pendulum_accel(g, length))
    analytic = 2.0 * math.pi * math.sqrt(length / g)

    state = (0.0, theta0, 0.0)
    dt = 0.001
    crossings = []
    previous = state[1]
    for _ in range(int(2.2 * analytic / dt)):
        nxt = rk4_method(equation, dt, state)
        if (previous > 0) != (nxt[1] > 0):
            fraction = previous / (previous - nxt[1])
            crossings.append(state[0] + fraction * dt)
        previous = nxt[1]
        state = nxt

    measured = 2.0 * (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    assert measured == pytest.approx(analytic, rel=1e-3)


# --- trajectory projection ------------------------------------------------------------


def test_tx_pairs_sho_start_decreases():
    import itertools

    equation = second_order_equation(damped_driven_osc(0.0, 0.0, 0.0))
    stream = solution_stream(euler_cromer_method, 0.01, equation, one_particle_system(X_HAT, ZERO))
    pairs = [(state[0], state[1]) for state in itertools.islice(stream, 3)]
    xs = [x for _, x in pairs]
    assert xs[0] == 1.0
    assert 1.0 > xs[1] > xs[2]
