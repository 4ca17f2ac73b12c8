"""Tests for the concrete physics: gravity, oscillators, chains, pendulums."""

import math
import random
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mechfield.scenarios import SCENARIOS
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


@pytest.mark.parametrize("drive", [1.0, -1.0])
def test_ddho_drive_acts_along_x_alone(drive):
    # no drive term joins y or z, so their zeros are signed by the damping and spring terms alone: -0.0 + -0.0
    accel = damped_driven_osc(0.5, drive, 0.0)(0.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert list(map(repr, accel[1:])) == ["-0.0", "-0.0"]


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
    # 1 kg bodies 1e103 m apart: the cube overflows, so the pull would be a silent 0
    accel = gravity_accel([1.0, 1.0])
    with pytest.raises(DomainError, match="^gravitating bodies too far apart$"):
        accel_at(accel, system(0.0, [(ZERO, ZERO), (Vec3(1e103, 0, 0), ZERO)]))
    # nearer, the pull is G m / d^2, though from 3e102 m an unscaled G m / d^3, about 2.5e-318, is subnormal
    for distance in (1e99, 3e102):
        a1, _ = triples(accel_at(accel, system(0.0, [(ZERO, ZERO), (Vec3(distance, 0, 0), ZERO)])))
        assert a1.x == pytest.approx(G / distance**2, rel=1e-12, abs=0)


def test_gravity_between_light_bodies_is_computed_wherever_the_pull_is_a_normal_float():
    # 1e-250 kg bodies 1e16 m apart pull each other at 6.67e-293 m/s^2, a normal float
    a1, a2 = triples(accel_at(gravity_accel([1e-250, 1e-250]), system(0.0, [(ZERO, ZERO), (Vec3(1e16, 0, 0), ZERO)])))
    assert a1.x == pytest.approx(G * 1e-250 / 1e32, rel=1e-9, abs=0)
    assert a2 == -a1


@pytest.mark.parametrize("mass", [1e-309, 3e-318])
def test_gravity_pull_whose_g_m_is_subnormal_is_correctly_rounded(mass):
    # G m itself is below the normal range: the mass is scaled up before G multiplies it, so no digit is lost
    a1, a2 = triples(accel_at(gravity_accel([mass, mass]), system(0.0, [(ZERO, ZERO), (Vec3(1e-6, 0, 0), ZERO)])))
    assert a1 == Vec3(float(Fraction(G) * Fraction(mass) / Fraction(1e-6) ** 2), 0.0, 0.0)
    assert a2 == -a1


@settings(max_examples=200)
@given(masses=st.lists(st.floats(1.0, 5e10), min_size=2, max_size=4), data=st.data(), k=st.integers(-1000, 0))
def test_lighter_bodies_give_the_same_answer_times_their_scale(masses, data, k):
    # G m below 4 for every body: the masses and their 2**k multiples are scaled into the same range
    # when built, so a refusal stays the same refusal and each normal component becomes 2**k times it
    at = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 104))
    q = [c * 10.0**exponent for *point, exponent in data.draw(st.lists(at, min_size=len(masses), max_size=len(masses)))
         for c in point]

    def outcome(ms):
        try:
            return gravity_accel(ms)(0.0, q, [0.0] * len(q))
        except DomainError as error:
            return str(error)

    base, light = outcome(masses), outcome([math.ldexp(m, k) for m in masses])
    if isinstance(base, str):
        assert light == base
    else:
        kept = [i for i, b in enumerate(base) if abs(b) >= sys.float_info.min or b == 0.0]
        assert isinstance(light, list) and [light[i] for i in kept] == [math.ldexp(base[i], k) for i in kept]


def test_gravity_pulls_a_heavy_body_toward_a_light_one_near_it():
    # the light body's pull, about 6.7e-311, is a negligible subnormal: the bodies are 1 m apart, not too far
    a1, a2 = triples(accel_at(gravity_accel([1e-300, 1.0]), system(0.0, [(ZERO, ZERO), (X_HAT, ZERO)])))
    assert a1 == Vec3(G, 0.0, 0.0)
    assert a2.x == pytest.approx(-G * 1e-300, rel=1e-6, abs=0)


def test_gravity_computes_each_pair_once(monkeypatch):
    roots = []
    sqrt = math.sqrt
    accel = gravity_accel([1.0] * 6)
    q = [float(c) for i in range(6) for c in (i, i * i, -i)]
    monkeypatch.setattr(math, "sqrt", lambda x: roots.append(x) or sqrt(x))
    accel(0.0, q, [0.0] * 18)
    assert len(roots) == 15  # 6 * 5 / 2 pairs, not 30 ordered ones


def ordered_pairs_oracle(masses):
    """The gravity kernel before it computed each pair once: every body visits every other body.

    Like the kernel, it scales the masses by 2**-e, read from the exponents of G and the heaviest
    mass, so that the heaviest G m is at least 4, and the sums back by 2**e once.
    """
    ms = tuple(float(m) for m in masses)
    e = min(math.frexp(G)[1] + math.frexp(max(ms))[1] - 4, 0)

    def accel(t, q, v):
        points = [q[i:i + 3] for i in range(0, len(q), 3)]
        out = []
        for i, (xi, yi, zi) in enumerate(points):
            ax = ay = az = 0.0
            for j, (xj, yj, zj) in enumerate(points):
                if j == i:
                    continue
                dx = xj - xi
                dy = yj - yi
                dz = zj - zi
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                if dist < 1e-6:
                    raise DomainError("gravitational singularity")
                cube = dist * dist * dist
                if cube == math.inf:
                    raise DomainError("gravitating bodies too far apart")
                scale = G * math.ldexp(ms[j], -e) / cube
                ax = ax + dx * scale
                ay = ay + dy * scale
                az = az + dz * scale
            out += (ax, ay, az)
        return [math.ldexp(a, e) for a in out]

    return accel


def gravity_state(rng: random.Random, count: int, far: tuple[float, float]) -> list[float]:
    """Coordinates that mix signed zeros, ones, shared values, near and coincident bodies and far ones.

    A far body's coordinates are 10**x m, x uniform on ``far``.
    """
    q: list[float] = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0 and q:  # coincident with, or nearer than 1e-6 m to, an earlier body
            i = 3 * rng.randrange(len(q) // 3)
            q += (c + rng.choice((0.0, 3e-7, -5e-7)) for c in q[i:i + 3])
        elif kind == 1:
            q += (rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(*far) for _ in range(3))
        else:
            q += (rng.choice((0.0, -0.0, 1.0, -1.0, rng.choice(q) if q else 0.0, rng.uniform(-1e3, 1e3)))
                  for _ in range(3))
    return q


@pytest.mark.parametrize("count", range(1, 7))
def test_gravity_matches_the_ordered_pairs_oracle_bit_for_bit(count):
    rng = random.Random(40 + count)
    outcomes = {"value": 0, "gravitational singularity": 0, "gravitating bodies too far apart": 0}
    for n in range(600):
        if n % 3:  # most far bodies past the 5.6e102 m where a cube overflows
            masses, q = [10.0 ** rng.uniform(-5, 30) for _ in range(count)], gravity_state(rng, count, (100, 120))
        else:  # light bodies, each G m below 4, mostly far apart but short of where a cube overflows
            masses, q = [10.0 ** rng.uniform(-320, 10) for _ in range(count)], gravity_state(rng, count, (1, 102.5))
        v = [0.0] * len(q)
        try:
            expected = repr(ordered_pairs_oracle(masses)(0.0, q, v))
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                gravity_accel(masses)(0.0, q, v)
            assert str(raised.value) == str(exc)
            outcomes[str(exc)] += 1
        else:
            assert repr(gravity_accel(masses)(0.0, q, v)) == expected
            outcomes["value"] += 1
    assert outcomes["value"] > 0
    if count > 1:  # a single body has no pair to refuse
        assert min(outcomes.values()) > 0, outcomes


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
    """The chain kernel before it computed each spring once: every particle sums its two neighbors' pulls.

    Each spring's rest length is the difference of its two ends' lattice entries, ``i * spacing``.
    """
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
                lo, hi = sorted((i, j))
                scale = k * (length - (hi * spacing - lo * spacing)) / length
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


@pytest.mark.parametrize("spacing", [1.4e154, 1e300])
def test_spring_chain_whose_rest_length_squared_overflows_is_refused_at_build(spacing):
    # the lattice is finite, its anchor at 3 * spacing, but each spring's length at rest would read inf
    with pytest.raises(ValueError, match="^spring chain rest length squared is not finite$") as raised:
        spring_chain_accel(2, k=1.0, spacing=spacing, mass=1.0)
    assert not isinstance(raised.value, DomainError)


def test_spring_chain_whose_rest_length_squared_is_finite_stays_at_rest():
    initial = system(0.0, lattice(2, 1.3e154))
    equation = second_order_equation(spring_chain_accel(2, k=1.0, spacing=1.3e154, mass=1.0))
    for state in islice(solution_stream(rk4_method, 0.1, equation, initial), 5):
        assert state[1:] == initial[1:]


# Spacings over six decades, and over most of the float range
REST_SPACINGS = (lambda rng: 10.0 ** rng.uniform(-3, 3), lambda rng: 2.0 ** rng.uniform(-500, 500))


@pytest.mark.parametrize("method", [euler_method, euler_cromer_method, rk4_method], ids=["euler", "euler-cromer", "rk4"])
def test_spring_chain_released_at_rest_in_its_lattice_stays_at_rest(method):
    # each rest length is the difference of its ends' lattice entries, so every force at rest is exactly 0
    rng = random.Random(26)
    chain = SCENARIOS["spring-chain"]
    for _ in range(150):
        for draw in REST_SPACINGS:
            params = {**chain.defaults, "particles": rng.randint(1, 10), "spacing": draw(rng), "amplitude": 0.0}
            run = chain.build(params)
            for state in islice(solution_stream(method, chain.dt, run.equation, run.initial), 101):
                assert state[1:] == run.initial[1:], params


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


def test_spring_chain_scales_to_any_lattice_spacing():
    # springs shorter than about 1.5e-154 m have squares that underflow; their lengths must not
    q = []
    for i in range(4):  # plucked along the lowest mode
        q += ((i + 1) * 1.0, 0.1 * math.sin((i + 1) * math.pi / 5), 0.0)
    unscaled = spring_chain_accel(4, k=1.0, spacing=1.0, mass=1.0)(0.0, q, [0.0] * 12)
    for j in range(1001):
        scale = 2.0**-j
        accel = spring_chain_accel(4, k=1.0, spacing=scale, mass=1.0)(0.0, [c * scale for c in q], [0.0] * 12)
        assert accel == [pytest.approx(a * scale, rel=1e-12, abs=0) for a in unscaled], j


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
