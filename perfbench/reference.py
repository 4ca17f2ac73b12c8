"""Expected outputs of benchmark requests, from an independent model.

The model re-derives every request's answer with plain floats and flat
coordinate lists, without importing mechfield. It performs the same
floating-point operations in the same order as mechfield did when this
benchmark was defined, so at that commit it agrees bit for bit; the
checker still compares with a relative tolerance, so that a later change
that reorders a sum is judged by its accuracy, not by its last bits.

A request passes only if its exit code is the expected one, the header
and row count are right, and the checked values are within ``rel_tol``
of the model, scaled by the largest magnitude among columns of the same
kind (positions, velocities, field components) in that row.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from workloads import Field, FieldGrid, Simulate

# Physical constants as mechfield defines them.
GRAVITATIONAL_CONSTANT = 6.67e-11
EARTH_MASS = 5.98e24
ORBIT_RADIUS = 7e6
SUN_MASS = 1.989e30
THREE_BODY_EARTH_MASS = 5.972e24
MOON_MASS = 7.35e22
ASTRONOMICAL_UNIT = 1.496e11
LUNAR_DISTANCE = 3.844e8
COULOMB_CONSTANT = 9e9
BIOT_SAVART_CONSTANT = 1e-7
ON_SAMPLE_DISTANCE = 1e-12  # mechfield refuses points this close to a quadrature sample

# A point this close to the source curve itself is "on the source": the
# request must exit 3, whether or not it happens to hit a sample.
ON_SOURCE_DISTANCE = 1e-12

SIMULATE_REL_TOL = 1e-6
FIELD_REL_TOL = 1e-8  # `field` prints 9 significant digits

PARTICLE_HEADER = "t,x,y,z,vx,vy,vz"
ANGULAR_HEADER = "t,theta,omega"
GRID_HEADER = "x,y,z,Fx,Fy,Fz"
FIELD_NAMES = ("Fx", "Fy", "Fz")


class Expected(NamedTuple):
    exit_code: int
    header: str | None  # first output line; None for `field`, which prints one bare line
    row_count: int  # data rows after the header
    rows: dict[int, tuple[float, ...]]  # data-row index -> expected values
    names: tuple[str, ...]  # column names; their kind sets the tolerance scale
    rel_tol: float


class OnSample(Exception):
    """The model met a point within ON_SAMPLE_DISTANCE of a quadrature sample."""


# --- mechanics -------------------------------------------------------------

Accel = Callable[[float, list, list], list]


def _oscillator(beta: float, amp: float, freq: float) -> Accel:
    def accel(t, r, v):
        c = amp * math.cos(freq * t)
        return [
            (v[0] * -beta + 1.0 * c) + -r[0],
            (v[1] * -beta + 0.0 * c) + -r[1],
            (v[2] * -beta + 0.0 * c) + -r[2],
        ]

    return accel


def _satellite(t, r, v):
    dist = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    s = -GRAVITATIONAL_CONSTANT * EARTH_MASS / (dist * dist * dist)
    return [r[0] * s, r[1] * s, r[2] * s]


def _pendulum(g: float, length: float) -> Accel:
    rate = g / length
    return lambda t, r, v: [-rate * math.sin(r[0])]


def _gravity(masses: tuple[float, ...]) -> Accel:
    def accel(t, r, v):
        out = []
        for i in range(len(masses)):
            xi, yi, zi = r[3 * i : 3 * i + 3]
            tx = ty = tz = 0.0
            for j, mass in enumerate(masses):
                if j == i:
                    continue
                dx, dy, dz = r[3 * j] - xi, r[3 * j + 1] - yi, r[3 * j + 2] - zi
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                f = GRAVITATIONAL_CONSTANT * mass / (dist * dist * dist)
                tx, ty, tz = tx + dx * f, ty + dy * f, tz + dz * f
            out += [tx, ty, tz]
        return out

    return accel


def _spring_chain(k: float, spacing: float, mass: float) -> Accel:
    inverse_mass = 1.0 / mass

    def pull(hx, hy, hz, nx, ny, nz):
        dx, dy, dz = nx - hx, ny - hy, nz - hz
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        s = k * (length - spacing) / length
        return dx * s, dy * s, dz * s

    def accel(t, r, v):
        n = len(r) // 3
        pts = [0.0, 0.0, 0.0] + list(r) + [(n + 1) * spacing, 0.0, 0.0]
        out = []
        for i in range(1, n + 1):
            here = pts[3 * i : 3 * i + 3]
            ax, ay, az = pull(*here, *pts[3 * i - 3 : 3 * i])
            bx, by, bz = pull(*here, *pts[3 * i + 3 : 3 * i + 6])
            out += [(0.0 + ax + bx) * inverse_mass,
                    (0.0 + ay + by) * inverse_mass,
                    (0.0 + az + bz) * inverse_mass]
        return out

    return accel


def _initial(req: Simulate) -> tuple[Accel, list, list, int, str]:
    """Acceleration, initial positions and velocities, coordinates per body, header."""
    p = dict(req.params)
    if req.scenario in ("sho", "ddho"):
        accel = _oscillator(0.0, 0.0, 0.0) if req.scenario == "sho" else _oscillator(
            p["beta"], p["amp"], p["omega"])
        return accel, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 3, PARTICLE_HEADER
    if req.scenario == "satellite":
        speed = math.sqrt(GRAVITATIONAL_CONSTANT * EARTH_MASS / ORBIT_RADIUS)
        return _satellite, [ORBIT_RADIUS, 0.0, 0.0], [0.0, speed, 0.0], 3, PARTICLE_HEADER
    if req.scenario == "pendulum":
        return _pendulum(p["g"], p["length"]), [p["theta0"]], [p["omega0"]], 1, ANGULAR_HEADER
    if req.scenario == "three-body":
        earth = math.sqrt(GRAVITATIONAL_CONSTANT * SUN_MASS / ASTRONOMICAL_UNIT)
        moon = earth + math.sqrt(GRAVITATIONAL_CONSTANT * THREE_BODY_EARTH_MASS / LUNAR_DISTANCE)
        r = [0.0, 0.0, 0.0, ASTRONOMICAL_UNIT, 0.0, 0.0, ASTRONOMICAL_UNIT + LUNAR_DISTANCE, 0.0, 0.0]
        v = [0.0, 0.0, 0.0, 0.0, earth, 0.0, 0.0, moon, 0.0]
        accel = _gravity((SUN_MASS, THREE_BODY_EARTH_MASS, MOON_MASS))
        return accel, r, v, 3, _system_header(3)
    if req.scenario == "spring-chain":
        count, spacing, amplitude = p["particles"], p["spacing"], p["amplitude"]
        r = []
        for i in range(count):
            r += [(i + 1) * spacing, amplitude * math.sin((i + 1) * math.pi / (count + 1)), 0.0]
        accel = _spring_chain(p["k"], spacing, p["mass"])
        return accel, r, [0.0] * len(r), 3, _system_header(count)
    raise ValueError(f"no model for scenario {req.scenario!r}")


def _system_header(count: int) -> str:
    columns = ["t"]
    for i in range(1, count + 1):
        columns += [f"x{i}", f"y{i}", f"z{i}", f"vx{i}", f"vy{i}", f"vz{i}"]
    return ",".join(columns)


def _scaled(d, s):
    return d[0] * s, [x * s for x in d[1]], [x * s for x in d[2]]


def _added(a, b):
    return a[0] + b[0], [x + y for x, y in zip(a[1], b[1])], [x + y for x, y in zip(a[2], b[2])]


def _shifted(state, d):
    t, r, v = state
    return t + d[0], [x + y for x, y in zip(r, d[1])], [x + y for x, y in zip(v, d[2])]


def final_state(req: Simulate) -> tuple[float, ...]:
    """Final CSV row of a simulate request."""
    accel, r, v, dim, _ = _initial(req)

    def deriv(state):
        return 1.0, state[2], accel(*state)

    dt, state = req.dt, (0.0, r, v)
    for _ in range(req.steps):
        if req.method == "euler":
            state = _shifted(state, _scaled(deriv(state), dt))
        elif req.method == "rk4":
            k1 = deriv(state)
            k2 = deriv(_shifted(state, _scaled(k1, dt / 2.0)))
            k3 = deriv(_shifted(state, _scaled(k2, dt / 2.0)))
            k4 = deriv(_shifted(state, _scaled(k3, dt)))
            total = _added(_added(k1, _scaled(_added(k2, k3), 2.0)), k4)
            state = _shifted(state, _scaled(total, dt / 6.0))
        else:  # euler-cromer: velocity first, then position with the new velocity
            t, r, v = state
            v2 = [x + a * dt for x, a in zip(v, accel(t, r, v))]
            state = (t + dt, [x + u * dt for x, u in zip(r, v2)], v2)
    t, r, v = state
    row = [t]
    for i in range(0, len(r), dim):
        row += r[i : i + dim] + v[i : i + dim]
    return tuple(row)


# --- fields ----------------------------------------------------------------


def _curve(kind: str, size: float):
    if kind == "b-loop":
        return (lambda t: (size * math.cos(t), size * math.sin(t), 0.0)), 0.0, 2.0 * math.pi
    return (lambda t: (0.0, 0.0, t)), -size / 2.0, size / 2.0


def field_value(kind: str, size: float, strength: float, intervals: int, point) -> tuple[float, float, float]:
    """E (V/m) of an `e-line` or B (T) of a `b-loop`, by mechfield's midpoint rule."""
    func, start, end = _curve(kind, size)
    px, py, pz = point
    width = (end - start) / intervals
    prev = func(start)
    total = None if kind == "e-line" else (0.0, 0.0, 0.0)
    for i in range(intervals):
        sx, sy, sz = func(start + (i + 0.5) * width)
        fol = func(start + (i + 1) * width)
        dx, dy, dz = px - sx, py - sy, pz - sz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < ON_SAMPLE_DISTANCE:
            raise OnSample
        cx, cy, cz = fol[0] - prev[0], fol[1] - prev[1], fol[2] - prev[2]
        if kind == "e-line":
            s = strength / (dist * dist * dist)
            chord = math.sqrt(cx * cx + cy * cy + cz * cz)
            term = (dx * s * chord, dy * s * chord, dz * s * chord)
            total = term if total is None else (total[0] + term[0], total[1] + term[1], total[2] + term[2])
        else:
            s = -strength / (dist * dist * dist)
            dx, dy, dz = dx * s, dy * s, dz * s
            total = (total[0] + (dy * cz - dz * cy),
                     total[1] + (dz * cx - dx * cz),
                     total[2] + (dx * cy - dy * cx))
        prev = fol
    scale = COULOMB_CONSTANT if kind == "e-line" else BIOT_SAVART_CONSTANT
    return total[0] * scale, total[1] * scale, total[2] * scale


def on_source(kind: str, size: float, point) -> bool:
    """Whether a point lies on the source curve itself, not merely near a sample."""
    x, y, z = point
    if kind == "e-line":
        return math.hypot(x, y) <= ON_SOURCE_DISTANCE and abs(z) <= size / 2.0 + ON_SOURCE_DISTANCE
    return abs(z) <= ON_SOURCE_DISTANCE and abs(math.hypot(x, y) - size) <= ON_SOURCE_DISTANCE


def _field_or_none(kind, size, strength, intervals, point):
    if on_source(kind, size, point):
        return None
    try:
        return field_value(kind, size, strength, intervals, point)
    except OnSample:
        return None


# --- expectations ----------------------------------------------------------


def expect(req) -> Expected:
    """What a correct program prints for this request."""
    if isinstance(req, Simulate):
        header = _initial(req)[4]
        return Expected(0, header, req.steps + 1, {req.steps: final_state(req)},
                        tuple(header.split(",")), SIMULATE_REL_TOL)
    if isinstance(req, Field):
        value = _field_or_none(req.kind, req.size, req.strength, req.intervals, req.point)
        if value is None:
            return Expected(3, None, 0, {}, FIELD_NAMES, FIELD_REL_TOL)
        return Expected(0, None, 1, {0: value}, FIELD_NAMES, FIELD_REL_TOL)
    rows = {}
    for i, point in enumerate(req.points()):
        value = _field_or_none(req.kind, req.size, req.strength, req.intervals, point)
        if value is None:
            return Expected(3, None, 0, {}, tuple(GRID_HEADER.split(",")), FIELD_REL_TOL)
        rows[i] = (*point, *value)
    return Expected(0, GRID_HEADER, len(rows), rows, tuple(GRID_HEADER.split(",")), FIELD_REL_TOL)


def _kind(name: str) -> str:
    base = name.rstrip("0123456789")
    if base in ("x", "y", "z"):
        return "r"
    if base in ("vx", "vy", "vz"):
        return "v"
    if base in FIELD_NAMES:
        return "F"
    return base


def values_match(got, want, names, rel_tol) -> bool:
    """Every value within rel_tol of the largest |want| among columns of its kind."""
    if len(got) != len(want):
        return False
    scale: dict[str, float] = {}
    for name, w in zip(names, want):
        scale[_kind(name)] = max(scale.get(_kind(name), 0.0), abs(w))
    return all(abs(g - w) <= rel_tol * scale[_kind(name)] for name, g, w in zip(names, got, want))


def check_output(exp: Expected, exit_code: int, text: str | None) -> bool:
    """Whether one request's exit code and output text are what ``exp`` says."""
    if exit_code != exp.exit_code:
        return False
    if exp.exit_code != 0:
        return True
    if text is None or not text.endswith("\n"):
        return False
    lines = text[:-1].split("\n")
    if exp.header is not None:
        if lines[0] != exp.header:
            return False
        lines = lines[1:]
    if len(lines) != exp.row_count:
        return False
    try:
        return all(values_match([float(v) for v in lines[i].split(",")], want, exp.names, exp.rel_tol)
                   for i, want in exp.rows.items())
    except ValueError:
        return False
