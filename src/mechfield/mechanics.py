"""Concrete mechanics: acceleration functions on the flat state layout.

Everything here is, or builds, an acceleration function
``accel(t, q, v)`` for :mod:`mechfield.solver`: given the time, the n
coordinates and the n velocities as floats, it returns the n
accelerations. A particle has ``q = (x, y, z)``; N particles concatenate
their triples, ``(x1, y1, z1, x2, ...)``; a pendulum about a fixed pivot
has ``q = (theta,)``. The satellite and the damped driven oscillator are
single particles, mutual gravitation and spring chains are systems of
particles.

Each function performs its floating-point operations in the order of the
equivalent ``Vec3`` expression (sums start from 0.0, an x force adds no y or z
term, lengths are ``Vec3.magnitude``'s): the CSV bytes and golden hashes
depend on that order. The spring chain computes each spring once and gravity
each pair once, applying it to both ends with opposite signs (Newton's third
law): IEEE negation is exact and ``a - t`` is ``a + (-t)``, signed zeros too,
so the bytes are those of summing each particle's pulls in partner order.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError
from .solver import AccelerationFunction
from .vectors import _TINY, _length, _upscale

__all__ = [
    "GRAVITATIONAL_CONSTANT",
    "EARTH_MASS",
    "satellite_accel",
    "damped_driven_osc",
    "gravity_accel",
    "spring_chain_accel",
    "pendulum_accel",
]

GRAVITATIONAL_CONSTANT = 6.67e-11  # N m^2 / kg^2
EARTH_MASS = 5.98e24  # kg


def satellite_accel(t: float, q: Sequence[float], v: Sequence[float]) -> tuple[float, float, float]:
    """Acceleration of a satellite about a fixed Earth at the origin.

    Inverse-square gravity of magnitude G M / |r|^2 pointing back along
    the displacement; depends only on where the satellite is, not on the
    time or its velocity. As in :func:`gravity_accel`, within 1e-6 m of the
    origin, or so far that a cubed distance overflows (beyond about 5.6e102 m,
    whatever the strength), is a :class:`DomainError`.
    """
    x, y, z = q
    dist = math.sqrt(x * x + y * y + z * z)  # a bare root: exact wherever the 1e-6 m and far rules pass
    if dist < 1e-6:  # nearer, |r|^3 can underflow to 0 or the pull overflow; NaN passes
        raise DomainError("satellite at origin")
    cube = dist * dist * dist
    if cube == math.inf:  # dividing by it would make the pull a silent 0
        raise DomainError("satellite too far from the origin")
    scale = -GRAVITATIONAL_CONSTANT * EARTH_MASS / cube
    return (x * scale, y * scale, z * scale)


def damped_driven_osc(beta: float, drive_amp: float, drive_freq: float) -> AccelerationFunction:
    """Damped, driven harmonic oscillator with unit mass and unit spring constant.

    Three forces act: a spring force -r, a damping force -beta v, and a
    cosine drive of amplitude ``drive_amp`` (N) and angular frequency
    ``drive_freq`` (rad/s) along the x axis. With beta = drive_amp = 0 this
    is the plain simple harmonic oscillator. A parameter that is not finite
    is a ``ValueError``, an infinite drive phase ``drive_freq * t`` a :class:`DomainError`.
    """
    if not all(map(math.isfinite, (beta, drive_amp, drive_freq))):
        raise ValueError("beta, drive amplitude, and drive frequency must be finite")
    damping = -beta

    def accel(t: float, q: Sequence[float], v: Sequence[float]) -> tuple[float, float, float]:
        x, y, z = q
        vx, vy, vz = v
        try:
            drive = drive_amp * math.cos(drive_freq * t)
        except ValueError:  # cos of an infinite phase
            raise DomainError("drive phase is not finite") from None
        return (  # damping + drive + spring, mass = 1; the drive acts along x alone
            vx * damping + drive + -x,
            vy * damping + -y,
            vz * damping + -z,
        )

    return accel


def gravity_accel(masses: Sequence[float]) -> AccelerationFunction:
    """Mutual Newtonian gravitation between point masses.

    The returned function expects exactly ``len(masses)`` particles and gives
    particle i the sum over j != i of G m_j (r_j - r_i) / |r_j - r_i|^3,
    computing each pair once for both bodies. There is no softening: bodies
    closer than 1e-6 m, or so far that a cubed distance overflows (beyond
    about 5.6e102 m, whatever the strength), are a :class:`DomainError`, not
    a silent fudge or a silent 0.
    """
    ms = tuple(float(m) for m in masses)
    if not ms or any(not 0.0 < m < math.inf for m in ms):
        raise ValueError("masses must be a non-empty sequence of positive, finite values")
    # each body's pull at a unit cube, by 2**-e: the mass first, as G m can fall below the normal range
    e = _upscale(GRAVITATIONAL_CONSTANT, max(ms))
    gm = tuple(GRAVITATIONAL_CONSTANT * math.ldexp(m, -e) for m in ms)

    def accel(t: float, q: Sequence[float], v: Sequence[float]) -> list[float]:
        if len(q) != 3 * len(ms):
            raise ValueError(f"gravity state has {len(q)} coordinates, not 3 for each of {len(ms)} masses")
        out = [0.0] * len(q)
        for i in range(0, len(q), 3):  # each pair (i, j) once, i < j
            xi, yi, zi = q[i:i + 3]
            for j in range(i + 3, len(q), 3):
                dx, dy, dz = q[j] - xi, q[j + 1] - yi, q[j + 2] - zi
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)  # a bare root: exact wherever the 1e-6 m and far rules pass
                if dist < 1e-6:
                    raise DomainError("gravitational singularity")
                cube = dist * dist * dist
                if cube == math.inf:
                    raise DomainError("gravitating bodies too far apart")
                on_i, on_j = gm[j // 3] / cube, gm[i // 3] / cube
                out[i] += dx * on_i
                out[i + 1] += dy * on_i
                out[i + 2] += dz * on_i
                out[j] -= dx * on_j
                out[j + 1] -= dy * on_j
                out[j + 2] -= dz * on_j
        return [math.ldexp(a, e) for a in out] if e else out  # e is 0 wherever a body outweighs 1.2e11 kg

    return accel


def _chain_lattice(count: int, spacing: float) -> list[float]:
    """The spring chain at rest along x: the left anchor at 0, each particle, then the right anchor."""
    if not math.isfinite((count + 1) * spacing):  # O(1), before a table of count + 2 entries
        raise ValueError("spring chain lattice is not finite")
    return [i * spacing for i in range(count + 2)]


def spring_chain_accel(count: int, k: float, spacing: float, mass: float) -> AccelerationFunction:
    """``count`` point masses joined by nearest-neighbor Hooke's-law springs, ends anchored.

    The chain lies along the x axis on the lattice ``i * spacing``, i = 0 to
    count + 1: particle i rests at entry i, and stationary anchors sit at the
    first and last, so the chain supports standing waves. Each spring's
    rest length is the difference of its ends' entries, so a chain released
    at rest stays at rest exactly. Displacements are full 3D vectors, so both
    longitudinal and transverse motion work; which one you get is a matter of
    initial conditions. Like :func:`gravity_accel`, it is built for its count
    and refuses a state of any other size; a right anchor, a rest length
    squared or a ``1 / mass`` beyond the largest float is a ``ValueError`` when
    it is built. A spring's length is ``Vec3.magnitude``'s, so two neighbors at
    the same point are a :class:`DomainError`, but not two 1e-300 m apart. Each
    spring is computed once and pulls its two ends with opposite signs.
    """
    if count < 1:
        raise ValueError("spring chain needs at least one particle")
    if not (0.0 < k < math.inf and 0.0 < spacing < math.inf and 0.0 < mass < math.inf):
        raise ValueError("k, spacing, and mass must all be positive and finite")
    lattice = _chain_lattice(count, spacing)
    rests = [b - a for a, b in zip(lattice, lattice[1:])]  # each spring's rest length, left to right
    longest = max(rests)
    if not math.isfinite(longest * longest):  # such a spring's length reads inf even at rest
        raise ValueError("spring chain rest length squared is not finite")
    inverse_mass = 1.0 / mass
    if not math.isfinite(inverse_mass):
        raise ValueError("spring chain inverse mass 1 / mass is not finite")
    tiny = math.sqrt(_TINY)  # 2**-511: a shorter bare root has underflowing squares

    def accel(t: float, q: Sequence[float], v: Sequence[float]) -> list[float]:
        if len(q) != 3 * count:
            raise ValueError(f"spring chain state has {len(q)} coordinates, not 3 for each of {count} particles")
        out: list[float] = []
        x0 = y0 = z0 = 0.0  # the spring's left end: the left anchor, then each particle
        fx = fy = fz = 0.0  # 0.0 minus the term of the spring to the left of that end
        ends = iter((*q, lattice[-1], 0.0, 0.0))  # the right anchor last
        for rest, x1, y1, z1 in zip(rests, ends, ends, ends):
            dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
            length = math.sqrt(dx * dx + dy * dy + dz * dz)  # inf past 1.3e154 m: its nan force is refused next state
            if length < tiny and (length := _length(dx, dy, dz)) == 0.0:  # a root under 2**-511 m is taken again, scaled
                raise DomainError("spring chain neighbors coincide")
            # natural-length spring: pulls when stretched, pushes when compressed
            scale = k * (length - rest) / length
            tx, ty, tz = dx * scale, dy * scale, dz * scale
            out += ((fx + tx) * inverse_mass, (fy + ty) * inverse_mass, (fz + tz) * inverse_mass)
            fx, fy, fz = 0.0 - tx, 0.0 - ty, 0.0 - tz
            x0, y0, z0 = x1, y1, z1
        del out[:3]  # the first triple is the left anchor's, which never moves
        return out

    return accel


def pendulum_accel(g: float, length: float) -> AccelerationFunction:
    """Pendulum about a fixed pivot: theta'' = -(g / length) sin(theta).

    The state's one coordinate is the angle (rad) and its velocity the
    angular velocity (rad/s). This is the point-pendulum equation; a
    physical pendulum reduces to it with ``length`` read as I / (m d).
    A rate g / length beyond the largest float is a ``ValueError`` when it
    is built, an infinite angle a :class:`DomainError`.
    """
    if not (0.0 < g < math.inf and 0.0 < length < math.inf):
        raise ValueError("g and length must be positive and finite")
    rate = g / length
    if not math.isfinite(rate):
        raise ValueError("pendulum rate g / length is not finite")

    def accel(t: float, q: Sequence[float], v: Sequence[float]) -> tuple[float]:
        try:
            return (-rate * math.sin(q[0]),)
        except ValueError:  # sin of an infinite angle
            raise DomainError("pendulum angle is not finite") from None

    return accel
