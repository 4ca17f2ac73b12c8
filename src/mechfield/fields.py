"""Electric and magnetic fields of one-dimensional sources.

A charge or current distribution along a curve is all the information
needed to compute its field: the electric field of a line charge takes a
linear charge density and a curve, the magnetic field of a line current
takes a current and a curve, and each returns a vector field, a plain
function from position to Vec3.

Every integral here cuts the parameter interval into equal pieces,
samples the integrand at each piece's midpoint, and weights by the chord
between the piece's endpoints (its length for plain line integrals, the
chord vector itself for the crossed variant). No tangent vectors are
required of the caller, and the scheme is second order: halving the
interval width cuts the error about four-fold for smooth integrands.
A field builder cuts its curve once, when the field is built; the field
then runs a flat E or B kernel over the stored pieces, and the source it
knows is their polyline of chords plus the midpoint samples.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, TypeVar

from .errors import DomainError
from .vectors import Position, Vec3, ZERO, displacement

__all__ = [
    "COULOMB_CONSTANT",
    "BIOT_SAVART_CONSTANT",
    "Curve",
    "ScalarField",
    "VectorField",
    "circular_loop",
    "line_segment",
    "line_integral",
    "crossed_line_integral",
    "electric_field_of_line_charge",
    "magnetic_field_of_line_current",
]

COULOMB_CONSTANT = 9e9  # N m^2 / C^2, i.e. 1 / (4 pi eps0)
BIOT_SAVART_CONSTANT = 1e-7  # T m / A, i.e. mu0 / (4 pi)

# Minimum distance between a field point and a quadrature chord or sample
# before the evaluation counts as "on the source" and is refused.
ON_SOURCE_DISTANCE = 1e-12  # m

# A field assigns a value to every position: a number for scalar fields
# (charge density, potential), a Vec3 for vector fields (E, B).
ScalarField = Callable[[Position], float]
VectorField = Callable[[Position], Vec3]

V = TypeVar("V", float, Vec3)


@dataclass(frozen=True)
class Curve:
    """A parametrized path in space with explicit parameter bounds."""

    func: Callable[[float], Position]
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"curve parameters must satisfy start < end, got [{self.start}, {self.end}]")


def circular_loop(radius: float) -> Curve:
    """Circle of the given radius in the z = 0 plane, centered on the origin.

    Traversed counterclockwise as seen from +z, parameter running 0 to 2 pi.
    """
    if radius <= 0.0:
        raise DomainError("loop radius must be positive")

    def point(t: float) -> Position:
        return Position(radius * math.cos(t), radius * math.sin(t), 0.0)

    return Curve(point, 0.0, 2.0 * math.pi)


def line_segment(length: float) -> Curve:
    """Straight segment of the given length along the z axis, centered on the origin."""
    if length <= 0.0:
        raise DomainError("segment length must be positive")
    return Curve(lambda t: Position(0.0, 0.0, t), -length / 2.0, length / 2.0)


def _pieces(intervals: int, curve: Curve) -> Iterator[tuple[Position, Position, Position]]:
    """Cut a curve into equal parameter pieces: each one's chord start, midpoint sample and chord end.

    A closed curve, whose end comes back to its start, encloses no area in
    fewer than 3 pieces: cut so, it raises ``ValueError`` after its last piece.
    """
    if intervals < 1:
        raise ValueError(f"need at least one interval, got {intervals}")
    width = (curve.end - curve.start) / intervals
    first = previous = curve.func(curve.start)
    for i in range(intervals):
        sample = curve.func(curve.start + (i + 0.5) * width)
        following = curve.func(curve.start + (i + 1) * width)
        yield previous, sample, following
        previous = following
    if intervals < 3:
        # Relative only: a loop's ends differ by about 2.4e-16 of its radius,
        # and an absolute bound would call every open curve below it closed.
        # hypot scales its arguments, so a tiny curve does not underflow to 0.
        extent = max(math.hypot(*displacement(first, p)) for p in (sample, previous))
        if math.hypot(*displacement(first, previous)) < 1e-9 * extent:
            raise ValueError(f"a closed curve needs at least 3 intervals, got {intervals}")


def line_integral(intervals: int, field: Callable[[Position], V], curve: Curve) -> V:
    """Integrate a scalar or vector field along a curve.

    Midpoint samples weighted by chord lengths; see the module docstring.
    A constant field integrates to (constant) * (polyline arc length).
    """
    terms = (field(s) * displacement(a, b).magnitude() for a, s, b in _pieces(intervals, curve))
    return reduce(operator.add, terms)


def crossed_line_integral(intervals: int, field: VectorField, curve: Curve) -> Vec3:
    """Integrate field x dl along a curve.

    Same midpoint scheme as :func:`line_integral`, but each term crosses
    the sampled field value with the chord *vector*, in that order. Over a
    closed curve the chords telescope, so a constant field integrates to
    zero up to float summation.
    """
    return sum((field(s).cross(displacement(a, b)) for a, s, b in _pieces(intervals, curve)), ZERO)


def _quadrature(intervals: int, curve: Curve, strength: ScalarField) -> tuple[list[array], float]:
    """A curve's pieces as ten flat float columns, and the reach of their samples.

    Per piece: sample x, y, z, the source strength there, chord start x, y,
    z and chord x, y, z. A point on a piece is nearer than the reach to the
    piece's sample.
    """
    columns = [array("d") for _ in range(10)]
    sx, sy, sz, q, ax, ay, az, cx, cy, cz = (column.append for column in columns)
    farthest = 0.0  # squared, from a sample to the farther end of its chord
    for start, sample, end in _pieces(intervals, curve):
        x, y, z, a, b, c = sample.x, sample.y, sample.z, start.x, start.y, start.z
        sx(x), sy(y), sz(z), q(strength(sample)), ax(a), ay(b), az(c)
        cx(end.x - a), cy(end.y - b), cz(end.z - c)
        ux, uy, uz, vx, vy, vz = x - a, y - b, z - c, x - end.x, y - end.y, z - end.z
        farthest = max(farthest, ux * ux + uy * uy + uz * uz, vx * vx + vy * vy + vz * vz)
    return columns, (math.sqrt(farthest) + ON_SOURCE_DISTANCE) * (1.0 + 1e-9)  # with slack for rounding


def _refuse_on_source(columns: list[array], p: tuple[float, float, float]) -> None:
    """Raise :class:`DomainError` within ON_SOURCE_DISTANCE of any sample or chord."""
    px, py, pz = p
    for sx, sy, sz, _, ax, ay, az, cx, cy, cz in zip(*columns):
        along = (px - ax) * cx + (py - ay) * cy + (pz - az) * cz
        squared = cx * cx + cy * cy + cz * cz  # 0.0 for a chord shorter than about 1e-162 m
        f = min(along / squared, 1.0) if along > 0.0 and squared > 0.0 else 0.0
        nearest = (ax + f * cx, ay + f * cy, az + f * cz)
        if min(math.dist(p, (sx, sy, sz)), math.dist(p, nearest)) < ON_SOURCE_DISTANCE:
            raise DomainError("field point on source")


def electric_field_of_line_charge(
    density: ScalarField, curve: Curve, intervals: int = 1000
) -> VectorField:
    """Electric field (V/m) of charge spread along a curve.

    ``density`` is the linear charge density in C/m at each source point,
    read once per quadrature sample when the field is built. The field at
    point p is COULOMB_CONSTANT times the line integral over the curve of
    density(q) d / |d|^3, where d runs from the source point q to p.
    Evaluating within 1e-12 m of the source, which for a curved source is
    the polyline of quadrature chords (and their midpoint samples), raises
    :class:`DomainError` rather than returning garbage.
    """
    columns, reach = _quadrature(intervals, curve, density)
    xs, ys, zs, charge, _, _, _, cxs, cys, czs = columns
    length = array("d", [math.sqrt(x * x + y * y + z * z) for x, y, z in zip(cxs, cys, czs)])

    def field(point: Position) -> Vec3:
        px, py, pz = point.x, point.y, point.z
        ex = ey = ez = -0.0  # -0.0 + t == t for every t: the sum starts from its first term
        for sx, sy, sz, q, w in zip(xs, ys, zs, charge, length):
            dx, dy, dz = px - sx, py - sy, pz - sz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < reach:
                _refuse_on_source(columns, (px, py, pz))
            s = q / (dist * dist * dist)
            ex += dx * s * w
            ey += dy * s * w
            ez += dz * s * w
        return Vec3(ex, ey, ez) * COULOMB_CONSTANT

    return field


def magnetic_field_of_line_current(
    current: float, curve: Curve, intervals: int = 1000
) -> VectorField:
    """Magnetic field (tesla) of a current flowing along a curve.

    Biot-Savart: the field at p is BIOT_SAVART_CONSTANT * current times
    the integral of dl x d / |d|^3 with d from source to p. Each term is
    computed as field x dl, the opposite order, so the sampled value
    carries a minus sign on the current to compensate. Evaluation within
    1e-12 m of the source, the polyline of quadrature chords (and their
    midpoint samples), raises :class:`DomainError`.
    """
    strength = -current
    columns, reach = _quadrature(intervals, curve, lambda _source: strength)
    xs, ys, zs, weight, _, _, _, cxs, cys, czs = columns

    def field(point: Position) -> Vec3:
        px, py, pz = point.x, point.y, point.z
        bx = by = bz = 0.0
        for sx, sy, sz, q, cx, cy, cz in zip(xs, ys, zs, weight, cxs, cys, czs):
            dx, dy, dz = px - sx, py - sy, pz - sz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < reach:
                _refuse_on_source(columns, (px, py, pz))
            s = q / (dist * dist * dist)
            dx, dy, dz = dx * s, dy * s, dz * s
            bx += dy * cz - dz * cy
            by += dz * cx - dx * cz
            bz += dx * cy - dy * cx
        return Vec3(bx, by, bz) * BIOT_SAVART_CONSTANT

    return field
