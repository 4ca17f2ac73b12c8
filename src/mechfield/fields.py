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
A field builder cuts its curve once, when the field is built, and keeps
per piece only what its kernel reads: E the sample, its density and its
chord's length, B the sample and its chord. A point within about a piece
and a half of a sample, at any scale, counts as on the source.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from functools import reduce
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import DomainError
from .vectors import Position, Vec3, ZERO, displacement, format_row

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

_TINY = sys.float_info.min  # the smallest normal float
# The reach's floor: the smallest power of two whose cube is a normal float, 2**-340 m.
_NEAREST = 2.0 ** math.ceil(math.log2(_TINY) / 3)

# A field assigns a value to every position: a number for scalar fields
# (charge density, potential), a Vec3 for vector fields (E, B).
ScalarField = Callable[[Position], float]
VectorField = Callable[[Position], Vec3]

V = TypeVar("V", float, Vec3)


class _CurveFields(NamedTuple):
    func: Callable[[float], Position]
    start: float
    end: float


class Curve(_CurveFields):
    """A parametrized path in space with explicit parameter bounds.

    An immutable record, ``Curve(func, start, end)``; building one, or a
    changed copy with ``_replace``, raises ``ValueError`` unless
    ``start < end``, so a NaN bound is refused too.
    """

    __slots__ = ()

    def __new__(cls, func: Callable[[float], Position], start: float, end: float) -> "Curve":
        if not start < end:
            raise ValueError(f"curve parameters must satisfy start < end, got [{start}, {end}]")
        return super().__new__(cls, func, start, end)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Curve":  # under _replace too: a changed copy is checked like a new curve
        return cls(*iterable)


def circular_loop(radius: float) -> Curve:
    """Circle of the given radius in the z = 0 plane, centered on the origin.

    Traversed counterclockwise as seen from +z, parameter running 0 to 2 pi.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError("loop radius must be positive and finite")

    def point(t: float) -> Position:
        return Position(radius * math.cos(t), radius * math.sin(t), 0.0)

    return Curve(point, 0.0, 2.0 * math.pi)


def line_segment(length: float) -> Curve:
    """Straight segment of the given length along the z axis, centered on the origin."""
    if not 0.0 < length < math.inf:
        raise ValueError("segment length must be positive and finite")
    return Curve(lambda t: Position(0.0, 0.0, t), -length / 2.0, length / 2.0)


def _pieces(intervals: int, curve: Curve) -> Iterator[tuple[Position, Position, Position]]:
    """Cut a curve into equal parameter pieces: each one's chord start, midpoint sample and chord end.

    A closed curve, whose end comes back to its start, encloses no area in
    fewer than 3 pieces: cut so, it raises ``ValueError`` after its last piece.
    """
    if intervals < 1:
        raise ValueError(f"need at least one interval, got {intervals}")
    func, start = curve.func, curve.start
    width = (curve.end - start) / intervals
    first = previous = func(start)
    for i in range(intervals):
        sample = func(start + (i + 0.5) * width)
        following = func(start + (i + 1) * width)
        yield previous, sample, following
        previous = following
    if intervals < 3:
        # Relative only: a loop's ends differ by about 2.4e-16 of its radius,
        # and an absolute bound would call every open curve below it closed.
        # hypot scales its arguments, so a tiny curve does not underflow to 0.
        extent = max(math.hypot(*displacement(first, p)) for p in (sample, previous))
        if math.hypot(*displacement(first, previous)) < 1e-9 * extent:
            raise ValueError(f"a closed curve needs at least 3 intervals, got {intervals}")


def _length(x: float, y: float, z: float) -> float:
    """A chord's length: the root of its squares, or ``math.hypot`` where they underflow (below about 1.5e-154 m)."""
    squared = x * x + y * y + z * z
    return math.sqrt(squared) if squared >= _TINY else math.hypot(x, y, z)


def line_integral(intervals: int, field: Callable[[Position], V], curve: Curve) -> V:
    """Integrate a scalar or vector field along a curve.

    Midpoint samples weighted by chord lengths; see the module docstring.
    A constant field integrates to (constant) * (polyline arc length).
    """
    terms = (field(s) * _length(*displacement(a, b)) for a, s, b in _pieces(intervals, curve))
    return reduce(operator.add, terms)


def crossed_line_integral(intervals: int, field: VectorField, curve: Curve) -> Vec3:
    """Integrate field x dl along a curve.

    Same midpoint scheme as :func:`line_integral`, but each term crosses
    the sampled field value with the chord *vector*, in that order. Over a
    closed curve the chords telescope, so a constant field integrates to
    zero up to float summation.
    """
    return sum((field(s).cross(displacement(a, b)) for a, s, b in _pieces(intervals, curve)), ZERO)


def _quadrature(intervals: int, curve: Curve, record: Callable[..., Iterable[float]]) -> tuple[array, float]:
    """A curve's pieces as one flat float array, and the reach of their samples.

    Per piece, in parameter order: ``record(sample, cx, cy, cz)``, the floats a kernel
    reads of it, given its midpoint sample and chord. The reach, three times the farthest
    a chord end lies from its own sample and at least 2**-340 m, covers every point within
    one chord length of a chord or a sample: no chord is longer than twice that distance.
    """
    pieces = array("d")
    farthest = 0.0  # squared, from a sample to the farther end of its chord
    for start, sample, end in _pieces(intervals, curve):
        x, y, z, a, b, c = sample.x, sample.y, sample.z, start.x, start.y, start.z
        pieces.extend(record(sample, end.x - a, end.y - b, end.z - c))
        ux, uy, uz, vx, vy, vz = x - a, y - b, z - c, x - end.x, y - end.y, z - end.z
        farthest = max(farthest, ux * ux + uy * uy + uz * uz, vx * vx + vy * vy + vz * vz)
    return pieces, max(3.0 * math.sqrt(farthest), _NEAREST)


def _finite(value: Vec3, p: tuple[float, float, float]) -> Vec3:
    """``value``, or :class:`DomainError` naming the point ``p`` if a component is not finite."""
    if all(map(math.isfinite, value)):
        return value
    raise DomainError(f"field is not finite at {format_row(map(float, p))}")


def _refused(where: str, p: tuple[float, float, float]) -> DomainError:
    """The :class:`DomainError` for a field point ``p`` refused as ``where``; a NaN distance passes both rules."""
    return DomainError(f"field point {where} at {format_row(map(float, p))}")


def electric_field_of_line_charge(
    density: ScalarField, curve: Curve, intervals: int = 1000
) -> VectorField:
    """Electric field (V/m) of charge distributed along a curve.

    ``density`` is the linear charge density in C/m at each source point,
    read once per quadrature sample when the field is built. The field at
    point p is COULOMB_CONSTANT times the line integral over the curve of
    density(q) d / |d|^3, where d runs from the source point q to p.
    Evaluating nearer a quadrature sample than the reach, which covers
    every point within a chord's length of the source's chords and samples
    (about 1.5 piece lengths at any scale, and at least 2**-340 m), so far
    that even the densest sample's term would not be a normal float (from
    about 3.6e102 m for 1 C/m, nearer for weaker charge), or where the sum
    overflows, raises :class:`DomainError` naming the point, not garbage.
    """
    pieces, reach = _quadrature(intervals, curve, lambda s, cx, cy, cz: (s.x, s.y, s.z, density(s), _length(cx, cy, cz)))
    # the cube from which even the densest sample's term is not a normal float, or inf for no charge
    far = max(map(abs, pieces[3::5])) / _TINY or math.inf

    def field(point: Position) -> Vec3:
        px, py, pz = point.x, point.y, point.z
        ex = ey = ez = -0.0  # -0.0 + t == t for every t: the sum starts from its first term
        terms = iter(pieces)
        for sx, sy, sz, q, w in zip(terms, terms, terms, terms, terms):
            dx, dy, dz = px - sx, py - sy, pz - sz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < reach:
                raise _refused("on source", (px, py, pz))
            cube = dist * dist * dist
            if cube >= far:
                raise _refused("too far from the source", (px, py, pz))
            s = q / cube
            ex += dx * s * w
            ey += dy * s * w
            ez += dz * s * w
        return _finite(Vec3(ex, ey, ez) * COULOMB_CONSTANT, (px, py, pz))

    return field


def magnetic_field_of_line_current(
    current: float, curve: Curve, intervals: int = 1000
) -> VectorField:
    """Magnetic field (tesla) of a current flowing along a curve.

    Biot-Savart: the field at p is BIOT_SAVART_CONSTANT * current times
    the integral of dl x d / |d|^3 with d from source to p. Each term is
    computed as field x dl, the opposite order, so the sampled value
    carries a minus sign on the current to compensate. Evaluation nearer a
    sample than the reach or too far from the source, both as for the E
    field, or where the sum overflows, raises :class:`DomainError` naming
    the point.
    """
    strength = -current
    pieces, reach = _quadrature(intervals, curve, lambda s, cx, cy, cz: (s.x, s.y, s.z, cx, cy, cz))
    far = abs(current) / _TINY or math.inf  # as for the E field

    def field(point: Position) -> Vec3:
        px, py, pz = point.x, point.y, point.z
        bx = by = bz = 0.0
        terms = iter(pieces)
        for sx, sy, sz, cx, cy, cz in zip(terms, terms, terms, terms, terms, terms):
            dx, dy, dz = px - sx, py - sy, pz - sz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < reach:
                raise _refused("on source", (px, py, pz))
            cube = dist * dist * dist
            if cube >= far:
                raise _refused("too far from the source", (px, py, pz))
            s = strength / cube
            dx, dy, dz = dx * s, dy * s, dz * s
            bx += dy * cz - dz * cy
            by += dz * cx - dx * cz
            bz += dx * cy - dy * cx
        return _finite(Vec3(bx, by, bz) * BIOT_SAVART_CONSTANT, (px, py, pz))

    return field
