"""Electric and magnetic fields of one-dimensional sources.

A charge or current distribution along a curve is all the information
needed to compute its field: the electric field of a line charge takes a
linear charge density and a curve, the magnetic field of a line current
takes a current and a curve, and each returns a vector field, a plain
function from position to Vec3.

Every integral here cuts the parameter interval into equal pieces,
samples the integrand at each piece's midpoint, and weights by the chord
between the piece's endpoints (its length, ``Vec3.magnitude``'s at any
scale, for plain line integrals and the E field, the chord vector itself for
the crossed variant and the B field). No tangent vectors are required of the
caller, and the scheme is second order: halving the interval width cuts the
error about four-fold for smooth integrands. A closed curve is cut shut at
every n: its last chord ends at its first point, so its chords telescope.
A field builder cuts its curve once, when the field is built, and keeps
per piece only what its kernel reads: E the sample, its density and its
chord's length, B the sample and its chord. A point within about a piece
and a half of a sample, at any scale, counts as on the source.
"""

from __future__ import annotations

import math
import operator
from array import array
from functools import reduce
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import DomainError
from .vectors import _TINY, Position, Vec3, ZERO, _length, _upscale, displacement, format_row

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
_INTERVALS = 1000  # a field builder's quadrature intervals, and the CLI's --intervals, unless given

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

    cos, sin = math.cos, math.sin

    def point(t: float) -> Position:
        return Position(radius * cos(t), radius * sin(t), 0.0)

    return Curve(point, 0.0, 2.0 * math.pi)


def line_segment(length: float) -> Curve:
    """Straight segment of the given length along the z axis, centered on the origin."""
    if not 0.0 < length < math.inf:
        raise ValueError("segment length must be positive and finite")
    return Curve(lambda t: Position(0.0, 0.0, t), -length / 2.0, length / 2.0)


def _pieces(intervals: int, curve: Curve) -> Iterator[tuple[Position, Position, Position]]:
    """Cut a curve into equal parameter pieces: each one's chord start, midpoint sample and chord end.

    A closed curve, whose end comes back to its start, is cut shut at every n: its last chord ends at
    its first point itself. It encloses no area in fewer than 3 pieces: cut so, it raises ``ValueError``.
    """
    if intervals < 1:
        raise ValueError(f"need at least one interval, got {intervals}")
    func, start = curve.func, curve.start
    width = (curve.end - start) / intervals
    first = previous = func(start)
    for i in range(intervals - 1):
        sample = func(start + (i + 0.5) * width)
        following = func(start + (i + 1) * width)
        yield previous, sample, following
        previous = following
    sample, end = func(start + (intervals - 0.5) * width), func(start + intervals * width)
    # Relative only: a loop's ends differ by about 2.4e-16 of its radius,
    # and an absolute bound would call every open curve below it closed.
    extent = max(displacement(first, p).magnitude() for p in (sample, previous))
    if displacement(first, end).magnitude() < 1e-9 * extent:
        if intervals < 3:
            raise ValueError(f"a closed curve needs at least 3 intervals, got {intervals}")
        end = first
    yield previous, sample, end


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
    the sampled field value with the chord *vector*, in that order. A
    closed curve is cut shut at every n, so its chords telescope and a
    constant field integrates to zero up to their rounding and summation.
    """
    return sum((field(s).cross(displacement(a, b)) for a, s, b in _pieces(intervals, curve)), ZERO)


def _quadrature(intervals: int, curve: Curve, record: Callable[..., Iterable[float]]) -> tuple[array, float]:
    """A curve's pieces as one flat float array, and the reach of their samples.

    Per piece, in parameter order: ``record(sample, x, y, z, cx, cy, cz)``, the floats a kernel reads of it, given
    its midpoint sample, that sample's coordinates and its chord. Each point is one curve call, 2n + 1 per build;
    an interior chord end's coordinates are read twice, as one piece's end and the next one's start. The reach,
    three times the farthest a chord end lies from its own sample and at least 2**-340 m, covers every point
    within one chord length of a chord or a sample: no chord is longer than twice that distance.
    """
    pieces = array("d")
    extend = pieces.extend
    farthest = 0.0  # squared, from a sample to the farther end of its chord; a NaN distance never replaces it
    for start, sample, end in _pieces(intervals, curve):
        # by threes: CPython assigns up to three names without building a tuple
        x, y, z = sample.x, sample.y, sample.z
        a, b, c = start.x, start.y, start.z
        d, f, g = end.x, end.y, end.z
        extend(record(sample, x, y, z, d - a, f - b, g - c))
        ux, uy, uz = x - a, y - b, z - c
        u = ux * ux + uy * uy + uz * uz
        if u > farthest:
            farthest = u
        ux, uy, uz = x - d, y - f, z - g
        u = ux * ux + uy * uy + uz * uz
        if u > farthest:
            farthest = u
    # a bare root: the floor hides its underflow, and where it overflows every point is refused either way
    return pieces, max(3.0 * math.sqrt(farthest), _NEAREST)


def _result(x: float, y: float, z: float, constant: float, e: int, strength: float, p: tuple[float, float, float]) -> Vec3:
    """``2**e * constant * (x, y, z)``, each rounded once, or ``ZERO`` where the source's ``strength`` is 0; a
    :class:`DomainError` naming ``p`` if a component is not finite (whatever the strength), or if none is normal.
    Only B's e is ever positive: there a sum below 1 is scaled before the constant, so no product is rounded twice
    below the normal range, and a field that ``ldexp`` would carry past the float range is not finite either."""
    try:
        value = Vec3(*(math.ldexp(v, e) * constant if 0 < e and abs(v) < 1 else math.ldexp(v * constant, e) for v in (x, y, z)))
        if not all(map(math.isfinite, value)):
            raise OverflowError
    except OverflowError:
        raise DomainError(f"field is not finite at {format_row(map(float, p))}") from None
    if not strength:  # a source of no strength is 0 everywhere, +0.0 in each component
        return ZERO
    if max(map(abs, value)) < _TINY:
        raise _refused("too far from the source", p)
    return value


def _refused(where: str, p: tuple[float, float, float]) -> DomainError:
    """The :class:`DomainError` for a field point ``p`` refused as ``where``; a NaN distance passes both rules."""
    return DomainError(f"field point {where} at {format_row(map(float, p))}")


def electric_field_of_line_charge(
    density: ScalarField, curve: Curve, intervals: int = _INTERVALS
) -> VectorField:
    """Electric field (V/m) of charge distributed along a curve.

    ``density`` is the linear charge density in C/m at each source point,
    read once per quadrature sample when the field is built. The field at
    point p is COULOMB_CONSTANT times the line integral over the curve of
    density(q) d / |d|^3, where d runs from the source point q to p.
    Evaluating nearer a quadrature sample than the reach, which covers
    every point within a chord's length of the source's chords and samples
    (about 1.5 piece lengths at any scale, and at least 2**-340 m), so far
    that a cubed distance overflows (beyond about 5.6e102 m, whatever the
    strength), or where the field overflows or, for a charged source, has
    no normal component, raises :class:`DomainError` naming the point, not garbage.
    The build records ``(x, y, z, density, chord length)`` per piece, then scales every density in place by 2**-e.
    """
    pieces, reach = _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: (x, y, z, density(s), _length(cx, cy, cz)))
    # densities by 2**-e, so that over every finite cube the densest term is a normal float; in place, and a
    # block at a time, so that the build's peak holds one block, not a second column
    with memoryview(pieces)[3::5] as densities:
        strength = max(map(abs, densities))
        e = _upscale(strength)  # 0 where the densest is 4 or more, or not finite: there ldexp keeps every bit
        for i in range(0, len(densities), 1024):
            densities[i:i + 1024] = array("d", map(math.ldexp, densities[i:i + 1024], repeat(-e)))

    def field(point: Position) -> Vec3:
        px, py, pz = point.x, point.y, point.z
        sqrt, inf = math.sqrt, math.inf
        ex = ey = ez = -0.0  # -0.0 + t == t for every t: the sum starts from its first term
        terms = iter(pieces)
        for sx, sy, sz, q, w in zip(terms, terms, terms, terms, terms):
            dx, dy, dz = px - sx, py - sy, pz - sz
            # a bare root: the reach's floor keeps dist**2 normal, and a cube that overflows is too far
            dist = sqrt(dx * dx + dy * dy + dz * dz)
            if dist < reach:
                raise _refused("on source", (px, py, pz))
            cube = dist * dist * dist
            if cube == inf:
                raise _refused("too far from the source", (px, py, pz))
            s = q / cube
            ex += dx * s * w
            ey += dy * s * w
            ez += dz * s * w
        return _result(ex, ey, ez, COULOMB_CONSTANT, e, strength, (px, py, pz))

    return field


def magnetic_field_of_line_current(
    current: float, curve: Curve, intervals: int = _INTERVALS
) -> VectorField:
    """Magnetic field (tesla) of a current flowing along a curve.

    Biot-Savart: the field at p is BIOT_SAVART_CONSTANT * current times the integral of dl x d / |d|^3 with d from
    source to p, each term computed in that order. The build scales the current into [4, 8) by an exact power of two,
    down as well as up, and each evaluation scales its sum back once, so the field is exactly linear in the current.
    Evaluating nearer a sample than the reach, so far that a cubed distance overflows (beyond about 5.6e102 m, whatever
    the strength), or where the field itself overflows or, for a current that is not 0, has no normal component,
    raises :class:`DomainError` naming the point.
    """
    pieces, reach = _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: (x, y, z, cx, cy, cz))
    e = math.frexp(current)[1] - 3  # the current into [4, 8) by 2**-e, up or down: it has no weaker company to lose
    current = math.ldexp(current, -e)

    def field(point: Position) -> Vec3:
        px, py, pz = point.x, point.y, point.z
        sqrt, inf = math.sqrt, math.inf
        bx = by = bz = 0.0
        terms = iter(pieces)
        for sx, sy, sz, cx, cy, cz in zip(terms, terms, terms, terms, terms, terms):
            dx, dy, dz = px - sx, py - sy, pz - sz
            # a bare root: the reach's floor keeps dist**2 normal, and a cube that overflows is too far
            dist = sqrt(dx * dx + dy * dy + dz * dz)
            if dist < reach:
                raise _refused("on source", (px, py, pz))
            cube = dist * dist * dist
            if cube == inf:
                raise _refused("too far from the source", (px, py, pz))
            s = current / cube
            dx, dy, dz = dx * s, dy * s, dz * s
            bx += cy * dz - cz * dy
            by += cz * dx - cx * dz
            bz += cx * dy - cy * dx
        return _result(bx, by, bz, BIOT_SAVART_CONSTANT, e, current, (px, py, pz))

    return field
