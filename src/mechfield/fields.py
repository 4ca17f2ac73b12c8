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
One loop, ``_quadrature``, makes that cut for all four: it hands each
piece to a record and the record's result to a store, a list of terms or
a field's float array, and refuses a point that is not a real number with
one ``TypeError``. A field builder cuts its curve once, when the field is
built, and keeps per piece only what its kernel reads: E the sample, its
density and its chord's length, B the sample and its chord. A point within
the reach, about a piece and a half of a sample at any scale, is on the source.
"""

from __future__ import annotations

import math
import operator
from array import array
from functools import reduce
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, TypeVar

from .errors import DomainError
from .vectors import _TINY, Position, Vec3, ZERO, _length, _upscale, format_row

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
T = TypeVar("T")


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


def line_integral(intervals: int, field: Callable[[Position], V], curve: Curve) -> V:
    """Integrate a scalar or vector field along a curve.

    Midpoint samples weighted by chord lengths; see the module docstring. Its n
    terms are kept in a list, as a built field keeps its n records, and summed
    from the first. A constant field integrates to (constant) * (polyline arc length).
    """
    terms: list[V] = []
    _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: field(s) * _length(cx, cy, cz), terms.append)
    return reduce(operator.add, terms)


def crossed_line_integral(intervals: int, field: VectorField, curve: Curve) -> Vec3:
    """Integrate field x dl along a curve.

    Same midpoint scheme as :func:`line_integral`, but each term crosses
    the sampled field value with the chord *vector*, in that order, and sums
    its list of n terms from ``ZERO``. A closed curve is cut shut at every n,
    so its chords telescope and a constant field integrates to zero up to
    their rounding and summation.
    """
    terms: list[Vec3] = []
    _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: field(s).cross(Vec3(cx, cy, cz)), terms.append)
    return sum(terms, ZERO)


def _quadrature(intervals: int, curve: Curve, record: Callable[..., T], store: Callable[[T], object]) -> float:
    """The one sampling loop: cut a curve into n equal parameter pieces, ``store`` each one's ``record``, return the reach.

    It calls ``curve.func`` 2n + 1 times, in parameter order: at the start, then at each piece's midpoint and end, and
    reads each point's coordinates once. Per piece, ``store(record(sample, x, y, z, cx, cy, cz))`` gets the midpoint
    sample, its coordinates and the chord from the piece's start to its end. A closed curve, whose end comes back to its
    start, is cut shut at every n: its last chord ends at its first point itself, and in fewer than 3 pieces, which
    enclose no area, it raises ``ValueError``. The reach, three times the farthest a chord end lies from its own sample
    and at least 2**-340 m, covers every point within one chord length of a chord or a sample: no chord is longer than
    twice that. One boundary covers the closure test, the record and the reach compare: a curve point, or a number a
    record packs, that is not a real number within the float range raises the one ``TypeError`` below. Any other
    ``TypeError``, such as one raised inside a user's density or integrand, passes unchanged.
    """
    from struct import Struct, error  # here, not at the top: without site, a run that builds no field does not load it

    if intervals < 1:
        raise ValueError(f"need at least one interval, got {intervals}")
    func, start = curve.func, curve.start
    width = (curve.end - start) / intervals
    first = func(start)
    p, q, r = d, f, g = first.x, first.y, first.z  # the first point, and the first chord's start
    last = intervals - 1
    farthest = 0.0  # squared, from a sample to the farther end of its chord; a NaN distance never replaces it
    try:  # a struct.error anywhere in the loop is the one TypeError below
        for i in range(intervals):
            sample, end = func(start + (i + 0.5) * width), func(start + (i + 1) * width)
            # by threes: CPython assigns up to three names without building a tuple
            x, y, z = sample.x, sample.y, sample.z
            a, b, c = d, f, g
            d, f, g = end.x, end.y, end.z
            try:  # from CPython 3.11 a try costs nothing until something is raised
                if i == last:  # the closure test, once. Relative only: a loop's ends differ by about 2.4e-16
                    # of its radius, and an absolute bound would call every open curve below it closed.
                    extent = max(_length(x - p, y - q, z - r), _length(a - p, b - q, c - r))
                    if _length(d - p, f - q, g - r) < 1e-9 * extent:
                        if intervals < 3:
                            raise ValueError(f"a closed curve needs at least 3 intervals, got {intervals}")
                        d, f, g = p, q, r
                store(record(sample, x, y, z, d - a, f - b, g - c))
                ux, uy, uz = x - a, y - b, z - c
                u = ux * ux + uy * uy + uz * uz
                if u > farthest:
                    farthest = u
                ux, uy, uz = x - d, y - f, z - g
                u = ux * ux + uy * uy + uz * uz
                if u > farthest:
                    farthest = u
            except TypeError:  # a length or a compare of complex numbers refuses them before any pack does
                Struct("6d").pack(x, y, z, d - a, f - b, g - c)  # points that will not pack raise error: the curve's fault
                raise  # else the record's own, such as a TypeError raised inside a user's density
    except error:  # struct.error is no TypeError, which is what a number that is not real raises elsewhere
        raise TypeError("curve points and densities must be real numbers within the float range") from None
    # a bare root: the floor hides its underflow, and where it overflows every point is refused either way
    return max(3.0 * math.sqrt(farthest), _NEAREST)


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
    Its build record packs ``(x, y, z, density(s), chord length)`` as ``"5d"``, one ``frombytes`` each, then each density
    is scaled in place by 2**-e; a point or density that will not pack raises :func:`_quadrature`'s ``TypeError``.
    """
    from struct import Struct  # here, not at the top: without site, a run that builds no field does not load it
    pack, pieces = Struct("5d").pack, array("d")
    reach = _quadrature(
        intervals, curve, lambda s, x, y, z, cx, cy, cz: pack(x, y, z, density(s), _length(cx, cy, cz)), pieces.frombytes)
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
    raises :class:`DomainError` naming the point. Its build record packs ``(x, y, z, cx, cy, cz)`` as ``"6d"``, stored by
    one ``frombytes`` each; a curve point that will not pack raises :func:`_quadrature`'s ``TypeError``.
    """
    from struct import Struct  # here, not at the top: without site, a run that builds no field does not load it
    pack, pieces = Struct("6d").pack, array("d")
    reach = _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: pack(x, y, z, cx, cy, cz), pieces.frombytes)
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
