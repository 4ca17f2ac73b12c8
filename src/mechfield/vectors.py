"""Cartesian 3-vectors and points in space.

``Vec3`` carries the full vector algebra and is used for displacement,
velocity, acceleration, force, and field values alike; SI units are a
documentation convention, not part of the type. ``Position`` is a point
in space and deliberately not a vector: adding two points is meaningless,
so ``Position`` supports only differencing (which yields a ``Vec3``) and
shifting by one. The origin is an arbitrary fixed reference; all physics
in this package depends only on displacements between points.

Both are plain records, ``Vec3`` a ``NamedTuple`` and ``Position`` a
hand-written class with three slots: a record decorator would load
``inspect`` and ``ast`` into every run, and a short run is mostly start-up.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, NamedTuple

__all__ = [
    "Vec3",
    "Position",
    "ZERO",
    "X_HAT",
    "Y_HAT",
    "Z_HAT",
    "displacement",
    "format_row",
]


class Vec3(NamedTuple):
    """Immutable 3D vector with componentwise algebra.

    Scalar multiplication works from both sides, ``/`` divides by a
    scalar, and ``dot``/``cross``/``magnitude`` round out the algebra.
    Tuple concatenation and repetition are overridden by the vector
    operators, which is the point.
    """

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":  # type: ignore[override]
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: float) -> "Vec3":  # type: ignore[override]
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__  # type: ignore[assignment]

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Right-handed cross product."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def magnitude(self) -> float:
        """Euclidean length, sqrt(v . v), which neither underflows to 0 below 1.5e-154 nor overflows above 1.3e154."""
        return _length(self.x, self.y, self.z)


_TINY = sys.float_info.min  # the smallest normal float


def _length(x: float, y: float, z: float) -> float:
    """|(x, y, z)|: the root of its squares where they sum to a normal float, else ``math.hypot``, which scales."""
    squared = x * x + y * y + z * z
    return math.sqrt(squared) if _TINY <= squared < math.inf else math.hypot(x, y, z)


def _upscale(*factors: float) -> int:
    """e <= 0 with |product of factors| * 2**-e >= 4, a normal float over any finite cube; 0 for one factor from 4 up,
    or for any factor that is not finite: scaled, its finite company could overflow, and what it feeds is refused."""
    if not all(map(math.isfinite, factors)):
        return 0
    return min(sum(math.frexp(f)[1] for f in factors) - len(factors) - 2, 0)  # exponents: the product can underflow


ZERO = Vec3(0.0, 0.0, 0.0)
X_HAT = Vec3(1.0, 0.0, 0.0)
Y_HAT = Vec3(0.0, 1.0, 0.0)
Z_HAT = Vec3(0.0, 0.0, 1.0)


class Position:
    """A point in space, in meters, relative to a fixed Cartesian origin.

    Not a vector: there is intentionally no addition of two positions
    anywhere in this API. Difference two points with :func:`displacement`
    or translate one with :meth:`shifted`. An immutable record of three
    slots: assigning or deleting any attribute raises the standard
    ``FrozenInstanceError``, and a position equals only another position
    with the same coordinates, never a ``Vec3`` or a tuple.
    """

    __slots__ = ("x", "y", "z")
    __match_args__ = ("x", "y", "z")

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float) -> None:
        # Stores through the slot descriptors: 0.6x the cost of object.__setattr__ calls.
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen("assign to", name)

    def __delattr__(self, name: str) -> None:
        raise _frozen("delete", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y, self.z) == (other.x, other.y, other.z)

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Position(x={self.x!r}, y={self.y!r}, z={self.z!r})"

    def __reduce__(self) -> tuple[type, tuple[float, float, float]]:
        return Position, (self.x, self.y, self.z)

    def shifted(self, d: Vec3) -> "Position":
        """The point reached by translating this one through ``d``."""
        return Position(self.x + d.x, self.y + d.y, self.z + d.z)


def _frozen(action: str, name: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # here only: at module level it loads inspect and ast into every run

    return FrozenInstanceError(f"cannot {action} field {name!r}")


_set_x, _set_y, _set_z = Position.x.__set__, Position.y.__set__, Position.z.__set__


def displacement(start: Position, end: Position) -> Vec3:
    """Vector pointing from ``start`` to ``end``.

    ``start.shifted(displacement(start, end))`` recovers ``end``.
    """
    return Vec3(end.x - start.x, end.y - start.y, end.z - start.z)


def format_row(values: Iterable[float]) -> str:
    """The values joined by commas, each the shortest decimal that parses back to the same double.

    Integral values drop the trailing ``.0``, in one pass over the joined
    text, so CSV output reads ``0,1,0`` rather than ``0.0,1.0,0.0``.
    Floats only: the repr of an int or a numpy scalar differs.
    """
    return (",".join(map(repr, values)) + ",").replace(".0,", ",")[:-1]

