"""Curve, quadrature, and field-builder tests."""

import functools
import gc
import math
import random
import sys
import tracemalloc
from array import array
from struct import Struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechfield.errors import DomainError
from mechfield.fields import (
    BIOT_SAVART_CONSTANT,
    COULOMB_CONSTANT,
    Curve,
    _quadrature,
    circular_loop,
    crossed_line_integral,
    electric_field_of_line_charge,
    line_integral,
    line_segment,
    magnetic_field_of_line_current,
)
from mechfield.vectors import Position, Vec3, X_HAT, Z_HAT, ZERO, displacement, format_row

MU_0 = 4.0 * math.pi * 1e-7


def loop_field_on_axis(radius: float, current: float, z: float) -> float:
    """Analytic on-axis field of a circular loop (the one closed form there is)."""
    return MU_0 * current * radius**2 / (2.0 * (radius**2 + z**2) ** 1.5)


def finite_line_field(lam: float, length: float, d: float) -> float:
    """Analytic field on the perpendicular bisector of a finite line charge."""
    return COULOMB_CONSTANT * lam * length / (d * math.sqrt(d * d + length * length / 4.0))


def plain_cut(intervals, curve):
    """A curve's n + 1 chord ends and n midpoint samples, each its own curve call, with no closure rule: an oracle."""
    width = (curve.end - curve.start) / intervals
    ends = [curve.func(curve.start + i * width) for i in range(intervals + 1)]
    samples = [curve.func(curve.start + (i + 0.5) * width) for i in range(intervals)]
    return ends, samples


def plain_chords(ends):
    """The chords between consecutive ends, as coordinate tuples."""
    return [(b.x - a.x, b.y - a.y, b.z - a.z) for a, b in zip(ends, ends[1:])]


def quadrature_chords(intervals, curve):
    """The chords ``_quadrature`` hands its records, as coordinate tuples in parameter order."""
    chords = []
    _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: (cx, cy, cz), chords.append)
    return chords


# Every consumer of a curve's cut, given the curve and its intervals: both field builds and both line integrals.
CONSUMERS = {
    "e-line": lambda curve, n: electric_field_of_line_charge(lambda p: 1.0, curve, n),
    "b-loop": lambda curve, n: magnetic_field_of_line_current(1.0, curve, n),
    "line-integral": lambda curve, n: line_integral(n, lambda p: 1.0, curve),
    "crossed-line-integral": lambda curve, n: crossed_line_integral(n, lambda p: X_HAT, curve),
}


def counted(curve):
    """A copy of ``curve`` whose func also records each parameter it is called at, and that list."""
    calls = []

    def func(t):
        calls.append(t)
        return curve.func(t)

    return curve._replace(func=func), calls


class TestCurves:
    def test_curve_requires_increasing_parameters(self):
        with pytest.raises(ValueError):
            Curve(lambda t: Position(t, 0, 0), 1.0, 1.0)

    @pytest.mark.parametrize(("start", "end"), [(2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_curve_refuses_decreasing_or_nan_bounds(self, start, end):
        with pytest.raises(ValueError, match="start < end"):
            Curve(lambda t: Position(t, 0, 0), start, end)

    @pytest.mark.parametrize("bounds", [{"start": 0.5}, {"end": math.nan}])
    def test_changed_copy_of_a_curve_is_checked(self, bounds):
        with pytest.raises(ValueError, match="start < end"):
            line_segment(1.0)._replace(**bounds)
        assert line_segment(1.0)._replace(end=2.0)[1:] == (-0.5, 2.0)

    @pytest.mark.parametrize("name", ["func", "start", "end"])
    def test_curve_field_cannot_be_assigned(self, name):
        curve = line_segment(1.0)
        with pytest.raises(AttributeError):
            setattr(curve, name, 0.0)
        assert (curve.start, curve.end) == (-0.5, 0.5)

    def test_circular_loop_start(self):
        p = circular_loop(2.0).func(0.0)
        assert (p.x, p.y, p.z) == (2.0, 0.0, 0.0)

    def test_circular_loop_quarter_turn(self):
        p = circular_loop(2.0).func(math.pi / 2)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(2.0, rel=1e-15)

    def test_circular_loop_closes(self):
        c = circular_loop(1.0)
        start, end = c.func(c.start), c.func(c.end)
        assert abs(start.x - end.x) <= 1e-12
        assert abs(start.y - end.y) <= 1e-12
        assert abs(start.z - end.z) <= 1e-12

    def test_circular_loop_rejects_bad_radius(self):
        with pytest.raises(ValueError) as raised:
            circular_loop(0.0)
        assert not isinstance(raised.value, DomainError)  # a usage error, exit 2

    def test_line_segment_endpoints(self):
        c = line_segment(1.0)
        assert c.func(-0.5) == Position(0.0, 0.0, -0.5)
        assert c.func(0.0) == Position(0.0, 0.0, 0.0)
        assert (c.start, c.end) == (-0.5, 0.5)

    def test_line_segment_rejects_bad_length(self):
        with pytest.raises(ValueError) as raised:
            line_segment(-1.0)
        assert not isinstance(raised.value, DomainError)  # a usage error, exit 2


class TestLineIntegral:
    def test_constant_field_gives_arc_length(self):
        for n in (1, 7, 100):
            assert line_integral(n, lambda p: 1.0, line_segment(2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_chord_too_short_to_square_keeps_its_length(self):
        # a 1e-170 m chord's square underflows to 0; its length is still 1e-170 m, not 0
        assert line_integral(1, lambda p: 1.0, line_segment(1e-170)) == pytest.approx(1e-170, rel=1e-15, abs=0)

    def test_segment_length_at_every_scale(self):
        # a chord's square underflows below about 1.5e-154 m and overflows above about 1.3e154 m
        for k in range(-1000, 1001):
            assert line_integral(10, lambda p: 1.0, line_segment(2.0**k)) == pytest.approx(2.0**k, rel=1e-12, abs=0), k

    def test_loop_too_large_to_square_is_its_polygon_perimeter(self):
        n, radius = 1000, 1e200
        perimeter = 2.0 * n * radius * math.sin(math.pi / n)
        assert line_integral(n, lambda p: 1.0, circular_loop(radius)) == pytest.approx(perimeter, rel=1e-12, abs=0)

    def test_circumference_from_chords(self):
        total = line_integral(1000, lambda p: 1.0, circular_loop(1.0))
        assert total == pytest.approx(2.0 * math.pi, rel=1e-4)
        assert total < 2.0 * math.pi  # chord sum slightly underestimates

    def test_odd_integrand_cancels(self):
        assert abs(line_integral(100, lambda p: p.z, line_segment(2.0))) <= 1e-15

    def test_vector_valued_integrand(self):
        out = line_integral(10, lambda p: Vec3(1.0, 2.0, 0.0), line_segment(2.0))
        assert (out - Vec3(2.0, 4.0, 0.0)).magnitude() <= 1e-12

    def test_rejects_zero_intervals(self):
        with pytest.raises(ValueError):
            line_integral(0, lambda p: 1.0, line_segment(1.0))


class TestClosedCurves:
    @pytest.mark.parametrize("radius", [1e-300, 0.7, 1e6])
    @pytest.mark.parametrize("intervals", [1, 2])
    def test_loop_in_fewer_than_three_pieces_is_refused(self, radius, intervals):
        for consume in CONSUMERS.values():
            with pytest.raises(ValueError, match="closed curve needs at least 3 intervals"):
                consume(circular_loop(radius), intervals)

    def test_open_curves_take_any_number_of_pieces(self):
        almost_loop = Curve(circular_loop(1.0).func, 0.0, 2.0 * math.pi - 1e-6)
        for curve in (line_segment(1.0), line_segment(1e-300), almost_loop):
            for intervals in (1, 2):
                line_integral(intervals, lambda p: 1.0, curve)  # not refused

    @pytest.mark.parametrize("radius", [1.0, 1e-7, 3.7e5])
    def test_loop_is_cut_shut_and_its_chords_telescope(self, radius):
        loop = circular_loop(radius)
        for intervals in [*range(3, 65), 100, 1000, 4999]:
            ends, _ = plain_cut(intervals, loop)
            ends[-1] = ends[0]  # the last chord ends at the first point itself, not where func puts the end
            chords = quadrature_chords(intervals, loop)
            assert repr(chords) == repr(plain_chords(ends)), intervals  # bit for bit, -0.0 too
            # the exact differences of a shut polygon's vertices sum to 0, and each rounds by at most 2**-53 of itself
            sums = [math.fsum(c[i] for c in chords) for i in range(3)]
            assert max(map(abs, sums)) <= 2.0**-53 * math.fsum(math.hypot(*c) for c in chords), intervals
            if intervals in (100, 1000):
                assert sums == [0.0, 0.0, 0.0]

    def test_open_curves_end_where_their_function_puts_them(self):
        almost_loop = Curve(circular_loop(1.0).func, 0.0, 2.0 * math.pi - 1e-6)
        for curve in (line_segment(1.0), almost_loop):
            for intervals in (1, 2, 3, 1000):
                ends, _ = plain_cut(intervals, curve)  # the last end at func(start + n * width)
                assert repr(quadrature_chords(intervals, curve)) == repr(plain_chords(ends)), intervals


class TestCrossedLineIntegral:
    def test_constant_field_over_closed_curve_vanishes(self):
        out = crossed_line_integral(100, lambda p: Vec3(1.0, -2.0, 3.0), circular_loop(1.0))
        assert out.magnitude() <= 1e-12  # chords telescope

    def test_field_parallel_to_curve_vanishes(self):
        assert crossed_line_integral(10, lambda p: Z_HAT, line_segment(1.0)) == ZERO

    def test_cross_product_ordering(self):
        # x_hat crossed with chords along +z sums to -y_hat
        out = crossed_line_integral(10, lambda p: X_HAT, line_segment(1.0))
        assert (out - Vec3(0.0, -1.0, 0.0)).magnitude() <= 1e-12

    def test_rejects_zero_intervals(self):
        with pytest.raises(ValueError):
            crossed_line_integral(0, lambda p: ZERO, line_segment(1.0))


class TestElectricField:
    def test_finite_line_oracle_on_bisector(self):
        lam, length = 1e-9, 1.0
        field = electric_field_of_line_charge(lambda p: lam, line_segment(length))
        for d in (0.5, 1.0, 2.0):
            e = field(Position(d, 0.0, 0.0))
            assert e.x == pytest.approx(finite_line_field(lam, length, d), rel=1e-3)
            assert e.y == 0.0
            assert abs(e.z) <= 1e-12 * e.x  # transverse part cancels by symmetry

    def test_zero_density_means_zero_field(self):
        field = electric_field_of_line_charge(lambda p: 0.0, line_segment(1.0))
        assert field(Position(1.0, 0.0, 0.0)) == ZERO

    def test_point_charge_limit(self):
        lam, length = 1e-9, 1e-3
        field = electric_field_of_line_charge(lambda p: lam, line_segment(length))
        magnitude = field(Position(1.0, 0.0, 0.0)).magnitude()
        assert magnitude == pytest.approx(COULOMB_CONSTANT * lam * length, rel=1e-4)

    def test_superposition_of_densities(self):
        curve = line_segment(1.0)
        lam1 = lambda p: 1e-9 * (1.0 + p.z)
        lam2 = lambda p: 2e-9 * p.z * p.z
        combined = electric_field_of_line_charge(lambda p: lam1(p) + lam2(p), curve)
        separate1 = electric_field_of_line_charge(lam1, curve)
        separate2 = electric_field_of_line_charge(lam2, curve)
        at = Position(0.7, -0.3, 0.4)
        lhs = combined(at)
        rhs = separate1(at) + separate2(at)
        assert (lhs - rhs).magnitude() <= 1e-10 * rhs.magnitude()

    def test_translation_covariance(self):
        offset = Vec3(3.0, -2.0, 1.5)
        base = line_segment(1.0)
        moved = Curve(lambda t: base.func(t).shifted(offset), base.start, base.end)
        lam = lambda p: 1e-9
        at = Position(1.0, 0.5, -0.2)
        e_base = electric_field_of_line_charge(lam, base)(at)
        e_moved = electric_field_of_line_charge(lam, moved)(at.shifted(offset))
        assert (e_base - e_moved).magnitude() <= 1e-10 * e_base.magnitude()

    def test_on_source_evaluation_is_an_error(self):
        curve = line_segment(1.0)
        intervals = 10
        width = (curve.end - curve.start) / intervals
        on_curve = curve.func(curve.start + 2.5 * width)  # an exact quadrature sample
        field = electric_field_of_line_charge(lambda p: 1e-9, curve, intervals)
        between_samples = Position(0.0, 0.0, 0.01)
        endpoint = Position(0.0, 0.0, 0.5)
        for point in (on_curve, between_samples, endpoint):
            with pytest.raises(DomainError, match="field point on source"):
                field(point)

    def test_on_source_evaluation_names_the_point(self):
        field = electric_field_of_line_charge(lambda p: 1e-9, line_segment(1.0), 10)
        with pytest.raises(DomainError, match="^field point on source at 0,0,0.5$"):
            field(Position(0.0, 0.0, 0.5))

    def test_overflowing_evaluation_is_an_error_naming_the_point(self):
        # 1e308 C/m at 1 cm, ten pieces out, overflows the kernel: inf and nan, not a field value
        field = electric_field_of_line_charge(lambda p: 1e308, line_segment(1.0))
        with pytest.raises(DomainError, match="^field is not finite at 0.01,0,0$"):
            field(Position(0.01, 0.0, 0.0))
        # finite in the sum, overflowing only in the scaling by the constant
        field = electric_field_of_line_charge(lambda p: 1e300, line_segment(1.0), 2)
        with pytest.raises(DomainError, match="^field is not finite at 0,0,2$"):
            field(Position(0.0, 0.0, 2.0))

    def test_errors_name_a_point_of_int_coordinates_as_floats(self):
        field = electric_field_of_line_charge(lambda p: 1e300, line_segment(1.0), 2)
        with pytest.raises(DomainError, match="^field point on source at 0,0,0$"):
            field(Position(0, 0, 0))
        with pytest.raises(DomainError, match="^field is not finite at 0,0,-2$"):
            field(Position(0, 0, -2))


class TestMagneticField:
    def test_on_axis_oracle(self):
        field = magnetic_field_of_line_current(1.0, circular_loop(1.0))
        for z in (0.0, 0.5, 1.0, 2.0):
            b = field(Position(0.0, 0.0, z))
            assert b.z == pytest.approx(loop_field_on_axis(1.0, 1.0, z), rel=1e-3)
            assert abs(b.x) <= 1e-12 * b.z
            assert abs(b.y) <= 1e-12 * b.z

    def test_center_value(self):
        b = magnetic_field_of_line_current(1.0, circular_loop(1.0))(Position(0, 0, 0))
        assert b.z == pytest.approx(6.28319e-7, rel=1e-4)  # mu0 I / 2R

    def test_zero_current_means_zero_field(self):
        field = magnetic_field_of_line_current(0.0, circular_loop(1.0))
        assert field(Position(0.0, 0.0, 1.0)) == ZERO

    def test_linear_in_current(self):
        loop = circular_loop(1.0)
        at = Position(0.3, -0.1, 0.8)
        b1 = magnetic_field_of_line_current(1.0, loop)(at)
        b2 = magnetic_field_of_line_current(2.0, loop)(at)
        assert (b2 - b1 * 2.0).magnitude() <= 1e-12 * b2.magnitude()

    def test_right_hand_rule_direction(self):
        # counterclockwise current seen from +z points the axial field along +z
        b = magnetic_field_of_line_current(1.0, circular_loop(1.0))(Position(0, 0, 0.5))
        assert b.z > 0

    def test_quadrature_error_drops_fourfold(self):
        center = Position(0.0, 0.0, 0.0)
        loop = circular_loop(1.0)
        values = {
            n: magnetic_field_of_line_current(1.0, loop, n)(center).z
            for n in (250, 500, 1000, 2000)
        }
        first = abs(values[250] - values[500]) / abs(values[500] - values[1000])
        second = abs(values[500] - values[1000]) / abs(values[1000] - values[2000])
        assert 3.0 <= first <= 5.0
        assert 3.0 <= second <= 5.0

    def test_on_source_evaluation_is_an_error(self):
        loop = circular_loop(1.0)
        sample = loop.func(loop.start + 0.5 * (loop.end - loop.start) / 4)
        field = magnetic_field_of_line_current(1.0, loop, 4)
        vertex = loop.func(loop.start)
        on_chord = Position(0.5, 0.5, 0.0)  # halfway from vertex (1, 0, 0) to vertex (0, 1, 0)
        for point in (sample, vertex, on_chord):
            with pytest.raises(DomainError, match="field point on source"):
                field(point)

    def test_on_source_evaluation_names_the_point(self):
        field = magnetic_field_of_line_current(1.0, circular_loop(1.0), 4)
        with pytest.raises(DomainError, match="^field point on source at 0.5,0.5,-0$"):
            field(Position(0.5, 0.5, -0.0))

    def test_overflowing_evaluation_is_an_error_naming_the_point(self):
        # 1e308 A at the center of a 1e-7 m loop: mu0 I / 2R is about 6.3e308 T, past the float range
        field = magnetic_field_of_line_current(1e308, circular_loop(1e-7))
        with pytest.raises(DomainError, match="^field is not finite at 0,0,0$"):
            field(Position(0.0, 0.0, 0.0))

    def test_not_a_number_point_ends_as_a_field_that_is_not_finite(self):
        for field in (magnetic_field_of_line_current(1.0, circular_loop(1.0)),
                      electric_field_of_line_charge(lambda p: 1e-9, line_segment(1.0))):
            with pytest.raises(DomainError, match="^field is not finite at nan,0,0$"):
                field(Position(math.nan, 0.0, 0.0))

    def test_curved_source_is_its_quadrature_polyline(self):
        # with 4 intervals the source is a square plus the 4 midpoint samples, and its reach,
        # three sample-to-vertex distances (2.296 m), covers the circle between them
        loop = circular_loop(1.0)
        field = magnetic_field_of_line_current(1.0, loop, 4)
        for point in (loop.func(0.1), Position(0.5, 0.5, 1e-9)):
            with pytest.raises(DomainError, match="field point on source"):
                field(point)
        assert field(Position(0.0, 0.0, 2.5)).z > 0.0  # 2.69 m from every sample: an ordinary field point


# --- physics laws, through the public integrators --------------------------------


def circle_round(wire: Position, along: Vec3, across: Vec3, radius: float, tilt: float, offset: float, phase: float):
    """A circle of ``radius`` that links once a wire passing through ``wire`` along the unit vector
    ``along``, with the right hand about ``along``, and the circle's unit tangent at each of its points.

    ``across`` is a unit vector normal to ``along``. The circle's centre lies ``offset`` from ``wire``
    along ``across``, and its axis is ``along`` tilted by ``tilt`` toward ``along x across``. So each
    of its points lies at least ``radius * cos(tilt) - offset`` from the wire's tangent line.
    """
    axis = along * math.cos(tilt) + along.cross(across) * math.sin(tilt)
    up = axis.cross(across)
    centre = wire.shifted(across * offset)

    def func(t: float) -> Position:
        return centre.shifted(across * (radius * math.cos(t)) + up * (radius * math.sin(t)))

    return Curve(func, phase, phase + 2.0 * math.pi), lambda p: axis.cross(displacement(centre, p)) / radius


def circulation(field, path_intervals: int, path) -> float:
    """The line integral of ``field`` round ``path``: the field dotted with the path's unit tangent, per chord length."""
    curve, tangent = path
    return line_integral(path_intervals, lambda p: field(p).dot(tangent(p)), curve)


# Ampère's law for B and zero circulation for E, each through ``line_integral``.
#
# A circle's chord is sin(x)/x of its arc, x = pi/n, and it is parallel to the tangent at its midpoint
# sample. So over a circle both rules are the periodic midpoint rule, whose error is exponentially
# small for a smooth integrand, times sin(x)/x, about 1 - x**2/6 = 1 - (2 pi/n)**2/24. The paths keep every
# point at least half their radius, and at least three pieces of the source, from the wire. The
# bounds are twice the leading terms, for what they leave out.
@settings(max_examples=12)
@given(radius=st.sampled_from([1e-7, 1.0, 3.7e5]), current=st.floats(0.1, 10.0), sign=st.sampled_from([1.0, -1.0]),
       intervals=st.integers(160, 640), path_intervals=st.integers(64, 128), size=st.floats(0.0, 1.0),
       angle=st.floats(0.0, 2.0 * math.pi), tilt=st.floats(0.0, math.pi / 4), offset=st.floats(0.0, 0.2),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_amperes_law_round_a_loop(radius, current, sign, intervals, path_intervals, size, angle, tilt,
                                  offset, phase):
    current *= sign
    loop = circular_loop(radius)
    field = magnetic_field_of_line_current(current, loop, intervals)
    shortest = 12.0 * math.pi / intervals  # half of it is three pieces' length
    rho = radius * (shortest + size * (0.25 - shortest))
    along, across = Vec3(-math.sin(angle), math.cos(angle), 0.0), Vec3(math.cos(angle), math.sin(angle), 0.0)
    path = circle_round(loop.func(angle), along, across, rho, tilt, offset * rho, phase)
    mu0_i = 4.0 * math.pi * BIOT_SAVART_CONSTANT * current
    bound = ((2.0 * math.pi / intervals) ** 2 + (2.0 * math.pi / path_intervals) ** 2) / 12.0
    assert abs(circulation(field, path_intervals, path) - mu0_i) <= bound * abs(mu0_i)


@settings(max_examples=12)
@given(length=st.sampled_from([1e-7, 1.0, 3.7e5]), density=st.floats(1e-10, 1e-8), slope=st.floats(-0.9, 0.9),
       intervals=st.integers(200, 400), path_intervals=st.integers(160, 256), size=st.floats(0.0, 1.0),
       height=st.floats(-0.4, 0.4), angle=st.floats(0.0, 2.0 * math.pi), tilt=st.floats(0.0, math.pi / 4),
       offset=st.floats(0.0, 0.2), phase=st.floats(0.0, 2.0 * math.pi))
def test_electric_circulation_round_a_segment_is_zero(length, density, slope, intervals, path_intervals,
                                                      size, height, angle, tilt, offset, phase):
    # E of point-like pieces is a gradient, so only rounding is left: each of the n + m sums and the few
    # products of each term round once, and no term is larger than k max|density| L / (radius / 2)**2
    field = electric_field_of_line_charge(lambda p: density * (1.0 + slope * p.z / length), line_segment(length),
                                          intervals)
    rho = length * (0.1 + 0.2 * size)
    across = Vec3(math.cos(angle), math.sin(angle), 0.0)
    path = circle_round(Position(0.0, 0.0, height * length), Z_HAT, across, rho, tilt, offset * rho, phase)
    largest = COULOMB_CONSTANT * density * (1.0 + abs(slope) / 2.0) * length / (rho / 2.0) ** 2
    bound = (intervals + path_intervals + 32) * 2.0**-53 * largest * 2.0 * math.pi * rho
    assert abs(circulation(field, path_intervals, path)) <= bound


class TestFarPoints:
    """A point is refused where a cubed distance overflows (beyond about 5.6e102 m), whatever the strength.

    A term there would be a silent 0. Nearer, each source's strength is scaled by a power of two so
    that its strongest term is a normal float, and the field is scaled back once: a far point is
    refused only where that field has no normal component, though its source has strength.
    """

    def test_electric_field_refuses_a_point_too_far_and_evaluates_one_nearer(self):
        field = electric_field_of_line_charge(lambda p: 1e-9, line_segment(1.0))
        with pytest.raises(DomainError, match=r"^field point too far from the source at 1e\+103,0,0$"):
            field(Position(1e103, 0.0, 0.0))
        # 1 nC seen from 1e99 m and from 3e102 m away: a point charge, though from 3e102 m each
        # unscaled term, about 4e-317, would be a subnormal that has lost digits
        for distance in (1e99, 3e102):
            e = field(Position(distance, 0.0, 0.0)).x
            assert e == pytest.approx(COULOMB_CONSTANT * 1e-9 / distance**2, rel=1e-9, abs=0)

    def test_magnetic_field_refuses_a_point_too_far_and_evaluates_one_nearer(self):
        field = magnetic_field_of_line_current(1.0, circular_loop(1.0))
        with pytest.raises(DomainError, match=r"^field point too far from the source at 0,0,1e\+103$"):
            field(Position(0.0, 0.0, 1e103))
        assert field(Position(0.0, 0.0, 1e100)).z == pytest.approx(loop_field_on_axis(1.0, 1.0, 1e100), rel=1e-3, abs=0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: far from a closed loop, B's x and y are the round-off of "
                       "its chords' sum; at 1e16 radii x is about 0.2 of |B| and y about 0.9")
    def test_magnetic_field_far_on_the_axis_of_a_loop_is_along_the_axis(self):
        b = magnetic_field_of_line_current(1.0, circular_loop(1.0))(Position(0.0, 0.0, 1e16))
        assert max(abs(b.x), abs(b.y)) < 1e-9 * b.magnitude()

    def test_a_steep_density_is_evaluated_near_the_source(self):
        # samples out at |z| = 0.27 m have subnormal densities; their terms are negligible, not "too far"
        field = electric_field_of_line_charge(lambda p: math.exp(-(p.z / 0.01) ** 2), line_segment(1.0))
        charge = 0.01 * math.sqrt(math.pi)  # seen from 1 m: a point charge, less 1.5 <z^2> = 7.5e-5 of it
        assert field(Position(1.0, 0.0, 0.0)).x == pytest.approx(COULOMB_CONSTANT * charge * (1 - 7.5e-5), rel=1e-7)

    def test_a_point_whose_cubed_distances_stay_finite_is_evaluated(self):
        # mu0 I / 2R at the center of a 1e102 m loop (its 1000-chord polygon is 1.6e-6 short of the circle),
        # and 1 C seen from 3e102 m away as a point charge; abs=0, or approx would pass any value below 1e-12
        b = magnetic_field_of_line_current(1.0, circular_loop(1e102))(ZERO).z
        assert b == pytest.approx(MU_0 / 2e102, rel=1e-5, abs=0)
        field = electric_field_of_line_charge(lambda p: 1.0, line_segment(1.0))
        assert field(Position(3e102, 0.0, 0.0)).x == pytest.approx(COULOMB_CONSTANT / 9e204, rel=1e-9, abs=0)


# A source's strength scaled by 2**k, k <= 0, scales its field by 2**k and nothing else.
#
# A strength below 4 and its 2**k multiple are scaled into the same range when the field is
# built, so their sums are the same floats. A refusal stays the same refusal; an accepted field
# stays accepted while 2**k times it has a normal component, and each component that was a normal
# float becomes exactly 2**k times it, one rounding even where that falls below the normal range.
@settings(max_examples=200)
@given(kind=st.sampled_from(["e-line", "b-loop"]), strength=st.floats(0.5, 4.0, exclude_max=True),
       at=st.tuples(*[st.floats(-3.0, 3.0)] * 3), exponent=st.integers(0, 104), k=st.integers(-1020, 0))
def test_a_weaker_source_gives_the_same_answer_times_its_scale(kind, strength, at, exponent, k):
    point = Position(*(c * 10.0**exponent for c in at))

    def outcome(s: float) -> Vec3 | str:
        if kind == "e-line":
            field = electric_field_of_line_charge(lambda p: s, line_segment(1.0), 16)
        else:
            field = magnetic_field_of_line_current(s, circular_loop(1.0), 16)
        try:
            return field(point)
        except DomainError as error:
            return str(error)

    base, weak = outcome(strength), outcome(math.ldexp(strength, k))
    if isinstance(base, str):
        assert weak == base
    elif max(abs(math.ldexp(c, k)) for c in base) < sys.float_info.min:
        assert weak == f"field point too far from the source at {format_row((point.x, point.y, point.z))}"
    else:
        kept = [i for i, b in enumerate(base) if abs(b) >= sys.float_info.min or b == 0.0]
        assert isinstance(weak, Vec3) and [weak[i] for i in kept] == [math.ldexp(base[i], k) for i in kept]


# A current scaled by 2**k, k >= 1, scales its field by 2**k and nothing else.
#
# A current from 4 up and its 2**k multiple are scaled into the same range [4, 8) when the field
# is built, so their sums are the same floats, and each is scaled back once. A refusal on or too
# far from the source stays that refusal, unless it was a field with no normal component that 2**k
# lifts; each component that was a normal float becomes exactly 2**k times it; and where 2**k
# times such a component overflows, the field is refused as not finite.
@settings(max_examples=200)
@given(current=st.floats(4.0, 8.0, exclude_max=True), radius=st.sampled_from([1.0, 1e-7]),
       at=st.tuples(*[st.floats(-3.0, 3.0)] * 3), exponent=st.integers(-8, 104), k=st.integers(1, 1020))
@example(current=7.99, radius=1.0, at=(0.0, 0.0, 1.0), exponent=0, k=1020)  # the sum overflows, the field does not
@example(current=7.99, radius=1e-7, at=(0.0, 0.0, 0.0), exponent=0, k=1020)  # the field overflows
def test_a_stronger_current_gives_the_same_answer_times_its_scale(current, radius, at, exponent, k):
    point = Position(*(c * 10.0**exponent for c in at))
    where = format_row((point.x, point.y, point.z))

    def outcome(i: float) -> Vec3 | str:
        try:
            return magnetic_field_of_line_current(i, circular_loop(radius), 16)(point)
        except DomainError as error:
            return str(error)

    base, strong = outcome(current), outcome(math.ldexp(current, k))
    lifted = math.ldexp(sys.float_info.min, k)  # 2**k times the normal range's floor
    if isinstance(base, str):
        assert strong == base or (base == f"field point too far from the source at {where}"
                                  and isinstance(strong, Vec3) and max(map(abs, strong)) <= lifted)
    elif any(math.isinf(abs(b) * 2.0**k) for b in base):
        assert strong == f"field is not finite at {where}"
    else:
        assert isinstance(strong, Vec3)
        for b, s in zip(base, strong):
            assert s == math.ldexp(b, k) if abs(b) >= sys.float_info.min else abs(s) <= lifted


class TestOverflowRuleAtEveryCurrent:
    """A strong current's far field, scaled into [4, 8) and back, is rounded once."""

    def test_a_strong_currents_far_field_is_rounded_once(self):
        # 5 * 2**40 A seen from 5e102 m on the axis of a 16-chord unit loop: scaled into [4, 8), the sum
        # before the constant is a normal float, but its product with 1e-7 would be a subnormal with
        # only about 33 bits; the sum is scaled up first, so bz keeps every digit of the chords' dipole
        current, z = 5.0 * 2.0**40, 5e102
        bz = magnetic_field_of_line_current(current, circular_loop(1.0), 16)(Position(0.0, 0.0, z)).z
        dipole = BIOT_SAVART_CONSTANT * current * 16 * 2.0 * math.sin(math.pi / 16) / z**3
        assert bz == pytest.approx(dipole, rel=1e-13, abs=0)


# A source and a point scaled together by 2**k get the same accept-or-refuse answer.
#
# A unit source cut into at most 64 pieces reaches at least 2**-6 m, and no
# point drawn here lies more than 6.2 m from it. So for k in [-330, 330] no
# chord's square underflows, the reach's 2**-340 m floor does not bind, and
# no term's cube overflows or leaves a unit strength's term subnormal.
@settings(max_examples=200)
@given(kind=st.sampled_from(["e-line", "b-loop"]), intervals=st.integers(3, 64),
       at=st.tuples(*[st.floats(-3.0, 3.0)] * 3), k=st.integers(-330, 330))
def test_accept_or_refuse_is_the_same_at_every_scale(kind, intervals, at, k):
    def refused(scale: float) -> bool:
        if kind == "e-line":
            field = electric_field_of_line_charge(lambda p: 1.0, line_segment(scale), intervals)
        else:
            field = magnetic_field_of_line_current(1.0, circular_loop(scale), intervals)
        try:
            field(Position(*(c * scale for c in at)))
        except DomainError as error:
            if "on source" not in str(error):
                raise
            return True
        return False

    assert refused(1.0) == refused(2.0**k)


# --- build once, evaluate many -------------------------------------------------


def closure_e_field(density, curve, intervals, point):
    """The E field as the closure integrand through the public integrator."""

    def integrand(source):
        d = displacement(source, point)
        dist = d.magnitude()
        return d * (density(source) / (dist * dist * dist))

    return line_integral(intervals, integrand, curve) * COULOMB_CONSTANT


def closure_b_field(current, curve, intervals, point):
    """The B field as the closure integrand through the public crossed integrator."""

    def integrand(source):
        d = displacement(source, point)
        dist = d.magnitude()
        return d * (-current / (dist * dist * dist))

    return crossed_line_integral(intervals, integrand, curve) * BIOT_SAVART_CONSTANT


def bits(v: Vec3) -> tuple[str, ...]:
    """Exact float contents, telling -0.0 from 0.0."""
    return tuple(repr(c) for c in v)


def oracle_points() -> list[Position]:
    rng = random.Random(20261018)
    points = [Position(*(rng.uniform(-2.0, 2.0) for _ in range(3))) for _ in range(44)]
    # on an axis, so some components are signed zeros
    points += [Position(1.0, 0.0, 0.0), Position(0.0, 0.7, 0.0), Position(0.0, 0.0, 2.0),
               Position(0.0, 0.0, -1.5), Position(-0.3, 0.0, 0.2), Position(0.0, 0.0, 0.9)]
    return points


def on_source(curve, intervals, point) -> bool:
    """Whether ``point`` is nearer a sample than the reach, computed from the cut points.

    The reach is three times the farthest a chord end lies from its own
    sample, and at least 2**-340 m.
    """
    ends, samples = plain_cut(intervals, curve)
    farthest = max(displacement(e, s).magnitude() for i, s in enumerate(samples) for e in ends[i:i + 2])
    reach = max(3.0 * farthest, 2.0**-340)
    return min(displacement(s, point).magnitude() for s in samples) < reach


def counting_helix():
    return counted(Curve(lambda t: Position(0.6 * math.cos(t), 0.6 * math.sin(t), 0.1 * t), -1.0, 5.0))


class TestBuiltOnce:
    @pytest.mark.parametrize("intervals", [1, 7, 999, 1000])
    def test_electric_field_matches_closure_oracle_bit_for_bit(self, intervals):
        curve = line_segment(1.3)
        oracle = curve._replace(func=functools.cache(curve.func))  # the same bits, cut once, not once per point
        near = [on_source(oracle, intervals, point) for point in oracle_points()]
        assert not all(near)
        for density in (lambda p: 1e-9 * (1.0 + p.z), lambda p: -2e-9):
            field = electric_field_of_line_charge(density, curve, intervals)
            for point, refused in zip(oracle_points(), near):
                if refused:
                    with pytest.raises(DomainError, match="^field point on source at "):
                        field(point)
                else:
                    assert bits(field(point)) == bits(closure_e_field(density, oracle, intervals, point))

    @pytest.mark.parametrize("intervals", [3, 7, 999, 1000])
    def test_magnetic_field_matches_closure_oracle_bit_for_bit(self, intervals):
        curve = circular_loop(0.8)
        oracle = curve._replace(func=functools.cache(curve.func))  # the same bits, cut once, not once per point
        near = [on_source(oracle, intervals, point) for point in oracle_points()]
        assert not all(near)
        for current in (1.5, -0.25):
            field = magnetic_field_of_line_current(current, curve, intervals)
            for point, refused in zip(oracle_points(), near):
                if refused:
                    with pytest.raises(DomainError, match="^field point on source at "):
                        field(point)
                else:
                    assert bits(field(point)) == bits(closure_b_field(current, oracle, intervals, point))

    def test_curve_sampled_only_when_field_is_built(self):
        n = 50
        for build in (
            lambda curve: electric_field_of_line_charge(lambda p: 1e-9, curve, n),
            lambda curve: magnetic_field_of_line_current(1.0, curve, n),
        ):
            curve, calls = counting_helix()
            field = build(curve)
            assert len(calls) == 2 * n + 1
            for point in oracle_points()[:5]:
                field(point)
            assert len(calls) == 2 * n + 1

    def test_density_called_once_per_piece_at_build(self):
        seen = []

        def density(p):
            seen.append(p)
            return 1e-9 * p.z

        field = electric_field_of_line_charge(density, line_segment(1.0), 25)
        assert seen == [Position(0.0, 0.0, -0.5 + (i + 0.5) * (1.0 / 25)) for i in range(25)]  # in parameter order
        field(Position(1.0, 2.0, 3.0))
        assert len(seen) == 25

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: electric_field_of_line_charge(lambda p: 1e-9, line_segment(1.0), n),
            lambda n: magnetic_field_of_line_current(1.0, circular_loop(1.0), n),
        ],
        ids=["electric", "magnetic"],
    )
    def test_build_keeps_only_what_its_kernel_reads(self, build):
        # E keeps 5 floats a piece (sample, density, chord length), B 6 (sample, chord); the bound
        # is B's 6 floats and half a float for the array's growth
        n = 5000
        build(n)  # first-use allocations outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / n <= 6.5 * 8

    def test_one_field_at_many_points_equals_a_fresh_field_per_point(self):
        curve, _ = counting_helix()
        builders = (
            lambda: electric_field_of_line_charge(lambda p: 1e-9 * p.x, curve, 300),
            lambda: magnetic_field_of_line_current(2.0, curve, 300),
        )
        on_source = curve.func(curve.start)
        for build in builders:
            field = build()
            for point in oracle_points():
                with pytest.raises(DomainError):  # a refusal leaves the field intact
                    field(on_source)
                assert bits(field(point)) == bits(build()(point))


# --- the build pass ---------------------------------------------------------------


def captured(field) -> dict:
    """A built field's closure variables by name: what its build left for the kernel to read."""
    return dict(zip(field.__code__.co_freevars, (cell.cell_contents for cell in field.__closure__)))


def max_quadrature(intervals, curve, record):
    """The build pass written plainly on a plain cut, an oracle: the closure rule applied to the whole cut, each end's
    coordinates read twice, ``record(sample, cx, cy, cz)`` reading the sample's again, and ``max`` keeping the farthest."""
    ends, samples = plain_cut(intervals, curve)
    first = ends[0]

    def distance(p):
        return math.hypot(p.x - first.x, p.y - first.y, p.z - first.z)

    if distance(ends[-1]) < 1e-9 * max(distance(samples[-1]), distance(ends[-2])):  # closed: cut it shut
        if intervals < 3:
            raise ValueError(f"a closed curve needs at least 3 intervals, got {intervals}")
        ends[-1] = first
    pieces = array("d")
    farthest = 0.0
    for start, sample, end in zip(ends, samples, ends[1:]):
        x, y, z, a, b, c = sample.x, sample.y, sample.z, start.x, start.y, start.z
        pieces.extend(record(sample, end.x - a, end.y - b, end.z - c))
        ux, uy, uz, vx, vy, vz = x - a, y - b, z - c, x - end.x, y - end.y, z - end.z
        farthest = max(farthest, ux * ux + uy * uy + uz * uz, vx * vx + vy * vy + vz * vz)
    return pieces, max(3.0 * math.sqrt(farthest), 2.0**-340)


def spoiled_curve() -> Curve:
    """A curve whose points turn NaN a third of the way along, and infinite past two thirds."""

    def func(t):
        if t < 1.0:
            return Position(t, 0.5 * t * t, -t)
        return Position(math.nan, 0.0, 1.0) if t < 2.0 else Position(math.inf, 1.0, -math.inf)

    return Curve(func, 0.0, 3.0)


# The one refusal of a piece that will not pack, whichever source is built.
NOT_REAL = r"^curve points and densities must be real numbers within the float range$"


class TestBuildPass:
    @pytest.mark.parametrize("intervals", [1, 2, 3, 7, 64, 1000])
    @pytest.mark.parametrize("name", ["helix", "segment", "loop", "spoiled"])
    def test_records_and_reach_match_the_max_oracle_bit_for_bit(self, name, intervals):
        curve = {"helix": lambda: counting_helix()[0], "segment": lambda: line_segment(1.3),
                 "loop": lambda: circular_loop(0.8), "spoiled": spoiled_curve}[name]()

        def outcome(build):
            try:
                pieces, reach = build()
            except ValueError as error:  # a closed curve in fewer than 3 pieces, before its last piece
                return str(error)
            return pieces.tobytes(), repr(reach)  # bytes: NaNs compare, and -0.0 differs from 0.0

        def quadrature():
            pack, pieces = Struct("9d").pack, array("d")
            reach = _quadrature(intervals, curve, lambda s, x, y, z, cx, cy, cz: pack(s.x, s.y, s.z, x, y, z, cx, cy, cz),
                                pieces.frombytes)
            return pieces, reach

        got = outcome(quadrature)
        want = outcome(lambda: max_quadrature(intervals, curve, lambda s, cx, cy, cz: (s.x, s.y, s.z) * 2 + (cx, cy, cz)))
        assert got == want

    @pytest.mark.parametrize("intervals", [1023, 1024, 1025, 2049])  # blocks of 1,024 end short or exactly
    @pytest.mark.parametrize(
        "density",
        [lambda p: math.ldexp(1.0 + p.z, round(-1000 - 80 * p.z)), lambda p: 5e-324,
         lambda p: 8.0 * (1.5 + p.z), lambda p: 8.0],
        ids=["exponent-varies", "subnormal", "strong-varies", "strong"],
    )
    def test_stored_densities_are_each_raw_density_scaled_by_ldexp(self, density, intervals):
        raw = []

        def counting(p):
            raw.append(density(p))
            return raw[-1]

        field = captured(electric_field_of_line_charge(counting, line_segment(1.0), intervals))
        e, stored = field["e"], field["pieces"][3::5]
        assert len(raw) == len(stored) == intervals
        # 2.0 ** -e would overflow where ldexp does not; from 4 C/m up e is 0
        assert e < -1023 if raw[0] == 5e-324 else e == 0 if raw[0] >= 4.0 else e < 0
        assert stored.tobytes() == array("d", (math.ldexp(q, -e) for q in raw)).tobytes()
        assert e or stored.tobytes() == array("d", raw).tobytes()  # from 4 C/m up the pass keeps each density's bits

    @pytest.mark.parametrize(
        "density",
        [lambda p: math.nan if p.z < -0.49 else 1e308, lambda p: math.nan if p.z > 0.49 else 1e308,
         lambda p: math.inf if p.z > 0.49 else 1e308],
        ids=["nan-first", "nan-last", "inf"],
    )
    def test_a_density_that_is_not_finite_is_refused_at_evaluation(self, density):
        # scaling the finite densities by 2**3 for a NaN first or an inf would overflow at build
        field = electric_field_of_line_charge(density, line_segment(1.0), 100)
        with pytest.raises(DomainError, match=r"^field is not finite at 1,0,0$"):
            field(Position(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("value", [None, "1.0", 10**400], ids=["none", "str", "int-past-float-range"])
    def test_a_density_that_is_not_a_real_number_is_refused_at_build(self, value):
        with pytest.raises(TypeError, match=NOT_REAL):
            electric_field_of_line_charge(lambda p: value, line_segment(1.0), 10)

    @pytest.mark.parametrize("consume", CONSUMERS.values(), ids=list(CONSUMERS))
    def test_a_curve_point_that_is_not_a_real_number_is_refused_at_build(self, consume):
        # E's chord length and the line integral's compare the complex chord before anything packs, and the crossed
        # integral's term takes it: its reach compares a complex distance
        curve = Curve(lambda t: Position(complex(t), 0.0, t), 0.0, 1.0)
        with pytest.raises(TypeError, match=NOT_REAL):
            consume(curve, 10)

    @pytest.mark.parametrize("consume", CONSUMERS.values(), ids=list(CONSUMERS))
    def test_a_chord_end_that_is_not_a_real_number_is_refused_at_build(self, consume):
        # only the first point is complex: every sample is real, and so are the coordinates of every other chord end
        curve = Curve(lambda t: Position(0.0, 0.0, complex(t) if t == 0.0 else t), 0.0, 1.0)
        with pytest.raises(TypeError, match=NOT_REAL):
            consume(curve, 10)

    def test_a_type_error_raised_inside_a_density_is_the_densitys_own(self):
        def density(p):
            raise TypeError("the density's own")

        with pytest.raises(TypeError, match=r"^the density's own$"):
            electric_field_of_line_charge(density, line_segment(1.0), 10)

    @pytest.mark.parametrize("integrate", [line_integral, crossed_line_integral], ids=["line-integral", "crossed-line-integral"])
    def test_a_type_error_raised_inside_an_integrand_is_the_integrands_own(self, integrate):
        def integrand(p):
            raise TypeError("the integrand's own")

        with pytest.raises(TypeError, match=r"^the integrand's own$"):
            integrate(10, integrand, line_segment(1.0))

    @pytest.mark.parametrize("consume", CONSUMERS.values(), ids=list(CONSUMERS))
    @pytest.mark.parametrize(("name", "intervals"), [("helix", 1), ("helix", 50), ("loop", 3), ("loop", 50)])
    def test_the_curve_is_called_2n_plus_1_times_in_parameter_order(self, consume, name, intervals):
        curve, calls = counting_helix() if name == "helix" else counted(circular_loop(0.8))
        made = consume(curve, intervals)
        width = (curve.end - curve.start) / intervals
        # the start, then each piece's midpoint and end; a closed curve's last end is called too
        assert calls == [curve.start, *(curve.start + (i + k) * width for i in range(intervals) for k in (0.5, 1))]
        if callable(made):  # a built field, which calls its curve no more when it is evaluated
            for point in (Position(9.0, 8.0, 7.0), Position(-9.0, 0.0, 3.0)):
                made(point)
            assert len(calls) == 2 * intervals + 1
