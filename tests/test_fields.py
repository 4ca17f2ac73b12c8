"""Curve, quadrature, and field-builder tests."""

import math
import random

import pytest

from mechfield.errors import DomainError
from mechfield.fields import (
    BIOT_SAVART_CONSTANT,
    COULOMB_CONSTANT,
    Curve,
    circular_loop,
    crossed_line_integral,
    electric_field_of_line_charge,
    line_integral,
    line_segment,
    magnetic_field_of_line_current,
)
from mechfield.vectors import Position, Vec3, X_HAT, Z_HAT, ZERO, displacement

MU_0 = 4.0 * math.pi * 1e-7


def loop_field_on_axis(radius: float, current: float, z: float) -> float:
    """Analytic on-axis field of a circular loop (the one closed form there is)."""
    return MU_0 * current * radius**2 / (2.0 * (radius**2 + z**2) ** 1.5)


def finite_line_field(lam: float, length: float, d: float) -> float:
    """Analytic field on the perpendicular bisector of a finite line charge."""
    return COULOMB_CONSTANT * lam * length / (d * math.sqrt(d * d + length * length / 4.0))


class TestCurves:
    def test_curve_requires_increasing_parameters(self):
        with pytest.raises(ValueError):
            Curve(lambda t: Position(t, 0, 0), 1.0, 1.0)

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
        with pytest.raises(DomainError):
            circular_loop(0.0)

    def test_line_segment_endpoints(self):
        c = line_segment(1.0)
        assert c.func(-0.5) == Position(0.0, 0.0, -0.5)
        assert c.func(0.0) == Position(0.0, 0.0, 0.0)
        assert (c.start, c.end) == (-0.5, 0.5)

    def test_line_segment_rejects_bad_length(self):
        with pytest.raises(DomainError):
            line_segment(-1.0)


class TestLineIntegral:
    def test_constant_field_gives_arc_length(self):
        for n in (1, 7, 100):
            assert line_integral(n, lambda p: 1.0, line_segment(2.0)) == pytest.approx(2.0, rel=1e-15)

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
        loop = circular_loop(radius)
        for integrate in (
            lambda: line_integral(intervals, lambda p: 1.0, loop),
            lambda: crossed_line_integral(intervals, lambda p: Z_HAT, loop),
            lambda: electric_field_of_line_charge(lambda p: 1e-9, loop, intervals),
            lambda: magnetic_field_of_line_current(1.0, loop, intervals),
        ):
            with pytest.raises(ValueError, match="closed curve needs at least 3 intervals"):
                integrate()

    def test_open_curves_take_any_number_of_pieces(self):
        almost_loop = Curve(circular_loop(1.0).func, 0.0, 2.0 * math.pi - 1e-6)
        for curve in (line_segment(1.0), line_segment(1e-300), almost_loop):
            for intervals in (1, 2):
                line_integral(intervals, lambda p: 1.0, curve)  # not refused


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

    def test_curved_source_is_its_quadrature_polyline(self):
        # with 4 intervals the source is a square plus the 4 midpoint samples;
        # a point of the circle away from both is an ordinary field point
        loop = circular_loop(1.0)
        field = magnetic_field_of_line_current(1.0, loop, 4)
        b = field(loop.func(0.1))
        assert all(math.isfinite(c) for c in b)
        assert field(Position(0.5, 0.5, 1e-9)).magnitude() > 0.0  # 1e-9 m off a chord is off the source


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


def counting_helix():
    calls = []

    def func(t):
        calls.append(t)
        return Position(0.6 * math.cos(t), 0.6 * math.sin(t), 0.1 * t)

    return Curve(func, -1.0, 5.0), calls


class TestBuiltOnce:
    @pytest.mark.parametrize("intervals", [1, 7, 999, 1000])
    def test_electric_field_matches_closure_oracle_bit_for_bit(self, intervals):
        curve = line_segment(1.3)
        for density in (lambda p: 1e-9 * (1.0 + p.z), lambda p: -2e-9):
            field = electric_field_of_line_charge(density, curve, intervals)
            for point in oracle_points():
                assert bits(field(point)) == bits(closure_e_field(density, curve, intervals, point))

    @pytest.mark.parametrize("intervals", [3, 7, 999, 1000])
    def test_magnetic_field_matches_closure_oracle_bit_for_bit(self, intervals):
        curve = circular_loop(0.8)
        for current in (1.5, -0.25):
            field = magnetic_field_of_line_current(current, curve, intervals)
            for point in oracle_points():
                assert bits(field(point)) == bits(closure_b_field(current, curve, intervals, point))

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
        assert len(seen) == 25
        field(Position(1.0, 2.0, 3.0))
        assert len(seen) == 25

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
