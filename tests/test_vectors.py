"""Vector and position algebra tests."""

import copy
import dataclasses
import math
import pickle
import random

import pytest

from mechfield.vectors import (
    Position,
    Vec3,
    X_HAT,
    Y_HAT,
    Z_HAT,
    ZERO,
    displacement,
    format_row,
)


def random_vec(rng: random.Random, scale: float = 10.0) -> Vec3:
    return Vec3(*(rng.uniform(-scale, scale) for _ in range(3)))


class TestVectorArithmetic:
    def test_additive_identity(self):
        assert Vec3(1, 2, 3) + ZERO == Vec3(1, 2, 3)

    def test_additive_inverse(self):
        assert Vec3(1, 2, 3) + Vec3(-1, -2, -3) == ZERO

    def test_addition(self):
        assert Vec3(1, 2, 3) + Vec3(4, 5, 6) == Vec3(5, 7, 9)

    def test_subtraction(self):
        assert Vec3(5, 7, 9) - Vec3(4, 5, 6) == Vec3(1, 2, 3)

    def test_negation(self):
        assert -Vec3(1, -2, 3) == Vec3(-1, 2, -3)

    def test_scale_identity(self):
        assert 1 * Vec3(3, 4, 5) == Vec3(3, 4, 5)

    def test_scale_annihilator(self):
        assert 0 * Vec3(3, 4, 5) == ZERO

    def test_scale(self):
        assert 2 * Vec3(1, -2, 0.5) == Vec3(2, -4, 1)

    def test_scale_both_orders(self):
        v = Vec3(1.5, -2.5, 3.0)
        assert v * 2.0 == 2.0 * v

    def test_scalar_division(self):
        assert Vec3(2, -4, 1) / 2 == Vec3(1, -2, 0.5)

    def test_vector_times_vector_is_an_error(self):
        with pytest.raises(TypeError):
            Vec3(1, 0, 0) * Vec3(0, 1, 0)  # dot and cross are explicit methods


class TestProducts:
    def test_dot_unit_basis(self):
        assert X_HAT.dot(X_HAT) == 1.0

    def test_dot_orthogonal_basis(self):
        assert X_HAT.dot(Y_HAT) == 0.0

    def test_dot(self):
        assert Vec3(1, 2, 3).dot(Vec3(4, 5, 6)) == 32.0

    def test_cross_right_hand_rule(self):
        assert X_HAT.cross(Y_HAT) == Z_HAT

    def test_cross_self_vanishes(self):
        v = Vec3(1.7, -2.2, 0.3)
        assert v.cross(v) == ZERO

    def test_cross(self):
        assert Vec3(1, 0, 0).cross(Vec3(0, 2, 0)) == Vec3(0, 0, 2)

    def test_magnitude_zero(self):
        assert ZERO.magnitude() == 0.0

    def test_magnitude_pythagorean(self):
        assert Vec3(3, 4, 0).magnitude() == 5.0

    def test_magnitude_diagonal(self):
        assert Vec3(1, 1, 1).magnitude() == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_magnitude_is_exact_at_every_scale(self):
        # squared, 5 * 2**k underflows below about 2**-511 and overflows above about 2**511
        wrong = [k for k in range(-1000, 1001) if (Vec3(3.0, 4.0, 0.0) * 2.0**k).magnitude() != 5.0 * 2.0**k]
        assert wrong == []


class TestPosition:
    def test_accessors(self):
        p = Position(1, 2, 3)
        assert (p.x, p.y, p.z) == (1, 2, 3)

    def test_point_on_axis(self):
        assert Position(0, 0, -0.5).z == -0.5

    def test_positions_cannot_be_added(self):
        with pytest.raises(TypeError):
            Position(1, 2, 3) + Position(4, 5, 6)

    def test_displacement_to_self(self):
        p = Position(2.5, -1.0, 4.0)
        assert displacement(p, p) == ZERO

    def test_displacement_from_origin(self):
        assert displacement(Position(0, 0, 0), Position(1, 2, 3)) == Vec3(1, 2, 3)

    def test_displacement(self):
        assert displacement(Position(1, 0, 0), Position(0, 2, 0)) == Vec3(-1, 2, 0)

    def test_shift_identity(self):
        p = Position(1.5, 2.5, -3.5)
        assert p.shifted(ZERO) == p

    def test_shift_from_origin(self):
        assert Position(0, 0, 0).shifted(Vec3(1, 2, 3)) == Position(1, 2, 3)

    def test_shift_back_to_origin(self):
        assert Position(1, 1, 1).shifted(Vec3(-1, -1, -1)) == Position(0, 0, 0)

    def test_is_frozen(self):
        p = Position(1.0, 2.0, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 5.0
        assert p == Position(1.0, 2.0, 3.0)

    def test_equal_points_compare_and_hash_equal(self):
        assert Position(1.0, 2.0, 3.0) == Position(1.0, 2.0, 3.0)
        assert hash(Position(1.0, 2.0, 3.0)) == hash(Position(1.0, 2.0, 3.0))
        assert Position(1.0, 2.0, 3.0) != Position(1.0, 2.0, 4.0)

    def test_repr(self):
        assert repr(Position(1.0, 2.0, 3.0)) == "Position(x=1.0, y=2.0, z=3.0)"

    def test_pickle_and_deepcopy_round_trip(self):
        p = Position(1.5, -2.5, 3.25)
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p

    def test_is_not_a_vector(self):
        assert Position(1, 2, 3) != Vec3(1, 2, 3)

    def test_coordinate_cannot_be_deleted(self):
        p = Position(1.0, 2.0, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.x
        assert p == Position(1.0, 2.0, 3.0)

    def test_new_attribute_cannot_be_set(self):
        p = Position(1.0, 2.0, 3.0)
        with pytest.raises((AttributeError, TypeError)):  # a slotted frozen dataclass raised TypeError here
            p.w = 4.0
        assert not hasattr(p, "w")

    def test_copy_is_an_equal_position(self):
        p = Position(1.5, -2.5, 3.25)
        assert copy.copy(p) == p
        assert type(copy.copy(p)) is Position

    def test_match_by_position(self):
        match Position(1.0, 2.0, 3.0):
            case Position(x, y, z):
                assert (x, y, z) == (1.0, 2.0, 3.0)
            case _:
                pytest.fail("Position(x, y, z) pattern did not match")


class TestAlgebraProperties:
    """Randomized spot checks; the acceptance suite runs the 10^4 sweep."""

    def setup_method(self):
        self.rng = random.Random(20240601)

    def test_addition_commutes_exactly(self):
        for _ in range(500):
            a, b = random_vec(self.rng), random_vec(self.rng)
            assert a + b == b + a

    def test_addition_associative_within_tolerance(self):
        for _ in range(500):
            a, b, c = (random_vec(self.rng) for _ in range(3))
            tol = 1e-12 * (a.magnitude() + b.magnitude() + c.magnitude())
            assert (((a + b) + c) - (a + (b + c))).magnitude() <= tol

    def test_cross_antisymmetric_exactly(self):
        for _ in range(500):
            a, b = random_vec(self.rng), random_vec(self.rng)
            assert a.cross(b) == -(b.cross(a))

    def test_cross_orthogonal_to_first_factor(self):
        for _ in range(500):
            a, b = random_vec(self.rng), random_vec(self.rng)
            bound = 1e-9 * a.magnitude() ** 2 * b.magnitude()
            assert abs(a.dot(a.cross(b))) <= bound

    def test_dot_consistent_with_magnitude(self):
        for _ in range(500):
            a = random_vec(self.rng)
            assert abs(a.dot(a) - a.magnitude() ** 2) <= 1e-9 * a.magnitude() ** 2

    def test_lagrange_identity(self):
        for _ in range(500):
            a, b = random_vec(self.rng), random_vec(self.rng)
            lhs = a.cross(b).magnitude() ** 2 + a.dot(b) ** 2
            rhs = a.magnitude() ** 2 * b.magnitude() ** 2
            assert abs(lhs - rhs) <= 1e-9 * rhs + 1e-30

    def test_displacement_shift_round_trip(self):
        for _ in range(500):
            p = Position(*random_vec(self.rng))
            q = Position(*random_vec(self.rng))
            back = p.shifted(displacement(p, q))
            assert abs(back.x - q.x) <= 1e-12
            assert abs(back.y - q.y) <= 1e-12
            assert abs(back.z - q.z) <= 1e-12

    def test_dot_bilinear(self):
        for _ in range(500):
            a, b, c = (random_vec(self.rng) for _ in range(3))
            s = self.rng.uniform(-5, 5)
            lhs = (a + b * s).dot(c)
            rhs = a.dot(c) + s * b.dot(c)
            scale = (a.magnitude() + abs(s) * b.magnitude()) * c.magnitude()
            assert abs(lhs - rhs) <= 1e-9 * scale + 1e-30

    def test_cross_bilinear(self):
        for _ in range(500):
            a, b, c = (random_vec(self.rng) for _ in range(3))
            s = self.rng.uniform(-5, 5)
            diff = (a + b * s).cross(c) - (a.cross(c) + b.cross(c) * s)
            scale = (a.magnitude() + abs(s) * b.magnitude()) * c.magnitude()
            assert diff.magnitude() <= 1e-9 * scale + 1e-30


class TestTextForm:
    def test_integral_values_drop_point_zero(self):
        assert format_row((0.0,)) == "0"
        assert format_row((1.0,)) == "1"
        assert format_row((-2.0,)) == "-2"

    def test_fractions_keep_shortest_form(self):
        assert format_row((0.1,)) == "0.1"
        assert format_row((1e-07,)) == "1e-07"

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(1000):
            x = rng.uniform(-1, 1) * 10 ** rng.randint(-20, 20)
            assert float(format_row((x,))) == x
