"""The subshift x triadic-odometer product: exact self-induction identities
and the non-expansive / non-equicontinuous witnesses."""

from fractions import Fraction

import pytest

from cantorsys import product
from cantorsys.errors import ConstructionError, WindowExhausted
from cantorsys.product import (
    NonequicontinuousWitness,
    NotFound,
    ProductPoint,
    nonequicontinuous_witness,
    nonexpansive_witness,
    product_step,
    triadic_distance,
    triadic_double,
    triadic_point,
    verify_product_selfinduced,
    word_distance,
)
from cantorsys.substitution import iterate, period_doubling
from cantorsys.words import Word


def pd_point(origin=None, z=0, depth=6, power=10):
    text = iterate(period_doubling(), Word("0"), power).letters
    if origin is None:
        origin = len(text) // 2
    return ProductPoint(text, origin, triadic_point(z, depth))


class TestProductStep:
    def test_shifts_and_increments(self):
        p = pd_point(z=0)
        q = product_step(p)
        assert q.origin == p.origin + 1
        assert q.odometer == triadic_point(1, 6)

    def test_carry_on_two(self):
        p = pd_point(z=2)
        q = product_step(p)
        assert q.odometer.digits[0] == 0
        assert q.odometer == triadic_point(3, 6)

    def test_three_steps_reset_first_digit(self):
        p = pd_point(z=0)
        for _ in range(3):
            p = product_step(p)
        assert p.odometer.digits[0] == 0

    def test_window_exhaustion(self):
        text = iterate(period_doubling(), Word("0"), 3).letters
        p = ProductPoint(text, len(text) - 1, triadic_point(0, 4))
        with pytest.raises(WindowExhausted):
            product_step(p)


class TestSelfInduction:
    def test_depth_12_thousand_samples(self):
        report = verify_product_selfinduced(depth=12, samples=1000)
        assert report.passed
        assert report.commutation_checks == 1000
        assert report.doubling_checks == 1000
        assert report.return_time_checks == 1000

    def test_degenerate_depth(self):
        report = verify_product_selfinduced(depth=0, samples=3)
        assert report.passed

    def test_broken_doubling_is_a_typed_failure(self, monkeypatch):
        monkeypatch.setattr(product, "add", lambda z, q, amount: triadic_point(1, z.depth))
        report = verify_product_selfinduced(depth=8, samples=5)
        assert [(f.kind, f.origin) for f in report.failures] == [
            ("doubling", z) for z in (0, 17, 34, 51, 68)
        ]
        assert report.doubling_checks == 5 and report.commutation_checks == 5


class TestIsometry:
    def test_odometer_isometry_over_thousand_steps(self):
        z1 = triadic_point(5, 8)
        z2 = triadic_point(5 + 27, 8)
        base = triadic_distance(z1, z2)
        assert base == Fraction(1, 3 ** 4)
        for n in range(1, 1001):
            w1 = triadic_point(5 + n, 8)
            w2 = triadic_point(5 + 27 + n, 8)
            assert triadic_distance(w1, w2) == base

    def test_doubling(self):
        z = triadic_point(7, 5)
        assert triadic_double(z) == triadic_point(14, 5)


class TestNonexpansive:
    def test_small_epsilon(self):
        witness = nonexpansive_witness(Fraction(1, 81))
        assert witness.bound < Fraction(1, 81)
        assert witness.iterates_checked == 1000
        assert witness.point_a.text is witness.point_b.text

    def test_epsilon_one(self):
        witness = nonexpansive_witness(Fraction(1))
        assert witness.bound < 1

    def test_bound_matches_odometer_distance(self):
        witness = nonexpansive_witness(Fraction(1, 9), iterates=50)
        assert witness.bound == triadic_distance(
            witness.point_a.odometer, witness.point_b.odometer
        )


class TestNonequicontinuous:
    def test_radius_five(self):
        witness = nonequicontinuous_witness(Fraction(1, 32), horizon=16)
        assert isinstance(witness, NonequicontinuousWitness)
        assert witness.separation_time <= 6 + 16
        a, b = witness.point_a, witness.point_b
        assert word_distance(a, b) < Fraction(1, 32)
        assert a.odometer == b.odometer
        # iterating to the separation time pushes the difference to the origin
        for _ in range(witness.separation_time):
            a, b = product_step(a), product_step(b)
        assert a.text[a.origin] != b.text[b.origin]

    def test_delta_above_one(self):
        witness = nonequicontinuous_witness(Fraction(2), horizon=4)
        assert witness.separation_time == 0

    def test_horizon_zero(self):
        outcome = nonequicontinuous_witness(Fraction(1, 32), horizon=0)
        assert isinstance(outcome, NotFound)


class TestVerifyArguments:
    @pytest.mark.parametrize("depth, samples", [(8, 0), (8, -1), (-1, 10)])
    def test_vacuous_check_is_refused(self, depth, samples):
        with pytest.raises(ConstructionError):
            verify_product_selfinduced(depth, samples)
