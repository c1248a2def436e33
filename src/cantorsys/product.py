"""The product of the period-doubling subshift with the 3-adic odometer.

T(x, z) = (Sx, z+1) on X x Z_3 is self-induced through (x, z) -> (sigma(x), 2z)
onto sigma(X) x Z_3, is non-expansive because the odometer coordinate is an
isometry, and is non-equicontinuous because the word coordinate is expansive.
This module verifies the three identities exactly at finite depth and
produces the two witnesses.  The two word identities (sigma(Sx) = S^2(sigma x)
and return time 2 to sigma(X)) come from the substitution's own sampling
harness, `substitution.verify_self_induced`; only the doubling on Z_3 is
checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, WindowExhausted
from .odometer import EventuallyPeriodic, OdometerPoint, add, add_one
from .substitution import (
    SelfInductionFailure,
    iterate,
    period_doubling,
    verify_self_induced,
)
from .words import Word

TRIADIC = EventuallyPeriodic((), (3,))


def triadic_point(value: int, depth: int) -> OdometerPoint:
    return OdometerPoint(tuple(value % 3 ** n for n in range(1, depth + 1)))


def triadic_double(z: OdometerPoint) -> OdometerPoint:
    return OdometerPoint(tuple(2 * digit % 3 ** n for n, digit in enumerate(z.digits, start=1)))


def triadic_distance(z1: OdometerPoint, z2: OdometerPoint) -> Fraction:
    """3^-(first level where the digits differ); 0 when equal at all depths."""
    if z1.depth != z2.depth:
        raise ConstructionError("points must share a depth")
    for n, (a, b) in enumerate(zip(z1.digits, z2.digits), start=1):
        if a != b:
            return Fraction(1, 3 ** n)
    return Fraction(0)


@dataclass(frozen=True)
class ProductPoint:
    """Word window with an origin, paired with a truncated 3-adic integer."""

    text: tuple
    origin: int
    odometer: OdometerPoint


def product_step(p: ProductPoint) -> ProductPoint:
    """T: shift the word window, add one on the odometer."""
    if p.origin + 1 >= len(p.text):
        raise WindowExhausted("word window has no room to shift")
    return ProductPoint(p.text, p.origin + 1, add_one(p.odometer, TRIADIC))


def word_distance(a: ProductPoint, b: ProductPoint) -> Fraction:
    """2^-(least |i| with a_i != b_i) on the common window."""
    if a.text is b.text and a.origin == b.origin:
        return Fraction(0)
    span = min(a.origin, b.origin, len(a.text) - a.origin, len(b.text) - b.origin)
    for r in range(span):
        for i in ({0} if r == 0 else {r, -r}):
            if a.text[a.origin + i] != b.text[b.origin + i]:
                return Fraction(1, 2 ** r)
    return Fraction(0)


@dataclass(frozen=True)
class ProductReport:
    depth: int
    samples: int
    radius: int
    commutation_checks: int
    doubling_checks: int
    return_time_checks: int
    failures: tuple[SelfInductionFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_product_selfinduced(depth: int, samples: int) -> ProductReport:
    """The three exact identities behind the self-induction of the product:
    sigma intertwines S with S^2 and the return time to sigma(X) x Z_3 is the
    constant 2 (the substitution's own check, every period-doubling image
    having length 2), and doubling intertwines +1 with +2 on Z_3."""
    word = verify_self_induced(period_doubling(), depth, samples)
    failures = list(word.failures)
    odo_depth = max(6, depth // 2)
    for z_value in range(0, 17 * samples, 17):  # 17 is prime to 3
        z = triadic_point(z_value, odo_depth)
        if triadic_double(add_one(z, TRIADIC)) != add(triadic_double(z), TRIADIC, 2):
            failures.append(SelfInductionFailure("doubling", z_value, "2(z+1) != 2z + 2"))
    return ProductReport(
        depth=depth,
        samples=samples,
        radius=word.radius,
        commutation_checks=len(word.return_times),
        doubling_checks=samples,
        return_time_checks=len(word.image_lengths),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class NonexpansiveWitness:
    point_a: ProductPoint
    point_b: ProductPoint
    bound: Fraction
    iterates_checked: int


def nonexpansive_witness(epsilon: Fraction, iterates: int = 1000) -> NonexpansiveWitness:
    """Two points with equal word part whose orbits never separate beyond
    their initial odometer distance: the odometer acts by isometries, so
    sup_n d(T^n p, T^n p') = d2(z, z') < epsilon, checked over the iterates."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ConstructionError("epsilon must be positive")
    k = 0
    while Fraction(1, 3 ** (k + 1)) >= epsilon:
        k += 1
    depth = k + 2  # deep enough truncation to see the difference

    s = period_doubling()
    text = iterate(s, Word("0"), 14).letters
    origin = len(text) // 4
    if len(text) - origin <= iterates + 2:
        raise ConstructionError("window too short for the requested iterates")
    z = triadic_point(0, depth)
    z_shift = triadic_point(3 ** k, depth)
    a = ProductPoint(text, origin, z)
    b = ProductPoint(text, origin, z_shift)
    bound = triadic_distance(z, z_shift)
    if bound >= epsilon:
        raise ConstructionError("witness construction failed to go below epsilon")

    pa, pb = a, b
    for _ in range(iterates):
        if word_distance(pa, pb) != 0:
            raise ConstructionError("word parts separated, not an isometry witness")
        if triadic_distance(pa.odometer, pb.odometer) != bound:
            raise ConstructionError("odometer coordinate failed to be an isometry")
        pa, pb = product_step(pa), product_step(pb)
    return NonexpansiveWitness(a, b, bound, iterates)


@dataclass(frozen=True)
class NonequicontinuousWitness:
    point_a: ProductPoint
    point_b: ProductPoint
    separation_time: int


@dataclass(frozen=True)
class NotFound:
    reason: str


def nonequicontinuous_witness(delta: Fraction, horizon: int):
    """Two points agreeing to word radius m (distance < delta) with equal
    odometer parts that reach word distance 1 within the horizon: a
    right-special word of the subshift supplies the branching."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ConstructionError("delta must be positive")
    s = period_doubling()
    z = triadic_point(0, 6)
    if delta > 1:
        # any two distinct points are already delta-close; branch at the origin
        letters = s.language_at(1).words(1)
        a = ProductPoint(letters[0].letters, 0, z)
        b = ProductPoint(letters[1].letters, 0, z)
        return NonequicontinuousWitness(a, b, 0)
    m = 0
    while Fraction(1, 2 ** (m + 1)) >= delta:
        m += 1

    for j in range(1, max(horizon, 0) + 1):
        length = 2 * m + 1 + j
        lang = s.language_at(length)
        by_prefix: dict[tuple, list] = {}
        for w in lang.words(length):
            by_prefix.setdefault(w.letters[:-1], []).append(w.letters)
        for _, group in sorted(by_prefix.items()):
            if len(group) >= 2:
                group = sorted(group)
                a = ProductPoint(group[0], m, z)
                b = ProductPoint(group[1], m, z)
                return NonequicontinuousWitness(a, b, m + j)
    return NotFound(f"no branching found within horizon {horizon}")