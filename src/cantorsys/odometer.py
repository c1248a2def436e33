"""Odometers (adding machines) through their characteristic sequences.

Two finite descriptions are admitted: eventually periodic sequences (q_n)
with all q_n >= 2, and valuation profiles mapping primes to the limit of
the p-adic valuations of the partial products p_n = q_1 ... q_n.  Factor,
conjugacy and self-induction questions depend only on the profile; digit
arithmetic is exact big-integer arithmetic on truncations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .errors import (
    ConstructionError,
    FactorisationUnknown,
    IncoherentPoint,
    NotEventuallyPeriodic,
)
from .words import SystemHandle

if TYPE_CHECKING:
    from . import bratteli

INFINITE = math.inf


@dataclass(frozen=True)
class EventuallyPeriodic:
    """(q_n) = prefix then cycle repeated forever; every entry >= 2."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(int(q) for q in self.prefix))
        object.__setattr__(self, "cycle", tuple(int(q) for q in self.cycle))
        if not self.cycle:
            raise ConstructionError("cycle must be non-empty")
        if any(q < 2 for q in self.prefix + self.cycle):
            raise ConstructionError("all q_n must be >= 2")

    def term(self, n: int) -> int:
        """q_n, 1-indexed."""
        if n < 1:
            raise ConstructionError("terms are 1-indexed")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    def partial_product(self, n: int) -> int:
        """p_n = q_1 ... q_n."""
        return _partial_products(self.prefix, self.cycle, n)[n]

    def drop_first(self) -> "EventuallyPeriodic":
        """The shifted sequence (q_{n+1})."""
        if self.prefix:
            return EventuallyPeriodic(self.prefix[1:], self.cycle)
        return EventuallyPeriodic((), self.cycle[1:] + self.cycle[:1])


@lru_cache(maxsize=256)
def _partial_products(prefix: tuple, cycle: tuple, depth: int) -> tuple[int, ...]:
    """(p_0, p_1, ..., p_depth) for the sequence prefix + cycle repeated."""
    out = [1]
    for n in range(1, depth + 1):
        if n <= len(prefix):
            q = prefix[n - 1]
        else:
            q = cycle[(n - len(prefix) - 1) % len(cycle)]
        out.append(out[-1] * q)
    return tuple(out)


@dataclass(frozen=True)
class ValuationProfile:
    """Limits of max{k : p^k | p_n} per prime.

    Primes not listed default to value 1 when `infinitely_many_primes` is
    set (the all-primes odometer) and to 0 otherwise; math.inf marks primes
    dividing infinitely many q_n.
    """

    valuations: Mapping[int, object] = field(default_factory=dict)
    infinitely_many_primes: bool = False

    def __post_init__(self):
        vals = {}
        for p, v in dict(self.valuations).items():
            p = int(p)
            if not _is_prime(p):
                raise ConstructionError(f"{p} is not prime")
            if v != INFINITE:
                v = int(v)
                if v < 0:
                    raise ConstructionError("valuations are non-negative")
            vals[p] = v
        if not self.infinitely_many_primes and not any(v >= 1 for v in vals.values()):
            raise ConstructionError("profile must give some prime a positive value")
        default = 1 if self.infinitely_many_primes else 0
        object.__setattr__(
            self, "valuations", {p: v for p, v in vals.items() if v != default}
        )

    def value(self, p: int) -> object:
        default = 1 if self.infinitely_many_primes else 0
        return self.valuations.get(p, default)

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.valuations))


CharacteristicSequence = EventuallyPeriodic | ValuationProfile


_SMALL_PRIMES = tuple(
    p for p in range(2, 100) if all(p % d for d in range(2, math.isqrt(p) + 1))
)
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); above it a pass is only probable.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard-Brent polynomial steps allowed per factorisation; rho splits off
# a prime p in about sqrt(p) steps, so factors up to about 10^11 fit.
_RHO_BUDGET = 1 << 20


def _is_prime(n: int) -> bool:
    """Trial division by the small primes, then deterministic Miller-Rabin;
    raises FactorisationUnknown for a probable prime beyond the exact range."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise FactorisationUnknown(f"{n} passes Miller-Rabin but is too large to certify prime")
    return True


def _rho_factor(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the composite n, which has no small prime factor,
    by Brent's variant of Pollard's rho; returns (factor, budget left)."""
    batch = 128
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            budget -= r
            if budget < 0:
                raise FactorisationUnknown(f"no factor of {n} within the rho work budget")
            r *= 2
        if g == n:
            # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def _factorise(n: int) -> dict[int, int]:
    """Prime factorisation {p: k} of n >= 1, primes increasing: small primes
    by trial division, larger factors by Pollard-Brent rho under a work
    budget (FactorisationUnknown when it runs out)."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    else:
        # every prime factor left is above the small primes
        budget = _RHO_BUDGET
        pending = [n] if n > 1 else []
        while pending:
            m = pending.pop()
            if _is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d, budget = _rho_factor(m, budget)
                pending += [d, m // d]
        return dict(sorted(out.items()))
    if n > 1:
        out[n] = 1
    return out


def valuation_profile(q: CharacteristicSequence) -> dict[int, object]:
    """Per-prime limit of the valuations of p_n: infinite exactly for the
    primes dividing the cycle product, the prefix contribution otherwise."""
    if isinstance(q, ValuationProfile):
        # already a profile; report explicit entries plus defaults
        return {p: q.value(p) for p in q.primes()}
    if not isinstance(q, EventuallyPeriodic):
        raise NotEventuallyPeriodic(f"unsupported description {type(q).__name__}")
    cycle_factors: dict[int, int] = {}
    for entry in q.cycle:
        for p, k in _factorise(entry).items():
            cycle_factors[p] = cycle_factors.get(p, 0) + k
    prefix_factors: dict[int, int] = {}
    for entry in q.prefix:
        for p, k in _factorise(entry).items():
            prefix_factors[p] = prefix_factors.get(p, 0) + k
    profile: dict[int, object] = {}
    for p in sorted(set(cycle_factors) | set(prefix_factors)):
        profile[p] = INFINITE if p in cycle_factors else prefix_factors[p]
    return profile


def as_profile(q: CharacteristicSequence) -> ValuationProfile:
    if isinstance(q, ValuationProfile):
        return q
    return ValuationProfile(valuation_profile(q), infinitely_many_primes=False)


@dataclass(frozen=True)
class SelfInducedDecision:
    self_induced: bool
    witness_prime: int | None

    def __bool__(self) -> bool:
        return self.self_induced


def is_self_induced(q: CharacteristicSequence) -> SelfInducedDecision:
    """Self-induced iff some prime has infinite valuation limit; the least
    such prime is the witness."""
    profile = as_profile(q)
    infinite = sorted(p for p in profile.primes() if profile.value(p) == INFINITE)
    if infinite:
        return SelfInducedDecision(True, infinite[0])
    return SelfInducedDecision(False, None)


def is_factor(q_small: CharacteristicSequence, q_big: CharacteristicSequence) -> bool:
    """Whether the q_small odometer is a factor of the q_big one: valuation
    limits dominated prime by prime."""
    a = as_profile(q_small)
    b = as_profile(q_big)
    default_a = 1 if a.infinitely_many_primes else 0
    default_b = 1 if b.infinitely_many_primes else 0
    if default_a > default_b:
        return False
    for p in set(a.primes()) | set(b.primes()):
        if a.value(p) > b.value(p):
            return False
    return True


def is_conjugate(q1: CharacteristicSequence, q2: CharacteristicSequence) -> bool:
    """Equality of valuation profiles at every prime."""
    a = as_profile(q1)
    b = as_profile(q2)
    return (
        a.infinitely_many_primes == b.infinitely_many_primes
        and a.valuations == b.valuations
    )


@dataclass(frozen=True)
class OdometerPoint:
    """Truncated adic integer: digits x_n in Z/p_n with the coherence
    x_n == x_{n+1} mod p_n."""

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(x) for x in self.digits))

    @property
    def depth(self) -> int:
        return len(self.digits)


def check_coherence(x: OdometerPoint, q: EventuallyPeriodic) -> None:
    if not isinstance(q, EventuallyPeriodic):
        raise NotEventuallyPeriodic("digit arithmetic needs an explicit sequence")
    products = _partial_products(q.prefix, q.cycle, x.depth)
    for n, digit in enumerate(x.digits, start=1):
        if not 0 <= digit < products[n]:
            raise IncoherentPoint(f"digit {digit} out of Z/{products[n]}")
        if n > 1 and digit % products[n - 1] != x.digits[n - 2]:
            raise IncoherentPoint(f"digits {n-1},{n} incoherent")


def add_one(x: OdometerPoint, q: EventuallyPeriodic) -> OdometerPoint:
    """x + 1, digitwise with carries; coherence is preserved exactly."""
    return add(x, q, 1)


def add(x: OdometerPoint, q: EventuallyPeriodic, amount: int) -> OdometerPoint:
    check_coherence(x, q)
    products = _partial_products(q.prefix, q.cycle, x.depth)
    return OdometerPoint(
        tuple((digit + amount) % products[n] for n, digit in enumerate(x.digits, start=1))
    )


def canonical_prime_form(q: EventuallyPeriodic) -> EventuallyPeriodic:
    """Replace each q_n by its sorted prime factorisation; the result is
    conjugate to the input (asserted through the profile comparison)."""
    if not isinstance(q, EventuallyPeriodic):
        raise NotEventuallyPeriodic("canonical form needs an explicit sequence")

    def refine(entries):
        out = []
        for entry in entries:
            for p, k in sorted(_factorise(entry).items()):
                out.extend([p] * k)
        return tuple(out)

    result = EventuallyPeriodic(refine(q.prefix), refine(q.cycle))
    if not is_conjugate(q, result):
        raise ConstructionError("prime refinement changed the odometer")
    return result


def to_diagram(q: EventuallyPeriodic, depth: int) -> bratteli.OrderedBratteliDiagram:
    """The one-vertex diagram with q_n edges at level n."""
    from . import bratteli

    if not isinstance(q, EventuallyPeriodic):
        raise NotEventuallyPeriodic("diagrams need an explicit sequence")
    return bratteli.one_vertex_diagram([q.term(n) for n in range(1, depth + 1)])


def induce_via_diagram(q: EventuallyPeriodic) -> EventuallyPeriodic:
    """Induce on a single level-1 edge cylinder through the diagram: the
    induced diagram keeps one first-level edge, contracting away the trivial
    level leaves the shifted characteristic sequence."""
    from . import bratteli

    if not isinstance(q, EventuallyPeriodic):
        raise NotEventuallyPeriodic("diagram induction needs an explicit sequence")
    depth = len(q.prefix) + len(q.cycle) + 2
    diagram = to_diagram(q, depth)
    first_edge = diagram.edges(1)[0]
    induced = bratteli.induce_on_paths(
        diagram, [bratteli.PathPrefix(diagram, (first_edge,))]
    )
    merged = bratteli.contract(induced, (0, 2) + tuple(range(3, induced.depth + 1)))
    expected = q.drop_first()
    read_off = tuple(len(merged.edges(k)) for k in range(1, merged.depth + 1))
    symbolic = tuple(expected.term(n) for n in range(1, merged.depth + 1))
    if read_off != symbolic:
        raise ConstructionError(
            f"diagram surgery read {read_off}, expected {symbolic}"
        )
    return expected


# -- the dyadic odometer as a SystemHandle -----------------------------------


class DyadicOdometerHandle(SystemHandle):
    """(Z_2, +1) with target U = 2*Z_2 and phi = doubling.

    Points are residues modulo 2^depth; every operation is exact modular
    arithmetic, and cells at resolution m are residues modulo 2^m.
    """

    def __init__(self, depth: int = 30):
        if depth < 2:
            raise ConstructionError("need depth >= 2")
        self.depth = depth
        self.name = "dyadic-odometer"
        self._modulus = 1 << depth

    def step(self, point: int) -> int:
        return (point + 1) % self._modulus

    def step_back(self, point: int) -> int:
        return (point - 1) % self._modulus

    def in_target(self, point: int) -> bool:
        return point % 2 == 0

    def phi(self, point: int) -> int:
        return (2 * point) % self._modulus

    def in_iterated_image(self, point: int, power: int) -> bool:
        return point % (1 << power) == 0

    def return_time(self, point: int, limit: int = 10_000) -> int:
        return 1 if point % 2 == 1 else 2

    def cells(self, resolution: int) -> tuple:
        if resolution > self.depth:
            raise ConstructionError("resolution beyond the declared depth")
        return tuple(range(1 << resolution))

    def cell_of(self, point: int, resolution: int) -> int:
        return point % (1 << resolution)

    def representative(self, cell: int) -> int:
        return cell
