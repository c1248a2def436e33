"""Odometers: valuation profiles, self-induction, factor/conjugacy decisions,
digit arithmetic and the diagram-backed induction."""

import pytest

from cantorsys import odometer
from cantorsys.errors import ConstructionError, FactorisationUnknown, IncoherentPoint
from cantorsys.odometer import (
    INFINITE,
    DyadicOdometerHandle,
    EventuallyPeriodic,
    OdometerPoint,
    ValuationProfile,
    _factorise,
    add,
    add_one,
    canonical_prime_form,
    induce_via_diagram,
    is_conjugate,
    is_factor,
    is_self_induced,
    to_diagram,
    valuation_profile,
)


def ep(prefix, cycle):
    return EventuallyPeriodic(tuple(prefix), tuple(cycle))


ALL_PRIMES = ValuationProfile({}, infinitely_many_primes=True)


def trial_division(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorisation:
    def test_agrees_with_trial_division(self):
        for n in range(1, 10**4 + 1):
            got = _factorise(n)
            assert list(got.items()) == list(trial_division(n).items())

    def test_large_factors(self):
        assert _factorise((10**9 + 7) * (10**9 + 9)) == {10**9 + 7: 1, 10**9 + 9: 1}
        assert _factorise((2**31 - 1) ** 2 * 12) == {2: 2, 3: 1, 2**31 - 1: 2}
        assert _factorise(10**18 + 3) == {10**18 + 3: 1}

    def test_budget_exhaustion_is_named(self, monkeypatch):
        monkeypatch.setattr(odometer, "_RHO_BUDGET", 1000)
        with pytest.raises(FactorisationUnknown):
            _factorise((10**9 + 7) * (10**9 + 9))


class TestValuationProfile:
    def test_dyadic(self):
        assert valuation_profile(ep([], [2])) == {2: INFINITE}

    def test_prefix_and_cycle(self):
        assert valuation_profile(ep([6], [10])) == {2: INFINITE, 3: 1, 5: INFINITE}

    def test_cycle_six(self):
        assert valuation_profile(ep([], [6])) == {2: INFINITE, 3: INFINITE}

    def test_rejects_small_terms(self):
        with pytest.raises(ConstructionError):
            ep([], [1])


class TestSelfInduced:
    def test_dyadic_yes(self):
        decision = is_self_induced(ep([], [2]))
        assert decision and decision.witness_prime == 2

    def test_all_primes_no(self):
        assert not is_self_induced(ALL_PRIMES)

    def test_prefix_seven_cycle_ten(self):
        decision = is_self_induced(ep([7], [10]))
        assert decision and decision.witness_prime == 2

    def test_finite_profile_no(self):
        assert not is_self_induced(ValuationProfile({2: 3, 5: 1}))


class TestFactorAndConjugacy:
    def test_three_divides_six(self):
        assert is_factor(ep([], [3]), ep([], [6]))

    def test_valuation_deficit(self):
        assert not is_factor(ep([4], [3]), ep([2], [3]))

    def test_reflexive(self):
        q = ep([5], [6])
        assert is_factor(q, q)

    def test_transitive_on_samples(self):
        qs = [ep([], [2]), ep([], [4]), ep([], [8]), ep([2], [6]), ep([], [6])]
        for a in qs:
            for b in qs:
                for c in qs:
                    if is_factor(a, b) and is_factor(b, c):
                        assert is_factor(a, c)

    def test_conjugacy_23_vs_6(self):
        assert is_conjugate(ep([], [2, 3]), ep([], [6]))

    def test_conjugacy_2_vs_4(self):
        assert is_conjugate(ep([], [2]), ep([], [4]))

    def test_non_conjugate(self):
        assert not is_conjugate(ep([], [2]), ep([], [2, 3]))

    def test_all_primes_vs_finite(self):
        assert not is_conjugate(ALL_PRIMES, ep([], [6]))
        assert is_factor(ep([], [6]), ALL_PRIMES) is False  # inf valuations undominated


class TestArithmetic:
    def test_full_carry(self):
        q = ep([], [2])
        assert add_one(OdometerPoint((1, 3, 7, 15)), q) == OdometerPoint((0, 0, 0, 0))

    def test_zero_becomes_one(self):
        q = ep([], [2])
        assert add_one(OdometerPoint((0, 0, 0, 0)), q) == OdometerPoint((1, 1, 1, 1))

    def test_decimal_carry(self):
        q = ep([], [10])
        assert add_one(OdometerPoint((9, 99)), q) == OdometerPoint((0, 0))

    def test_incoherent_rejected(self):
        with pytest.raises(IncoherentPoint):
            add_one(OdometerPoint((1, 0)), ep([], [2]))

    @pytest.mark.parametrize(
        "q,depth",
        [
            (ep([], [2]), 12),
            (ep([], [10]), 4),
            (ep([2, 5], [3]), 6),
        ],
    )
    def test_full_cycle_identity(self, q, depth):
        # p_n iterations of +1 return every depth-n point to itself
        x = OdometerPoint(tuple(q.partial_product(n) - 1 for n in range(1, depth + 1)))
        p_n = q.partial_product(depth)
        y = x
        for _ in range(p_n):
            y = add_one(y, q)
        assert y == x

    def test_bulk_addition_matches_iteration(self):
        q = ep([], [3])
        x = OdometerPoint((0, 0, 0, 0, 0, 0))
        y = x
        for _ in range(1000):
            y = add_one(y, q)
        assert y == add(x, q, 1000)


class TestCanonicalPrimeForm:
    def test_six_splits(self):
        assert canonical_prime_form(ep([], [6])) == ep([], [2, 3])

    def test_two_already_prime(self):
        assert canonical_prime_form(ep([], [2])) == ep([], [2])

    def test_twelve_prefix(self):
        assert canonical_prime_form(ep([12], [2])) == ep([2, 2, 3], [2])

    @pytest.mark.parametrize(
        "q", [ep([], [6]), ep([4], [10]), ep([2, 9], [35]), ep([], [2, 3, 4])]
    )
    def test_always_conjugate(self, q):
        assert is_conjugate(q, canonical_prime_form(q))


class TestInduceViaDiagram:
    def test_dyadic_invariant(self):
        assert induce_via_diagram(ep([], [2])) == ep([], [2])

    def test_prefix_dropped(self):
        assert induce_via_diagram(ep([2], [3])) == ep([], [3])

    def test_two_step_prefix(self):
        assert induce_via_diagram(ep([5, 7], [2])) == ep([7], [2])

    @pytest.mark.parametrize("q", [ep([], [2]), ep([6], [10]), ep([], [5])])
    def test_self_induction_is_invariant(self, q):
        assert bool(is_self_induced(q)) == bool(is_self_induced(induce_via_diagram(q)))

    def test_prop_equivalence_chain(self):
        # self-induced iff some prime odometer with infinite valuation factors in
        for q in [ep([], [2]), ep([7], [10]), ep([2, 3], [5]), ep([], [6])]:
            decision = is_self_induced(q)
            profile = valuation_profile(q)
            witnesses = [
                p for p in profile if profile[p] == INFINITE and is_factor(ep([], [p]), q)
            ]
            assert bool(decision) == bool(witnesses)
            if decision:
                assert decision.witness_prime == min(witnesses)


class TestDiagram:
    def test_to_diagram_counts(self):
        d = to_diagram(ep([2], [3]), 4)
        assert d.vertex_counts == (1, 1, 1, 1, 1)
        assert [len(d.edges(k)) for k in range(1, 5)] == [2, 3, 3, 3]


class TestDyadicHandle:
    def test_self_check(self):
        handle = DyadicOdometerHandle(depth=20)
        handle.self_check(resolution=4)

    def test_return_times(self):
        handle = DyadicOdometerHandle(depth=10)
        assert handle.return_time(0) == 2
        assert handle.return_time(3) == 1
        # matches honest iteration
        for z in range(16):
            assert handle.return_time(z) == handle._iterated_return_time(z)

    def test_phi_lands_in_target(self):
        handle = DyadicOdometerHandle(depth=10)
        for z in range(32):
            assert handle.in_target(handle.phi(z))

    def test_step_back_inverts_step(self):
        handle = DyadicOdometerHandle(depth=12)
        for z in (0, 7, 4095):
            assert handle.step_back(handle.step(z)) == z
