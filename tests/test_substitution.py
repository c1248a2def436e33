"""Substitutions: iteration, primitivity, languages, return words, derivation,
recognizability and the constructive self-induction check.

Oracles are independent of the code paths they check: return words come from
a raw gap scan on an iterated image, derived rules are verified by brute
expansion, frequencies against empirical counts.
"""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorsys import substitution as S
from cantorsys.errors import (
    ConstructionError,
    EmptyClopen,
    EmptyWord,
    NoFixedLetterPower,
    NotPrimitive,
    Periodic,
)
from cantorsys.gensub import (
    Cell,
    discrete_space,
    discrete_substitution,
    from_self_induced,
    omega_fixed_point,
)
from cantorsys.substitution import (
    SelfInductionFailure,
    ShiftPoint,
    SubstitutionShiftHandle,
    Substitution,
    chacon,
    clopen_measure,
    composition_matrix,
    cut_statuses,
    derive,
    fibonacci,
    frequencies,
    frequency_data,
    image_clopen,
    image_tilings,
    is_primitive,
    iterate,
    language,
    period_doubling,
    periodicity_cached,
    periodicity_check,
    recognizability_radius,
    return_words,
    thue_morse,
    verify_self_induced,
    word_frequencies,
)
from cantorsys.words import Alphabet, ClopenSet, Cylinder, Word


def w(text):
    return Word(tuple(text))


def gap_scan(s, letter, power, anchor="0"):
    """Oracle: left-anchored return words to [letter] from a raw scan of
    sigma^power(anchor)."""
    text = iterate(s, w(anchor), power).letters
    positions = [i for i, x in enumerate(text) if x == letter]
    return {Word(text[i:j]) for i, j in zip(positions, positions[1:])}


PERIODIC_SUB = Substitution(Alphabet(["0", "1"]), {"0": "01", "1": "01"})


class TestIterate:
    def test_period_doubling_square(self):
        s = period_doubling()
        assert iterate(s, w("0"), 2) == w("0100")
        assert iterate(s, w("1"), 2) == w("0101")

    def test_zero_power_is_identity(self):
        assert iterate(period_doubling(), w("10"), 0) == w("10")

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWord):
            iterate(period_doubling(), Word(), 3)

    @pytest.mark.parametrize("s", [period_doubling(), fibonacci(), thue_morse()])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_composition_law(self, s, k):
        for a in s.alphabet:
            u = Word((a,))
            assert iterate(s, s.apply(u), k) == iterate(s, u, k + 1)


class TestCompositionMatrix:
    def test_period_doubling_matrix(self):
        assert composition_matrix(period_doubling()) == ((1, 2), (1, 0))

    @pytest.mark.parametrize("s", [period_doubling(), fibonacci(), thue_morse()])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_column_sums_are_image_lengths(self, s, k):
        sk = s.power(k)
        matrix = composition_matrix(sk)
        for j, b in enumerate(s.alphabet):
            assert sum(row[j] for row in matrix) == len(iterate(s, Word((b,)), k))


class TestPrimitivity:
    def test_period_doubling_primitive_with_exponent_two(self):
        report = is_primitive(period_doubling())
        assert report.primitive and report.witness_exponent == 2

    def test_chacon_not_primitive(self):
        report = is_primitive(chacon())
        assert not report.primitive
        # 0 never appears in any sigma^n(1)
        assert report.failing_pair == ("1", "0")

    def test_identity_substitution_no_growth(self):
        s = Substitution(Alphabet(["0", "1"]), {"0": "0", "1": "1"})
        report = is_primitive(s)
        assert not report.primitive and not report.growth


class TestLanguage:
    def test_period_doubling_horizon_two(self):
        lang = language(period_doubling(), 2)
        assert set(lang.words(1)) == {w("0"), w("1")}
        assert set(lang.words(2)) == {w("00"), w("01"), w("10")}

    def test_fibonacci_horizon_two(self):
        lang = language(fibonacci(), 2)
        assert set(lang.words(2)) == {w("00"), w("01"), w("10")}

    def test_periodic_substitution_language(self):
        lang = language(PERIODIC_SUB, 4)
        for n in range(1, 5):
            assert len(lang.words(n)) == 2

    def test_oracle_factors_of_big_image(self):
        s = period_doubling()
        lang = language(s, 6)
        big = iterate(s, w("0"), 10)
        for n in range(1, 7):
            assert set(lang.words(n)) == set(big.factors(n))

    def test_not_primitive_rejected(self):
        with pytest.raises(NotPrimitive):
            language(chacon(), 3)

    def test_truncations_match_fresh_builds(self):
        s = tribonacci()
        s.language_at(12)
        for h in range(1, 12):
            lang = s.language_at(h)
            fresh = language(tribonacci(), h)
            assert lang.horizon == h
            for n in range(1, h + 1):
                assert lang.words(n) == fresh.words(n)
            assert s.language_at(h) is lang


@st.composite
def small_primitive_rules(draw):
    letters = "abc"[: draw(st.integers(2, 3))]
    image = st.lists(st.sampled_from(letters), min_size=1, max_size=3)
    s = Substitution(Alphabet(list(letters)), {a: draw(image) for a in letters})
    assume(is_primitive(s))
    return s


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_primitive_rules(), st.integers(1, 6))
def test_language_equals_factors_of_long_iterate(s, horizon):
    lang = language(s, horizon)
    text = (s.alphabet.letters[0],)
    while len(text) < 3000:
        text = s.apply_letters(text)
    for n in range(1, horizon + 1):
        factors = {text[i : i + n] for i in range(len(text) - n + 1)}
        assert {u.letters for u in lang.words(n)} == factors


class TestPeriodicity:
    def test_equal_images_periodic(self):
        result = periodicity_check(PERIODIC_SUB)
        assert result.periodic and result.word in (w("01"), w("10"))

    @pytest.mark.parametrize("s", [period_doubling(), thue_morse(), fibonacci()])
    def test_aperiodic_certificates(self, s):
        result = periodicity_check(s)
        assert not result.periodic
        assert result.certificate.strictly_increasing


class TestFrequencies:
    def test_period_doubling_exact(self):
        freq = frequencies(period_doubling())
        assert freq["0"] == Fraction(2, 3) and freq["1"] == Fraction(1, 3)

    def test_symmetric_constant_length(self):
        freq = frequencies(thue_morse())
        assert freq["0"] == Fraction(1, 2) and freq["1"] == Fraction(1, 2)

    def test_fibonacci_golden_ratio(self):
        freq = frequencies(fibonacci())
        phi = (5 ** 0.5 - 1) / 2
        assert abs(freq["0"] - phi) < 1e-10
        assert abs(freq["1"] - phi ** 2) < 1e-10

    @pytest.mark.parametrize("s", [period_doubling(), fibonacci(), thue_morse()])
    def test_eigen_residual_and_empirical(self, s):
        data = frequency_data(s)
        matrix = composition_matrix(s)
        n = len(matrix)
        for i in range(n):
            image = sum(matrix[i][j] * data.vector[j] for j in range(n))
            assert abs(image - data.value * data.vector[i]) < 1e-10
        text = iterate(s, w("0"), 10).letters
        for j, a in enumerate(s.alphabet):
            assert abs(text.count(a) / len(text) - data.vector[j]) < 1e-2


class TestWordFrequencies:
    def test_marginals_consistent(self):
        s = period_doubling()
        f1 = word_frequencies(s, 1)
        f2 = word_frequencies(s, 2)
        for u, value in f1.items():
            assert sum(v for x, v in f2.items() if x[:1] == u) == value

    def test_measure_shrinkage_constant_length(self):
        # mu(sigma^n(X)) = L^{-n} exactly, with the measure computed from
        # word frequencies over the recognizability cylinders
        s = period_doubling()
        for n in (1, 2, 3, 4):
            sk = s.power(n)
            radius = recognizability_radius(sk, bound=4 * sk.max_image_length())
            clopen = image_clopen(sk, radius)
            assert clopen_measure(s, clopen) == Fraction(1, 2 ** n)


class TestReturnWords:
    def test_period_doubling_zero_cylinder(self):
        s = period_doubling()
        result = return_words(s, "0", 1)
        assert set(result) == {w("0"), w("01")}
        assert set(result) == gap_scan(s, "0", 10)

    def test_period_doubling_one_cylinder(self):
        # sigma^2(1) = 0101 holds a 1 but does not start with one
        s = period_doubling()
        result = return_words(s, "1", 2)
        assert set(result) == gap_scan(s, "1", 12)
        assert set(result) == {w("10"), w("1000")}

    def test_fibonacci_zero_cylinder(self):
        result = return_words(fibonacci(), "0", 1)
        assert set(result) == {w("0"), w("01")}

    def test_cuts_decompose_images(self):
        s = period_doubling()
        result = return_words(s, "0", 1)
        assert result[w("01")] == (w("01"), w("0"), w("0"))
        assert result[w("0")] == (w("01"),)

    def test_letter_missing_from_its_image_rejected(self):
        with pytest.raises(ConstructionError):
            return_words(period_doubling(), "1", 1)  # sigma(1) = 00

    def test_periodic_rejected(self):
        with pytest.raises(Periodic):
            return_words(PERIODIC_SUB, "0", 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_primitive_rules(), st.data())
def test_return_word_closure_matches_gap_scan(s, data):
    """The closure equals the gaps between visits of a in sigma^(kn)(a) once
    that text holds every closure word, for the least k with a in sigma^k(a);
    derive intertwines exactly wherever a first-letter power exists."""
    assume(not periodicity_cached(s).periodic)
    a = data.draw(st.sampled_from(s.alphabet.letters))
    power = next(k for k in range(1, len(s.alphabet) + 1) if a in iterate(s, w(a), k).letters)
    closure = set(return_words(s, a, power))
    n, gaps = 0, set()
    while not gaps >= closure:
        n += 1
        assert len(iterate(s, w(a), power * n)) < 1 << 20
        gaps = gap_scan(s, a, power * n, anchor=a)
    assert gaps == closure
    try:
        d = derive(s, a)
    except NoFixedLetterPower:
        assert all(iterate(s, w(a), k)[0] != a for k in range(1, len(s.alphabet) + 1))
        return
    assert set(d.theta.values()) == closure
    for name in d.tau.alphabet:
        assert d.theta_word(d.tau.image(name)) == iterate(s, d.theta[name], d.power)


class TestDerive:
    def test_period_doubling(self):
        d = derive(period_doubling(), "0")
        assert d.power == 1
        assert d.theta["A"] == w("01") and d.theta["B"] == w("0")
        assert d.tau.image("A") == Word(("A", "B", "B"))
        assert d.tau.image("B") == Word(("A",))

    def test_fibonacci(self):
        d = derive(fibonacci(), "0")
        assert d.power == 1
        assert d.theta["A"] == w("01") and d.theta["B"] == w("0")
        assert d.tau.image("A") == Word(("A", "B"))
        assert d.tau.image("B") == Word(("A",))

    def test_thue_morse(self):
        d = derive(thue_morse(), "0")
        assert d.power == 1
        assert set(d.theta.values()) == gap_scan(thue_morse(), "0", 12)

    @pytest.mark.parametrize(
        "rules,a",
        [
            ({"a": "bc", "b": "cc", "c": "aa"}, "b"),
            ({"a": "cb", "b": "aa", "c": "bb"}, "c"),
            ({"a": "cc", "b": "ca", "c": "aab"}, "a"),
        ],
    )
    def test_return_words_first_seen_late(self, rules, a):
        # some return word first occurs hundreds of letters into the fixed point
        s = Substitution(Alphabet(["a", "b", "c"]), rules)
        d = derive(s, a)
        assert set(d.theta.values()) == gap_scan(s, a, 16 // d.power * d.power, anchor=a)
        for name in d.tau.alphabet:
            assert d.theta_word(d.tau.image(name)) == iterate(s, d.theta[name], d.power)

    @pytest.mark.parametrize(
        "s,a", [(period_doubling(), "0"), (fibonacci(), "0"), (thue_morse(), "0")]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_brute_force_intertwining(self, s, a, n):
        # theta(tau^n(A)) = sigma^(n*k)(theta(A)), expanded exactly
        d = derive(s, a)
        for name in d.tau.alphabet:
            expanded = d.theta_word(iterate(d.tau, Word((name,)), n))
            assert expanded == iterate(s, d.theta[name], n * d.power)


class TestRecognizability:
    def test_period_doubling_radius(self):
        radius = recognizability_radius(period_doubling(), 8)
        assert radius is not None and radius <= 2

    def test_fibonacci_radius_small(self):
        radius = recognizability_radius(fibonacci(), 8)
        assert radius is not None and radius <= 4

    def test_periodic_rejected(self):
        with pytest.raises(Periodic):
            recognizability_radius(PERIODIC_SUB, 4)

    def test_tilings_of_image_have_origin_cut(self):
        s = period_doubling()
        text = iterate(s, w("0"), 6).letters
        tilings = image_tilings(s, text)
        assert all(t.has_cut(0) for t in tilings)

    @pytest.mark.parametrize(
        "make", [period_doubling, fibonacci, thue_morse, lambda: thue_morse().power(2)]
    )
    def test_image_clopen_reads_the_radius_search(self, make, monkeypatch):
        calls = []
        original = S.image_tilings
        monkeypatch.setattr(S, "image_tilings", lambda *a, **k: calls.append(a) or original(*a, **k))
        s = make()
        radius = recognizability_radius(s, 4 * s.max_image_length())
        searched = len(calls)
        clopen = image_clopen(s, radius)
        assert searched > 0 and len(calls) == searched
        fresh = image_clopen(make(), radius)  # no radius search: tiles anew
        assert len(calls) > searched
        assert clopen.cylinders == fresh.cylinders

    def test_radius_without_boundaries_is_an_empty_clopen(self):
        with pytest.raises(EmptyClopen):
            image_clopen(period_doubling(), 0)


class TestSelfInduction:
    def test_period_doubling_depth_200(self):
        report = verify_self_induced(period_doubling(), depth=200, samples=20)
        assert report.passed
        assert set(report.return_times) == {2}

    def test_fibonacci_return_times_match_image_lengths(self):
        report = verify_self_induced(fibonacci(), depth=200, samples=20)
        assert report.passed
        assert set(report.return_times) <= {1, 2}
        assert report.return_times == report.image_lengths

    def test_chacon_rejected(self):
        with pytest.raises(NotPrimitive):
            verify_self_induced(chacon(), depth=10, samples=5)

    @pytest.mark.parametrize("depth,samples", [(10, 0), (-3, 5)])
    def test_vacuous_check_rejected(self, depth, samples):
        with pytest.raises(ConstructionError):
            verify_self_induced(period_doubling(), depth=depth, samples=samples)

    @pytest.mark.parametrize("s", [period_doubling(), thue_morse()])
    def test_square_certifies_iff_base_does(self, s):
        base = verify_self_induced(s, depth=50, samples=10)
        squared = verify_self_induced(s.power(2), depth=50, samples=10)
        assert base.passed == squared.passed

    @pytest.mark.parametrize("kind", ["not-in-target", "return-time", "commutation", "doubling"])
    def test_failure_text_names_kind_and_origin(self, kind):
        text = str(SelfInductionFailure(kind, 37, "forced"))
        assert kind in text and "origin 37" in text

    @pytest.mark.parametrize("centre_cut, kind", [(False, "not-in-target"), (None, "return-time")])
    def test_wrong_target_gives_typed_failures(self, monkeypatch, centre_cut, kind):
        """U replaced by the non-boundary words (sigma(x) never in U) or by
        every word (first return after one step, not |sigma(x_0)| = 2)."""
        s = period_doubling()
        radius = recognizability_radius(s, 8)
        lang = s.language_at(2 * radius + 1)
        cylinders = [
            Cylinder(v[:radius], v[radius:])
            for v in lang.words(2 * radius + 1)
            if centre_cut is None or cut_statuses(s, v.letters, radius) == {centre_cut}
        ]
        monkeypatch.setattr(S, "image_clopen", lambda s, r: ClopenSet(cylinders))
        report = verify_self_induced(s, depth=10, samples=6)
        assert len(report.failures) == 6
        assert {f.kind for f in report.failures} == {kind}
        assert all(f"origin {f.origin}" in str(f) for f in report.failures)


class TestPowerRoot:
    @pytest.fixture()
    def checked(self, monkeypatch):
        """The substitutions `periodicity_check` runs on, in call order."""
        seen = []
        original = S.periodicity_check
        monkeypatch.setattr(S, "periodicity_check", lambda s: seen.append(s) or original(s))
        return seen

    def test_rule_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            s = thue_morse()
            s.power(2)
            s.language_at(10)
            ref = weakref.ref(s)
            del s
            assert ref() is None
        finally:
            gc.enable()

    def test_power_periodicity_comes_from_the_root(self, checked):
        s = thue_morse()
        result = periodicity_cached(s.power(3))
        assert checked == [s]
        assert not result.periodic and periodicity_cached(s) is result

    def test_orphaned_power_decides_periodicity_itself(self, checked):
        s = period_doubling()
        sk = s.power(2)
        del s
        result = periodicity_cached(sk)
        assert checked == [sk]
        assert not result.periodic and result.certificate.period_bound == 32  # sk's own bound


class TestShiftHandle:
    def test_self_check(self):
        handle = SubstitutionShiftHandle(period_doubling(), depth=32)
        handle.self_check(resolution=3)

    def test_membership_matches_clopen(self):
        s = period_doubling()
        handle = SubstitutionShiftHandle(s, depth=32)
        radius = recognizability_radius(s, 8)
        clopen = image_clopen(s, radius)
        point = handle.representative(handle.cells(4)[0])
        for _ in range(8):
            assert handle.in_target(point) == clopen.contains_at(
                point.text, point.origin
            )
            point = handle.step(point)
        for power in (1, 2, 3):
            sk = s.power(power)
            rad = recognizability_radius(sk, 4 * sk.max_image_length())
            for u in s.language_at(2 * rad + 1).words(2 * rad + 1):
                statuses = cut_statuses(sk, u.letters, rad)
                assert len(statuses) == 1
                assert handle.in_iterated_image(ShiftPoint(u.letters, rad), power) in statuses

    def test_membership_outside_language_rejected(self):
        handle = SubstitutionShiftHandle(period_doubling(), depth=32)
        radius = recognizability_radius(period_doubling(), 8)
        window = tuple("1" * (2 * radius + 1))  # 11 is not a factor
        with pytest.raises(ConstructionError):
            handle.in_iterated_image(ShiftPoint(window, radius), 1)

    def test_representative_beyond_the_sample_text(self):
        # ccbbcbba is in L_8 but not in the handle's 729-letter sample text
        s = Substitution(Alphabet(["a", "b", "c"]), {"a": "cbb", "b": "aaa", "c": "aac"})
        handle = SubstitutionShiftHandle(s)
        cell = w("ccbbcbba")
        assert cell.letters not in {handle._text[i : i + 8] for i in range(len(handle._text))}
        assert handle.cell_of(handle.representative(cell), 4) == cell
        g = from_self_induced(handle, 4)
        assert Cell(4, "ccbbcbba") in g.lengths[4]
        with pytest.raises(ConstructionError):
            handle.representative(w("abababab"))

    def test_phi_agrees_with_the_image_of_the_whole_text(self):
        s = period_doubling()
        handle = SubstitutionShiftHandle(s, depth=16)
        for cell in handle.cells(3):
            point = handle.representative(cell)
            image = s.apply_letters(point.text)
            origin = len(s.apply_letters(point.text[: point.origin]))
            assert handle.cell_of(handle.phi(point), 16) == Word(image[origin - 16 : origin + 16])

    def test_two_sided_window_recurrence(self):
        g = discrete_substitution(discrete_space(["0", "1"]), {"0": "01", "1": "00"})
        zero = g.space.frontier(1)[0]
        result = omega_fixed_point(g, zero, zero, radius=8)
        left = tuple(c.name for c in result.window.left())
        right = tuple(c.name for c in result.window.right())
        assert result.period == 2
        # right side is the one-sided fixed point
        assert right == tuple(iterate(period_doubling(), w("0"), 4).letters[:8])
        # left side ends the iterate of 0 the window recurred at
        assert left == iterate(period_doubling(), w("0"), result.iterations).letters[-8:]


def tribonacci():
    return Substitution(
        Alphabet(["0", "1", "2"]), {"0": "01", "1": "02", "2": "0"}
    )


class TestThreeLetters:
    def test_primitive_aperiodic(self):
        s = tribonacci()
        assert is_primitive(s).primitive
        assert not periodicity_check(s).periodic

    def test_frequencies_sum_and_residual(self):
        from cantorsys.substitution import frequency_data

        data = frequency_data(tribonacci())
        assert not data.exact  # tribonacci constant is irrational
        assert abs(sum(data.vector) - 1) < 1e-12
        # dominant root of x^3 = x^2 + x + 1
        assert abs(data.value - 1.839286755214161) < 1e-9

    def test_return_words_match_gap_scan(self):
        s = tribonacci()
        result = return_words(s, "0", 1)
        assert set(result) == gap_scan(s, "0", 14)

    def test_derive_intertwines(self):
        s = tribonacci()
        d = derive(s, "0")
        assert d.power == 1
        for name in d.tau.alphabet:
            assert d.theta_word(d.tau.image(name)) == iterate(s, d.theta[name], 1)

    def test_self_induction(self):
        result = verify_self_induced(tribonacci(), depth=60, samples=10)
        assert result.passed
        assert result.return_times == result.image_lengths


class TestOpaqueLetters:
    def test_multichar_alphabet(self):
        s = Substitution(
            Alphabet(["aa", "bb"]),
            {"aa": ["aa", "bb"], "bb": ["aa", "aa"]},
        )
        assert is_primitive(s).primitive
        freq = frequencies(s)
        assert freq["aa"] == Fraction(2, 3)
        d = derive(s, "aa")
        assert d.theta["A"] == Word(("aa", "bb"))


class TestShiftHandleStepBack:
    def test_step_back_inverts_step(self):
        handle = SubstitutionShiftHandle(period_doubling(), depth=16)
        point = handle.representative(handle.cells(3)[0])
        assert handle.step_back(handle.step(point)) == point
