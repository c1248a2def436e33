"""Words, languages, cylinders, block codes and tilings."""

import pytest
from hypothesis import given, settings, strategies as st

from cantorsys.errors import ConstructionError, HorizonExceeded, WordTooShort
from cantorsys.substitution import language, period_doubling
from cantorsys.words import (
    overlap_blocks,
    Alphabet,
    BlockCode,
    ClopenSet,
    Cylinder,
    Language,
    Word,
    apply_block_code,
    factor_complexity,
    kblock_present,
    tilings,
)


def w(text):
    return Word(tuple(text))


@pytest.fixture(scope="module")
def pd_language():
    return language(period_doubling(), 8)


@pytest.fixture(scope="module")
def periodic_language():
    # language of (01)^infinity
    return Language.from_text([w("01" * 16)], 8)


class TestAlphabetAndWord:
    def test_alphabet_rejects_duplicates(self):
        with pytest.raises(ConstructionError):
            Alphabet(["0", "1", "0"])

    def test_alphabet_keeps_declaration_order(self):
        a = Alphabet(["b", "a", "c"])
        assert a.letters == ("b", "a", "c")
        assert a.index("a") == 1

    def test_empty_word_is_unique(self):
        assert Word() == Word(())
        assert len(Word()) == 0

    def test_word_slicing_and_concat(self):
        u = w("0100")
        assert u[1:3] == w("10")
        assert u + w("1") == w("01001")
        assert (w("01") * 3) == w("010101")

    def test_occurrences(self):
        assert w("010010").occurrences(w("01")) == [0, 3]


class TestLanguage:
    def test_period_doubling_counts(self, pd_language):
        # two letters, and 11 never occurs
        assert factor_complexity(pd_language, 1) == 2
        assert factor_complexity(pd_language, 2) == 3
        assert set(pd_language.words(2)) == {w("00"), w("01"), w("10")}

    def test_periodic_complexity_is_two(self, periodic_language):
        assert factor_complexity(periodic_language, 5) == 2

    def test_horizon_exceeded(self, pd_language):
        with pytest.raises(HorizonExceeded):
            factor_complexity(pd_language, 9)

    def test_complexity_monotone(self, pd_language):
        values = [factor_complexity(pd_language, n) for n in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_factor_closure_enforced(self):
        with pytest.raises(ConstructionError):
            Language({1: {w("0")}, 2: {w("11")}}, 2)

    @pytest.mark.parametrize(
        "one_words,two_words,message",
        [
            (["0", "1"], ["00", "01"], "not extendable"),  # 1 starts no 2-word
            (["0", "1"], ["00", "10"], "not extendable"),  # 1 ends no 2-word
            (["0"], ["00", "01"], "not factor-closed"),  # the tail of 01 is missing
        ],
    )
    def test_invariants_enforced_on_both_sides(self, one_words, two_words, message):
        with pytest.raises(ConstructionError, match=message):
            Language({1: set(map(w, one_words)), 2: set(map(w, two_words))}, 2)

    def test_words_sorted_once(self, pd_language):
        assert pd_language.words(5) is pd_language.words(5)

    def test_count_is_complexity(self, pd_language):
        for n in range(9):
            assert pd_language.count(n) == len(pd_language.words(n))
        with pytest.raises(HorizonExceeded):
            pd_language.count(9)

    def test_truncation_shares_storage(self, pd_language):
        short = pd_language.truncate(4)
        assert short.horizon == 4
        assert pd_language.truncate(8) is pd_language
        for n in range(1, 5):
            assert short.words(n) is pd_language.words(n)
        with pytest.raises(HorizonExceeded):
            short.words(5)
        with pytest.raises(HorizonExceeded):
            short.truncate(5)


class TestBlockCodes:
    def test_radius_zero_identity(self):
        alphabet = Alphabet(["0", "1"])
        code = BlockCode(0, {w("0"): "0", w("1"): "1"}, alphabet)
        assert apply_block_code(code, w("0100")) == w("0100")

    def test_radius_one_projection(self):
        alphabet = Alphabet(["0", "1"])
        table = {u: u[1] for u in map(w, ["010", "100", "000", "001", "101"])}
        code = BlockCode(1, table, alphabet)
        assert apply_block_code(code, w("010")) == w("1")

    def test_word_too_short(self):
        alphabet = Alphabet(["0", "1"])
        table = {u: u[1] for u in map(w, ["010", "100", "000", "001", "101"])}
        code = BlockCode(1, table, alphabet)
        with pytest.raises(WordTooShort):
            apply_block_code(code, w("01"))

    def test_output_length_homogeneous(self, pd_language):
        _, _, (forward, _) = kblock_present(pd_language, 2)
        for n in range(3, 8):
            for u in pd_language.words(n):
                assert len(apply_block_code(forward, u)) == n - 2 * forward.radius


class TestKBlockPresentation:
    def test_period_doubling_two_blocks(self, pd_language):
        alphabet, recoded, _ = kblock_present(pd_language, 2)
        assert len(alphabet) == factor_complexity(pd_language, 2) == 3

    def test_two_block_recoding_example(self, pd_language):
        # word-level recoding keeps all overlap windows
        assert overlap_blocks(w("01000"), 2) == Word((w("01"), w("10"), w("00"), w("00")))
        # the radius-1 forward code trims one window on each side
        _, _, (forward, _) = kblock_present(pd_language, 2)
        assert apply_block_code(forward, w("01000")) == Word((w("10"), w("00"), w("00")))

    def test_k1_is_identity_recoding(self, pd_language):
        alphabet, recoded, (forward, backward) = kblock_present(pd_language, 1)
        assert len(alphabet) == 2
        for n in range(1, recoded.horizon + 1):
            assert factor_complexity(recoded, n) == factor_complexity(pd_language, n)

    def test_periodic_three_blocks(self, periodic_language):
        alphabet, recoded, _ = kblock_present(periodic_language, 3)
        assert set(alphabet.letters) == {w("010"), w("101")}
        # the recoded subshift is a 2-periodic orbit
        assert factor_complexity(recoded, 1) == 2
        assert factor_complexity(recoded, 2) == 2

    def test_roundtrip_is_identity_on_overlap(self, pd_language):
        k = 2
        _, _, (forward, backward) = kblock_present(pd_language, k)
        for n in range(2 * k - 1, 8):
            for u in pd_language.words(n):
                roundtrip = apply_block_code(backward, apply_block_code(forward, u))
                assert roundtrip == u[k - 1 : len(u) - (k - 1)]

    def test_needs_horizon(self, pd_language):
        with pytest.raises(HorizonExceeded):
            kblock_present(pd_language, 8)


class TestClopenSets:
    def test_normalisation_enforced(self):
        with pytest.raises(ConstructionError):
            ClopenSet([Cylinder(w("0"), w("1")), Cylinder(w(""), w("1"))])

    def test_membership(self):
        u = ClopenSet([Cylinder(w("0"), w("1")), Cylinder(w("1"), w("0"))])
        text = tuple("0100")
        assert u.contains_at(text, 1)      # past 0, future 1
        assert u.contains_at(text, 2)      # past 1, future 0
        assert not u.contains_at(text, 3)  # past 0, future 0

    def test_window_guard(self):
        u = ClopenSet([Cylinder(w("0"), w("1"))])
        with pytest.raises(WordTooShort):
            u.contains_at(tuple("01"), 0)


@st.composite
def rule_and_window(draw):
    """A rule on 1-3 letters with images of length 1-3, and a window of
    length 1-12 cut from an iterate of its first letter."""
    letters = "abc"[: draw(st.integers(1, 3))]
    image = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple)
    images = {a: draw(image) for a in letters}
    text = (letters[0],)
    for _ in range(12):
        if len(text) >= 64:
            break
        text = tuple(x for a in text for x in images[a])
    n = draw(st.integers(1, min(12, len(text))))
    start = draw(st.integers(0, len(text) - n))
    return images, text[start : start + n]


def placements(images, window):
    """Oracle: every block placement covering the window, as (cuts, interior,
    left, left_offset, right).  The window starts at each offset u inside a
    first block, then every sequence of blocks follows until the window is
    covered; a branch stops as soon as its letters disagree with the window."""
    n = len(window)
    found = []

    def grow(blocks, spelled, u):
        if any(spelled[u + i] != window[i] for i in range(min(n, len(spelled) - u))):
            return
        if len(spelled) - u < n:
            for a, img in images.items():
                grow(blocks + [a], spelled + img, u)
            return
        bounds = [-u]
        for a in blocks:
            bounds.append(bounds[-1] + len(images[a]))
        found.append((
            tuple(b for b in bounds if 0 <= b <= n),
            tuple(a for a, lo, hi in zip(blocks, bounds, bounds[1:]) if lo >= 0 and hi <= n),
            blocks[0] if u else None,
            u,
            blocks[-1] if bounds[-1] > n else None,
        ))

    for a, img in images.items():
        for u in range(len(img)):
            grow([a], img, u)
    return found


class TestTilings:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rule_and_window())
    def test_matches_every_block_placement(self, case):
        images, window = case
        result = tilings(images, window)
        assert len(set(result)) == len(result)
        got = {(t.cuts, t.interior, t.left, t.left_offset, t.right) for t in result}
        assert got == set(placements(images, window))

    def test_empty_window_rejected(self):
        with pytest.raises(ConstructionError):
            tilings({"a": ("a", "b"), "b": ("a",)}, ())
