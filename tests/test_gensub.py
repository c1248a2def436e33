"""Generalized substitutions on resolution trees.

The running example maps every letter j of {0, 1, ..., infinity} to the
two-letter word 0 (j+1); its oracle here is plain integer iteration with an
infinity sentinel, independent of the cell tables under test.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorsys.errors import ConstructionError, OverlapViolation, SeedNotLegal
from cantorsys.gensub import (
    Decomposition,
    GeneralizedSubstitution,
    Inconclusive,
    NotUnique,
    TwoSidedCellWord,
    compactified_naturals,
    discrete_space,
    discrete_substitution,
    from_self_induced,
    is_primitive_at_resolution,
    language,
    omega_fixed_point,
    recognizability_decompose,
    validate_continuity,
    verify_power_formula,
    zero_successor_substitution,
)
from cantorsys.odometer import DyadicOdometerHandle
from cantorsys.substitution import SubstitutionShiftHandle, iterate, language as sub_language, period_doubling
from cantorsys.words import Word

INF = math.inf


def xi_orbit_letters(seed, iterations):
    """Oracle: iterate j -> 0 (j+1) on actual integers/infinity."""
    word = [seed]
    for _ in range(iterations):
        out = []
        for x in word:
            out.extend([0, INF if x is INF else x + 1])
        word = out
    return word


def xi_cell(space, resolution, value):
    names = {c.name: c for c in space.frontier(resolution)}
    if value is INF or value >= resolution:
        return names[f"[{resolution},inf]"]
    return names[str(int(value))]


@pytest.fixture(scope="module")
def xi8():
    return zero_successor_substitution(8)


class TestAlphabetSpace:
    def test_compactified_frontier(self):
        space = compactified_naturals(8)
        cells = space.frontier(8)
        assert len(cells) == 9
        names = {c.name for c in cells}
        assert names == {str(k) for k in range(8)} | {"[8,inf]"}

    def test_frontier_refines(self):
        space = compactified_naturals(6)
        for m in range(1, 6):
            coarse = space.frontier(m)
            fine = space.frontier(m + 1)
            for c in fine:
                assert space.ancestor_at(c, m) in coarse

    def test_metric(self):
        space = compactified_naturals(6)
        c9 = xi_cell(space, 6, 9)      # tail cell
        c0 = xi_cell(space, 6, 0)
        c5 = xi_cell(space, 6, 5)
        assert space.distance(c0, c5) == 1.0   # split at the root
        assert space.distance(c5, c9) == 2.0 ** -5
        assert space.distance(c5, c5) == 0.0

    def test_isolated_markers(self):
        space = compactified_naturals(4)
        assert space.is_isolated(xi_cell(space, 4, 2))
        assert not space.is_isolated(xi_cell(space, 4, INF))


class TestContinuity:
    def test_xi_valid_constant_length_two(self, xi8):
        assert validate_continuity(xi8) is None
        for m in xi8.resolutions():
            assert set(xi8.lengths[m].values()) == {2}

    def test_parity_length_violation(self):
        # |sigma(j)| = 1 + (j mod 2) oscillates into every tail cell
        space = compactified_naturals(6)
        lengths = {}
        images = {}
        for m in range(1, 7):
            frontier = space.frontier(m)
            zero = xi_cell(space, m, 0)
            lengths[m] = {}
            images[m] = {}
            for c in frontier:
                parity = 0 if c.name.startswith("[") else int(c.name) % 2
                n = 1 + parity
                lengths[m][c] = n
                for j in range(1, n + 1):
                    images[m][(c, j)] = zero
        g = GeneralizedSubstitution(space, lengths, images)
        violation = validate_continuity(g)
        assert violation is not None and violation.kind == "length"

    def test_discrete_always_valid(self):
        g = discrete_substitution(
            discrete_space(["0", "1"]), {"0": "01", "1": "00"}
        )
        assert validate_continuity(g) is None


class TestPrimitivity:
    def test_xi_exponent_table(self, xi8):
        table = is_primitive_at_resolution(xi8, 8)
        assert all(value is not None for value in table.values())
        # oracle: exponents from raw integer iteration
        space = xi8.space
        seeds = list(range(8)) + [INF]
        for target_value in range(8):
            target = xi_cell(space, 8, target_value)
            oracle = None
            for j in range(1, 13):
                ok = True
                for seed in seeds:
                    for k in range(j, 13):
                        letters = xi_orbit_letters(seed, k)
                        if not any(
                            x == target_value for x in letters if x is not INF
                        ):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    oracle = j
                    break
            assert table[target] == oracle

    def test_one_cell_resolution(self):
        g = zero_successor_substitution(2)
        # resolution 1: cells {0} and the tail; both met immediately by 0 x
        table = is_primitive_at_resolution(g, 1)
        assert set(table.values()) <= {1, 2}

    def test_non_primitive_two_letters(self):
        g = discrete_substitution(discrete_space(["a", "b"]), {"a": "aa", "b": "bb"})
        table = is_primitive_at_resolution(g, 1)
        assert all(value is None for value in table.values())

    def test_swap_is_never_primitive(self):
        # sigma^k(a) and sigma^k(b) are two different letters: no power of
        # the pair meets one target from both cells
        g = discrete_substitution(discrete_space(["a", "b"]), {"a": "b", "b": "a"})
        table = is_primitive_at_resolution(g, 1)
        assert table == dict.fromkeys(g.space.frontier(1))

    def test_exponents_grow_with_the_resolution(self):
        # cell k is first met by every k+1-th image; the tail needs 40 steps
        table = is_primitive_at_resolution(zero_successor_substitution(40), 40)
        assert None not in table.values()
        assert max(table.values()) == 40
        assert {c.name: v for c, v in table.items() if v < 40} == {
            str(k): k + 1 for k in range(39)
        }


class TestLanguage:
    def test_infinity_zero_is_reached(self, xi8):
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        tail = xi_cell(space, 8, INF)
        words = language(xi8, zero, 2, 8)
        assert (tail, zero) in words

    def test_single_letters_cover_all_cells(self, xi8):
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        words = language(xi8, zero, 1, 8)
        assert {w[0] for w in words} == set(space.frontier(8))

    def test_base_independence(self, xi8):
        space = xi8.space
        cells = [xi_cell(space, 8, v) for v in (0, 3, INF)]
        results = [language(xi8, c, 2, 8) for c in cells]
        assert results[0] == results[1] == results[2]

    def test_discrete_matches_substitution_module(self):
        g = discrete_substitution(discrete_space(["0", "1"]), {"0": "01", "1": "00"})
        base = g.space.frontier(1)[0]
        words = language(g, base, 2, 1)
        as_words = {Word("".join(c.name for c in w)) for w in words}
        expected = set(sub_language(period_doubling(), 2).words(2))
        assert as_words == expected

    def test_oracle_window_factors(self, xi8):
        # direct comparison against integer iteration for n = 3
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        words = language(xi8, zero, 3, 8)
        oracle = set()
        for j in range(1, 11):
            letters = xi_orbit_letters(0, j)
            cells = [xi_cell(space, 8, x) for x in letters]
            for i in range(len(cells) - 2):
                oracle.add(tuple(cells[i : i + 3]))
        assert words == frozenset(oracle)

    def test_long_words_need_no_bound(self, xi8):
        # sigma^j(0) for j <= 4 shows only 9 of the 48 words
        space = xi8.space
        words = language(xi8, xi_cell(space, 8, 0), 8, 8)
        oracle = set()
        for j in range(1, 13):
            cells = [xi_cell(space, 8, x) for x in xi_orbit_letters(0, j)]
            oracle.update(tuple(cells[i : i + 8]) for i in range(len(cells) - 7))
        assert len(words) == 48
        assert words == frozenset(oracle)


class TestOmegaFixedPoint:
    def test_omega_window_radius8(self, xi8):
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        one = xi_cell(space, 8, 1)
        result = omega_fixed_point(xi8, zero, one, radius=8)
        values = [0, 1, 0, 2, 0, 1, 0, INF, 0, 1, 0, 2, 0, 1, 0, 3]
        expected = tuple(xi_cell(space, 8, v) for v in values)
        assert result.window.cells == expected
        assert result.period == 1

    def test_radius_two_subwindow(self, xi8):
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        one = xi_cell(space, 8, 1)
        result = omega_fixed_point(xi8, zero, one, radius=2)
        values = [0, INF, 0, 1]
        assert result.window.cells == tuple(xi_cell(space, 8, v) for v in values)

    def test_discrete_period_doubling_seed(self):
        g = discrete_substitution(discrete_space(["0", "1"]), {"0": "01", "1": "00"})
        zero = g.space.frontier(1)[0]
        assert zero.name == "0"
        result = omega_fixed_point(g, zero, zero, radius=8)
        assert result.period == 2  # sigma^2-fixed two-sided extension
        assert result.iterations == 5
        left = tuple(c.name for c in result.window.left())
        # the window recurs at iteration 5: its left half ends every odd
        # iterate of 0 from the third on, and no even one (those end in 0)
        assert left == iterate(period_doubling(), Word(("0",)), 5).letters[-8:]
        assert left == iterate(period_doubling(), Word(("0",)), 7).letters[-8:]
        assert left != iterate(period_doubling(), Word(("0",)), 6).letters[-8:]
        right = iterate(period_doubling(), Word(("0",)), 4).letters[:8]
        assert tuple(c.name for c in result.window.right()) == right

    @pytest.mark.parametrize("radius", [0, -1])
    def test_radius_below_one_rejected(self, xi8, radius):
        zero = xi_cell(xi8.space, 8, 0)
        one = xi_cell(xi8.space, 8, 1)
        with pytest.raises(ConstructionError):
            omega_fixed_point(xi8, zero, one, radius=radius)

    def test_late_seed_is_legal(self):
        # 12 0 first occurs in a 13th image of a cell
        g = zero_successor_substitution(13)
        cells = {c.name: c for c in g.space.frontier(13)}
        result = omega_fixed_point(g, cells["12"], cells["0"], radius=4)
        assert len(result.window.cells) == 8

    def test_illegal_seed(self, xi8):
        space = xi8.space
        three = xi_cell(space, 8, 3)
        five = xi_cell(space, 8, 5)
        with pytest.raises(SeedNotLegal):
            omega_fixed_point(xi8, three, five, radius=2)


class TestRecognizability:
    def test_xi_unique_cuts_at_even_offsets(self, xi8):
        space = xi8.space
        values = [0, 1, 0, 2, 0, 1, 0, 3]
        window = TwoSidedCellWord(
            tuple(xi_cell(space, 8, v) for v in values), 4
        )
        result = recognizability_decompose(xi8, window)
        assert isinstance(result, Decomposition)
        assert result.cuts == (-4, -2, 0, 2, 4)
        assert tuple(c.name for c in result.preimage) == ("0", "1", "0", "2")

    def test_single_cell_inconclusive(self, xi8):
        space = xi8.space
        window = TwoSidedCellWord((xi_cell(space, 8, 0),), 0)
        assert isinstance(recognizability_decompose(xi8, window), Inconclusive)

    def test_periodic_rule_not_unique(self):
        g = discrete_substitution(discrete_space(["a", "b"]), {"a": "ab", "b": "ab"})
        cells = {c.name: c for c in g.space.frontier(1)}
        window = TwoSidedCellWord(
            (cells["a"], cells["b"], cells["a"], cells["b"], cells["a"], cells["b"]), 2
        )
        result = recognizability_decompose(g, window)
        assert isinstance(result, NotUnique)


class TestFromSelfInduced:
    def test_dyadic_doubling_formula(self):
        handle = DyadicOdometerHandle(depth=24)
        g = from_self_induced(handle, resolution=4)
        assert validate_continuity(g) is None
        # sigma(z) = (2z)(2z+1): constant length 2
        for m in g.resolutions():
            assert set(g.lengths[m].values()) == {2}
        for cell in g.space.frontier(4):
            z = int(cell.name)
            first, second = g.image(cell, 4)
            assert int(first.name) == (2 * z) % 16
            assert int(second.name) == (2 * z + 1) % 16

    def test_period_doubling_handle(self):
        handle = SubstitutionShiftHandle(period_doubling(), depth=48)
        g = from_self_induced(handle, resolution=3)
        assert validate_continuity(g) is None
        for m in g.resolutions():
            assert set(g.lengths[m].values()) == {2}
        # letter maps are sigma and shift-of-sigma
        s = period_doubling()
        for cell in g.space.frontier(3):
            point = handle.representative(Word(tuple(cell.name)))
            image_point = handle.phi(point)
            expected_first = handle.cell_of(image_point, 3)
            expected_second = handle.cell_of(handle.step(image_point), 3)
            first, second = g.image(cell, 3)
            assert first.name == str(expected_first)
            assert second.name == str(expected_second)

    def test_whole_space_overlap_rejected(self):
        class WholeSpaceHandle(DyadicOdometerHandle):
            def in_target(self, point):
                return True

            def phi(self, point):
                return point

        with pytest.raises(OverlapViolation):
            from_self_induced(WholeSpaceHandle(depth=10), resolution=3)


class TestPowerFormula:
    def test_dyadic_powers(self):
        handle = DyadicOdometerHandle(depth=24)
        report = verify_power_formula(handle, n=3, samples=8, resolution=4)
        assert report.passed
        assert report.checks == 24

    def test_dyadic_square_return_time_four(self):
        handle = DyadicOdometerHandle(depth=24)
        g = from_self_induced(handle, resolution=4)
        cell = g.space.frontier(4)[0]
        word = g.apply(g.apply((cell,), 4), 4)
        assert len(word) == 4  # sigma^2(z) = (4z)(4z+1)(4z+2)(4z+3)
        z = int(cell.name)
        assert [int(c.name) for c in word] == [(4 * z + i) % 16 for i in range(4)]

    def test_period_doubling_powers(self):
        handle = SubstitutionShiftHandle(period_doubling(), depth=96)
        report = verify_power_formula(handle, n=3, samples=6, resolution=2)
        assert report.passed


class TestMonotonicity:
    def test_refining_resolution_refines_language(self, xi8):
        space = xi8.space
        zero8 = xi_cell(space, 8, 0)
        fine = language(xi8, zero8, 2, 8)
        coarse = language(xi8, xi_cell(space, 4, 0), 2, 4)
        projected = {
            tuple(space.ancestor_at(c, 4) for c in w) for w in fine
        }
        assert projected <= set(coarse)


class TestStructuralInvariants:
    def test_image_growth_lower_bound(self, xi8):
        # |sigma^n(a)| >= 2^(n // j) where sigma^j doubles every letter
        space = xi8.space
        j = 1  # every xi image already has two letters
        for cell in space.frontier(8):
            word = (cell,)
            for n in range(1, 13):
                word = xi8.apply(word, 8)
                assert len(word) >= 2 ** (n // j)

    def test_image_growth_non_constant_length(self):
        g = discrete_substitution(discrete_space(["0", "1"]), {"0": "01", "1": "0"})
        j = 2  # |sigma^2| >= 2 on both letters
        for cell in g.space.frontier(1):
            word = (cell,)
            for n in range(1, 13):
                word = g.apply(word, 1)
                assert len(word) >= 2 ** (n // j)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_windows_decompose_into_power_words(self, xi8, k):
        from cantorsys.gensub import power

        gk = power(xi8, k)
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        one = xi_cell(space, 8, 1)
        window = omega_fixed_point(xi8, zero, one, radius=4 * 2 ** k).window
        result = recognizability_decompose(gk, window)
        assert isinstance(result, Decomposition)
        assert result.preimage  # at least one full sigma^k block

    def test_return_time_law_on_decomposition(self, xi8):
        # consecutive cuts differ by the image length of the preimage letter
        space = xi8.space
        zero = xi_cell(space, 8, 0)
        one = xi_cell(space, 8, 1)
        window = omega_fixed_point(xi8, zero, one, radius=12).window
        result = recognizability_decompose(xi8, window)
        assert isinstance(result, Decomposition)
        for (a, b), letter in zip(
            zip(result.cuts, result.cuts[1:]), result.preimage
        ):
            assert b - a == xi8.lengths[letter.level][letter]

    def test_xi_round_trip_return_times(self, xi8):
        # the cut-at-origin clopen set: at 1000 cut positions of a long
        # one-sided trace, the first return happens after the block length
        space = xi8.space
        word = (xi_cell(space, 8, 0),)
        while len(word) < 2100:
            word = xi8.apply(word, 8)
        result = recognizability_decompose(
            xi8, TwoSidedCellWord(word[:2100], 0)
        )
        assert isinstance(result, Decomposition)
        cuts = [c for c in result.cuts if c >= 0]
        blocks = dict(zip(cuts, result.preimage))
        checked = 0
        for p, letter in list(blocks.items())[:1000]:
            expected = xi8.lengths[letter.level][letter]
            following = [c for c in cuts if c > p]
            if following:
                assert following[0] - p == expected
                checked += 1
        assert checked >= 1000

    def test_one_cell_resolution_exponent_one(self, xi8):
        table = is_primitive_at_resolution(xi8, 0)
        assert table == {xi8.space.root: 1}


class TestStabilizationLimit:
    def test_no_stabilization_within_iters(self, xi8):
        from cantorsys.errors import NoStabilization

        space = xi8.space
        zero = xi_cell(space, 8, 0)
        one = xi_cell(space, 8, 1)
        with pytest.raises(NoStabilization):
            omega_fixed_point(xi8, zero, one, radius=8, iters=3)


# -- the exact closures against the bounded loops they replaced -------------------


def bounded_language(g, base, n, resolution, bound):
    """Length-n cell words seen in sigma^j(base) for j <= bound."""
    current = {(base,)}
    seen = set()
    for _ in range(bound):
        following = set()
        for u in current:
            img = g.apply(u, resolution)
            for size in range(1, min(n, len(img)) + 1):
                for i in range(len(img) - size + 1):
                    following.add(img[i : i + size])
        current = following
        seen |= {w for w in current if len(w) == n}
    return frozenset(seen)


def bounded_primitivity(g, resolution, bound):
    """Least j <= bound with every cell's k-th image meeting V for every
    j <= k <= bound, per target V; None when there is none."""
    frontier = g.space.frontier(resolution)
    step = {a: frozenset(g.image(a, resolution)) for a in frontier}
    reached = {1: step}
    for k in range(2, bound + 1):
        reached[k] = {
            a: frozenset().union(*(step[c] for c in reached[k - 1][a])) for a in frontier
        }
    table = {}
    for target in frontier:
        table[target] = next(
            (
                j
                for j in range(1, bound + 1)
                if all(target in reached[k][a] for a in frontier for k in range(j, bound + 1))
            ),
            None,
        )
    return table


@st.composite
def finite_rules(draw):
    letters = "abcd"[: draw(st.integers(2, 4))]
    image = st.text(alphabet=letters, min_size=1, max_size=3)
    return {a: draw(image) for a in letters}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(finite_rules(), st.integers(0, 3), st.integers(1, 3))
@example({"a": "b", "b": "a"}, 0, 2)
@example({"a": "aa", "b": "bb"}, 1, 2)
@example({"a": "ab", "b": "c", "c": "b"}, 2, 3)
def test_closures_match_the_bounded_loops(rules, base_index, n):
    """The bounded loops are exact at bounds past the closures' sizes: the
    language closure's BFS depth cannot exceed its number of words, and the
    reached sets of one target repeat within 2^|F| steps."""
    g = discrete_substitution(discrete_space(sorted(rules)), rules)
    frontier = g.space.frontier(1)
    base = frontier[base_index % len(frontier)]
    words_bound = sum(len(frontier) ** i for i in range(1, n + 1)) + 1
    assert language(g, base, n, 1) == bounded_language(g, base, n, 1, words_bound)
    reach_bound = 2 ** len(frontier) + len(frontier) + 2
    assert is_primitive_at_resolution(g, 1) == bounded_primitivity(g, 1, reach_bound)
