"""image-queries: warm handles answering queries (language lookup side).

Set-up builds a SubstitutionShiftHandle for each generated rule (and, for
the constant-length kind, the radius of sigma^2) and the zero-successor
generalized substitution.  A round then puts the same queries to one
handle of each kind: `from_self_induced` at resolutions 2-4, membership of
constructed points in sigma(X) (and sigma^2(X)), and on the constant-length
handle `verify_power_formula` and exact word frequencies; then omega
windows and recognizability decompositions of the zero-successor
substitution, and the fault below.
"""

from __future__ import annotations

import functools

import corpus
import oracles as O
from harness import Op
from oracles import expect

from cantorsys import errors, gensub, substitution as S
from cantorsys.substitution import ShiftPoint
from cantorsys.words import Alphabet

NAME = "image-queries"
HANDLES = 40  # per kind; rounds cycle through them
POINTS = 6  # constructed points per power
POWER_FORMULA = (2, 4, 2)  # n, samples, resolution
ZS_RESOLUTION = 6
OMEGA_RADIUS = 6
DECOMPOSE_WINDOWS = 11  # as many cheap operations as costly ones around the memberships
# representative() finds cells only in the handle's sample text; this
# rule's cell ccbbcbba of L_8 is not there (README.md, "Named faults").
FAULT_RULE = {"a": "cbb", "b": "aaa", "c": "aac"}
# SubstitutionShiftHandle(depth=64) samples the first iterate of the first
# letter with at least 8 * margin letters, margin = 64 + radius + |image| + 2,
# and searches it outside the margins.  Generated rules keep every cell of
# resolution <= 4 inside [77, len - 85) of every iterate that can be, so no
# generated query meets the fault above.
SAMPLE_BOUNDS = (8 * 67, 8 * 77)
SAMPLE_MARGINS = (77, 85)


def _cells_sampled(rules: dict, letters: str, text: str) -> bool:
    wanted = {text[i : i + 8] for i in range(len(text) - 7)}
    for bound in SAMPLE_BOUNDS:
        sample = O.iterate_from(rules, letters[0], bound)
        window = sample[SAMPLE_MARGINS[0] : len(sample) - SAMPLE_MARGINS[1]]
        if any(w not in window for w in wanted):
            return False
    return True


# p(8) bands.  A handle's query cost follows p(8) closely, so each kind
# cycles through bands of it; kind A takes images of lengths 2 and 3 (the
# constant-length-3 rules there reach radius 3 and cost up to ten times as
# much), and kind B on "abc" stops at p(8) = 34 (beyond, a handle costs up
# to four times the band's median).
BANDS_A = ((8, 9, 9), (8, 10, 16), (8, 23, corpus.INF))
BANDS_B = {"ab": ((8, 12, 12), (8, 22, 22)), "abc": ((8, 0, 22), (8, 23, 28), (8, 30, 34))}


def handle_rule(rng, letters: str, lo: int, hi: int, band: tuple) -> tuple[dict, str]:
    while True:
        rules, text = corpus.aperiodic_rule(rng, letters, lo, hi, band, mixed=lo < hi)
        if _cells_sampled(rules, letters, text):
            return rules, text


class Handle:
    """A rule document, its long iterate, and once built its warm handle."""

    def __init__(self, letters: str, rules: dict, text: str):
        self.letters, self.rules, self.text = letters, rules, text

    def build(self, powers=()) -> None:
        self.s = S.Substitution(Alphabet(list(self.letters)), self.rules)
        self.h = S.SubstitutionShiftHandle(self.s)
        for k in powers:
            self.h.in_iterated_image(self.h.representative(self.h.cells(1)[0]), k)


def from_system_check(hd: Handle, resolution: int):
    def check(g, _):
        rules = hd.rules
        for m in range(1, resolution + 1):
            cells = {c.name: c for c in g.lengths[m]}
            expect(set(cells) == {hd.text[i : i + 2 * m] for i in range(len(hd.text) - 2 * m + 1)},
                   f"cells at resolution {m} are not L_{2 * m}")
            for name, cell in cells.items():
                left, right = O.apply(rules, name[:m]), O.apply(rules, name[m:])
                image = left + right
                r = len(rules[name[m]])
                expect(g.lengths[m][cell] == r, f"length at {name} != |sigma({name[m]})|")
                o = len(left)
                for j in range(1, r + 1):
                    expect(g.images[m][(cell, j)].name == image[o + j - 1 - m : o + j - 1 + m],
                           f"letter {j} of the image of {name}")
    return check


def power_formula_check(hd: Handle):
    n, samples, resolution = POWER_FORMULA
    cells = O.factor_count(hd.text, 2 * resolution)

    def check(report, _):
        expect(report.passed, f"power formula failed: {report.failures[:1]}")
        expect(report.checks == n * min(samples, cells), "power formula check count")
    return check


def membership_ops(hd: Handle, rng, powers) -> list:
    ops = []
    for power in powers:
        sk = O.power_rules(hd.rules, power)
        base = hd.text[: 40 // power + 8]
        image = O.apply(sk, base)
        cuts = set(O.cut_positions(sk, base))
        point_text = tuple(image)
        lo, hi = 16, len(image) - 16
        for _ in range(POINTS):
            p = rng.randrange(lo, hi)
            point = ShiftPoint(point_text, p)
            expected = p in cuts
            ops.append(Op("in_iterated_image", lambda pt=point, k=power: hd.h.in_iterated_image(pt, k),
                          lambda r, _, e=expected: expect(r == e, "membership of a constructed point")))
    return ops


def frequencies_check(hd: Handle, m: int):
    def check(freqs, _):
        words = {"".join(w.letters): f for w, f in freqs.items()}
        expect(set(words) == {hd.text[i : i + m] for i in range(len(hd.text) - m + 1)}, "keys are not L_m")
        expect(sum(words.values()) == 1 and all(f > 0 for f in words.values()), "not a probability vector")
        left, right = {}, {}
        for w, f in words.items():
            left[w[1:]] = left.get(w[1:], 0) + f
            right[w[:-1]] = right.get(w[:-1], 0) + f
        expect(left == right, "Kolmogorov consistency fails")
    return check


# -- the zero-successor substitution j -> 0 (j+1) on {0, 1, ..., inf} --------


def zs_image(name: str, resolution: int) -> list:
    tail = f"[{resolution},inf]"
    if name == tail or int(name) + 1 >= resolution:
        return ["0", tail]
    return ["0", str(int(name) + 1)]


def zs_apply(names: list, resolution: int) -> list:
    return [x for n in names for x in zs_image(n, resolution)]


def zs_omega_check(left: str, right: str):
    def check(window, exc):
        legal = any(
            (left, right) in set(zip(w, w[1:]))
            for w in _zs_words(ZS_RESOLUTION, 12)
        )
        if isinstance(exc, errors.SeedNotLegal):
            expect(not legal, "legal seed refused")
            return
        expect(legal, "illegal seed accepted")
        keep = OMEGA_RADIUS * 2 + OMEGA_RADIUS + 4

        def at(iterations):
            lw, rw = [left], [right]
            for _ in range(iterations):
                lw = zs_apply(lw, ZS_RESOLUTION)[-keep:]
                rw = zs_apply(rw, ZS_RESOLUTION)[:keep]
            return lw[-OMEGA_RADIUS:] + rw[:OMEGA_RADIUS]

        cells = [c.name for c in window.window.cells]
        expect(window.window.origin == OMEGA_RADIUS, "window origin")
        expect(cells == at(window.iterations), "omega window differs from direct iteration")
        expect(cells == at(window.iterations - window.period), "window does not recur")
    return check


@functools.cache
def _zs_words(resolution: int, bound: int) -> tuple:
    """sigma^j(c) for every cell c and j <= bound, up to 4096 cells long."""
    cells = [str(k) for k in range(resolution)] + [f"[{resolution},inf]"]
    words = []
    for c in cells:
        w = [c]
        for _ in range(bound):
            w = zs_apply(w, resolution)
            if len(w) > 4096:
                break
            words.append(w)
    return tuple(words)


def zs_decompose_check(names: list, origin: int):
    tail = f"[{ZS_RESOLUTION},inf]"

    def check(result, _):
        n = len(names)
        cuts = [i for i in range(n) if names[i] == "0"]
        if n >= 2 and names[n - 2] == "0":
            cuts.append(n)
        pre = []
        for i in range(n - 1):
            if names[i] == "0":
                x = names[i + 1]
                pre.append(f"[{ZS_RESOLUTION - 1},inf]" if x == tail else str(int(x) - 1))
        expect(isinstance(result, gensub.Decomposition), f"no unique decomposition: {result!r}")
        expect(list(result.cuts) == [c - origin for c in cuts], "decomposition cuts")
        expect([c.name for c in result.preimage] == pre, "decomposition preimage")
    return check


class Workload:
    name = NAME
    module = "cantorsys"
    setup_repeats = 3
    repeats = 3

    def __init__(self, seed: int):
        self.seed = seed
        rng = corpus.rng_for(NAME, seed, "documents")
        # kind A: two letters, images of lengths 2 and 3, queried in sigma(X);
        # kind B: constant length 2 on two or three letters, queried in
        # sigma(X) and sigma^2(X) (the radius of sigma^2 is cheap only here).
        self.kind_a = [Handle("ab", *handle_rule(rng, "ab", 2, 3, BANDS_A[i % 3])) for i in range(HANDLES)]
        self.kind_b = []
        for i in range(HANDLES):
            letters = ("ab", "abc")[i % 2]
            bands = BANDS_B[letters]
            self.kind_b.append(Handle(letters, *handle_rule(rng, letters, 2, 2, bands[i // 2 % len(bands)])))
        self.fault = Handle("abc", FAULT_RULE, O.iterate_from(FAULT_RULE, "a", corpus.TEXT_LENGTH))

    def setup(self):
        """Documents to substitutions and warm handles."""
        for hd in self.kind_a + [self.fault]:
            hd.build()
        for hd in self.kind_b:
            hd.build(powers=(2,))
        self.zs = gensub.zero_successor_substitution(ZS_RESOLUTION)
        self.zs_cells = {c.name: c for c in self.zs.space.frontier(ZS_RESOLUTION)}

    def handle_groups(self, hd: Handle, rng, powers) -> list:
        groups = [
            lambda m=m: [Op("from_self_induced", lambda: gensub.from_self_induced(hd.h, m),
                            from_system_check(hd, m))]
            for m in (2, 3, 4)
        ]
        if 2 in powers:  # the power formula needs sigma^2, warm only on kind B
            groups.append(lambda: [Op("verify_power_formula",
                                      lambda: gensub.verify_power_formula(hd.h, *POWER_FORMULA),
                                      power_formula_check(hd))])
        groups.extend(lambda op=op: [op] for op in membership_ops(hd, rng, powers))
        return groups

    def build_round(self, r: int) -> list:
        rng = corpus.rng_for(NAME, self.seed, r)
        a = self.kind_a[r % HANDLES]
        b = self.kind_b[r % HANDLES]
        groups = self.handle_groups(a, rng, (1,)) + self.handle_groups(b, rng, (1, 2))
        groups.extend(
            lambda m=m: [Op("word_frequencies", lambda: S.word_frequencies(b.s, m), frequencies_check(b, m))]
            for m in (2, 3)
        )
        fault = self.fault
        groups.append(lambda: [Op("from_self_induced", lambda: gensub.from_self_induced(fault.h, 4),
                                  from_system_check(fault, 4),
                                  fault=lambda res, exc: isinstance(exc, errors.ConstructionError)
                                  and "does not occur in the sample text" in str(exc))])
        cells = list(self.zs_cells)
        words = [w for w in _zs_words(ZS_RESOLUTION, 12) if len(w) >= 24]
        w = rng.choice(words)
        i = rng.randrange(len(w) - 1)
        # one seed pair read off a legal word, one drawn freely (it may be refused)
        for left, right in ((w[i], w[i + 1]), (rng.choice(cells), rng.choice(cells))):
            groups.append(lambda left=left, right=right: [Op(
                "omega_fixed_point",
                lambda: gensub.omega_fixed_point(self.zs, self.zs_cells[left], self.zs_cells[right], OMEGA_RADIUS),
                zs_omega_check(left, right), accepts=(errors.SeedNotLegal,))])
        for _ in range(DECOMPOSE_WINDOWS):
            w = rng.choice(words)
            start = rng.randrange(len(w) - 12)
            names = w[start : start + rng.randint(6, 12)]
            origin = rng.randrange(len(names) + 1)
            window = gensub.TwoSidedCellWord(tuple(self.zs_cells[x] for x in names), origin)
            groups.append(lambda window=window, names=names, origin=origin: [Op(
                "recognizability_decompose", lambda: gensub.recognizability_decompose(self.zs, window),
                zs_decompose_check(names, origin))])
        return groups
