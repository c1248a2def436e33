"""sub-decide: the decision chain on fresh substitutions (language build side).

Each round draws new rules from the seeded stream: three aperiodic rules
on two letters (images of length 1-3), three on three letters (images of
length 1-2), one from each third of the factor complexity, one periodic
rule on each alphabet, and the fixed rule that shows the derive fault.
Every rule is a fresh `Substitution`, so each round builds its languages
anew.
"""

from __future__ import annotations

import corpus
import oracles as O
from harness import Op
from oracles import expect

from cantorsys import errors, substitution as S
from cantorsys.words import Alphabet

NAME = "sub-decide"
# (letters, shortest and longest image, complexity band, letters where
# derive answers NoFixedLetterPower); the bands are the rough thirds of
# p(horizon) over these rules.  Fixing the bands and the negative answers
# fixes the mix of operation costs a round contributes.
SLOTS = (
    ("ab", 1, 3, (36, 0, 37), 0), ("ab", 1, 3, (36, 49, 72), 1), ("ab", 1, 3, (36, 76, corpus.INF), 0),
    ("abc", 1, 2, (24, 0, 67), 0), ("abc", 1, 2, (24, 70, 104), 1), ("abc", 1, 2, (24, 110, corpus.INF), 0),
)
PERIODIC_SLOTS = ("ab", "abc")
# return_words certifies 5 of the 6 return words to b, and derive then
# meets the unseen one (README.md, "Named faults").
FAULT_RULE = {"a": "bc", "b": "cc", "c": "aa"}
FAULT_LETTER = "b"
RADIUS_BOUND = 8
SELF_INDUCE = (12, 20)  # depth, samples
CLOPEN_CHECK_LETTERS = 600


class Spec:
    """A rule document with the reference data its checks need."""

    def __init__(self, letters: str, rules: dict, text: str | None = None, period_word: str | None = None):
        self.letters = letters
        self.rules = rules
        self.period_word = period_word
        self.text = text if text is not None else O.iterate_from(rules, letters[0], corpus.TEXT_LENGTH)
        self.horizon = 2 * len(letters) * max(len(v) for v in rules.values()) ** 2

    def build(self) -> S.Substitution:
        return S.Substitution(Alphabet(list(self.letters)), self.rules)


def round_specs(seed: int, r: int) -> list[Spec]:
    rng = corpus.rng_for(NAME, seed, r)
    specs = []
    for letters, lo, hi, band, transient in SLOTS:
        rules, text = corpus.aperiodic_rule(rng, letters, lo, hi, band, transient)
        specs.append(Spec(letters, rules, text))
    for letters in PERIODIC_SLOTS:
        rules, w = corpus.periodic_rule(rng, letters)
        specs.append(Spec(letters, rules, period_word=w))
    specs.append(Spec("abc", FAULT_RULE))
    return specs


def _letters(word) -> str:
    return "".join(word.letters)


def rule_ops(spec: Spec, s: S.Substitution) -> list[Op]:
    rules, letters, text = spec.rules, spec.letters, spec.text
    periodic = spec.period_word is not None
    state = {}

    def check_primitive(report, _):
        expect(report.primitive, "primitive rule reported imprimitive")
        expect(report.witness_exponent == O.primitivity_exponent(rules, letters),
               f"exponent {report.witness_exponent} != reachability")

    def check_periodicity(result, _):
        if periodic:
            w = spec.period_word
            expect(result.periodic, "periodic rule reported aperiodic")
            found = _letters(result.word)
            expect(len(found) == len(w) and found in w + w, f"period word {found} vs {w}")
            return
        expect(not result.periodic, "aperiodic rule reported periodic")
        cx = result.certificate.complexity
        expect(len(cx) == spec.horizon, "complexity not given up to the horizon")
        for n in sorted({2, spec.horizon // 2, spec.horizon}):
            expect(cx[n - 1] == O.factor_count(text, n), f"p({n}) = {cx[n - 1]} disagrees with the iterate")
        expect(all(b > a for a, b in zip(cx, cx[1:])), "complexity not increasing")

    def check_frequencies(freqs, _):
        vector = [freqs[a] for a in letters]
        expect(sum(vector) == 1 if O.is_fraction_vector(vector) else abs(sum(vector) - 1) < 1e-12,
               "frequencies do not sum to 1")
        expect(all(v > 0 for v in vector), "non-positive frequency")
        lam, residual = O.eigen_residual(rules, letters, vector)
        if O.is_fraction_vector(vector):
            expect(residual == 0 and lam.denominator == 1, "exact frequencies miss the eigen-equation")
        else:
            expect(residual < 1e-9, f"float frequencies residual {residual}")

    def check_radius(radius, exc):
        if periodic:
            expect(isinstance(exc, errors.Periodic), "radius of a periodic rule")
            return
        expect(radius is not None and 0 <= radius <= RADIUS_BOUND, f"radius {radius}")
        state["radius"] = radius

    def check_clopen(clopen, _):
        radius = state["radius"]
        expect(clopen.past_length == radius and clopen.future_length == radius + 1, "cylinder lengths")
        words = {_letters(c.past) + _letters(c.future) for c in clopen}
        image = O.apply(rules, text[:CLOPEN_CHECK_LETTERS])
        cuts = set(O.cut_positions(rules, text[:CLOPEN_CHECK_LETTERS]))
        for p in range(radius, len(image) - radius - 1):
            inside = image[p - radius : p + radius + 1] in words
            expect(inside == (p in cuts), f"image clopen wrong at position {p}")

    def derive_check(a):
        def check(derived, exc):
            power = O.first_letter_power(rules, a)
            if periodic:
                expect(isinstance(exc, errors.Periodic), "derive on a periodic rule")
                return
            if power is None:
                expect(isinstance(exc, errors.NoFixedLetterPower), f"derive at {a}: {exc!r}")
                return
            expect(exc is None and derived.power == power, f"derive power at {a}")
            theta = {name: _letters(w) for name, w in derived.theta.items()}
            expect(set(theta.values()) == O.return_words(text, a), f"return words to {a}")
            expect(len(theta) == len(set(theta.values())), "return words named twice")
            sk = O.power_rules(rules, power)
            for name in theta:
                image = "".join(theta[x] for x in _letters(derived.tau.image(name)))
                expect(image == O.apply(sk, theta[name]), f"theta o tau != sigma^{power} o theta at {name}")
        return check

    def check_self_induced(report, exc):
        if periodic:
            expect(isinstance(exc, errors.Periodic), "self-induction of a periodic rule")
            return
        samples = SELF_INDUCE[1]
        expect(report.passed, f"self-induction failed: {report.failures[:1]}")
        expect(report.samples == samples and len(report.return_times) == samples, "sample count")
        expect(report.return_times == report.image_lengths, "return times != image lengths")

    ops = [
        Op("is_primitive", lambda: S.is_primitive(s), check_primitive),
        Op("periodicity_cached", lambda: S.periodicity_cached(s), check_periodicity),
        Op("frequencies", lambda: S.frequencies(s), check_frequencies),
        Op("recognizability_radius", lambda: S.recognizability_radius(s, RADIUS_BOUND), check_radius,
           accepts=(errors.Periodic,)),
    ]
    if not periodic:
        ops.append(Op("image_clopen", lambda: S.image_clopen(s, state["radius"]), check_clopen))
    for a in letters:
        fault = None
        if spec.rules is FAULT_RULE and a == FAULT_LETTER:
            fault = lambda result, exc: isinstance(exc, errors.HorizonTooSmall)
        ops.append(Op("derive", lambda a=a: S.derive(s, a), derive_check(a),
                      accepts=(errors.NoFixedLetterPower, errors.Periodic), fault=fault))
    ops.append(Op("verify_self_induced", lambda: S.verify_self_induced(s, *SELF_INDUCE), check_self_induced,
                  accepts=(errors.Periodic,)))
    return ops


class Workload:
    name = NAME
    module = "cantorsys"
    setup_repeats = 5
    repeats = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.first = round_specs(seed, 0)

    def setup(self):
        """Turn the first round's documents into substitutions."""
        return [spec.build() for spec in self.first]

    def build_round(self, r: int) -> list:
        return [lambda spec=spec: rule_ops(spec, spec.build()) for spec in round_specs(self.seed, r)]
