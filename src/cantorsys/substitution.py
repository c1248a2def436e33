"""Primitive substitutions on finite alphabets and their subshifts.

Iteration, primitivity and aperiodicity decisions, exact letter/word
frequencies, language generation, return words to a letter cylinder (exact,
by closing the first return word under the substitution), derived
substitutions and a constructive check that the subshift is conjugate to its
induced system on the image of the substitution.

The recognizability machinery works by exhaustive tiling (`words.tilings`,
the search generalized substitutions use too): a finite window is decomposed
in every possible way into images of letters (with partial images allowed at
both ends), keeping only decompositions whose read-off preimage word lies in
the language.  The image clopen sigma^k(X) is built once per power from the
tilings of every (2R+1)-word at the recognizability radius R, and membership
of a point is read from it.  Everything downstream of that enumeration is
exact.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Literal, Mapping

from . import matrixutil
from .errors import (
    ConstructionError,
    EmptyClopen,
    EmptyWord,
    NoFixedLetterPower,
    NotPrimitive,
    Periodic,
    RecognizabilityUnknown,
    WindowExhausted,
)
from .words import (
    Alphabet,
    ClopenSet,
    Cylinder,
    Language,
    Letter,
    SystemHandle,
    Tiling,
    Word,
    letter_key,
    tilings,
)


class Substitution:
    """A morphism letter -> non-empty word, extended by concatenation."""

    def __init__(self, alphabet: Alphabet, rules: Mapping[Letter, object]):
        images = {}
        for a in alphabet:
            if a not in rules:
                raise ConstructionError(f"no rule for letter {a!r}")
            images[a] = _as_letters(rules[a])
            if not images[a]:
                raise ConstructionError(f"rule for {a!r} is empty")
            for b in images[a]:
                if b not in alphabet:
                    raise ConstructionError(f"image letter {b!r} not in alphabet")
        if set(rules) - set(alphabet.letters):
            raise ConstructionError("rules mention letters outside the alphabet")
        self._alphabet = alphabet
        self._images = images
        self._lang_cache: dict[int, Language] = {}
        self._power_cache: dict[int, "Substitution"] = {}
        self._radius_cache: dict[int, int | None] = {}
        self._boundary_cache: dict[int, list[Cylinder]] = {}
        self._primitivity: "PrimitivityReport | None" = None
        self._periodicity: "PeriodicityResult | None" = None
        self._root: "weakref.ref[Substitution] | None" = None

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def image(self, a: Letter) -> Word:
        return Word(self._images[a])

    def image_letters(self, a: Letter) -> tuple:
        return self._images[a]

    @property
    def rules(self) -> dict:
        return {a: Word(img) for a, img in self._images.items()}

    def max_image_length(self) -> int:
        return max(len(img) for img in self._images.values())

    def min_image_length(self) -> int:
        return min(len(img) for img in self._images.values())

    def is_constant_length(self) -> bool:
        return self.max_image_length() == self.min_image_length()

    def apply_letters(self, letters: Iterable[Letter]) -> tuple:
        out: list = []
        for a in letters:
            out.extend(self._images[a])
        return tuple(out)

    def apply(self, w: Word) -> Word:
        return Word(self.apply_letters(w.letters))

    def power(self, k: int) -> "Substitution":
        """The substitution with rules a -> sigma^k(a).

        Powers generate the same subshift, so they share the root's language
        cache and periodicity verdict.  A power holds its root weakly, so a
        rule and its cached languages are freed as soon as the rule is."""
        if k < 1:
            raise ConstructionError("power must be >= 1")
        if k == 1:
            return self
        if k not in self._power_cache:
            rules = {}
            for a in self._alphabet:
                img = (a,)
                for _ in range(k):
                    img = self.apply_letters(img)
                rules[a] = img
            sk = Substitution(self._alphabet, rules)
            sk._lang_cache = self._lang_cache
            sk._root = self._root or weakref.ref(self)
            self._power_cache[k] = sk
        return self._power_cache[k]

    def language_at(self, horizon: int) -> Language:
        """The language up to the horizon, memoised per horizon: built once
        when no larger horizon is cached, else a truncation of the largest
        cached one that shares its storage."""
        lang = self._lang_cache.get(horizon)
        if lang is None:
            best = max((h for h in self._lang_cache if h > horizon), default=None)
            if best is None:
                lang = language(self, horizon)
            else:
                lang = self._lang_cache[best].truncate(horizon)
            self._lang_cache[horizon] = lang
        return lang

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Substitution)
            and self._alphabet == other._alphabet
            and self._images == other._images
        )

    def __hash__(self) -> int:
        return hash((self._alphabet, tuple(sorted(self._images.items(), key=lambda kv: letter_key(kv[0])))))

    def __repr__(self) -> str:
        rules = ", ".join(
            f"{a}->{''.join(str(x) for x in img)}" for a, img in self._images.items()
        )
        return f"Substitution({rules})"


def _as_letters(rule) -> tuple:
    if isinstance(rule, Word):
        return rule.letters
    if isinstance(rule, str):
        return tuple(rule)
    return tuple(rule)


# -- named examples ------------------------------------------------------

def period_doubling() -> Substitution:
    return Substitution(Alphabet(["0", "1"]), {"0": "01", "1": "00"})


def fibonacci() -> Substitution:
    return Substitution(Alphabet(["0", "1"]), {"0": "01", "1": "0"})


def thue_morse() -> Substitution:
    return Substitution(Alphabet(["0", "1"]), {"0": "01", "1": "10"})


def chacon() -> Substitution:
    return Substitution(Alphabet(["0", "1"]), {"0": "0010", "1": "1"})


# -- basic operations ----------------------------------------------------

def iterate(s: Substitution, w: Word, k: int) -> Word:
    """sigma^k(w); sigma^0 is the identity."""
    if len(w) == 0:
        raise EmptyWord("iterate needs a non-empty word")
    letters = w.letters
    for _ in range(k):
        letters = s.apply_letters(letters)
    return Word(letters)


def composition_matrix(s: Substitution) -> matrixutil.Matrix:
    """Entry (a, b) counts occurrences of a in sigma(b); columns sum to |sigma(b)|."""
    letters = s.alphabet.letters
    return tuple(
        tuple(s.image_letters(b).count(a) for b in letters) for a in letters
    )


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    witness_exponent: int | None
    failing_pair: tuple | None
    growth: bool
    bound: int

    def __bool__(self) -> bool:
        return self.primitive


def is_primitive(s: Substitution) -> PrimitivityReport:
    """Primitive iff some matrix power <= 2*#alphabet^2 is entrywise positive
    and some image has length >= 2 (which under positivity gives unbounded
    growth of every column sum)."""
    if s._primitivity is not None:
        return s._primitivity
    matrix = composition_matrix(s)
    bound = 2 * len(s.alphabet) ** 2
    exponent = matrixutil.positivity_exponent(matrix, bound)
    growth = s.max_image_length() >= 2
    if exponent is not None and growth:
        s._primitivity = PrimitivityReport(True, exponent, None, True, bound)
        return s._primitivity
    failing = None
    if exponent is None:
        reach = matrix
        seen = [[x > 0 for x in row] for row in matrix]
        for _ in range(bound - 1):
            reach = matrixutil.mat_mul(reach, matrix)
            for i, row in enumerate(reach):
                for j, x in enumerate(row):
                    if x > 0:
                        seen[i][j] = True
        letters = s.alphabet.letters
        for j, a in enumerate(letters):
            for i, b in enumerate(letters):
                if not seen[i][j]:
                    failing = (a, b)
                    break
            if failing:
                break
    s._primitivity = PrimitivityReport(False, None, failing, growth, bound)
    return s._primitivity


def _require_primitive(s: Substitution) -> None:
    report = is_primitive(s)
    if not report:
        raise NotPrimitive(
            f"substitution is not primitive (pair={report.failing_pair}, growth={report.growth})"
        )


def language(s: Substitution, horizon: int) -> Language:
    """The language of the subshift up to the horizon.

    L_horizon is the least fixed point of "close under factors of images":
    a length-`horizon` factor of sigma(u) spans at most `horizon` letters of
    u, so saturating the length-`horizon` factors of a long iterate under
    u -> length-`horizon` factors of sigma(u) reaches every word of
    L_horizon and nothing else.

    The shorter levels come by a prefix chain: L_n is L_{n+1} with the last
    letter of every word dropped, for n = horizon - 1 down to 1.  This is
    complete because the subshift is minimal, so every word of its language
    occurs in a bi-infinite point and extends to the right: each word of L_n
    is a prefix of a word of L_{n+1}.  Both Language invariants are
    checked on the result.
    """
    report = is_primitive(s)
    if not report:
        raise NotPrimitive(
            f"substitution is not primitive (pair={report.failing_pair}, growth={report.growth})"
        )
    if horizon < 1:
        raise ConstructionError("horizon must be >= 1")
    seed = (s.alphabet.letters[0],)
    exponent = report.witness_exponent or 1
    for _ in range(exponent):
        seed = s.apply_letters(seed)
    while len(seed) < 2 * horizon:
        seed = s.apply_letters(seed)

    full: set[tuple] = set()
    frontier: list[tuple] = []
    for i in range(len(seed) - horizon + 1):
        u = seed[i : i + horizon]
        if u not in full:
            full.add(u)
            frontier.append(u)
    while frontier:
        fresh: list[tuple] = []
        for u in frontier:
            img = s.apply_letters(u)
            for i in range(len(img) - horizon + 1):
                v = img[i : i + horizon]
                if v not in full:
                    full.add(v)
                    fresh.append(v)
        frontier = fresh

    levels = {horizon: full}
    for n in range(horizon - 1, 0, -1):
        levels[n] = {u[:-1] for u in levels[n + 1]}
    return Language._from_levels(levels, horizon)


@dataclass(frozen=True)
class AperiodicityCertificate:
    period_bound: int
    complexity: tuple[int, ...]
    strictly_increasing: bool


@dataclass(frozen=True)
class PeriodicityResult:
    periodic: bool
    word: Word | None
    certificate: AperiodicityCertificate | None

    def __bool__(self) -> bool:
        return self.periodic


def periodicity_check(s: Substitution) -> PeriodicityResult:
    """Decide periodicity through the factor complexity, searched up to twice
    #alphabet * (max image length)^2.

    By Morse-Hedlund, a minimal subshift is a single periodic orbit exactly
    when p(n) <= n for some n; the period then equals that p(n) and the orbit
    word is read off the language.  A plain inclusion test of the candidate's
    power factors is too weak: aperiodic subshifts contain every factor of
    fairly long periodic words.  Heuristic-complete: periods beyond the bound
    are not searched.
    """
    _require_primitive(s)
    p_bound = len(s.alphabet) * s.max_image_length() ** 2
    horizon = 2 * p_bound
    lang = s.language_at(horizon)
    complexity = tuple(lang.count(n) for n in range(1, horizon + 1))
    for n in range(1, horizon + 1):
        if complexity[n - 1] <= n:
            period = complexity[n - 1]
            seed = lang.words(n)[0][:period]
            rotations = [
                Word(seed.letters[i:] + seed.letters[:i]) for i in range(period)
            ]
            word = min(rotations, key=Word.sort_key)
            reps = horizon // period + 2
            text = word.letters * reps
            for m in range(1, horizon + 1):
                cycle_factors = {Word(text[i : i + m]) for i in range(period)}
                if len(cycle_factors) != lang.count(m) or not all(
                    f in lang for f in cycle_factors
                ):
                    raise ConstructionError(
                        "complexity indicates a periodic orbit the language does not match"
                    )
            return PeriodicityResult(True, word, None)
    increasing = all(b > a for a, b in zip(complexity, complexity[1:]))
    if not increasing:
        raise ConstructionError(
            "factor complexity plateaus but no period within the bound was found"
        )
    return PeriodicityResult(
        False, None, AperiodicityCertificate(p_bound, complexity, increasing)
    )


def periodicity_cached(s: Substitution) -> PeriodicityResult:
    """Periodicity of the subshift; powers defer to their root substitution
    (same subshift, much smaller search bound) while it is alive, and
    decide it themselves once it is gone."""
    if s._periodicity is None:
        root = (s._root and s._root()) or s
        if root._periodicity is None:
            root._periodicity = periodicity_check(root)
        s._periodicity = root._periodicity
    return s._periodicity


def _require_aperiodic(s: Substitution) -> None:
    result = periodicity_cached(s)
    if result.periodic:
        raise Periodic(f"subshift is periodic with word {result.word!r}")


def frequency_data(s: Substitution) -> matrixutil.PerronData:
    _require_primitive(s)
    return matrixutil.perron(composition_matrix(s))


def frequencies(s: Substitution) -> dict:
    """Letter frequencies: the normalised Perron eigenvector of the
    composition matrix (exact fractions for integer eigenvalues)."""
    data = frequency_data(s)
    return dict(zip(s.alphabet.letters, data.vector))


def word_frequencies(s: Substitution, m: int) -> dict[Word, Fraction]:
    """Exact frequencies of the length-m words, for constant-length rules.

    Every occurrence of an m-word sits at one of L offsets inside the image
    of an m'-word, giving a rational self-consistency system with a unique
    normalised solution (unique ergodicity).
    """
    _require_primitive(s)
    if not s.is_constant_length():
        raise ConstructionError("exact word frequencies need a constant-length substitution")
    length = s.max_image_length()
    m_src = -(-(m + length - 1) // length)  # ceil
    lang = s.language_at(max(m, m_src))
    words = lang.words(m)
    index = {w: i for i, w in enumerate(words)}
    d = len(words)
    rows = [[Fraction(0)] * d for _ in range(d)]
    inv_l = Fraction(1, length)
    for j, v in enumerate(words):
        u = v[:m_src]
        img = s.apply_letters(u.letters)
        for o in range(length):
            w = Word(img[o : o + m])
            if w in index:
                rows[index[w]][j] += inv_l
    for i in range(d):
        rows[i][i] -= 1
    solution = matrixutil.fraction_nullspace_positive(rows)
    if solution is None:
        raise ConstructionError("word frequency system is not uniquely solvable")
    return {w: solution[i] for i, w in enumerate(words)}


def clopen_measure(s: Substitution, clopen: ClopenSet) -> Fraction:
    """Exact invariant measure of a clopen set (constant-length rules)."""
    total = Fraction(0)
    width = clopen.past_length + clopen.future_length
    freqs = word_frequencies(s, width)
    for c in clopen:
        total += freqs.get(c.past + c.future, Fraction(0))
    return total


# -- tilings and recognizability ------------------------------------------


def image_tilings(
    s: Substitution, window: tuple, require_language: bool = True
) -> tuple[Tiling, ...]:
    """All decompositions of the window into sigma-images, partial at the
    edges, whose preimage letter word belongs to the language, sorted."""
    found = tilings(s._images, window)
    if require_language:
        lang = s.language_at(len(window) + 2)
        found = [t for t in found if Word(t.preimage_letters()) in lang]
    found.sort(
        key=lambda t: (t.cuts, tuple(map(str, t.interior)), str(t.left), t.left_offset, str(t.right))
    )
    return tuple(found)


def cut_statuses(s: Substitution, window: tuple, position: int) -> set[bool]:
    """The set {does a legal tiling place a block boundary at `position`}."""
    return {t.has_cut(position) for t in image_tilings(s, window)}


def _boundary_cylinders(s: Substitution, radius: int, strict: bool) -> list[Cylinder] | None:
    """The (2R+1)-words whose centre is unambiguously a block boundary, as
    cylinders; when strict, None as soon as a word leaves its centre open."""
    cylinders = []
    for w in s.language_at(2 * radius + 1).words(2 * radius + 1):
        statuses = cut_statuses(s, w.letters, radius)
        if statuses == {True}:
            cylinders.append(Cylinder(w[:radius], w[radius:]))
        elif strict and len(statuses) != 1:
            return None
    return cylinders


def recognizability_radius(s: Substitution, bound: int) -> int | None:
    """Smallest R <= bound such that every (2R+1)-word of the language fixes
    the cut-or-not answer at its centre, or None (Unknown).  The boundary
    words found at R are kept for `image_clopen`."""
    _require_primitive(s)
    _require_aperiodic(s)
    if bound in s._radius_cache:
        return s._radius_cache[bound]
    answer = None
    for radius in range(bound + 1):
        cylinders = _boundary_cylinders(s, radius, strict=True)
        if cylinders is not None:
            s._boundary_cache[radius] = cylinders
            answer = radius
            break
    s._radius_cache[bound] = answer
    return answer


def image_clopen(s: Substitution, radius: int) -> ClopenSet:
    """sigma(X) as a union of radius-`radius` cylinders: the (2R+1)-words
    whose centre is unambiguously a block boundary, tiled once per radius."""
    cylinders = s._boundary_cache.get(radius)
    if cylinders is None:
        cylinders = s._boundary_cache[radius] = _boundary_cylinders(s, radius, strict=False)
    if not cylinders:
        raise EmptyClopen(f"no unambiguous block boundaries at radius {radius}")
    return ClopenSet(cylinders)


# -- return words ----------------------------------------------------------


def _long_text(s: Substitution, min_length: int) -> tuple:
    a = s.alphabet.letters[0]
    text = (a,)
    while len(text) < min_length:
        text = s.apply_letters(text)
    return text


def return_words(s: Substitution, a: Letter, power: int) -> dict[Word, tuple[Word, ...]]:
    """Every return word to the cylinder [a] (from a visit of a up to the
    next), each mapped to its cut: the return words that start at the visits
    of a inside sigma^power of it.  Needs a to occur in sigma^power(a); when
    sigma^power(a) starts with a, the cut is a decomposition of the image.

    Durand's closure (1998): the first return word in an iterate of a,
    closed under the cut.  It is complete.  Write sigma^power(a) = v a w with
    no a in v.  If t = c_1 ... c_m a with every c_i in the closure, then
    sigma^power(t) = v t' w, where t' is again such a text and holds
    sigma^power of t with its end letters removed.  So the closure holds the
    return words of ever longer images, and these hold every word of the
    language because sigma is primitive.  Keys come in order of discovery,
    the seed first.
    """
    _require_primitive(s)
    _require_aperiodic(s)
    if a not in s.alphabet:
        raise ConstructionError(f"letter {a!r} not in alphabet")
    sk = s.power(power)
    image_of_a = sk.image_letters(a)
    if a not in image_of_a:
        raise ConstructionError(f"{a!r} does not occur in its image under sigma^{power}")
    text = (a,)
    while text.count(a) < 2:
        text = sk.apply_letters(text)
    first = text.index(a)
    seed = text[first : text.index(a, first + 1)]
    # the image of a return word is followed by v a, which holds the visit
    # that ends its last piece
    head = image_of_a[: image_of_a.index(a) + 1]

    cuts: dict[tuple, tuple] = {}
    todo = [seed]
    while todo:
        r = todo.pop()
        if r in cuts:
            continue
        img = sk.apply_letters(r) + head
        visits = [p for p, b in enumerate(img) if b == a]
        cuts[r] = tuple(img[i:j] for i, j in zip(visits, visits[1:]))
        todo.extend(cuts[r])
    return {Word(r): tuple(map(Word, pieces)) for r, pieces in cuts.items()}


# -- derived substitutions (self-induction on a letter cylinder) ------------


@dataclass(frozen=True)
class DerivedSubstitution:
    """tau on the return words to [a], with theta o tau = sigma^power o theta."""

    tau: Substitution
    theta: dict
    power: int

    def theta_word(self, w: Word) -> Word:
        out: list = []
        for name in w:
            out.extend(self.theta[name].letters)
        return Word(out)


def derive(s: Substitution, a: Letter) -> DerivedSubstitution:
    """The substitution induced on the return words to the cylinder [a].

    Needs some power k with sigma^k(a) starting with a (the first-letter map
    must cycle through a); tau maps each return word to the return words
    sigma^k cuts it into at the visits of [a], so theta o tau = sigma^k o theta
    holds by construction.  Return words are named in order of first
    occurrence along the fixed point of sigma^k starting at a.
    """
    _require_primitive(s)
    _require_aperiodic(s)
    if a not in s.alphabet:
        raise ConstructionError(f"letter {a!r} not in alphabet")
    first = a
    power = None
    for k in range(1, len(s.alphabet) + 1):
        first = s.image_letters(first)[0]
        if first == a:
            power = k
            break
    if power is None:
        raise NoFixedLetterPower(
            f"no power <= {len(s.alphabet)} of the substitution fixes the first letter {a!r}"
        )
    cuts = return_words(s, a, power)

    # the fixed point is its own image, so its stream of return words is the
    # seed's cut followed by the cuts of the stream's later words
    stream = list(cuts[next(iter(cuts))])
    ordered = dict.fromkeys(stream)
    i = 1
    while len(ordered) < len(cuts):
        pieces = cuts[stream[i]]
        stream.extend(pieces)
        ordered.update(dict.fromkeys(pieces))
        i += 1
    names = {w: _derived_name(i) for i, w in enumerate(ordered)}
    rules = {names[w]: Word(names[p] for p in cuts[w]) for w in ordered}
    tau = Substitution(Alphabet(list(names.values())), rules)
    return DerivedSubstitution(tau, {name: w for w, name in names.items()}, power)


def _derived_name(i: int) -> str:
    if i < 26:
        return chr(ord("A") + i)
    return f"R{i}"


# -- self-induction verification -------------------------------------------


@dataclass(frozen=True)
class SelfInductionFailure:
    """One failed identity at a sampled origin.  Kinds: "not-in-target"
    (sigma(x) outside U), "return-time" (first return != |sigma(x_0)|),
    "commutation" (sigma(Sx) != S^w(sigma x) on the overlap) and "doubling"
    (the product's 2(z+1) != 2z + 2, with z as the origin)."""

    kind: Literal["not-in-target", "return-time", "commutation", "doubling"]
    origin: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at origin {self.origin}: {self.detail}"


@dataclass(frozen=True)
class SelfInductionReport:
    radius: int
    clopen_size: int
    samples: int
    depth: int
    return_times: tuple[int, ...]
    image_lengths: tuple[int, ...]
    failures: tuple[SelfInductionFailure, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_self_induced(
    s: Substitution, depth: int, samples: int, radius_bound: int = 8
) -> SelfInductionReport:
    """Constructive self-induction check on sampled windows.

    U = sigma(X) is expressed through the recognizability cylinders; on each
    sampled window the first return of sigma(x) to U must happen exactly at
    |sigma(x_0)| and the induced step must agree with sigma(S(x)) letter by
    letter on the overlap of the requested depth.  Sampling is a
    deterministic enumeration of window positions in an iterated image.
    """
    if samples < 1:
        raise ConstructionError("self-induction check needs at least one sample")
    if depth < 0:
        raise ConstructionError("self-induction check needs a non-negative depth")
    radius = recognizability_radius(s, radius_bound)
    if radius is None:
        raise RecognizabilityUnknown(f"no recognizability radius <= {radius_bound}")
    clopen = image_clopen(s, radius)

    max_len = s.max_image_length()
    margin = depth + radius + max_len + 2
    text = _long_text(s, max(8 * margin, (samples + 2) * 4))
    image = s.apply_letters(text)
    cum = [0]
    for letter in text:
        cum.append(cum[-1] + len(s.image_letters(letter)))

    first = margin
    last = len(text) - margin - 1
    if last <= first:
        raise ConstructionError("text too short for the requested depth")
    step = max(1, (last - first) // samples)
    origins = [first + i * step for i in range(samples)]

    failures: list[SelfInductionFailure] = []
    return_times: list[int] = []
    image_lengths: list[int] = []
    for o in origins:
        o_img = cum[o]
        w = len(s.image_letters(text[o]))
        image_lengths.append(w)
        if not clopen.contains_at(image, o_img):
            failures.append(SelfInductionFailure("not-in-target", o, "sigma(x) not in U"))
            continue
        measured = None
        for n in range(1, w + 1):
            if clopen.contains_at(image, o_img + n):
                measured = n
                break
        return_times.append(measured if measured is not None else -1)
        if measured != w:
            failures.append(SelfInductionFailure(
                "return-time", o, f"return time {measured} != |sigma(x_0)| = {w}"
            ))
        # independent recomputation of sigma(S(x)) against S^w(sigma(x))
        lo, hi = o + 1 - margin, o + 1 + margin
        window = text[lo:hi]
        reimage = s.apply_letters(window)
        re_origin = sum(len(s.image_letters(b)) for b in window[: margin])
        span = depth
        lhs = reimage[re_origin - span : re_origin + span]
        rhs = image[o_img + w - span : o_img + w + span]
        if lhs != rhs:
            failures.append(SelfInductionFailure(
                "commutation", o, f"sigma(Sx) != S^{w}(sigma x) on the overlap"
            ))

    return SelfInductionReport(
        radius=radius,
        clopen_size=len(clopen),
        samples=samples,
        depth=depth,
        return_times=tuple(return_times),
        image_lengths=tuple(image_lengths),
        failures=tuple(failures),
    )


# -- a substitution subshift as a SystemHandle ------------------------------


@dataclass(frozen=True)
class ShiftPoint:
    """A point of the subshift seen through a finite window with an origin."""

    text: tuple
    origin: int


class SubstitutionShiftHandle(SystemHandle):
    """(X_sigma, S) with target U = sigma(X_sigma) and phi = sigma.

    Points are windows into iterated images.  Membership of sigma^k(X) is
    read from its image clopen, built once per power by exhaustive tiling of
    every (2R+1)-word at the power's recognizability radius R.
    """

    def __init__(self, s: Substitution, depth: int = 64, radius_bound: int = 8):
        radius = recognizability_radius(s, radius_bound)
        if radius is None:
            raise RecognizabilityUnknown(f"no recognizability radius <= {radius_bound}")
        self._s = s
        self._radius = radius
        self.depth = depth
        self.name = f"shift({s!r})"
        self._margin = depth + radius + s.max_image_length() + 2
        self._text = _long_text(s, 8 * self._margin)
        self._clopens: dict[int, ClopenSet] = {}

    @property
    def substitution(self) -> Substitution:
        return self._s

    def _guard(self, point: ShiftPoint, room: int = 1) -> None:
        if point.origin - room - self._radius < 0 or point.origin + room + self._radius > len(point.text):
            raise WindowExhausted("window margin exhausted")

    def step(self, point: ShiftPoint) -> ShiftPoint:
        self._guard(point)
        return ShiftPoint(point.text, point.origin + 1)

    def step_back(self, point: ShiftPoint) -> ShiftPoint:
        self._guard(point)
        return ShiftPoint(point.text, point.origin - 1)

    def in_target(self, point: ShiftPoint) -> bool:
        return self.in_iterated_image(point, 1)

    def phi(self, point: ShiftPoint) -> ShiftPoint:
        """sigma of the point, applied to the margin on each side of the
        origin: each side's image is at least as long as the side."""
        lo = max(0, point.origin - self._margin)
        window = point.text[lo : point.origin + self._margin]
        new_origin = sum(len(self._s.image_letters(b)) for b in window[: point.origin - lo])
        return ShiftPoint(self._s.apply_letters(window), new_origin)

    def in_iterated_image(self, point: ShiftPoint, power: int) -> bool:
        clopen = self._clopens.get(power)
        if clopen is None:
            sk = self._s.power(power)
            bound = 4 * sk.max_image_length()
            rad = self._radius if power == 1 else recognizability_radius(sk, bound)
            if rad is None:
                raise RecognizabilityUnknown(f"power {power} not recognizable within {bound}")
            clopen = self._clopens[power] = image_clopen(sk, rad)
        rad = clopen.past_length
        lo, hi = point.origin - rad, point.origin + rad + 1
        if lo < 0 or hi > len(point.text):
            raise WindowExhausted("window too short for a membership test")
        if clopen.contains_at(point.text, point.origin):
            return True
        if Word(point.text[lo:hi]) not in self._s.language_at(hi - lo):
            raise ConstructionError("membership window is not a word of the language")
        return False

    def cells(self, resolution: int) -> tuple:
        lang = self._s.language_at(2 * resolution)
        return lang.words(2 * resolution)

    def cell_of(self, point: ShiftPoint, resolution: int) -> Word:
        lo, hi = point.origin - resolution, point.origin + resolution
        if lo < 0 or hi > len(point.text):
            raise WindowExhausted("window too short for the requested resolution")
        return Word(point.text[lo:hi])

    def representative(self, cell: Word) -> ShiftPoint:
        """The first occurrence of the cell inside the margins of the sample
        text, or of its images under sigma: a word of the language occurs in
        every long enough image, because sigma is primitive."""
        target = cell.letters
        if cell not in self._s.language_at(len(target)):
            raise ConstructionError(f"cell {cell!r} is not a word of the language")
        m = len(target) // 2
        text = self._text
        while True:
            for p in range(self._margin, len(text) - self._margin - len(target)):
                if text[p : p + len(target)] == target:
                    return ShiftPoint(text, p + m)
            text = self._s.apply_letters(text)
