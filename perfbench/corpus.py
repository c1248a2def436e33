"""Seeded generators for the benchmark inputs.

Every generator draws from `random.Random(label)` with a string label made
of the workload name, the seed and the round, so the same seed gives the
same inputs on every machine, whatever the interpreter's hash seed.
Rules are over the letters "ab" or "abc" and are returned as documents
(`{"alphabet": [...], "rules": {...}}`, the command-line format).
"""

from __future__ import annotations

import random

import oracles as O

# Long enough for every word up to the periodicity horizon of the generated
# rules (at most 36) to occur, checked by the complexity oracle.
TEXT_LENGTH = 1 << 13
INF = 1 << 30
PERIOD_LIMIT = 64
# return_words scans positions [1, 257) of the first iterate of the first
# letter longer than 516 letters; see the derive fault in README.md.
RETURN_SCAN = (1, 257)
RETURN_TEXT = 2 * 256 + 4


def rng_for(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def document(letters: str, rules: dict) -> dict:
    return {"alphabet": list(letters), "rules": dict(rules)}


def _returns_seen_early(rules: dict, letters: str, text: str) -> bool:
    """Whether every return word to every letter whose first-letter map
    cycles already occurs in the window the package scans first."""
    scanned = O.iterate_from(rules, letters[0], RETURN_TEXT)
    return all(
        O.return_words(scanned, a, *RETURN_SCAN) == O.return_words(text, a)
        for a in letters
        if O.first_letter_power(rules, a) is not None
    )


def aperiodic_rule(rng: random.Random, letters: str, min_len: int, max_len: int,
                   band: tuple = (1, 0, INF), transient: int | None = None,
                   mixed: bool = False) -> tuple[dict, str]:
    """A primitive aperiodic rule with images of length min_len..max_len,
    at least one of length max_len, and a long iterate of it.

    Fixing the longest image fixes the periodicity horizon; `band` = (n,
    lo, hi) keeps the factor complexity p(n) in [lo, hi].  Together they fix
    most of a rule's cost, so a round that draws one rule from each band
    costs about the same whatever the seed."""
    while True:
        lengths = [rng.randint(min_len, max_len) for _ in letters]
        lengths[rng.randrange(len(letters))] = max_len
        rules = {a: "".join(rng.choice(letters) for _ in range(n)) for a, n in zip(letters, lengths)}
        if mixed and len(set(lengths)) == 1:
            continue
        if O.primitivity_exponent(rules, letters) is None:
            continue
        if transient is not None and transient != sum(
            O.first_letter_power(rules, a) is None for a in letters
        ):
            continue
        text = O.iterate_from(rules, letters[0], TEXT_LENGTH)
        if O.smallest_period(text, PERIOD_LIMIT) is not None:
            continue
        if not band[1] <= O.factor_count(text, band[0]) <= band[2]:
            continue
        if not _returns_seen_early(rules, letters, text):
            continue
        return rules, text


def periodic_rule(rng: random.Random, letters: str) -> tuple[dict, str]:
    """A primitive rule whose subshift is the orbit of w^infinity: every
    letter maps to w or ww, w a primitive word using every letter."""
    while True:
        w = "".join(rng.choice(letters) for _ in range(rng.randint(len(letters), 3)))
        if set(w) != set(letters) or any(
            len(w) % p == 0 and w == w[:p] * (len(w) // p) for p in range(1, len(w))
        ):
            continue
        reps = (1, 2) if 2 * len(w) <= 4 else (1,)
        return {a: w * rng.choice(reps) for a in letters}, w
