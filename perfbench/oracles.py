"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports cantorsys: words are plain strings over one-character
letters, matrices are lists of lists, and every answer is computed by the
most direct method available (iterate and look, count, multiply).
"""

from __future__ import annotations

from fractions import Fraction


class Wrong(Exception):
    """An operation returned an answer the reference computation refutes."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


# -- substitutions on one-character letters ---------------------------------


def apply(rules: dict, text: str) -> str:
    return "".join(rules[a] for a in text)


def iterate_from(rules: dict, start: str, min_length: int) -> str:
    text = start
    while len(text) < min_length:
        text = apply(rules, text)
    return text


def power_rules(rules: dict, k: int) -> dict:
    out = {}
    for a in rules:
        img = a
        for _ in range(k):
            img = apply(rules, img)
        out[a] = img
    return out


def composition(rules: dict, letters: str) -> list[list[int]]:
    """Entry (a, b) counts a in the image of b."""
    return [[rules[b].count(a) for b in letters] for a in letters]


def primitivity_exponent(rules: dict, letters: str) -> int | None:
    """Least n <= 2 * #letters^2 with a positive n-th power of the boolean
    composition matrix, when some image has length >= 2; else None."""
    if max(len(img) for img in rules.values()) < 2:
        return None
    n = len(letters)
    step = [[c > 0 for c in row] for row in composition(rules, letters)]
    power = step
    for k in range(1, 2 * n * n + 1):
        if all(all(row) for row in power):
            return k
        power = [
            [any(power[i][m] and step[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return None


def smallest_period(text: str, limit: int) -> int | None:
    """Least p <= limit with text[i] == text[i + p] throughout, or None."""
    for p in range(1, limit + 1):
        if text[p:] == text[:-p]:
            return p
    return None


def factor_count(text: str, n: int) -> int:
    return len({text[i : i + n] for i in range(len(text) - n + 1)})


def first_letter_power(rules: dict, a: str) -> int | None:
    """Least k <= #letters with sigma^k(a) starting with a."""
    first = a
    for k in range(1, len(rules) + 1):
        first = rules[first][0]
        if first == a:
            return k
    return None


def return_words(text: str, a: str, start: int = 0, stop: int | None = None) -> set[str]:
    """Words between consecutive occurrences of a, over occurrences in [start, stop)."""
    return {a + chunk for chunk in text[start:stop].split(a)[1:-1]}


def cut_positions(rules: dict, text: str) -> list[int]:
    """Block boundaries of sigma(text): 0, |sigma(t0)|, |sigma(t0 t1)|, ..."""
    cuts = [0]
    for a in text:
        cuts.append(cuts[-1] + len(rules[a]))
    return cuts


def eigen_residual(rules: dict, letters: str, vector: list) -> tuple[object, object]:
    """(eigenvalue, max |(Mv)_a - lambda v_a|) for a vector summing to 1."""
    m = composition(rules, letters)
    lam = sum(len(rules[b]) * v for b, v in zip(letters, vector))
    worst = 0
    for i in range(len(letters)):
        mv = sum(m[i][j] * vector[j] for j in range(len(letters)))
        worst = max(worst, abs(mv - lam * vector[i]))
    return lam, worst


# -- odometers and diagrams ---------------------------------------------------


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def profile(prefix: tuple, cycle: tuple) -> dict[int, object]:
    """Limit of the p-adic valuations of the partial products, per prime."""
    out: dict[int, object] = {}
    for q in cycle:
        for p in prime_factors(q):
            out[p] = float("inf")
    for q in prefix:
        for p, k in prime_factors(q).items():
            if out.get(p) != float("inf"):
                out[p] = out.get(p, 0) + k
    return out


def partial_products(qs) -> list[int]:
    out = [1]
    for q in qs:
        out.append(out[-1] * q)
    return out


def is_fraction_vector(values) -> bool:
    return all(isinstance(v, Fraction) for v in values)
