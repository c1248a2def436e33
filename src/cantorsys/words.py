"""Alphabets, finite words, horizon-bounded languages, cylinders, block codes
and tilings of windows by letter images.

A subshift is never materialised: all reasoning happens on its language
stored explicitly up to a horizon, and every answer derived from it is only
claimed up to that horizon.  All types here are immutable after construction
and all operations are pure, so values can be shared freely.

Letters are opaque hashable tokens (strings in practice).  The canonical
order of an alphabet is its declaration order; set-valued outputs are always
emitted sorted for determinism.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    ConstructionError,
    HorizonExceeded,
    UndefinedBlock,
    WordTooShort,
)

Letter = Hashable


def letter_key(letter: Letter) -> str:
    """Deterministic sort key for opaque letters."""
    return str(letter)


class Alphabet:
    """Ordered finite set of symbols; order is the declaration order."""

    __slots__ = ("_letters", "_index")

    def __init__(self, letters: Iterable[Letter]):
        letters = tuple(letters)
        if not letters:
            raise ConstructionError("alphabet must be non-empty")
        index = {}
        for i, a in enumerate(letters):
            if a in index:
                raise ConstructionError(f"duplicate symbol {a!r}")
            index[a] = i
        self._letters = letters
        self._index = index

    @property
    def letters(self) -> tuple:
        return self._letters

    def index(self, letter: Letter) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ConstructionError(f"symbol {letter!r} not in alphabet") from None

    def __contains__(self, letter: Letter) -> bool:
        return letter in self._index

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator:
        return iter(self._letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._letters)!r})"


class Word:
    """Immutable finite sequence of letters; the length-0 word is EPSILON."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self._letters = tuple(letters)

    @property
    def letters(self) -> tuple:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __iter__(self) -> Iterator:
        return iter(self._letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self._letters[item])
        return self._letters[item]

    def __add__(self, other: "Word") -> "Word":
        return Word(self._letters + other._letters)

    def __mul__(self, n: int) -> "Word":
        return Word(self._letters * n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Word({''.join(str(a) for a in self._letters)!r})"

    def __str__(self) -> str:
        return "".join(str(a) for a in self._letters)

    def sort_key(self) -> tuple:
        return tuple(str(a) for a in self._letters)

    def startswith(self, prefix: "Word") -> bool:
        return self._letters[: len(prefix)] == prefix.letters

    def factors(self, n: int) -> Iterator["Word"]:
        """All factors of length n, left to right (with repetitions)."""
        for i in range(len(self._letters) - n + 1):
            yield Word(self._letters[i : i + n])

    def occurrences(self, u: "Word") -> list[int]:
        """Start indices of every occurrence of u (non-empty) in this word."""
        target = u.letters
        n = len(target)
        if n == 0:
            raise ConstructionError("occurrences of the empty word are not defined")
        text = self._letters
        return [i for i in range(len(text) - n + 1) if text[i : i + n] == target]


EPSILON = Word()


class Language:
    """The sets L_n of an (implicit) subshift for every n up to a horizon.

    Invariants: factor-closed (both one-letter truncations of every stored
    word are stored) and extendable (every word of length < horizon is a
    prefix and a suffix of stored longer words).  Genuine subshift languages
    satisfy both; raw factor sets of finite texts generally fail the second.

    Each L_n is stored once as a set.  The sorted tuple `words(n)` returns is
    computed on the first call for that length and cached; `truncate` gives
    the language at a lower horizon, sharing the stored sets and the sorted
    cache, so a truncation copies no word and sorts nothing.
    """

    __slots__ = ("_by_length", "_horizon", "_sorted")

    def __init__(self, words_by_length: Mapping[int, Iterable[Word]], horizon: int, check: bool = True):
        if horizon < 1:
            raise ConstructionError("horizon must be >= 1")
        by_length = {}
        for n in range(1, horizon + 1):
            ws = frozenset(words_by_length.get(n, ()))
            if not ws:
                raise ConstructionError(f"no words of length {n} <= horizon")
            for w in ws:
                if len(w) != n:
                    raise ConstructionError(f"word {w!r} filed under wrong length {n}")
            by_length[n] = ws
        if check:
            self._check({n: {w.letters for w in ws} for n, ws in by_length.items()}, horizon)
        self._by_length = by_length
        self._horizon = horizon
        self._sorted: dict[int, tuple[Word, ...]] = {}

    @classmethod
    def _from_levels(cls, levels: Mapping[int, set[tuple]], horizon: int) -> "Language":
        """Language of letter tuples filed by length 1..horizon (each level
        non-empty and of the right length), after checking both invariants."""
        cls._check(levels, horizon)
        lang = object.__new__(cls)
        lang._by_length = {n: frozenset({Word(u) for u in levels[n]}) for n in range(1, horizon + 1)}
        lang._horizon = horizon
        lang._sorted = {}
        return lang

    @staticmethod
    def _check(levels: Mapping[int, set[tuple]], horizon: int) -> None:
        """Raise unless the letter-tuple levels are factor-closed and extendable.

        Given factor-closure, the one-letter truncations of L_{n+1} lie in
        L_n, so L_n is extendable exactly when both truncation sets have as
        many words as L_n."""
        not_extendable = None
        for n in range(2, horizon + 1):
            shorter = levels[n - 1]
            heads = {u[:-1] for u in levels[n]}
            tails = {u[1:] for u in levels[n]}
            if not (heads <= shorter and tails <= shorter):
                bad = next(u for u in levels[n] if u[:-1] not in shorter or u[1:] not in shorter)
                raise ConstructionError(f"language not factor-closed at {Word(bad)!r}")
            if not_extendable is None and not (len(heads) == len(tails) == len(shorter)):
                not_extendable = (shorter, heads, tails)
        if not_extendable is not None:
            shorter, heads, tails = not_extendable
            bad = next(u for u in shorter if u not in heads or u not in tails)
            raise ConstructionError(f"language not extendable at {Word(bad)!r}")

    @classmethod
    def from_text(cls, texts: Iterable[Word], horizon: int, check: bool = True) -> "Language":
        """Language of all factors of the given texts, up to the horizon."""
        by_length: dict[int, set[Word]] = {n: set() for n in range(1, horizon + 1)}
        for text in texts:
            letters = text.letters
            for n in range(1, horizon + 1):
                for i in range(len(letters) - n + 1):
                    by_length[n].add(Word(letters[i : i + n]))
        return cls(by_length, horizon, check=check)

    @property
    def horizon(self) -> int:
        return self._horizon

    def _require_length(self, n: int) -> None:
        if n < 0:
            raise ConstructionError("word length must be non-negative")
        if n > self._horizon:
            raise HorizonExceeded(f"length {n} beyond horizon {self._horizon}")

    def words(self, n: int) -> tuple[Word, ...]:
        """The words of length n, sorted (computed once per length)."""
        self._require_length(n)
        if n == 0:
            return (EPSILON,)
        cached = self._sorted.get(n)
        if cached is None:
            cached = tuple(sorted(self._by_length[n], key=Word.sort_key))
            self._sorted[n] = cached
        return cached

    def count(self, n: int) -> int:
        """Number of length-n words, p(n); n = 0 counts the empty word."""
        self._require_length(n)
        return len(self._by_length[n]) if n else 1

    def truncate(self, horizon: int) -> "Language":
        """The same language up to a horizon no larger than this one's,
        sharing the stored sets and the sorted cache."""
        if horizon < 1:
            raise ConstructionError("horizon must be >= 1")
        if horizon > self._horizon:
            raise HorizonExceeded(f"horizon {horizon} beyond {self._horizon}")
        if horizon == self._horizon:
            return self
        lang = object.__new__(Language)
        lang._by_length = {n: self._by_length[n] for n in range(1, horizon + 1)}
        lang._horizon = horizon
        lang._sorted = self._sorted
        return lang

    def __contains__(self, w: Word) -> bool:
        n = len(w)
        if n == 0:
            return True
        if n > self._horizon:
            raise HorizonExceeded(f"length {n} beyond horizon {self._horizon}")
        return w in self._by_length[n]

    def letters(self) -> tuple:
        return tuple(w[0] for w in self.words(1))

    def __repr__(self) -> str:
        return f"Language(horizon={self._horizon}, p1={len(self._by_length[1])})"


def factor_complexity(lang: Language, n: int) -> int:
    """Number of length-n words; n = 0 counts the empty word."""
    return lang.count(n)


@dataclass(frozen=True)
class Cylinder:
    """Two-sided cylinder [past.future]: past ends just before the origin."""

    past: Word
    future: Word

    def sort_key(self) -> tuple:
        return (self.past.sort_key(), self.future.sort_key())

    def __str__(self) -> str:
        return f"[{self.past}.{self.future}]"


class ClopenSet:
    """Finite union of pairwise distinct cylinders with normalised lengths.

    All pasts share one length and all futures share one length, so two
    cylinders with different defining words are automatically disjoint.
    """

    __slots__ = ("_cylinders", "_past_len", "_future_len", "_windows")

    def __init__(self, cylinders: Iterable[Cylinder]):
        cyls = tuple(sorted(set(cylinders), key=Cylinder.sort_key))
        if not cyls:
            raise ConstructionError("clopen set needs at least one cylinder")
        past_lens = {len(c.past) for c in cyls}
        future_lens = {len(c.future) for c in cyls}
        if len(past_lens) != 1 or len(future_lens) != 1:
            raise ConstructionError("cylinder pasts/futures must have uniform lengths")
        self._cylinders = cyls
        self._past_len = past_lens.pop()
        self._future_len = future_lens.pop()
        self._windows = frozenset(c.past.letters + c.future.letters for c in cyls)

    @property
    def cylinders(self) -> tuple[Cylinder, ...]:
        return self._cylinders

    @property
    def past_length(self) -> int:
        return self._past_len

    @property
    def future_length(self) -> int:
        return self._future_len

    def __len__(self) -> int:
        return len(self._cylinders)

    def __iter__(self) -> Iterator[Cylinder]:
        return iter(self._cylinders)

    def contains_at(self, text: tuple, origin: int) -> bool:
        """Whether a point reading `text` with its origin at index `origin`
        lies in this set.  The window must cover the cylinder lengths."""
        lo = origin - self._past_len
        hi = origin + self._future_len
        if lo < 0 or hi > len(text):
            raise WordTooShort(
                f"window [{lo},{hi}) outside text of length {len(text)}"
            )
        return text[lo:hi] in self._windows

    def __repr__(self) -> str:
        return "ClopenSet(" + " u ".join(str(c) for c in self._cylinders) + ")"


@dataclass(frozen=True)
class BlockCode:
    """Sliding block code of radius r: table on (2r+1)-windows."""

    radius: int
    table: Mapping[Word, Letter]
    target: Alphabet

    def __post_init__(self):
        for w in self.table:
            if len(w) != 2 * self.radius + 1:
                raise ConstructionError(
                    f"table key {w!r} is not a ({2 * self.radius + 1})-word"
                )
            if self.table[w] not in self.target:
                raise ConstructionError(f"table value {self.table[w]!r} not in target alphabet")


def apply_block_code(code: BlockCode, w: Word) -> Word:
    """Slide the code across w; output has length |w| - 2r."""
    width = 2 * code.radius + 1
    if len(w) < width:
        raise WordTooShort(f"need at least {width} letters, got {len(w)}")
    out = []
    letters = w.letters
    for i in range(len(letters) - width + 1):
        window = Word(letters[i : i + width])
        try:
            out.append(code.table[window])
        except KeyError:
            raise UndefinedBlock(f"window {window!r} not in code table") from None
    return Word(out)


def overlap_blocks(w: Word, k: int) -> Word:
    """Word-level k-block recoding: the |w|-k+1 overlapping k-windows of w,
    each a letter of the k-block alphabet."""
    if len(w) < k:
        raise WordTooShort(f"need at least {k} letters, got {len(w)}")
    letters = w.letters
    return Word(tuple(Word(letters[i : i + k]) for i in range(len(letters) - k + 1)))


def kblock_present(lang: Language, k: int) -> tuple[Alphabet, Language, tuple[BlockCode, BlockCode]]:
    """k-block presentation: alphabet L_k, recoded language, and the two
    block codes realising the conjugacy.

    The forward code needs its table on all (2k-1)-words, so the horizon
    must be at least 2k-1.  The recoded language reaches horizon - k + 1.
    Consecutive recoded letters overlap in k-1 base letters by construction.
    """
    if k < 1:
        raise ConstructionError("k must be >= 1")
    if k > lang.horizon or 2 * k - 1 > lang.horizon:
        raise HorizonExceeded(
            f"k-block presentation with k={k} needs horizon >= {max(k, 2 * k - 1)}"
        )
    blocks = lang.words(k)
    block_alphabet = Alphabet(blocks)

    new_horizon = lang.horizon - k + 1
    by_length: dict[int, set[Word]] = {}
    for m in range(1, new_horizon + 1):
        by_length[m] = {overlap_blocks(u, k) for u in lang.words(m + k - 1)}
    recoded = Language(by_length, new_horizon)

    forward_table = {w: w[k - 1 : 2 * k - 1] for w in lang.words(2 * k - 1)}
    forward = BlockCode(radius=k - 1, table=forward_table, target=block_alphabet)

    base_alphabet = Alphabet(lang.letters())
    backward_table = {Word((b,)): b[0] for b in blocks}
    backward = BlockCode(radius=0, table=backward_table, target=base_alphabet)
    return block_alphabet, recoded, (forward, backward)


class Tiling(NamedTuple):
    """One decomposition of a window into images of letters.

    `cuts` lists every block boundary inside [0, len(window)]; a missing 0
    (resp. missing end position) means the border block straddles that edge.
    `interior` are the letters of the complete blocks, `left`/`right` the
    letters of the straddling blocks (equal for a single straddling block).
    """

    cuts: tuple[int, ...]
    interior: tuple
    left: Letter | None
    left_offset: int
    right: Letter | None

    def has_cut(self, position: int) -> bool:
        return position in self.cuts

    def preimage_letters(self) -> tuple:
        out = []
        if self.left is not None:
            out.append(self.left)
        out.extend(self.interior)
        if self.right is not None and not (self.left is not None and not self.cuts):
            out.append(self.right)
        return tuple(out)


def tilings(images: Mapping[Letter, tuple], window: tuple) -> list[Tiling]:
    """Every decomposition of the window into the given letter images, with
    partial images allowed at both edges, each listed once.

    The left edge either lies strictly inside one image that also covers the
    right edge (no cuts), or at a cut, or inside an image whose remainder
    ends at the first cut; complete blocks then follow until the window ends
    at a cut or inside a last image.  Iterative depth-first search, so the
    window length is unbounded."""
    n = len(window)
    if n == 0:
        raise ConstructionError("cannot tile an empty window")
    found: list[Tiling] = []
    stack: list[tuple] = [((0,), (), None, 0)]
    for a, img in images.items():
        for u in range(1, len(img)):
            c = len(img) - u
            if c > n:
                if img[u : u + n] == window:
                    found.append(Tiling((), (), a, u, a))
            elif img[u:] == window[:c]:
                stack.append(((c,), (), a, u))
    while stack:
        cuts, interior, left, left_offset = stack.pop()
        pos = cuts[-1]
        if pos == n:
            found.append(Tiling(cuts, interior, left, left_offset, None))
            continue
        for a, img in images.items():
            end = pos + len(img)
            if end <= n:
                if img == window[pos:end]:
                    stack.append((cuts + (end,), interior + (a,), left, left_offset))
            elif img[: n - pos] == window[pos:]:
                found.append(Tiling(cuts, interior, left, left_offset, a))
    return found


class SystemHandle(ABC):
    """Finite-precision access to a minimal Cantor system (X, T) with a
    marked clopen target U and, optionally, a conjugacy phi: X -> U.

    Points are opaque; the handle guarantees exactness of every answer up
    to its declared depth.  `return_time` agrees with iterated membership
    testing by construction (subclasses overriding it are checked against
    the iteration in `self_check`).
    """

    name: str = "system"
    depth: int = 0

    @abstractmethod
    def step(self, point):
        """T(point)."""

    @abstractmethod
    def step_back(self, point):
        """T^{-1}(point)."""

    @abstractmethod
    def in_target(self, point) -> bool:
        """Membership of the marked clopen set U."""

    @abstractmethod
    def phi(self, point):
        """The conjugacy onto U."""

    @abstractmethod
    def in_iterated_image(self, point, power: int) -> bool:
        """Membership of phi^power(X)."""

    @abstractmethod
    def cells(self, resolution: int) -> tuple:
        """The clopen partition of X at the given resolution, sorted."""

    @abstractmethod
    def cell_of(self, point, resolution: int):
        pass

    @abstractmethod
    def representative(self, cell):
        """A deterministic point inside the cell."""

    def return_time(self, point, limit: int = 10_000) -> int:
        p = point
        for n in range(1, limit + 1):
            p = self.step(p)
            if self.in_target(p):
                return n
        raise ConstructionError(f"no return to target within {limit} steps")

    def _iterated_return_time(self, point, limit: int = 10_000) -> int:
        return SystemHandle.return_time(self, point, limit)

    def self_check(self, resolution: int, samples: int | None = None) -> None:
        """Verify the handle contracts on cell representatives: the declared
        return times equal iterated membership counts, and phi intertwines
        T with the induced map up to the resolution."""
        cells = self.cells(resolution)
        if samples is not None:
            cells = cells[:samples]
        for cell in cells:
            p = self.representative(cell)
            q = self.phi(p)
            r = self.return_time(q)
            if r != self._iterated_return_time(q):
                raise ConstructionError(f"return time mismatch at {cell!r}")
            lhs = self.phi(self.step(p))
            rhs = q
            for _ in range(r):
                rhs = self.step(rhs)
            if self.cell_of(lhs, resolution) != self.cell_of(rhs, resolution):
                raise ConstructionError(f"phi does not intertwine at {cell!r}")
