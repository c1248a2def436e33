"""Generalized substitutions on compact zero-dimensional alphabets.

The alphabet space is approximated by a resolution tree: nested clopen
partitions P_1, P_2, ... whose cells refine.  A generalized substitution is
stored as per-resolution tables (length per cell, j-th letter cell per cell),
and the continuity axioms become cross-resolution consistency checks.  Every
answer carries its resolution; refining a resolution may only refine an
earlier answer.

Cellwise computation is exact: once the continuity checks pass, the cell of
the j-th image letter is constant on each cell, so iterated images of cells
are the true cell traces of iterated images of points.

Recognizability decompositions tile a cell window with `words.tilings`, the
same search that serves finite substitutions (a finite alphabet is the
discrete case, `discrete_substitution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    ConstructionError,
    NoStabilization,
    OverlapViolation,
    SeedNotLegal,
)
from .words import SystemHandle, tilings


@dataclass(frozen=True, order=True)
class Cell:
    """One cell of the partition tree; `level` is the depth it was born at."""

    level: int
    name: str

    def __repr__(self) -> str:
        return f"Cell({self.level},{self.name!r})"

    def __str__(self) -> str:
        return self.name


class AlphabetSpace:
    """Resolution tree of clopen cells approximating a compact
    zero-dimensional space with at least two points.

    The partition at resolution m (the "frontier") consists of the leaves of
    depth <= m together with the internal cells at depth exactly m.  Leaves
    flagged isolated are genuine singletons; an unrefined cell at maximal
    resolution is just the approximation boundary.
    """

    def __init__(
        self,
        root: Cell,
        children: Mapping[Cell, Iterable[Cell]],
        isolated: Iterable[Cell] = (),
        max_resolution: int | None = None,
    ):
        self._root = root
        self._children = {c: tuple(kids) for c, kids in children.items() if kids}
        self._parent: dict[Cell, Cell] = {}
        for c, kids in self._children.items():
            for kid in kids:
                if kid in self._parent:
                    raise ConstructionError(f"cell {kid} has two parents")
                if kid.level != c.level + 1:
                    raise ConstructionError(f"child {kid} not one level below {c}")
                self._parent[kid] = c
        self._isolated = frozenset(isolated)
        depths = [c.level for c in self._all_cells()]
        self.max_resolution = (
            max_resolution if max_resolution is not None else max(depths)
        )
        if len(self.frontier(self.max_resolution)) < 2:
            raise ConstructionError("alphabet space needs at least two letters")

    def _all_cells(self):
        out = [self._root]
        stack = [self._root]
        while stack:
            c = stack.pop()
            for kid in self._children.get(c, ()):
                out.append(kid)
                stack.append(kid)
        return out

    @property
    def root(self) -> Cell:
        return self._root

    def children(self, cell: Cell) -> tuple[Cell, ...]:
        return self._children.get(cell, ())

    def parent(self, cell: Cell) -> Cell | None:
        return self._parent.get(cell)

    def is_isolated(self, cell: Cell) -> bool:
        return cell in self._isolated

    def frontier(self, resolution: int) -> tuple[Cell, ...]:
        """The partition P_resolution, sorted."""
        if resolution < 0 or resolution > self.max_resolution:
            raise ConstructionError(f"no resolution {resolution}")
        out = []
        stack = [self._root]
        while stack:
            c = stack.pop()
            kids = self._children.get(c, ())
            if c.level == resolution or not kids:
                if c.level <= resolution:
                    out.append(c)
                continue
            stack.extend(kids)
        return tuple(sorted(out))

    def refinement(self, cell: Cell, resolution: int) -> tuple[Cell, ...]:
        """The frontier cells at the given resolution inside `cell`."""
        out = []
        stack = [cell]
        while stack:
            c = stack.pop()
            kids = self._children.get(c, ())
            if c.level == resolution or not kids:
                out.append(c)
                continue
            stack.extend(kids)
        return tuple(sorted(out))

    def ancestor_at(self, cell: Cell, resolution: int) -> Cell:
        """The frontier cell at the given resolution containing `cell`."""
        c = cell
        while c.level > resolution:
            c = self._parent[c]
        return c

    def common_cell(self, a: Cell, b: Cell) -> Cell:
        """The deepest cell containing both."""
        if a == b:
            return a
        ancestors = set()
        c = a
        while c is not None:
            ancestors.add(c)
            c = self.parent(c)
        c = b
        while c not in ancestors:
            c = self._parent[c]
        return c

    def join(self, cells: Iterable[Cell]) -> Cell:
        """The deepest cell containing all of them."""
        cells = list(cells)
        out = cells[0]
        for c in cells[1:]:
            out = self.common_cell(out, c)
        return out

    def distance(self, a: Cell, b: Cell) -> float:
        """2^-(depth of the deepest common cell); 0 for equal cells."""
        if a == b:
            return 0.0
        return 2.0 ** (-self.common_cell(a, b).level)


def discrete_space(names: Iterable[str]) -> AlphabetSpace:
    """A finite discrete alphabet: one isolated leaf per letter."""
    root = Cell(0, "*")
    leaves = tuple(Cell(1, str(n)) for n in names)
    return AlphabetSpace(root, {root: leaves}, isolated=leaves)


def compactified_naturals(resolution: int) -> AlphabetSpace:
    """{0, 1, ..., infinity}: the tail cell [k, inf] splits into the isolated
    point {k} and the next tail."""
    if resolution < 1:
        raise ConstructionError("resolution must be >= 1")
    children = {}
    isolated = []
    tail = Cell(0, "[0,inf]")
    root = tail
    for k in range(resolution):
        point = Cell(k + 1, str(k))
        next_tail = Cell(k + 1, f"[{k + 1},inf]")
        children[tail] = (point, next_tail)
        isolated.append(point)
        tail = next_tail
    return AlphabetSpace(root, children, isolated=isolated, max_resolution=resolution)


CellWord = tuple[Cell, ...]


@dataclass(frozen=True)
class TwoSidedCellWord:
    """A window of cells with `origin` cells lying left of the origin."""

    cells: CellWord
    origin: int

    def __post_init__(self):
        if not 0 <= self.origin <= len(self.cells):
            raise ConstructionError("origin outside the window")

    def left(self) -> CellWord:
        return self.cells[: self.origin]

    def right(self) -> CellWord:
        return self.cells[self.origin :]

    def __str__(self) -> str:
        return (
            " ".join(map(str, self.left())) + " . " + " ".join(map(str, self.right()))
        )


class GeneralizedSubstitution:
    """sigma: K -> K^+ through per-resolution cell tables.

    `lengths[m][cell]` (for m >= length_resolution) and
    `images[m][(cell, j)]` describe |sigma| and the j-th letter projection on
    the partition at resolution m.  Exactness of every cellwise computation
    rests on `validate_continuity`.
    """

    def __init__(
        self,
        space: AlphabetSpace,
        lengths: Mapping[int, Mapping[Cell, int]],
        images: Mapping[int, Mapping[tuple, Cell]],
        length_resolution: int = 1,
    ):
        self.space = space
        self.length_resolution = length_resolution
        self.lengths = {m: dict(table) for m, table in lengths.items()}
        self.images = {m: dict(table) for m, table in images.items()}
        self.max_resolution = max(self.images)
        for m, table in self.lengths.items():
            for cell, n in table.items():
                if n < 1:
                    raise ConstructionError(f"empty image at {cell}")

    def resolutions(self) -> tuple[int, ...]:
        return tuple(sorted(self.images))

    def length(self, cell: Cell, resolution: int) -> int:
        return self.lengths[resolution][cell]

    def image(self, cell: Cell, resolution: int) -> CellWord:
        table = self.images[resolution]
        n = self.lengths[resolution][cell]
        return tuple(table[(cell, j)] for j in range(1, n + 1))

    def apply(self, word: CellWord, resolution: int) -> CellWord:
        out: list[Cell] = []
        for cell in word:
            out.extend(self.image(cell, resolution))
        return tuple(out)

    def max_image_length(self, resolution: int) -> int:
        return max(self.lengths[resolution].values())


def power(g: GeneralizedSubstitution, k: int) -> GeneralizedSubstitution:
    """The generalized substitution sigma^k, tabulated cellwise."""
    if k < 1:
        raise ConstructionError("power must be >= 1")
    lengths: dict[int, dict[Cell, int]] = {}
    images: dict[int, dict[tuple, Cell]] = {}
    for m in g.resolutions():
        lengths[m] = {}
        images[m] = {}
        for cell in g.space.frontier(m):
            word: CellWord = (cell,)
            for _ in range(k):
                word = g.apply(word, m)
            lengths[m][cell] = len(word)
            for j, target in enumerate(word, start=1):
                images[m][(cell, j)] = target
    return GeneralizedSubstitution(
        g.space, lengths, images, length_resolution=g.length_resolution
    )


@dataclass(frozen=True)
class ContinuityViolation:
    kind: str  # "length" | "letter"
    resolution: int
    cell: Cell
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} inconsistency at {self.cell} (resolution {self.resolution}): {self.detail}"


def validate_continuity(g: GeneralizedSubstitution) -> ContinuityViolation | None:
    """Length constancy per cell and cell-consistency of every letter
    projection across one refinement step; None when both hold."""
    space = g.space
    resolutions = g.resolutions()
    for m in resolutions:
        if m + 1 not in g.images:
            continue
        for cell in space.frontier(m):
            fine_cells = space.refinement(cell, m + 1)
            if m >= g.length_resolution:
                coarse_len = g.lengths[m][cell]
                for fine in fine_cells:
                    if g.lengths[m + 1][fine] != coarse_len:
                        return ContinuityViolation(
                            "length",
                            m,
                            cell,
                            f"{fine} has length {g.lengths[m + 1][fine]} != {coarse_len}",
                        )
            n = g.lengths[m][cell] if m >= g.length_resolution else None
            if n is None:
                continue
            for j in range(1, n + 1):
                coarse = g.images[m][(cell, j)]
                for fine in fine_cells:
                    fine_image = g.images[m + 1][(fine, j)]
                    if space.ancestor_at(fine_image, m) != coarse:
                        return ContinuityViolation(
                            "letter",
                            m,
                            cell,
                            f"pi_{j} of {fine} lands in {fine_image}, outside {coarse}",
                        )
    return None


# -- the running example: j -> 0 (j+1) on the compactified naturals ------------


def zero_successor_substitution(resolution: int) -> GeneralizedSubstitution:
    """Constant length 2: every letter emits 0 then its successor (infinity
    maps to 0 infinity)."""
    space = compactified_naturals(resolution)
    lengths: dict[int, dict[Cell, int]] = {}
    images: dict[int, dict[tuple, Cell]] = {}
    for m in range(1, resolution + 1):
        frontier = space.frontier(m)
        by_name = {c.name: c for c in frontier}
        tail = by_name[f"[{m},inf]"]
        lengths[m] = {c: 2 for c in frontier}
        table: dict[tuple, Cell] = {}
        for c in frontier:
            table[(c, 1)] = by_name["0"] if m >= 1 else tail
            if c is tail:
                table[(c, 2)] = tail
            else:
                successor = int(c.name) + 1
                table[(c, 2)] = by_name.get(str(successor), tail)
        images[m] = table
    return GeneralizedSubstitution(space, lengths, images)


def discrete_substitution(space: AlphabetSpace, rules: Mapping[str, str]) -> GeneralizedSubstitution:
    """A finite-alphabet substitution viewed as a generalized one."""
    frontier = space.frontier(1)
    by_name = {c.name: c for c in frontier}
    lengths = {1: {by_name[a]: len(img) for a, img in rules.items()}}
    images = {
        1: {
            (by_name[a], j): by_name[img[j - 1]]
            for a, img in rules.items()
            for j in range(1, len(img) + 1)
        }
    }
    return GeneralizedSubstitution(space, lengths, images)


# -- primitivity ---------------------------------------------------------------


def is_primitive_at_resolution(
    g: GeneralizedSubstitution, resolution: int
) -> dict[Cell, int | None]:
    """For each target cell V: the least j with V in every cell's k-th image
    for all k >= j, or None when there is none.  Images are non-empty, so j
    is the first k at which every image meets V; the map a -> cells of
    sigma^k(a) depends on its value at k - 1 only, so it recurs, and a target
    unsettled by then is never settled."""
    if resolution == 0:
        # the one-cell partition: V is the whole space, met immediately
        return {g.space.root: 1}
    frontier = g.space.frontier(resolution)
    step = {a: frozenset(g.image(a, resolution)) for a in frontier}
    table: dict[Cell, int | None] = dict.fromkeys(frontier)
    reached = tuple(step[a] for a in frontier)
    seen: set[tuple[frozenset[Cell], ...]] = set()
    k = 1
    while None in table.values() and reached not in seen:
        for target, exponent in table.items():
            if exponent is None and all(target in cells for cells in reached):
                table[target] = k
        seen.add(reached)
        reached = tuple(frozenset().union(*(step[c] for c in cells)) for cells in reached)
        k += 1
    return table


# -- languages ------------------------------------------------------------------


def _factor_closure(
    g: GeneralizedSubstitution, seeds: Iterable[Cell], n: int, resolution: int
) -> set[CellWord]:
    """The cell words of length <= n in some sigma^j(a), j >= 1, a a seed:
    the least set holding the factors of g(a) and closed under u -> factors
    of g(u), as a window of n letters of g(w) spans at most n letters of w."""
    found: set[CellWord] = set()
    frontier: list[CellWord] = [(a,) for a in seeds]
    while frontier:
        fresh: list[CellWord] = []
        for u in frontier:
            img = g.apply(u, resolution)
            for size in range(1, min(n, len(img)) + 1):
                for i in range(len(img) - size + 1):
                    v = img[i : i + size]
                    if v not in found:
                        found.add(v)
                        fresh.append(v)
        frontier = fresh
    return found


def language(
    g: GeneralizedSubstitution, base: Cell, n: int, resolution: int
) -> frozenset[CellWord]:
    """All length-n cell words occurring in some sigma^j(base), j >= 1.

    At a fixed resolution the cell trace of a metric limit of occurring words
    eventually agrees with the cell traces of the approximants, so limit
    words contribute no cells beyond the direct occurrences."""
    if n < 1:
        raise ConstructionError("need n >= 1")
    return frozenset(w for w in _factor_closure(g, (base,), n, resolution) if len(w) == n)


# -- omega-limit fixed points ------------------------------------------------------


@dataclass(frozen=True)
class OmegaWindow:
    window: TwoSidedCellWord
    iterations: int
    period: int


def omega_fixed_point(
    g: GeneralizedSubstitution,
    left_seed: Cell,
    right_seed: Cell,
    radius: int,
    iters: int = 64,
    resolution: int | None = None,
) -> OmegaWindow:
    """Iterate the two-sided extension from ...left.right... until the
    [-radius, radius) cell window recurs; the recurring window belongs to the
    omega-limit of the seed.  The seed must be legal: a two-cell word of some
    sigma^j(a), decided exactly by one closure seeded from every cell.  Runs
    at the substitution's full resolution unless a coarser one is
    requested."""
    if radius < 1:
        raise ConstructionError("omega window radius must be >= 1")
    if resolution is None:
        resolution = g.max_resolution
    frontier = g.space.frontier(resolution)
    if left_seed not in frontier or right_seed not in frontier:
        raise ConstructionError("seed cells must belong to the working partition")
    if (left_seed, right_seed) not in _factor_closure(g, frontier, 2, resolution):
        raise SeedNotLegal(f"{left_seed} {right_seed} occurs in no iterated image")

    keep = radius * g.max_image_length(resolution) + radius + 4
    left: CellWord = (left_seed,)
    right: CellWord = (right_seed,)
    seen: dict[tuple, int] = {}
    for it in range(1, iters + 1):
        left = g.apply(left, resolution)[-keep:]
        right = g.apply(right, resolution)[:keep]
        if len(left) >= radius and len(right) >= radius:
            window = (left[-radius:], right[:radius])
            if window in seen:
                return OmegaWindow(
                    TwoSidedCellWord(window[0] + window[1], radius),
                    it,
                    it - seen[window],
                )
            seen[window] = it
    raise NoStabilization(f"no recurring window within {iters} iterations")


# -- recognizability -----------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Unique tiling: cut offsets relative to the origin and the interior
    preimage letters."""

    cuts: tuple[int, ...]
    preimage: CellWord


@dataclass(frozen=True)
class NotUnique:
    first: tuple
    second: tuple


@dataclass(frozen=True)
class Inconclusive:
    reason: str


def recognizability_decompose(
    g: GeneralizedSubstitution, word: TwoSidedCellWord
):
    """Unique interior tiling of the window, a NotUnique witness pair, or
    Inconclusive when no complete block fits.

    Preimage cells only determined up to the resolution boundary (several
    candidate cells sharing a proper ancestor) are coarsened to their join:
    refining the resolution refines such an answer without contradicting it.
    NotUnique is reserved for ambiguous cuts, or for a position whose
    candidates only meet in the whole space."""
    cells = word.cells
    if not cells:
        return Inconclusive("empty window")
    resolution = max(c.level for c in cells)
    images = {a: g.image(a, resolution) for a in g.space.frontier(resolution)}
    with_blocks = [(t.cuts, t.interior) for t in tilings(images, cells) if t.interior]
    if not with_blocks:
        return Inconclusive("window shorter than every image block")
    signatures = sorted(set(with_blocks))
    cut_sets = {cuts for cuts, _ in signatures}
    if len(cut_sets) > 1:
        return NotUnique(signatures[0], signatures[1])
    cuts = next(iter(cut_sets))
    merged = []
    for candidates in zip(*(interior for _, interior in signatures)):
        cell = g.space.join(candidates)
        if cell.level == 0:
            return NotUnique(signatures[0], signatures[1])
        merged.append(cell)
    return Decomposition(tuple(c - word.origin for c in cuts), tuple(merged))


# -- self-induced systems as generalized substitutions ---------------------------------


def from_self_induced(handle: SystemHandle, resolution: int) -> GeneralizedSubstitution:
    """The substitution x -> phi(x) T(phi(x)) ... T^(r-1)(phi(x)) read off a
    system handle, tabulated on the handle's cells at every resolution up to
    the requested one.  Demands U and T(U) disjoint."""
    if resolution < 1:
        raise ConstructionError("resolution must be >= 1")
    for cell in handle.cells(resolution):
        p = handle.representative(cell)
        if handle.in_target(p) and handle.in_target(handle.step(p)):
            raise OverlapViolation(f"target meets its shift at cell {cell!r}")

    cells_of = {m: handle.cells(m) for m in range(1, resolution + 1)}
    name_of = {m: {c: Cell(m, str(c)) for c in cells_of[m]} for m in cells_of}
    children: dict[Cell, list[Cell]] = {}
    root = Cell(0, "*")
    for m in range(1, resolution + 1):
        for c in cells_of[m]:
            if m == 1:
                parent = root
            else:
                rep = handle.representative(c)
                parent = name_of[m - 1][handle.cell_of(rep, m - 1)]
            children.setdefault(parent, []).append(name_of[m][c])
    space = AlphabetSpace(
        root,
        {c: tuple(sorted(kids)) for c, kids in children.items()},
        max_resolution=resolution,
    )

    lengths: dict[int, dict[Cell, int]] = {}
    images: dict[int, dict[tuple, Cell]] = {}
    for m in range(1, resolution + 1):
        lengths[m] = {}
        images[m] = {}
        for c in cells_of[m]:
            cell = name_of[m][c]
            rep = handle.representative(c)
            q = handle.phi(rep)
            r = handle.return_time(q)
            lengths[m][cell] = r
            point = q
            for j in range(1, r + 1):
                images[m][(cell, j)] = name_of[m][handle.cell_of(point, m)]
                point = handle.step(point)
    g = GeneralizedSubstitution(space, lengths, images)
    violation = validate_continuity(g)
    if violation is not None:
        raise ConstructionError(str(violation))
    return g


@dataclass(frozen=True)
class PowerFormulaReport:
    max_power: int
    samples: int
    checks: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_power_formula(
    handle: SystemHandle, n: int, samples: int, resolution: int = 4
) -> PowerFormulaReport:
    """sigma^k(x) from cellwise substitution iteration against the direct
    orbit phi^k(x), T(phi^k(x)), ..., up to the return time to phi^k(X)."""
    g = from_self_induced(handle, resolution)
    cells = handle.cells(resolution)[:samples]
    checks = 0
    failures: list[str] = []
    for c in cells:
        cell = Cell(resolution, str(c))
        word: CellWord = (cell,)
        x = handle.representative(c)
        for power in range(1, n + 1):
            word = g.apply(word, resolution)
            y = x
            for _ in range(power):
                y = handle.phi(y)
            orbit = [y]
            steps = 0
            point = y
            while True:
                point = handle.step(point)
                steps += 1
                if handle.in_iterated_image(point, power):
                    break
                orbit.append(point)
                if steps > 10_000:
                    raise ConstructionError("no return to the iterated image")
            checks += 1
            if steps != len(word):
                failures.append(
                    f"cell {c!r} power {power}: return time {steps} != |sigma^{power}| {len(word)}"
                )
                continue
            trace = tuple(Cell(resolution, str(handle.cell_of(p, resolution))) for p in orbit)
            if trace != word:
                failures.append(f"cell {c!r} power {power}: orbit trace differs")
    return PowerFormulaReport(n, len(cells), checks, tuple(failures))