"""Ordered Bratteli diagrams and their dynamics.

Validation, simplicity, proper-order certificates, the Vershik successor map,
contraction/microscoping, induction on path sets, stationary invariant
measures with the induced-measure bijection and Kac identity, and embedding
of ordered bipartite graphs into deep levels of a simple diagram.

Edge order is stored as explicit dense ranks on co-terminal edges, so the
order induced on paths is the lexicographic comparison of rank tuples read
from the top level down.  All diagrams are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import matrixutil
from .errors import (
    ConstructionError,
    CoverageViolation,
    CutsOutOfRange,
    DepthExhausted,
    InvalidDiagram,
    InvalidPrefix,
    LeftSideMismatch,
    NotPrimitive,
    NotSimple,
    NotStationary,
    SplitDoesNotCompose,
    ZeroMassClopen,
)

if TYPE_CHECKING:
    from .substitution import Substitution


@dataclass(frozen=True, order=True)
class Edge:
    source: int
    target: int
    rank: int


def _normalise_level(edges) -> tuple[Edge, ...]:
    out = []
    for e in edges:
        if not isinstance(e, Edge):
            e = Edge(*e)
        out.append(e)
    return tuple(sorted(out, key=lambda e: (e.target, e.rank, e.source)))


class OrderedBratteliDiagram:
    """Levels of vertex counts and rank-ordered edge sets from a root vertex.

    `vertex_counts[k]` is #V_k (with #V_0 == 1); `levels[k-1]` holds E_k.
    The stationary flag is detected structurally: constant vertex counts from
    level 1 and identical edge sets from level 2 on.
    """

    __slots__ = ("_counts", "_levels", "_stationary", "_incoming")

    def __init__(self, vertex_counts, levels, stationary: bool | None = None):
        counts = tuple(int(n) for n in vertex_counts)
        if not counts or counts[0] != 1:
            raise ConstructionError("V_0 must be the singleton root level")
        if any(n < 1 for n in counts):
            raise ConstructionError("every level needs at least one vertex")
        lvls = tuple(_normalise_level(level) for level in levels)
        if len(lvls) != len(counts) - 1:
            raise ConstructionError("need one edge set per level")
        for k, level in enumerate(lvls, start=1):
            if not level:
                raise ConstructionError(f"level {k} has no edges")
            for e in level:
                if not (0 <= e.source < counts[k - 1]) or not (0 <= e.target < counts[k]):
                    raise ConstructionError(f"edge {e} out of range at level {k}")
        self._counts = counts
        self._levels = lvls
        if stationary is None:
            stationary = self._detect_stationary()
        self._stationary = bool(stationary)
        self._incoming: dict[int, dict[int, tuple[Edge, ...]]] = {}

    def _detect_stationary(self) -> bool:
        if self.depth < 2:
            return False
        if len(set(self._counts[1:])) != 1:
            return False
        template = self._levels[1]
        return all(level == template for level in self._levels[2:])

    # -- structure access ------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._levels)

    @property
    def vertex_counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def stationary(self) -> bool:
        return self._stationary

    def vertices(self, k: int) -> range:
        return range(self._counts[k])

    def edges(self, k: int) -> tuple[Edge, ...]:
        if not 1 <= k <= self.depth:
            raise ConstructionError(f"no level {k} in a depth-{self.depth} diagram")
        return self._levels[k - 1]

    def incoming(self, k: int, v: int) -> tuple[Edge, ...]:
        """Edges of E_k into v, in rank order."""
        per_level = self._incoming.get(k)
        if per_level is None:
            per_level = {}
            for e in self.edges(k):
                per_level.setdefault(e.target, []).append(e)
            per_level = {t: tuple(es) for t, es in per_level.items()}
            self._incoming[k] = per_level
        return per_level.get(v, ())

    def outgoing(self, k: int, v: int) -> tuple[Edge, ...]:
        """Edges of E_{k+1} out of v."""
        return tuple(e for e in self.edges(k + 1) if e.source == v)

    def max_edge_into(self, k: int, v: int) -> Edge:
        return self.incoming(k, v)[-1]

    def min_edge_into(self, k: int, v: int) -> Edge:
        return self.incoming(k, v)[0]

    def adjacency_matrix(self, k: int) -> matrixutil.Matrix:
        """V_k x V_{k-1} matrix counting edges of E_k."""
        rows = [[0] * self._counts[k - 1] for _ in range(self._counts[k])]
        for e in self.edges(k):
            rows[e.target][e.source] += 1
        return tuple(tuple(row) for row in rows)

    def template_matrix(self) -> matrixutil.Matrix:
        if not self._stationary:
            raise NotStationary("no repeating level template")
        return self.adjacency_matrix(2)

    def extended(self, depth: int) -> "OrderedBratteliDiagram":
        """Deepen a stationary diagram by repeating its template."""
        if depth <= self.depth:
            return self
        if not self._stationary:
            raise NotStationary("only stationary diagrams extend on demand")
        counts = self._counts + (self._counts[-1],) * (depth - self.depth)
        levels = self._levels + (self._levels[1],) * (depth - self.depth)
        return OrderedBratteliDiagram(counts, levels, stationary=True)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderedBratteliDiagram)
            and self._counts == other._counts
            and self._levels == other._levels
        )

    def __hash__(self) -> int:
        return hash((self._counts, self._levels))

    def __repr__(self) -> str:
        return f"OrderedBratteliDiagram(depth={self.depth}, counts={self._counts})"

    def to_document(self) -> dict:
        return {
            "stationary": self._stationary,
            "levels": [
                {
                    "vertices": self._counts[k],
                    "edges": [[e.source, e.target, e.rank] for e in self._levels[k - 1]],
                }
                for k in range(1, self.depth + 1)
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "OrderedBratteliDiagram":
        counts = [1] + [level["vertices"] for level in doc["levels"]]
        levels = [
            [Edge(*edge) for edge in level["edges"]] for level in doc["levels"]
        ]
        return cls(counts, levels, stationary=doc.get("stationary"))


def one_vertex_diagram(qs) -> OrderedBratteliDiagram:
    """The odometer diagram: one vertex per level, qs[k-1] edges at level k."""
    qs = tuple(int(q) for q in qs)
    if not qs or any(q < 1 for q in qs):
        raise ConstructionError("need positive edge counts")
    counts = (1,) * (len(qs) + 1)
    levels = [tuple(Edge(0, 0, r) for r in range(q)) for q in qs]
    return OrderedBratteliDiagram(counts, levels)


def from_substitution(s: Substitution, depth: int = 8) -> OrderedBratteliDiagram:
    """Stationary diagram reading the substitution: vertices are letters,
    the edges into a letter are the positions of its image word (rank =
    position, source = the letter at that position); one root edge per
    letter."""
    from .substitution import is_primitive

    if not is_primitive(s):
        raise NotPrimitive("stationary diagrams are built for primitive rules")
    letters = s.alphabet.letters
    index = {a: i for i, a in enumerate(letters)}
    n = len(letters)
    level1 = tuple(Edge(0, v, 0) for v in range(n))
    template = []
    for a in letters:
        for pos, b in enumerate(s.image_letters(a)):
            template.append(Edge(index[b], index[a], pos))
    counts = (1,) + (n,) * depth
    levels = [level1] + [tuple(template)] * (depth - 1)
    return OrderedBratteliDiagram(counts, levels, stationary=True)


# -- validation --------------------------------------------------------------


def validate(d: OrderedBratteliDiagram) -> list[str]:
    """Non-degeneracy and RL-order violations; empty list means ok."""
    violations = []
    for k in range(1, d.depth + 1):
        seen_targets = {e.target for e in d.edges(k)}
        for v in d.vertices(k):
            if v not in seen_targets:
                violations.append(f"level {k} vertex {v}: no incoming edge")
        for v in seen_targets:
            ranks = sorted(e.rank for e in d.edges(k) if e.target == v)
            if ranks != list(range(len(ranks))):
                violations.append(
                    f"level {k} vertex {v}: order not total (ranks {ranks})"
                )
    for k in range(1, d.depth):
        seen_sources = {e.source for e in d.edges(k + 1)}
        for v in d.vertices(k):
            if v not in seen_sources:
                violations.append(f"level {k} vertex {v}: no outgoing edge")
    return violations


def _require_valid(d: OrderedBratteliDiagram) -> None:
    violations = validate(d)
    if violations:
        raise InvalidDiagram("; ".join(violations))


def is_simple(d: OrderedBratteliDiagram, window: int) -> bool:
    """Entrywise positivity of every full window of adjacency products."""
    _require_valid(d)
    if window < 1:
        raise ConstructionError("window must be >= 1")
    if d.depth < window:
        raise InvalidDiagram(f"depth {d.depth} shorter than window {window}")
    start = 1
    while start + window - 1 <= d.depth:
        product = d.adjacency_matrix(start)
        for k in range(start + 1, start + window):
            product = matrixutil.mat_mul(d.adjacency_matrix(k), product)
        if not matrixutil.entrywise_positive(product):
            return False
        start += window
    return True


# -- paths and the Vershik map ------------------------------------------------


@dataclass(frozen=True)
class PathPrefix:
    """A finite path from the root: edges (e_1, ..., e_n) with e_k in E_k."""

    diagram: OrderedBratteliDiagram
    edges: tuple[Edge, ...]

    def __post_init__(self):
        d = self.diagram
        if len(self.edges) > d.depth:
            raise InvalidPrefix("prefix deeper than the diagram")
        prev = 0
        for k, e in enumerate(self.edges, start=1):
            if e not in d.edges(k):
                raise InvalidPrefix(f"edge {e} not in level {k}")
            if e.source != prev:
                raise InvalidPrefix(f"edge {e} does not continue the path at level {k}")
            prev = e.target

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def end_vertex(self) -> int:
        return self.edges[-1].target if self.edges else 0

    def order_key(self) -> tuple[int, ...]:
        """Rank tuple read from the top level down (the induced order)."""
        return tuple(e.rank for e in reversed(self.edges))

    def extend(self, edge: Edge) -> "PathPrefix":
        return PathPrefix(self.diagram, self.edges + (edge,))


class _NeedsExtension:
    def __repr__(self) -> str:  # pragma: no cover
        return "NeedsExtension"

    def __bool__(self) -> bool:
        return False


NEEDS_EXTENSION = _NeedsExtension()


def minimal_path_to(d: OrderedBratteliDiagram, level: int, vertex: int) -> tuple[Edge, ...]:
    """The unique rank-minimal path from the root to a vertex."""
    path = []
    v = vertex
    for k in range(level, 0, -1):
        e = d.min_edge_into(k, v)
        path.append(e)
        v = e.source
    path.reverse()
    return tuple(path)


def maximal_path_to(d: OrderedBratteliDiagram, level: int, vertex: int) -> tuple[Edge, ...]:
    path = []
    v = vertex
    for k in range(level, 0, -1):
        e = d.max_edge_into(k, v)
        path.append(e)
        v = e.source
    path.reverse()
    return tuple(path)


def vershik_step(d: OrderedBratteliDiagram, p: PathPrefix):
    """Successor of the prefix: bump the lowest non-maximal edge and reset
    everything below it to the minimal path.  All-maximal prefixes have no
    successor inside their own cylinder, so NeedsExtension is returned."""
    if p.diagram is not d and p.diagram != d:
        raise InvalidPrefix("prefix belongs to a different diagram")
    for k, e in enumerate(p.edges, start=1):
        fan = d.incoming(k, e.target)
        if e.rank < len(fan) - 1:
            successor = fan[e.rank + 1]
            head = minimal_path_to(d, k - 1, successor.source)
            return PathPrefix(d, head + (successor,) + p.edges[k:])
    return NEEDS_EXTENSION


# -- proper ordering -----------------------------------------------------------


@dataclass(frozen=True)
class ProperOrderResult:
    """Three-valued proper-order answer.

    `certified` carries the unique maximal/minimal prefixes (exact for
    stationary diagrams, depth-bounded otherwise); `witness` carries the
    backward-map cycle demonstrating two extreme paths.
    """

    status: str  # "certified" | "not_proper" | "unknown"
    max_prefix: tuple[Edge, ...] | None = None
    min_prefix: tuple[Edge, ...] | None = None
    witness: tuple | None = None
    depth: int = 0

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _backward_map(d: OrderedBratteliDiagram, k: int, extremal: str) -> dict[int, int]:
    pick = d.max_edge_into if extremal == "max" else d.min_edge_into
    return {v: pick(k, v).source for v in d.vertices(k)}


def _cycle_vertices(f: dict[int, int]) -> set[int]:
    """Vertices on cycles of a functional graph (the eventual image)."""
    image = set(f)
    for _ in range(len(f)):
        image = {f[v] for v in image}
    return image


def proper_order_certificate(d: OrderedBratteliDiagram, depth: int) -> ProperOrderResult:
    """Unique max/min infinite path detection.

    Stationary diagrams are decided exactly: the number of maximal paths
    equals the number of cyclic vertices of the backward max-source map
    (likewise for minimal), so one cyclic vertex on both sides certifies and
    a bigger cycle structure refutes.  Other diagrams only get a depth-bounded
    collapse certificate."""
    _require_valid(d)
    if d.stationary:
        work = d.extended(max(depth, d.depth))
        template_level = 2
        answers = {}
        for extremal in ("max", "min"):
            f = _backward_map(work, template_level, extremal)
            answers[extremal] = _cycle_vertices(f)
        if len(answers["max"]) > 1 or len(answers["min"]) > 1:
            side = "max" if len(answers["max"]) > 1 else "min"
            cycle = tuple(sorted(answers[side]))
            return ProperOrderResult(
                status="not_proper", witness=(side, cycle), depth=depth
            )
        vmax = answers["max"].pop()
        vmin = answers["min"].pop()
        return ProperOrderResult(
            status="certified",
            max_prefix=maximal_path_to(work, depth, vmax),
            min_prefix=minimal_path_to(work, depth, vmin),
            depth=depth,
        )

    depth = min(depth, d.depth)
    prefixes = {}
    for extremal, build in (("max", maximal_path_to), ("min", minimal_path_to)):
        tails = {build(d, depth, v) for v in d.vertices(depth)}
        collapse = 0
        for j in range(depth, 0, -1):
            if len({t[:j] for t in tails}) == 1:
                collapse = j
                break
        if collapse == 0:
            return ProperOrderResult(status="unknown", depth=depth)
        prefixes[extremal] = next(iter(tails))[:collapse]
    return ProperOrderResult(
        status="certified",
        max_prefix=prefixes["max"],
        min_prefix=prefixes["min"],
        depth=depth,
    )


# -- contraction and microscoping ----------------------------------------------


def _paths_between(d: OrderedBratteliDiagram, lo: int, hi: int, start: int | None = None):
    """All edge paths through levels lo+1 .. hi (sources at V_lo)."""
    if hi <= lo:
        raise ConstructionError("empty level range")
    paths = [
        [e]
        for e in d.edges(lo + 1)
        if start is None or e.source == start
    ]
    for k in range(lo + 2, hi + 1):
        paths = [p + [e] for p in paths for e in d.edges(k) if e.source == p[-1].target]
    return [tuple(p) for p in paths]


def _rank_paths(paths) -> list[Edge]:
    """Collapse paths to edges, ranking co-terminal paths by the induced
    order (rank tuples compared from the top level down)."""
    by_target: dict[int, list] = {}
    for p in paths:
        by_target.setdefault(p[-1].target, []).append(p)
    edges = []
    for target, group in by_target.items():
        group.sort(key=lambda p: tuple(e.rank for e in reversed(p)))
        for rank, p in enumerate(group):
            edges.append(Edge(p[0].source, target, rank))
    return edges


def contract(d: OrderedBratteliDiagram, cuts) -> OrderedBratteliDiagram:
    """Merge the levels between consecutive cuts into single path-edge levels
    with the induced order."""
    _require_valid(d)
    cuts = tuple(int(c) for c in cuts)
    if len(cuts) < 2 or cuts[0] != 0:
        raise CutsOutOfRange("cuts must start at 0 and keep at least one level")
    if any(b <= a for a, b in zip(cuts, cuts[1:])) or cuts[-1] > d.depth:
        raise CutsOutOfRange(f"cuts {cuts} not strictly increasing within depth {d.depth}")
    counts = tuple(d.vertex_counts[c] for c in cuts)
    levels = []
    for lo, hi in zip(cuts, cuts[1:]):
        levels.append(_rank_paths(_paths_between(d, lo, hi)))
    return OrderedBratteliDiagram(counts, levels)


@dataclass(frozen=True)
class LevelSplit:
    """A factorisation of one level into two: lower edges into a new
    intermediate vertex set, then upper edges out of it."""

    intermediate_vertices: int
    lower: tuple[Edge, ...]
    upper: tuple[Edge, ...]


def microscope(d: OrderedBratteliDiagram, level: int, split: LevelSplit) -> OrderedBratteliDiagram:
    """Insert an intermediate level; the two new levels must compose back to
    the original one, induced order included."""
    _require_valid(d)
    if not 1 <= level <= d.depth:
        raise CutsOutOfRange(f"no level {level}")
    lower = _normalise_level(split.lower)
    upper = _normalise_level(split.upper)
    mid = split.intermediate_vertices
    lo_count = d.vertex_counts[level - 1]
    hi_count = d.vertex_counts[level]
    for e in lower:
        if not (0 <= e.source < lo_count and 0 <= e.target < mid):
            raise SplitDoesNotCompose(f"lower edge {e} out of range")
    for e in upper:
        if not (0 <= e.source < mid and 0 <= e.target < hi_count):
            raise SplitDoesNotCompose(f"upper edge {e} out of range")
    paths = [
        (lo, up)
        for lo in lower
        for up in upper
        if lo.target == up.source
    ]
    composed = _normalise_level(_rank_paths(paths))
    if composed != d.edges(level):
        raise SplitDoesNotCompose("composed levels disagree with the original level")
    counts = (
        d.vertex_counts[:level]
        + (mid,)
        + d.vertex_counts[level:]
    )
    levels = (
        d._levels[: level - 1]
        + (lower, upper)
        + d._levels[level:]
    )
    return OrderedBratteliDiagram(counts, levels)


# -- induction on path sets ------------------------------------------------------


def induce_on_paths(d: OrderedBratteliDiagram, prefixes) -> OrderedBratteliDiagram:
    """Diagram of the induced system on a union of path cylinders: the paths
    become the new first level (induced order), the rest of the diagram is
    kept."""
    _require_valid(d)
    paths = list(prefixes)
    if not paths:
        raise ConstructionError("need at least one path")
    lengths = {len(p) for p in paths}
    if len(lengths) != 1:
        raise ConstructionError("paths must share one level")
    n0 = lengths.pop()
    if not 1 <= n0 <= d.depth:
        raise ConstructionError("path level out of range")
    seen = set()
    edge_paths = []
    for p in paths:
        if isinstance(p, PathPrefix):
            edges = p.edges
        else:
            edges = tuple(p)
            PathPrefix(d, edges)  # validation
        if edges in seen:
            continue
        seen.add(edges)
        edge_paths.append(edges)
    covered = {p[-1].target for p in edge_paths}
    missing = set(d.vertices(n0)) - covered
    if missing:
        raise CoverageViolation(f"level-{n0} vertices without a path: {sorted(missing)}")
    level1 = _rank_paths(edge_paths)
    counts = (1,) + d.vertex_counts[n0:]
    levels = (tuple(level1),) + d._levels[n0:]
    return OrderedBratteliDiagram(counts, levels)


# -- stationary measures and Kac ---------------------------------------------------


class CylinderMeasure:
    """The unique invariant measure of a simple stationary diagram, given on
    path cylinders: a cylinder to level n ending at v has mass x_v / lam^(n-1)
    up to the root normalisation.  Exact fractions whenever the Perron
    eigenvalue is an integer."""

    def __init__(self, diagram: OrderedBratteliDiagram):
        _require_valid(diagram)
        if not diagram.stationary:
            raise NotStationary("cylinder measures are built for stationary diagrams")
        template = diagram.template_matrix()
        size = len(template)
        if matrixutil.positivity_exponent(template, 2 * size * size) is None:
            raise NotSimple("no positive power of the template matrix")
        data = matrixutil.perron(matrixutil.transpose(template))
        self.diagram = diagram
        self.eigenvalue = data.value
        self.exact = data.exact
        weights = data.vector
        mass = sum(
            len(diagram.incoming(1, v)) * weights[v] for v in diagram.vertices(1)
        )
        self._unit = [wv / mass for wv in weights]

    def vertex_mass(self, n: int, v: int) -> object:
        """Mass of any single path cylinder to level n ending at v."""
        if n < 1:
            return Fraction(1) if self.exact else 1.0
        if self.exact:
            return self._unit[v] / Fraction(self.eigenvalue) ** (n - 1)
        return self._unit[v] / float(self.eigenvalue) ** (n - 1)

    def value(self, prefix: PathPrefix) -> object:
        if len(prefix) == 0:
            return Fraction(1) if self.exact else 1.0
        return self.vertex_mass(len(prefix), prefix.end_vertex)

    def additivity_defect(self, prefix: PathPrefix) -> float:
        """|mu(prefix) - sum of one-edge extensions|; 0 in the exact case."""
        d = self.diagram.extended(len(prefix) + 1)
        total = sum(
            self.vertex_mass(len(prefix) + 1, e.target)
            for e in d.edges(len(prefix) + 1)
            if e.source == prefix.end_vertex
        )
        return abs(float(self.value(prefix)) - float(total))


def stationary_measure(d: OrderedBratteliDiagram) -> CylinderMeasure:
    return CylinderMeasure(d)


@dataclass(frozen=True)
class KacReport:
    """Return-time decomposition of a clopen union of path cylinders.

    `by_return_time[k]` approximates mu(U_k) from below; `defect` bounds the
    unresolved mass (tower tops), so `kac_sum` = sum k*mu(U_k) equals
    1 - defect exactly in the rational case."""

    mass: object
    by_return_time: dict
    kac_sum: object
    defect: object
    level_used: int

    @property
    def expected_return_time(self) -> object:
        return self.kac_sum / self.mass


@dataclass(frozen=True)
class _Tower:
    height: int
    first: int | None
    last: int | None
    hist: tuple


def _fold_towers(a: _Tower, b: _Tower) -> _Tower:
    if a.first is None and b.first is None:
        return _Tower(a.height + b.height, None, None, ())
    if a.first is None:
        return _Tower(
            a.height + b.height,
            a.height + b.first,
            a.height + b.last,
            b.hist,
        )
    if b.first is None:
        return _Tower(a.height + b.height, a.first, a.last, a.hist)
    hist = dict(a.hist)
    for k, count in b.hist:
        hist[k] = hist.get(k, 0) + count
    crossing = (a.height - a.last) + b.first
    hist[crossing] = hist.get(crossing, 0) + 1
    return _Tower(
        a.height + b.height,
        a.first,
        a.height + b.last,
        tuple(sorted(hist.items())),
    )


class InducedMeasure:
    """nu(B) = mu(B)/mu(U) on the induced system."""

    def __init__(self, base: CylinderMeasure, mass: object):
        self.base = base
        self.mass = mass

    def value(self, prefix: PathPrefix) -> object:
        return self.base.value(prefix) / self.mass


def induced_measure(
    mu: CylinderMeasure,
    prefixes,
    tolerance: float = 1e-12,
    max_extra_levels: int = 400,
) -> tuple[InducedMeasure, KacReport]:
    """Normalised induced measure and the Kac decomposition of U.

    Return times are resolved combinatorially: the level-n towers of the
    diagram list their floors in Vershik order, a prefix cylinder is a floor,
    and within one tower the gap to the next U-floor is the exact return
    time of the lower floor.  Tower summaries compose level by level, the
    unresolved mass (top U-floors) shrinks geometrically, and the recursion
    deepens until it drops below the tolerance."""
    paths = []
    seen = set()
    for p in prefixes:
        edges = p.edges if isinstance(p, PathPrefix) else tuple(p)
        if edges not in seen:
            seen.add(edges)
            paths.append(edges)
    if not paths:
        raise ZeroMassClopen("no cylinders given")
    lengths = {len(p) for p in paths}
    if len(lengths) != 1:
        raise ConstructionError("cylinders must share one level")
    n0 = lengths.pop()
    if n0 < 1:
        raise ConstructionError("cylinders must have positive length")
    d = mu.diagram.extended(max(mu.diagram.depth, n0 + 1))
    for p in paths:
        PathPrefix(d, p)  # validation
    u_set = set(paths)
    mass = sum(mu.vertex_mass(n0, p[-1].target) for p in paths)
    if mass == 0:
        raise ZeroMassClopen("the union has zero mass")

    # floors of the level-n0 towers, in Vershik (induced rank) order
    all_floors = sorted(
        _paths_between(d, 0, n0), key=lambda p: tuple(e.rank for e in reversed(p))
    )
    towers: dict[int, _Tower] = {}
    for v in d.vertices(n0):
        floors = [p for p in all_floors if p[-1].target == v]
        hits = [i for i, p in enumerate(floors) if p in u_set]
        if hits:
            hist: dict[int, int] = {}
            for i, j in zip(hits, hits[1:]):
                hist[j - i] = hist.get(j - i, 0) + 1
            towers[v] = _Tower(len(floors), hits[0], hits[-1], tuple(sorted(hist.items())))
        else:
            towers[v] = _Tower(len(floors), None, None, ())

    level = n0
    report = None
    while True:
        defect = sum(
            mu.vertex_mass(level, v)
            * (
                t.height
                if t.first is None
                else (t.height - t.last) + t.first
            )
            for v, t in towers.items()
        )
        if float(defect) < tolerance or level - n0 >= max_extra_levels:
            by_return = {}
            for v, t in towers.items():
                unit = mu.vertex_mass(level, v)
                for k, count in t.hist:
                    by_return[k] = by_return.get(k, 0) + count * unit
            kac_sum = sum(k * m for k, m in by_return.items())
            report = KacReport(
                mass=mass,
                by_return_time=dict(sorted(by_return.items())),
                kac_sum=kac_sum,
                defect=defect,
                level_used=level,
            )
            break
        level += 1
        d = d.extended(max(d.depth, level))
        towers = {
            v: _reduce_fold(
                [towers[e.source] for e in d.incoming(level, v)]
            )
            for v in d.vertices(level)
        }
    return InducedMeasure(mu, mass), report


def _reduce_fold(items) -> _Tower:
    acc = items[0]
    for t in items[1:]:
        acc = _fold_towers(acc, t)
    return acc


# -- ordered bipartite graphs and their embeddings -----------------------------------


@dataclass(frozen=True)
class KEdge:
    left: int
    right: object
    rank: int


class OrderedBipartiteGraph:
    """Left vertices are diagram vertex indices; right vertices are opaque
    labels; co-terminal edges carry dense ranks (the RL-order)."""

    def __init__(self, left, right, edges):
        self.left = tuple(left)
        self.right = tuple(right)
        self.edges = tuple(
            e if isinstance(e, KEdge) else KEdge(*e) for e in edges
        )
        rights = set(self.right)
        for e in self.edges:
            if e.left not in self.left:
                raise ConstructionError(f"edge {e} leaves an unknown left vertex")
            if e.right not in rights:
                raise ConstructionError(f"edge {e} enters an unknown right vertex")
        for y in self.right:
            ranks = sorted(e.rank for e in self.edges if e.right == y)
            if ranks != list(range(len(ranks))):
                raise ConstructionError(f"ranks into {y!r} not dense: {ranks}")

    def co_terminal(self, y) -> tuple[KEdge, ...]:
        return tuple(sorted((e for e in self.edges if e.right == y), key=lambda e: e.rank))

    def __repr__(self) -> str:
        return f"OrderedBipartiteGraph({len(self.left)}x{len(self.right)}, {len(self.edges)} edges)"


@dataclass(frozen=True)
class GraphEmbedding:
    base_level: int
    span: int
    vertex_map: dict
    paths: dict

    def end_level(self) -> int:
        return self.base_level + self.span


def verify_graph_embedding(
    d: OrderedBratteliDiagram,
    n0: int,
    graph: OrderedBipartiteGraph,
    emb: GraphEmbedding,
) -> list[str]:
    """Independent order-isomorphism verifier: endpoint structure, path
    distinctness, and the order comparison of every co-terminal edge pair."""
    problems = []
    values = list(emb.vertex_map.values())
    if len(set(values)) != len(values):
        problems.append("vertex map not injective")
    for y in graph.right:
        if y not in emb.vertex_map:
            problems.append(f"right vertex {y!r} unmapped")
            return problems
        if not 0 <= emb.vertex_map[y] < d.vertex_counts[n0 + emb.span]:
            problems.append(f"image of {y!r} out of range")
    for e in graph.edges:
        path = emb.paths.get(e)
        if path is None:
            problems.append(f"edge {e} has no path")
            return problems
        if len(path) != emb.span:
            problems.append(f"path of {e} has wrong span")
        prev = e.left
        for offset, edge in enumerate(path, start=1):
            level = n0 + offset
            if edge not in d.edges(level):
                problems.append(f"path of {e} uses a non-edge at level {level}")
                break
            if edge.source != prev:
                problems.append(f"path of {e} breaks at level {level}")
                break
            prev = edge.target
        else:
            if prev != emb.vertex_map[e.right]:
                problems.append(f"path of {e} ends at {prev}, not at the image of {e.right!r}")
    if len({emb.paths[e] for e in graph.edges}) != len(graph.edges):
        problems.append("two edges share a path")
    for y in graph.right:
        group = graph.co_terminal(y)
        for i, e1 in enumerate(group):
            for e2 in group[i + 1 :]:
                key1 = tuple(edge.rank for edge in reversed(emb.paths[e1]))
                key2 = tuple(edge.rank for edge in reversed(emb.paths[e2]))
                if not ((e1.rank < e2.rank) == (key1 < key2)) or key1 == key2:
                    problems.append(
                        f"order of {e1} vs {e2} not preserved"
                    )
    return problems


def _min_path_between(d, lo: int, hi: int, start: int, end: int):
    """Rank-minimal path start->end through levels lo+1..hi, top-down greedy
    over the vertices forward-reachable from start."""
    reach = [{start}]
    for k in range(lo + 1, hi + 1):
        reach.append({e.target for e in d.edges(k) if e.source in reach[-1]})
    if end not in reach[hi - lo]:
        return None
    path = []
    v = end
    for k in range(hi, lo, -1):
        candidates = [
            e for e in d.incoming(k, v) if e.source in reach[k - lo - 1]
        ]
        e = min(candidates, key=lambda e: e.rank)
        path.append(e)
        v = e.source
    path.reverse()
    return tuple(path)


def _direct_fit(
    d: OrderedBratteliDiagram, n0: int, graph: OrderedBipartiteGraph
) -> GraphEmbedding | None:
    """Try to realise every co-terminal group inside a single fan of
    E_{n0+1}: greedy rank-order matching of the group sources."""
    level = n0 + 1
    vmap: dict = {}
    paths: dict = {}
    used: set[int] = set()
    for y in sorted(graph.right, key=str):
        group = graph.co_terminal(y)
        placed = False
        for v in d.vertices(level):
            if v in used:
                continue
            fan = d.incoming(level, v)
            chosen = []
            idx = 0
            for e in group:
                while idx < len(fan) and fan[idx].source != e.left:
                    idx += 1
                if idx == len(fan):
                    break
                chosen.append(fan[idx])
                idx += 1
            if len(chosen) == len(group):
                vmap[y] = v
                used.add(v)
                for e, edge in zip(group, chosen):
                    paths[e] = (edge,)
                placed = True
                break
        if not placed:
            return None
    return GraphEmbedding(n0, 1, vmap, paths)


def embed_ordered_graph(
    d: OrderedBratteliDiagram, n0: int, graph: OrderedBipartiteGraph
) -> GraphEmbedding:
    """Order-preserving embedding of the graph into paths above level n0.

    A single-level exact fit is tried first; otherwise the removal induction
    runs: embed all but one maximal edge, stretch the partial embedding two
    more levels along minimal paths, and realise the removed edge with a
    maximal top so it dominates its co-terminal group.  Stationary diagrams
    are deepened on demand.  The result always passes
    `verify_graph_embedding` (checked; a failure surfaces as DepthExhausted).
    """
    _require_valid(d)
    if d.stationary:
        d = d.extended(max(d.depth, n0 + 3 + 2 * len(graph.edges)))
    if not 0 <= n0 < d.depth:
        raise LeftSideMismatch(f"no level {n0}")
    if not set(graph.left) <= set(d.vertices(n0)):
        raise LeftSideMismatch(f"left side {graph.left} not inside V_{n0}")

    direct = _direct_fit(d, n0, graph)
    if direct is not None and not verify_graph_embedding(d, n0, graph, direct):
        return direct

    def inject(rights, level) -> dict:
        if len(rights) > d.vertex_counts[level]:
            raise DepthExhausted(
                f"level {level} too small for {len(rights)} right vertices"
            )
        ordered = sorted(rights, key=str)
        return {y: i for i, y in enumerate(ordered)}

    def recurse(edges: tuple[KEdge, ...]) -> GraphEmbedding:
        if not edges:
            if n0 + 1 > d.depth:
                raise DepthExhausted("no room for the base level")
            return GraphEmbedding(n0, 1, inject(graph.right, n0 + 1), {})
        # a maximal edge of the RL-order: top rank within its co-terminal group
        group_top = {}
        for e in edges:
            group_top[e.right] = max(group_top.get(e.right, -1), e.rank)
        e = sorted(
            (e for e in edges if e.rank == group_top[e.right]),
            key=lambda e: (str(e.right), e.rank),
        )[-1]
        rest = tuple(x for x in edges if x != e)
        sub = recurse(rest)
        k = sub.span
        top = n0 + k + 2
        if top > d.depth:
            raise DepthExhausted(f"need level {top}, diagram stops at {d.depth}")
        vmap = inject(graph.right, top)
        paths = {}
        for f in rest:
            tail = _min_path_between(d, n0 + k, n0 + k + 2, sub.vertex_map[f.right], vmap[f.right])
            if tail is None:
                raise DepthExhausted(f"no connecting path for {f}")
            paths[f] = sub.paths[f] + tail
        e_top = d.max_edge_into(top, vmap[e.right])
        e_mid = d.max_edge_into(top - 1, e_top.source)
        head = _min_path_between(d, n0, n0 + k, e.left, e_mid.source)
        if head is None:
            raise DepthExhausted(f"no path from {e.left} to the maximal tail")
        paths[e] = head + (e_mid, e_top)
        return GraphEmbedding(n0, k + 2, vmap, paths)

    emb = recurse(graph.edges)
    problems = verify_graph_embedding(d, n0, graph, emb)
    if problems:
        raise DepthExhausted(
            "embedding failed verification (diagram too thin): " + "; ".join(problems)
        )
    return emb


@dataclass(frozen=True)
class PoincareCertificate:
    """Per-level embeddings realising the source diagram inside contractions
    of the target; `cuts` are the contraction levels in the target."""

    cuts: tuple[int, ...]
    embeddings: tuple[GraphEmbedding, ...]
    vertex_maps: tuple[dict, ...]


def poincare_embed(
    target: OrderedBratteliDiagram, source: OrderedBratteliDiagram, depth: int
) -> PoincareCertificate:
    """Level-by-level embedding of the source's first `depth` levels into the
    target, each level verified by the order-isomorphism checker."""
    _require_valid(target)
    _require_valid(source)
    if depth > source.depth:
        raise DepthExhausted(f"source has only {source.depth} levels")
    cuts = []
    embeddings = []
    vertex_maps = []
    image = {0: 0}
    level = 0
    for n in range(1, depth + 1):
        left = sorted(set(image.values()))
        right = [("v", n, v) for v in source.vertices(n)]
        edges = [
            KEdge(image[e.source], ("v", n, e.target), e.rank)
            for e in source.edges(n)
        ]
        graph = OrderedBipartiteGraph(left, right, edges)
        emb = embed_ordered_graph(target, level, graph)
        level += emb.span
        cuts.append(level)
        embeddings.append(emb)
        image = {v: emb.vertex_map[("v", n, v)] for v in source.vertices(n)}
        vertex_maps.append(dict(image))
    return PoincareCertificate(tuple(cuts), tuple(embeddings), tuple(vertex_maps))
