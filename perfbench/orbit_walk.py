"""orbit-walk: digit and path arithmetic (bratteli, odometer, product).

A round walks a stretch of a Vershik orbit on a one-vertex diagram and on
a `from_substitution` diagram, chains `add_one` and `add` on an odometer
point, decides a generated pair of eventually periodic odometers, checks
the product identities, computes one Kac decomposition and embeds one
ordered graph into a ladder diagram.  Depths cycle with the round so the
per-layer slopes see several sizes.  The language layer works here only
inside `verify_product_selfinduced`, which rebuilds the period-doubling
language on every call (about a quarter of the traced time).
"""

from __future__ import annotations

from fractions import Fraction

import corpus
import oracles as O
from harness import Op
from oracles import expect

from cantorsys import bratteli as B, odometer as OD, product
from cantorsys.substitution import Substitution
from cantorsys.words import Alphabet

NAME = "orbit-walk"
STEPS = 64
ODO_DEPTHS = (8, 16, 24, 32)
SUB_DEPTHS = (4, 6, 8, 10)
ADD_DEPTHS = (8, 16, 32, 64)
ADD_ONES = 64
ADDS = 32
PRODUCT = (8, 64)  # depth, samples
LADDER_DEPTH = 24
KAC_QS = (2, 3, 4)
LADDER_BASE = 3


def ladder(depth: int, cap: int = 20) -> B.OrderedBratteliDiagram:
    """Complete connections between levels of growing width, ranks by source."""
    counts = [1] + [min(n + 1, cap) for n in range(1, depth + 1)]
    levels = [
        [B.Edge(s, t, rank) for t in range(counts[k]) for rank, s in enumerate(range(counts[k - 1]))]
        for k in range(1, depth + 1)
    ]
    return B.OrderedBratteliDiagram(counts, levels)


class StationaryPaths:
    """Paths of a stationary diagram ranked in Vershik order, by counting."""

    def __init__(self, d: B.OrderedBratteliDiagram):
        self.d = d
        self.counts = {0: {0: 1}}
        for k in range(1, d.depth + 1):
            self.counts[k] = {}
            for e in d.edges(k):
                self.counts[k][e.target] = self.counts[k].get(e.target, 0) + self.counts[k - 1][e.source]

    def fan(self, k: int, v: int) -> list:
        return sorted((e for e in self.d.edges(k) if e.target == v), key=lambda e: e.rank)

    def unrank(self, level: int, v: int, t: int) -> tuple:
        path = []
        for k in range(level, 0, -1):
            for e in self.fan(k, v):
                below = self.counts[k - 1][e.source]
                if t < below:
                    path.append(e)
                    v = e.source
                    break
                t -= below
        return tuple(reversed(path))

    def rank(self, edges: tuple) -> int:
        t = 0
        for k in range(len(edges), 0, -1):
            e = edges[k - 1]
            for f in self.fan(k, e.target):
                if f.rank == e.rank:
                    break
                t += self.counts[k - 1][f.source]
        return t


def walk_group(paths: StationaryPaths, level: int, v: int, start: int) -> callable:
    """STEPS consecutive Vershik steps from the start-th path into v."""
    d = paths.d
    total = paths.counts[level][v]

    def group():
        state = [B.PathPrefix(d, paths.unrank(level, v, start))]
        position = [start]

        def step(i):
            def call():
                nxt = B.vershik_step(d, state[i])
                state.append(nxt)
                return nxt
            return call

        def check(i):
            def verify(result, _):
                position[0] += 1
                if position[0] == total:
                    expect(result is B.NEEDS_EXTENSION, "no NeedsExtension after the maximal path")
                    position[0] = 0
                    state[i + 1] = B.PathPrefix(d, paths.unrank(level, v, 0))
                else:
                    expect(result is not B.NEEDS_EXTENSION and paths.rank(result.edges) == position[0],
                           f"vershik step {i} is not the successor")
            return verify

        return [Op("vershik_step", step(i), check(i)) for i in range(STEPS)]

    return group


def odometer_point(c: int, products: list) -> OD.OdometerPoint:
    return OD.OdometerPoint(tuple(c % p for p in products[1:]))


def add_group(q: OD.EventuallyPeriodic, depth: int, start: int, amounts: list) -> callable:
    products = O.partial_products(q.term(n) for n in range(1, depth + 1))

    def group():
        state = [odometer_point(start, products)]
        counter = [start]

        def one(_):
            state.append(OD.add_one(state[-1], q))
            return state[-1]

        def some(a):
            def call():
                state.append(OD.add(state[-1], q, a))
                return state[-1]
            return call

        def check(amount):
            def verify(point, _):
                counter[0] += amount
                expect(point.digits == odometer_point(counter[0], products).digits,
                       f"odometer digits disagree with the counter {counter[0]}")
            return verify

        ops = [Op("add_one", lambda: one(None), check(1)) for _ in range(ADD_ONES)]
        ops += [Op("add", some(a), check(a)) for a in amounts]
        return ops

    return group


def decision_group(q1: OD.EventuallyPeriodic, q2: OD.EventuallyPeriodic) -> callable:
    p1, p2 = O.profile(q1.prefix, q1.cycle), O.profile(q2.prefix, q2.cycle)
    factor = all(p1[p] <= p2.get(p, 0) for p in p1)

    def check_si(decision, _):
        expect(decision.self_induced and decision.witness_prime == min(p for p, v in p1.items() if v == float("inf")),
               "self-induced witness is not the least prime of the cycle")

    def check_profile(profile, _):
        expect({p: v for p, v in profile.items() if v} == p1, "valuation profile")

    def check_canon(canon, _):
        expect(all(len(O.prime_factors(x)) == 1 and sum(O.prime_factors(x).values()) == 1
                   for x in canon.prefix + canon.cycle), "canonical form has a composite entry")
        expect(O.profile(canon.prefix, canon.cycle) == p1, "canonical form changed the profile")

    def group():
        return [
            Op("is_self_induced", lambda: OD.is_self_induced(q1), check_si),
            Op("valuation_profile", lambda: OD.valuation_profile(q1), check_profile),
            Op("is_factor", lambda: OD.is_factor(q1, q2),
               lambda r, _: expect(r == factor, "factor decision")),
            Op("is_conjugate", lambda: OD.is_conjugate(q1, q2),
               lambda r, _: expect(r == (p1 == p2), "conjugacy decision")),
            Op("canonical_prime_form", lambda: OD.canonical_prime_form(q1), check_canon),
        ]

    return group


def product_group() -> callable:
    depth, samples = PRODUCT

    def check(report, _):
        expect(report.passed, f"product identities failed: {report.failures[:1]}")
        expect(report.commutation_checks == report.doubling_checks == report.return_time_checks == samples,
               "product check counts")

    return lambda: [Op("verify_product_selfinduced", lambda: product.verify_product_selfinduced(depth, samples), check)]


def kac_group(mu: B.CylinderMeasure, prefixes: list, expected_mass) -> callable:
    def check(result, _):
        _, report = result
        expect(report.mass == expected_mass, f"mass {report.mass} != {expected_mass}")
        expect(report.kac_sum + report.defect == 1, "kac_sum + defect != 1 in the rational case")
        expect(all(k >= 1 and m > 0 for k, m in report.by_return_time.items()), "return-time masses")

    return lambda: [Op("induced_measure", lambda: B.induced_measure(mu, prefixes), check)]


def embedding_problems(d, n0: int, graph, emb) -> list:
    problems = []
    if len(set(emb.vertex_map.values())) != len(emb.vertex_map):
        problems.append("vertex map not injective")
    for e in graph.edges:
        path = emb.paths[e]
        v = e.left
        for k, edge in enumerate(path, start=n0 + 1):
            if edge not in d.edges(k):
                problems.append(f"{edge} not at level {k}")
            if edge.source != v:
                problems.append(f"path of {e} breaks")
            v = edge.target
        if v != emb.vertex_map[e.right] or len(path) != emb.span:
            problems.append(f"path of {e} ends wrong")
    if len({emb.paths[e] for e in graph.edges}) != len(graph.edges):
        problems.append("two edges share a path")
    for y in graph.right:
        group = sorted((e for e in graph.edges if e.right == y), key=lambda e: e.rank)
        keys = [tuple(edge.rank for edge in reversed(emb.paths[e])) for e in group]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            problems.append(f"order into {y} not preserved")
    return problems


def embed_group(d, graph) -> callable:
    def check(emb, _):
        problems = embedding_problems(d, LADDER_BASE, graph, emb)
        expect(not problems, f"embedding: {problems[:2]}")

    return lambda: [Op("embed_ordered_graph", lambda: B.embed_ordered_graph(d, LADDER_BASE, graph), check)]


def random_graph(rng, n_left: int):
    fans = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    edges = [
        B.KEdge(rng.randrange(n_left), f"y{y}", r)
        for y, fan in enumerate(fans) for r in range(fan)
    ]
    return B.OrderedBipartiteGraph(range(n_left), [f"y{y}" for y in range(len(fans))], edges)


def random_sequence(rng) -> OD.EventuallyPeriodic:
    prefix = tuple(rng.randint(2, 30) for _ in range(rng.randint(0, 3)))
    cycle = tuple(rng.randint(2, 30) for _ in range(rng.randint(1, 3)))
    return OD.EventuallyPeriodic(prefix, cycle)


class Workload:
    name = NAME
    module = "cantorsys"
    setup_repeats = 5
    repeats = 3

    def __init__(self, seed: int):
        self.seed = seed
        rng = corpus.rng_for(NAME, seed, "documents")
        # Shuffles of fixed multisets: the seed orders the digits, and the
        # edge counts and partial products that set the cost stay the same
        # (every depth is a multiple of 4).
        self.docs = {
            "qs": [q for _ in range(max(ODO_DEPTHS) // 4) for q in rng.sample((2, 3, 4, 5), 4)],
            "odometer": (rng.sample((2, 3), 2), rng.sample((4, 5), 2)),
            "rule": corpus.aperiodic_rule(rng, "ab", 2, 3, mixed=True)[0],
        }

    def setup(self):
        """Documents to diagrams, measures and path counters."""
        docs = self.docs
        self.odo = [B.one_vertex_diagram(docs["qs"][:depth]) for depth in ODO_DEPTHS]
        s = Substitution(Alphabet(["a", "b"]), docs["rule"])
        self.subd = [B.from_substitution(s, depth) for depth in SUB_DEPTHS]
        self.odo_paths = [StationaryPaths(d) for d in self.odo]
        self.sub_paths = [StationaryPaths(d) for d in self.subd]
        self.kac = [B.one_vertex_diagram([q] * 6) for q in KAC_QS]
        self.kac_mu = [B.stationary_measure(d) for d in self.kac]
        self.ladder = ladder(LADDER_DEPTH)
        self.q = OD.EventuallyPeriodic(*map(tuple, docs["odometer"]))

    def build_round(self, r: int) -> list:
        rng = corpus.rng_for(NAME, self.seed, r)
        i = r % len(ODO_DEPTHS)
        odo = self.odo_paths[i]
        level = ODO_DEPTHS[i]
        sub = self.sub_paths[i]
        sub_level = SUB_DEPTHS[i]
        v = rng.randrange(2)
        add_depth = ADD_DEPTHS[i]
        products = O.partial_products(self.q.term(n) for n in range(1, add_depth + 1))
        kac_level = 1 + r % 3
        kac_q = KAC_QS[r % len(KAC_QS)]
        kac_d = self.kac[r % len(KAC_QS)]
        kac_paths = StationaryPaths(kac_d)
        total = kac_paths.counts[kac_level][0]
        chosen = sorted(rng.sample(range(total), rng.randint(1, min(3, total))))
        prefixes = [B.PathPrefix(kac_d, kac_paths.unrank(kac_level, 0, t)) for t in chosen]
        return [
            walk_group(odo, level, 0, rng.randrange(odo.counts[level][0])),
            walk_group(sub, sub_level, v, rng.randrange(sub.counts[sub_level][v])),
            add_group(self.q, add_depth, rng.randrange(products[-1]),
                      [rng.randrange(1, products[-1]) for _ in range(ADDS)]),
            decision_group(random_sequence(rng), random_sequence(rng)),
            product_group(),
            kac_group(self.kac_mu[r % len(KAC_QS)], prefixes, Fraction(len(chosen), kac_q ** kac_level)),
            embed_group(self.ladder, random_graph(rng, LADDER_BASE + 1)),
        ]
