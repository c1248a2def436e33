"""Ordered Bratteli diagrams: validation, simplicity, proper orders, Vershik
dynamics, contraction/microscoping, induction, measures, Kac identity, and
ordered-graph embeddings with their independent verifier."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorsys.bratteli import (
    minimal_path_to,
    NEEDS_EXTENSION,
    Edge,
    KEdge,
    LevelSplit,
    OrderedBipartiteGraph,
    OrderedBratteliDiagram,
    PathPrefix,
    contract,
    embed_ordered_graph,
    from_substitution,
    induce_on_paths,
    induced_measure,
    is_simple,
    microscope,
    one_vertex_diagram,
    poincare_embed,
    proper_order_certificate,
    stationary_measure,
    validate,
    verify_graph_embedding,
    vershik_step,
)
from cantorsys.errors import (
    CoverageViolation,
    CutsOutOfRange,
    DepthExhausted,
    LeftSideMismatch,
    NotSimple,
    NotStationary,
    SplitDoesNotCompose,
)
from cantorsys.odometer import EventuallyPeriodic, OdometerPoint, add_one
from cantorsys.substitution import fibonacci, iterate, period_doubling
from cantorsys.words import Word


def base2(depth=8):
    return one_vertex_diagram([2] * depth)


def pd_diagram(depth=8):
    return from_substitution(period_doubling(), depth)


def ladder(depth=16, cap=20):
    """Deterministic simple diagram with strictly increasing vertex counts:
    complete connections, ranks by source index."""
    counts = [1] + [min(n + 1, cap) for n in range(1, depth + 1)]
    levels = []
    for k in range(1, depth + 1):
        edges = []
        for t in range(counts[k]):
            for rank, s in enumerate(range(counts[k - 1])):
                edges.append(Edge(s, t, rank))
        levels.append(edges)
    return OrderedBratteliDiagram(counts, levels)


class TestValidation:
    def test_one_vertex_ok(self):
        assert validate(base2()) == []

    def test_isolated_vertex_reported(self):
        d = OrderedBratteliDiagram(
            (1, 2, 2),
            [
                [Edge(0, 0, 0), Edge(0, 1, 0)],
                [Edge(0, 0, 0), Edge(1, 0, 1)],  # vertex 1 at level 2 isolated
            ],
        )
        assert any("no incoming edge" in v for v in validate(d))

    def test_duplicate_rank_reported(self):
        d = OrderedBratteliDiagram(
            (1, 1, 1),
            [
                [Edge(0, 0, 0)],
                [Edge(0, 0, 0), Edge(0, 0, 0 + 0)],
            ],
        )
        assert any("order not total" in v for v in validate(d))


class TestSimplicity:
    def test_one_vertex_window_one(self):
        assert is_simple(base2(), 1)

    def test_period_doubling_windows(self):
        d = pd_diagram()
        assert not is_simple(d, 1)
        assert is_simple(d, 2)

    def test_permutation_matrix_never_simple(self):
        swap = [Edge(0, 1, 0), Edge(1, 0, 0)]
        d = OrderedBratteliDiagram(
            (1, 2, 2, 2, 2, 2),
            [[Edge(0, 0, 0), Edge(0, 1, 0)]] + [swap] * 4,
        )
        for window in (1, 2):
            assert not is_simple(d, window)


class TestProperOrder:
    def test_base2_certified(self):
        result = proper_order_certificate(base2(), depth=6)
        assert result.certified
        assert all(e.rank == 1 for e in result.max_prefix)
        assert all(e.rank == 0 for e in result.min_prefix)

    def test_period_doubling_left_to_right_not_proper(self):
        result = proper_order_certificate(pd_diagram(), depth=6)
        assert result.status == "not_proper"
        side, cycle = result.witness
        assert side == "max" and cycle == (0, 1)

    def test_reordered_square_certified(self):
        # contract to the squared diagram, then reorder the fans so both
        # backward maps fix vertex 0: edges into 0 read sources 0,1,0,0 and
        # into 1 read 0,1,1,0
        d = contract(pd_diagram(10), (0, 2, 4, 6, 8, 10))
        template = d.edges(2)
        into0 = sorted((e for e in template if e.target == 0), key=lambda e: e.rank)
        into1 = sorted((e for e in template if e.target == 1), key=lambda e: e.rank)
        assert [e.source for e in into0] == [0, 1, 0, 0]
        sources1 = sorted(e.source for e in into1)
        reordered1 = [0] + [s for s in sources1 if s == 1] + [0]
        fixed_level = [Edge(e.source, 0, r) for r, e in enumerate(into0)] + [
            Edge(s, 1, r) for r, s in enumerate(reordered1)
        ]
        fixed = OrderedBratteliDiagram(
            d.vertex_counts, (d.edges(1),) + (tuple(fixed_level),) * (d.depth - 1)
        )
        result = proper_order_certificate(fixed, depth=5)
        assert result.certified


class TestVershik:
    def test_binary_increment(self):
        d = base2()
        r0, r1 = d.edges(1)
        p = PathPrefix(d, (r0, r1))  # digits 0,1 little-endian = 2
        image = vershik_step(d, p)
        assert [e.rank for e in image.edges] == [1, 1]

    def test_carry(self):
        d = base2()
        r0, r1 = d.edges(1)
        p = PathPrefix(d, (r1, r0))
        image = vershik_step(d, p)
        assert [e.rank for e in image.edges] == [0, 1]

    def test_all_maximal_needs_extension(self):
        d = base2()
        _, r1 = d.edges(1)
        assert vershik_step(d, PathPrefix(d, (r1, r1))) is NEEDS_EXTENSION

    def test_against_odometer_long_run(self):
        # 2^12 steps at depth 12 walk the full cycle in counting order
        depth = 12
        d = base2(depth)
        p = PathPrefix(d, tuple(sorted(d.edges(k))[0] for k in range(1, depth + 1)))
        for n in range(1, 2 ** depth):
            p = vershik_step(d, p)
            value = sum(e.rank << (i) for i, e in enumerate(p.edges))
            assert value == n
        assert vershik_step(d, p) is NEEDS_EXTENSION


class TestContractMicroscope:
    def test_base2_to_base4(self):
        contracted = contract(base2(8), (0, 2, 4, 6, 8))
        assert contracted == one_vertex_diagram([4, 4, 4, 4])
        assert contracted.to_document() == one_vertex_diagram([4, 4, 4, 4]).to_document()

    def test_identity_contraction(self):
        d = pd_diagram(6)
        assert contract(d, tuple(range(7))) == d

    def test_period_doubling_squared_matrix(self):
        contracted = contract(pd_diagram(8), (0, 2, 4, 6, 8))
        # adjacency of the squared substitution: transpose of [[3,2],[1,2]]
        assert contracted.adjacency_matrix(2) == ((3, 1), (2, 2))
        assert contracted.stationary

    def test_cuts_validation(self):
        with pytest.raises(CutsOutOfRange):
            contract(base2(4), (0, 5))
        with pytest.raises(CutsOutOfRange):
            contract(base2(4), (1, 2))

    def test_microscope_roundtrip_base4(self):
        base4 = one_vertex_diagram([4, 4, 4])
        split = LevelSplit(1, [Edge(0, 0, 0), Edge(0, 0, 1)], [Edge(0, 0, 0), Edge(0, 0, 1)])
        fine = microscope(base4, 2, split)
        assert contract(fine, (0, 1, 3, 4)) == base4

    def test_microscope_base6_as_2x3(self):
        base6 = one_vertex_diagram([6, 6])
        split = LevelSplit(
            1,
            [Edge(0, 0, 0), Edge(0, 0, 1)],
            [Edge(0, 0, 0), Edge(0, 0, 1), Edge(0, 0, 2)],
        )
        fine = microscope(base6, 2, split)
        assert contract(fine, (0, 1, 3)) == base6

    def test_microscope_rejects_wrong_split(self):
        base4 = one_vertex_diagram([4, 4])
        bad = LevelSplit(1, [Edge(0, 0, 0)], [Edge(0, 0, 0), Edge(0, 0, 1)])
        with pytest.raises(SplitDoesNotCompose):
            microscope(base4, 2, bad)


class TestInduceOnPaths:
    def test_single_edge_shifts_odometer(self):
        d = one_vertex_diagram([2, 3, 4, 5])
        induced = induce_on_paths(d, [PathPrefix(d, (d.edges(1)[0],))])
        assert [len(induced.edges(k)) for k in range(1, 5)] == [1, 3, 4, 5]

    def test_all_paths_equals_contraction(self):
        d = pd_diagram(6)
        n0 = 2
        prefixes = []
        for e1 in d.edges(1):
            for e2 in d.edges(2):
                if e2.source == e1.target:
                    prefixes.append(PathPrefix(d, (e1, e2)))
        induced = induce_on_paths(d, prefixes)
        assert induced == contract(d, (0, n0) + tuple(range(n0 + 1, d.depth + 1)))

    def test_missing_vertex_rejected(self):
        d = pd_diagram(6)
        e1 = d.edges(1)[0]
        with pytest.raises(CoverageViolation):
            induce_on_paths(d, [PathPrefix(d, (e1,))])


class TestFromSubstitution:
    def test_period_doubling_edges(self):
        d = pd_diagram(4)
        # into vertex 0 (letter 0, image 01): sources 0 then 1
        into0 = d.incoming(2, 0)
        assert [(e.source, e.rank) for e in into0] == [(0, 0), (1, 1)]
        into1 = d.incoming(2, 1)
        assert [(e.source, e.rank) for e in into1] == [(0, 0), (0, 1)]

    def test_one_letter_growth(self):
        from cantorsys.substitution import Substitution
        from cantorsys.words import Alphabet

        s = Substitution(Alphabet(["0"]), {"0": "00"})
        d = from_substitution(s, 4)
        assert d.vertex_counts == (1, 1, 1, 1, 1)
        assert all(len(d.edges(k)) == 2 for k in range(2, 5))

    def test_fibonacci_matrix(self):
        d = from_substitution(fibonacci(), 4)
        assert d.adjacency_matrix(2) == ((1, 1), (1, 0))


class TestStationaryMeasure:
    def test_base2_uniform(self):
        mu = stationary_measure(base2())
        for n in range(1, 6):
            prefix = PathPrefix(base2(), tuple(base2().edges(k)[0] for k in range(1, n + 1)))
            assert mu.value(prefix) == Fraction(1, 2 ** n)

    def test_base3_depth2(self):
        d = one_vertex_diagram([3] * 4)
        mu = stationary_measure(d)
        assert mu.vertex_mass(2, 0) == Fraction(1, 9)

    def test_period_doubling_tower_masses(self):
        d = pd_diagram()
        mu = stationary_measure(d)
        assert mu.exact and mu.eigenvalue == 2
        assert mu.vertex_mass(1, 0) == Fraction(2, 3)
        assert mu.vertex_mass(1, 1) == Fraction(1, 3)

    @pytest.mark.parametrize("diagram", [base2(), pd_diagram(), from_substitution(fibonacci(), 8)])
    def test_additivity(self, diagram):
        mu = stationary_measure(diagram)
        for e1 in diagram.edges(1):
            p = PathPrefix(diagram, (e1,))
            assert mu.additivity_defect(p) < 1e-10
            for e2 in diagram.edges(2):
                if e2.source == e1.target:
                    assert mu.additivity_defect(p.extend(e2)) < 1e-10


class TestKac:
    def test_base2_single_edge(self):
        d = base2()
        mu = stationary_measure(d)
        nu, report = induced_measure(mu, [PathPrefix(d, (d.edges(1)[0],))])
        assert report.mass == Fraction(1, 2)
        assert set(report.by_return_time) == {2}
        assert abs(float(report.kac_sum) - 1) < 1e-10
        assert float(report.expected_return_time) - 2 < 1e-9
        assert nu.value(PathPrefix(d, (d.edges(1)[0],))) == 1

    def test_whole_space(self):
        d = base2()
        mu = stationary_measure(d)
        _, report = induced_measure(mu, [PathPrefix(d, (e,)) for e in d.edges(1)])
        assert report.mass == 1
        assert set(report.by_return_time) == {1}
        assert abs(float(report.kac_sum) - 1) < 1e-10

    def test_period_doubling_one_cylinder(self):
        d = pd_diagram()
        mu = stationary_measure(d)
        edge_to_1 = [e for e in d.edges(1) if e.target == 1]
        nu, report = induced_measure(mu, [PathPrefix(d, (edge_to_1[0],))])
        assert report.mass == Fraction(1, 3)
        assert abs(float(report.kac_sum) - 1) < 1e-10
        assert abs(float(report.expected_return_time) - 3) < 1e-9
        # gap-scan oracle: distances between 1s in sigma^12(0)
        text = iterate(period_doubling(), Word("0"), 12).letters
        positions = [i for i, a in enumerate(text) if a == "1"]
        gaps = {j - i for i, j in zip(positions, positions[1:])}
        assert set(report.by_return_time) == gaps

    def test_fibonacci_zero_cylinder(self):
        d = from_substitution(fibonacci(), 8)
        mu = stationary_measure(d)
        edge_to_0 = [e for e in d.edges(1) if e.target == 0]
        _, report = induced_measure(mu, [PathPrefix(d, (edge_to_0[0],))])
        assert abs(float(report.kac_sum) - 1) < 1e-10
        assert set(report.by_return_time) == {1, 2}
        golden = (5 ** 0.5 + 1) / 2
        assert abs(float(report.expected_return_time) - golden) < 1e-8


FAN_PROFILES = [
    (1,), (2,), (3,), (4,), (5,), (6,),
    (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3),
    (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2), (1, 2, 3), (3, 2, 1),
    (1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2),
]


def sample_graphs(max_graphs=100):
    """Deterministic ordered bipartite graphs with at most 6 edges: every
    combination of left size, fan profile and source pattern, in a fixed
    enumeration order."""
    graphs = []
    for n_left in (1, 2, 3, 4):
        for fans in FAN_PROFILES:
            if sum(fans) > 6:
                continue
            for stride in (1, 2, 3):
                edges = []
                count = 0
                for y, fan in enumerate(fans):
                    for r in range(fan):
                        edges.append(KEdge((count * stride + y) % n_left, f"y{y}", r))
                        count += 1
                graphs.append(
                    OrderedBipartiteGraph(
                        range(n_left), [f"y{y}" for y in range(len(fans))], edges
                    )
                )
                if len(graphs) == max_graphs:
                    return graphs
    return graphs


class TestEmbedding:
    def test_exact_fit_single_pair(self):
        d = base2(4)
        graph = OrderedBipartiteGraph([0], ["y"], [KEdge(0, "y", 0), KEdge(0, "y", 1)])
        emb = embed_ordered_graph(d, 1, graph)
        assert verify_graph_embedding(d, 1, graph, emb) == []

    def test_three_edges_into_base2(self):
        d = base2(8)
        graph = OrderedBipartiteGraph(
            [0], ["y"], [KEdge(0, "y", 0), KEdge(0, "y", 1), KEdge(0, "y", 2)]
        )
        emb = embed_ordered_graph(d, 1, graph)
        assert verify_graph_embedding(d, 1, graph, emb) == []
        # exhaustive oracle: some rank-ordered path triple realises the graph
        assert emb.span >= 2

    def test_left_side_mismatch(self):
        d = base2(4)
        graph = OrderedBipartiteGraph([3], ["y"], [KEdge(3, "y", 0)])
        with pytest.raises(LeftSideMismatch):
            embed_ordered_graph(d, 1, graph)

    def test_hundred_graphs_into_ladder(self):
        d = ladder(depth=18)
        graphs = sample_graphs(100)
        assert len(graphs) == 100
        failures = 0
        for graph in graphs:
            emb = embed_ordered_graph(d, 3, graph)
            if verify_graph_embedding(d, 3, graph, emb):
                failures += 1
        assert failures == 0


class TestPoincare:
    def test_base2_into_base6(self):
        target = one_vertex_diagram([6] * 12)
        source = base2(3)
        certificate = poincare_embed(target, source, 3)
        assert len(certificate.embeddings) == 3
        for n, emb in enumerate(certificate.embeddings, start=1):
            assert emb.span >= 1

    def test_period_doubling_into_ladder(self):
        certificate = poincare_embed(ladder(depth=20), pd_diagram(4), 2)
        assert len(certificate.embeddings) == 2

    def test_depth_zero(self):
        certificate = poincare_embed(base2(4), base2(4), 0)
        assert certificate.cuts == ()

    def test_depth_exhausted(self):
        # a genuinely finite (non-stationary) target runs out of levels
        with pytest.raises(DepthExhausted):
            poincare_embed(ladder(depth=3), pd_diagram(6), 4)

    def test_stationary_target_extends_on_demand(self):
        certificate = poincare_embed(base2(3), base2(8), 8)
        assert len(certificate.embeddings) == 8


class TestEmbeddingExhaustiveOracle:
    def test_three_edges_against_exhaustive_search(self):
        # oracle: enumerate every triple of rank-ordered paths and check the
        # returned embedding is one of the order-isomorphic selections
        d = base2(8)
        graph = OrderedBipartiteGraph(
            [0], ["y"], [KEdge(0, "y", 0), KEdge(0, "y", 1), KEdge(0, "y", 2)]
        )
        emb = embed_ordered_graph(d, 1, graph)
        work = d.extended(max(d.depth, emb.end_level()))
        span = emb.span
        all_paths = []

        def walk(level, prefix):
            if level == 1 + span:
                all_paths.append(tuple(prefix))
                return
            for e in work.edges(level + 1):
                if e.source == (prefix[-1].target if prefix else 0):
                    prefix.append(e)
                    walk(level + 1, prefix)
                    prefix.pop()

        walk(1, [])

        def key(p):
            return tuple(e.rank for e in reversed(p))

        from itertools import combinations

        # keys are total on co-terminal paths, so the order-isomorphic
        # selections are exactly the strictly increasing triples
        ordered = sorted((p for p in all_paths), key=key)
        valid_triples = set(combinations(ordered, 3))
        returned = tuple(
            emb.paths[e] for e in sorted(graph.edges, key=lambda e: e.rank)
        )
        assert returned in valid_triples
        assert key(returned[0]) < key(returned[1]) < key(returned[2])


class TestMeasureErrorPaths:
    def test_not_stationary_rejected(self):
        with pytest.raises(NotStationary):
            stationary_measure(ladder(depth=6))

    def test_not_simple_rejected(self):
        swap = [Edge(0, 1, 0), Edge(1, 0, 0)]
        d = OrderedBratteliDiagram(
            (1, 2, 2, 2, 2),
            [[Edge(0, 0, 0), Edge(0, 1, 0)]] + [swap] * 3,
        )
        assert d.stationary
        with pytest.raises(NotSimple):
            stationary_measure(d)

    def test_deeper_prefix_kac(self):
        # U = one depth-2 cylinder of the dyadic diagram: mass 1/4, return 4
        d = base2()
        mu = stationary_measure(d)
        e1 = d.edges(1)[0]
        e2 = d.edges(2)[0]
        _, report = induced_measure(mu, [PathPrefix(d, (e1, e2))])
        assert report.mass == Fraction(1, 4)
        assert set(report.by_return_time) == {4}
        assert abs(float(report.kac_sum) - 1) < 1e-10


class TestProperOrderNonStationary:
    def test_ladder_certified_at_depth(self):
        result = proper_order_certificate(ladder(depth=6), depth=6)
        assert result.certified
        assert len(result.max_prefix) >= 1

    def test_disconnected_order_unknown(self):
        # permutation levels never collapse; also not stationary (level sizes differ)
        levels = [[Edge(0, 0, 0), Edge(0, 1, 0)]]
        levels += [[Edge(0, 0, 0), Edge(1, 1, 0)]] * 3
        levels += [[Edge(0, 0, 0), Edge(1, 0, 1), Edge(0, 1, 0), Edge(1, 1, 1)]]
        d = OrderedBratteliDiagram((1, 2, 2, 2, 2, 2), levels)
        assert not d.stationary
        result = proper_order_certificate(d, depth=4)
        assert result.status == "unknown"


class TestVershikMultiVertex:
    def test_successor_within_tower(self):
        d = pd_diagram(6)
        e1 = d.edges(1)[0]                      # root -> vertex 0
        fan1 = d.incoming(2, 1)                 # both sources are vertex 0
        image = vershik_step(d, PathPrefix(d, (e1, fan1[0])))
        assert image.edges == (Edge(0, 0, 0), Edge(0, 1, 1))

    def test_successor_resets_across_towers(self):
        # bumping rank 0 -> 1 into vertex 0 changes the source to vertex 1,
        # so the head resets to the minimal path into vertex 1
        d = pd_diagram(6)
        e1 = d.edges(1)[0]
        fan0 = d.incoming(2, 0)
        image = vershik_step(d, PathPrefix(d, (e1, fan0[0])))
        assert image.edges == (Edge(0, 1, 0), Edge(1, 0, 1))


class TestProperOrderMinSide:
    def test_min_side_two_cycle(self):
        # reversing the period-doubling ranks moves the 2-cycle to the
        # minimal backward map
        d = pd_diagram(8)
        template = d.edges(2)
        fans = {}
        for v in (0, 1):
            fan = sorted((e for e in template if e.target == v), key=lambda e: e.rank)
            fans[v] = [Edge(e.source, v, len(fan) - 1 - e.rank) for e in fan]
        reversed_level = tuple(fans[0] + fans[1])
        flipped = OrderedBratteliDiagram(
            d.vertex_counts, (d.edges(1),) + (reversed_level,) * (d.depth - 1)
        )
        result = proper_order_certificate(flipped, depth=6)
        assert result.status == "not_proper"
        assert result.witness == ("min", (0, 1))


class TestKacMultiPrefix:
    def test_two_prefixes_across_towers(self):
        d = pd_diagram(8)
        mu = stationary_measure(d)
        e0 = [e for e in d.edges(1) if e.target == 0][0]
        e1 = [e for e in d.edges(1) if e.target == 1][0]
        fan0 = d.incoming(2, 0)
        from_one = [e for e in d.incoming(2, 0) if e.source == 1][0]
        u = [
            PathPrefix(d, (e0, fan0[0])),       # a depth-2 cylinder in tower 0
            PathPrefix(d, (e1, from_one)),      # and one passing through vertex 1
        ]
        _, report = induced_measure(mu, u)
        assert abs(float(report.kac_sum) - 1.0) < 1e-10
        total = sum(report.by_return_time.values())
        assert abs(float(total) - float(report.mass)) < 1e-10


class TestEmbeddingIsolatedRight:
    def test_right_vertex_without_edges(self):
        d = ladder(depth=12)
        graph = OrderedBipartiteGraph(
            [0, 1], ["y0", "lonely"], [KEdge(0, "y0", 0), KEdge(1, "y0", 1)]
        )
        emb = embed_ordered_graph(d, 2, graph)
        assert verify_graph_embedding(d, 2, graph, emb) == []
        assert "lonely" in emb.vertex_map


class TestDynamicsAgainstMeasure:
    def test_vershik_orbit_statistics_match_exact_values(self):
        # walk the Vershik enumeration of the period-doubling diagram and
        # compare empirical visit statistics with the exact measure and the
        # exact Kac decomposition
        depth = 18
        steps = 60_000
        d = from_substitution(period_doubling(), depth)
        mu = stationary_measure(d)
        edge_to_1 = [e for e in d.edges(1) if e.target == 1][0]
        _, kac = induced_measure(mu, [PathPrefix(d, (edge_to_1,))])

        prefix = PathPrefix(
            d, tuple(minimal_path_to(d, depth, 0))
        )
        visits_v1 = []
        count_v1 = 0
        for n in range(steps):
            if prefix.edges[0].target == 1:
                count_v1 += 1
                visits_v1.append(n)
            prefix = vershik_step(d, prefix)
            assert prefix is not NEEDS_EXTENSION

        assert abs(count_v1 / steps - float(mu.vertex_mass(1, 1))) < 2e-2
        gaps = [j - i for i, j in zip(visits_v1, visits_v1[1:])]
        assert set(gaps) == set(kac.by_return_time)
        for k in kac.by_return_time:
            empirical = gaps.count(k) / len(gaps)
            exact = float(kac.by_return_time[k] / kac.mass)
            assert abs(empirical - exact) < 2e-2
        mean_gap = sum(gaps) / len(gaps)
        assert abs(mean_gap - float(kac.expected_return_time)) < 5e-2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_vershik_steps_match_odometer_add_one(data):
    """On the one-vertex diagram of (q_1, ..., q_D) a path with ranks r_k is
    the integer sum r_k p_{k-1} (p_k = q_1 ... q_k), and the Vershik step is
    +1 in Z/p_D; the all-maximal path, with no successor, is the wrap to 0."""
    qs = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=8), label="qs")
    products = [1]
    for q in qs:
        products.append(products[-1] * q)
    value = data.draw(st.integers(0, products[-1] - 1), label="start")
    steps = data.draw(st.integers(0, 50), label="steps")
    d = one_vertex_diagram(qs)
    sequence = EventuallyPeriodic(tuple(qs), (2,))

    def path_of(n):
        return PathPrefix(d, tuple(d.incoming(k + 1, 0)[n // products[k] % q] for k, q in enumerate(qs)))

    prefix = path_of(value)
    point = OdometerPoint(tuple(value % p for p in products[1:]))
    for _ in range(steps):
        point = add_one(point, sequence)
        successor = vershik_step(d, prefix)
        if successor is NEEDS_EXTENSION:
            assert value == products[-1] - 1 and point.digits[-1] == 0
            prefix, value = path_of(0), 0
        else:
            prefix = successor
            value = sum(e.rank * p for e, p in zip(prefix.edges, products))
        assert point.digits == tuple(value % p for p in products[1:])
