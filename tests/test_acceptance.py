"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the oracles (gap scans, brute-force
expansions, digit bijections, independent order verifiers) are computed in
this module, independent of the code paths they certify.
"""

import time

from cantorsys import bratteli, odometer, product
from cantorsys.gensub import (
    Decomposition,
    TwoSidedCellWord,
    from_self_induced,
    language as gensub_language,
    omega_fixed_point,
    recognizability_decompose,
    verify_power_formula,
    zero_successor_substitution,
)
from cantorsys.odometer import (
    DyadicOdometerHandle,
    EventuallyPeriodic,
    ValuationProfile,
    induce_via_diagram,
    is_conjugate,
    is_self_induced,
)
from cantorsys.substitution import (
    derive,
    fibonacci,
    frequencies,
    iterate,
    period_doubling,
    verify_self_induced,
)
from cantorsys.words import Word


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def ep(prefix, cycle):
    return EventuallyPeriodic(tuple(prefix), tuple(cycle))


def test_criterion_01_odometer_verdicts():
    # warm up, then time the two decisions; they are pure integer work
    is_self_induced(ep([], [2]))
    start = time.perf_counter()
    dyadic = is_self_induced(ep([], [2]))
    all_primes = is_self_induced(ValuationProfile({}, infinitely_many_primes=True))
    elapsed = time.perf_counter() - start
    ok = (
        dyadic.self_induced
        and dyadic.witness_prime == 2
        and not all_primes.self_induced
        and elapsed < 1e-3
    )
    report(1, f"2-odometer YES(2) / all-primes NO in {elapsed * 1e6:.0f}us", ok)


def test_criterion_02_induction_drops_head():
    cases = [
        (ep([5], [7]), ep([], [7])),
        (ep([2, 3], [10]), ep([3], [10])),
        (ep([], [2]), ep([], [2])),
        (ep([], [2, 3]), ep([], [3, 2])),
    ]
    ok = all(induce_via_diagram(q) == expected for q, expected in cases)
    report(2, "induce_via_diagram drops q_1 exactly", ok)


def test_criterion_03_conjugacy_by_valuations():
    ok = is_conjugate(ep([], [2, 3]), ep([], [6])) and not is_conjugate(
        ep([], [2]), ep([], [2, 3])
    )
    report(3, "cycle(2,3) ~ cycle(6) and cycle(2) !~ cycle(2,3)", ok)


def test_criterion_04_period_doubling_self_induction():
    s = period_doubling()
    d = derive(s, "0")
    shape_ok = (
        d.power == 1
        and d.tau.image("A") == Word(("A", "B", "B"))
        and d.tau.image("B") == Word(("A",))
        and d.theta["A"] == Word("01")
        and d.theta["B"] == Word("0")
    )
    # brute-force expansion oracle on every derived word of length <= 10
    expansion_ok = True
    words = [Word(())]
    for _ in range(10):
        words = [w + Word((c,)) for w in words for c in ("A", "B")]
        for w in words:
            lhs = d.theta_word(Word(tuple(x for a in w for x in d.tau.image(a))))
            rhs = iterate(s, d.theta_word(w), d.power)
            if lhs != rhs:
                expansion_ok = False
                break
        if not expansion_ok:
            break
    verification = verify_self_induced(s, depth=200, samples=20)
    run_ok = verification.passed and set(verification.return_times) == {2}
    report(
        4,
        "derive(pd,0) = (A->ABB, B->A), theta intertwines to length 10, "
        "self-induction certified at depth 200 with return time 2",
        shape_ok and expansion_ok and run_ok,
    )


def test_criterion_05_kac_identity():
    tolerance = 1e-10
    # period doubling, U = [1]
    d_pd = bratteli.from_substitution(period_doubling(), 8)
    mu_pd = bratteli.stationary_measure(d_pd)
    edge = [e for e in d_pd.edges(1) if e.target == 1][0]
    _, kac_pd = bratteli.induced_measure(mu_pd, [bratteli.PathPrefix(d_pd, (edge,))])
    text = iterate(period_doubling(), Word("0"), 12).letters
    ones = [i for i, a in enumerate(text) if a == "1"]
    gaps = {j - i for i, j in zip(ones, ones[1:])}
    mean_gap = (ones[-1] - ones[0]) / (len(ones) - 1)
    pd_ok = (
        abs(float(kac_pd.kac_sum) - 1.0) < tolerance
        and set(kac_pd.by_return_time) == gaps
        and abs(float(kac_pd.expected_return_time) - 3) < 1e-9
        and abs(mean_gap - 3) < 1e-2
    )
    # fibonacci, U = [0]
    d_fib = bratteli.from_substitution(fibonacci(), 8)
    mu_fib = bratteli.stationary_measure(d_fib)
    edge0 = [e for e in d_fib.edges(1) if e.target == 0][0]
    _, kac_fib = bratteli.induced_measure(mu_fib, [bratteli.PathPrefix(d_fib, (edge0,))])
    fib_ok = abs(float(kac_fib.kac_sum) - 1.0) < tolerance
    report(5, "Kac sums equal 1 within 1e-10 (pd [1] with mean return 3; fib [0])",
           pd_ok and fib_ok)


def test_criterion_06_vershik_matches_odometer():
    depth = 24
    steps = 100_000
    d = bratteli.one_vertex_diagram([2] * depth)
    prefix = bratteli.PathPrefix(
        d, tuple(d.min_edge_into(k, 0) for k in range(1, depth + 1))
    )
    q = ep([], [2])
    point = odometer.OdometerPoint((0,) * depth)
    ok = True
    for n in range(1, steps + 1):
        prefix = bratteli.vershik_step(d, prefix)
        point = odometer.add_one(point, q)
        if prefix is bratteli.NEEDS_EXTENSION:
            ok = False
            break
        value = sum(e.rank << i for i, e in enumerate(prefix.edges))
        if value != n or value != point.digits[-1]:
            ok = False
            break
        if any(point.digits[i] != value % (1 << (i + 1)) for i in range(depth)):
            ok = False
            break
    report(6, f"{steps} Vershik steps at depth {depth} equal +1 big-integer arithmetic", ok)


def test_criterion_07_contraction_semantics():
    base2 = bratteli.one_vertex_diagram([2] * 8)
    base4 = bratteli.one_vertex_diagram([4] * 4)
    byte_equal = (
        bratteli.contract(base2, (0, 2, 4, 6, 8)).to_document() == base4.to_document()
    )
    # microscoping every level of base-4 recovers base-2, byte-exactly
    split = bratteli.LevelSplit(
        1,
        [bratteli.Edge(0, 0, 0), bratteli.Edge(0, 0, 1)],
        [bratteli.Edge(0, 0, 0), bratteli.Edge(0, 0, 1)],
    )
    rebuilt = base4
    for level in (4, 3, 2, 1):
        rebuilt = bratteli.microscope(rebuilt, level, split)
    micro_ok = rebuilt.to_document() == base2.to_document()
    # and contract is a left inverse of microscope
    roundtrip = bratteli.contract(bratteli.microscope(base4, 2, split), (0, 1, 3, 4, 5))
    inverse_ok = roundtrip.to_document() == base4.to_document()
    report(7, "contract(base-2) == base-4 byte-exactly; microscope/contract invert",
           byte_equal and micro_ok and inverse_ok)


def test_criterion_08_proper_order_detection():
    base2 = bratteli.one_vertex_diagram([2] * 8)
    certified = bratteli.proper_order_certificate(base2, depth=6)
    pd_naive = bratteli.from_substitution(period_doubling(), 8)
    refuted = bratteli.proper_order_certificate(pd_naive, depth=6)
    ok = (
        certified.certified
        and refuted.status == "not_proper"
        and refuted.witness == ("max", (0, 1))
    )
    report(8, "base-2 Certified; naive period-doubling NotProper via the 2-cycle", ok)


def test_criterion_09_generalized_xi():
    g = zero_successor_substitution(8)
    cells = {c.name: c for c in g.space.frontier(8)}
    window = omega_fixed_point(g, cells["0"], cells["1"], radius=8)
    names = [c.name for c in window.window.cells]
    window_ok = names == ["0", "1", "0", "2", "0", "1", "0", "[8,inf]",
                          "0", "1", "0", "2", "0", "1", "0", "3"]
    probe = TwoSidedCellWord(
        tuple(cells[x] for x in ("0", "1", "0", "2", "0", "1", "0", "3")), 4
    )
    decomposition = recognizability_decompose(g, probe)
    cuts_ok = (
        isinstance(decomposition, Decomposition)
        and decomposition.cuts == (-4, -2, 0, 2, 4)
        and all(cut % 2 == 0 for cut in decomposition.cuts)
    )
    words = gensub_language(g, cells["0"], 2, 8)
    language_ok = (cells["[8,inf]"], cells["0"]) in words
    report(9, "xi: displayed window at radius 8, even cuts, infinity-0 in the language",
           window_ok and cuts_ok and language_ok)


def test_criterion_10_two_adic_formula():
    handle = DyadicOdometerHandle(depth=24)
    g = from_self_induced(handle, resolution=4)
    formula_ok = True
    for cell in g.space.frontier(4):
        z = int(cell.name)
        first, second = g.image(cell, 4)
        if int(first.name) != (2 * z) % 16 or int(second.name) != (2 * z + 1) % 16:
            formula_ok = False
    power = verify_power_formula(handle, n=3, samples=16, resolution=4)
    report(10, "sigma(z) = (2z)(2z+1) and the power formula holds to n = 3",
           formula_ok and power.passed)


def test_criterion_11_graph_embeddings():
    from test_bratteli import ladder, sample_graphs

    target = ladder(depth=18)
    graphs = sample_graphs(100)
    failures = 0
    for graph in graphs:
        emb = bratteli.embed_ordered_graph(target, 3, graph)
        if bratteli.verify_graph_embedding(target, 3, graph, emb):
            failures += 1
    report(11, f"100 ordered graphs embedded with {failures} verifier failures",
           len(graphs) == 100 and failures == 0)


def test_criterion_12_product_identities():
    outcome = product.verify_product_selfinduced(depth=12, samples=1000)
    ok = (
        outcome.passed
        and outcome.commutation_checks == 1000
        and outcome.doubling_checks == 1000
        and outcome.return_time_checks == 1000
    )
    report(12, "sigma S = S^2 sigma, doubling, and return time 2 on 1000 samples", ok)


def test_criterion_13_frequencies():
    freq = frequencies(period_doubling())
    exact_ok = (
        abs(float(freq["0"]) - 2 / 3) < 1e-10 and abs(float(freq["1"]) - 1 / 3) < 1e-10
    )
    text = iterate(period_doubling(), Word("0"), 10).letters
    empirical_ok = all(
        abs(text.count(a) / len(text) - float(freq[a])) < 1e-2 for a in ("0", "1")
    )
    report(13, "pd frequencies (2/3, 1/3) to 1e-10, empirical within 1e-2", exact_ok and empirical_ok)
