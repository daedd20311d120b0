"""Acceptance suite: one test per criterion, each with an explicit tolerance
and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every expected value here is either a frozen fixture value (fat
triangles, the figure graphs) or is computed by an independent brute-force
oracle in oracles.py.

Criterion 4 note: its threshold clause relates corefan(H) <= t to
corefan(edges_above(H, t)) <= t. The reduction direction (a corefan bound on
the classes of multiplicity > t bounds the whole graph) holds on every
instance and is what the multiforest theorem uses. The converse is false:
edges_above returns a graph that is its own host, so the deficits
d_K(z) - d_H(z) that the dropped classes of multiplicity <= t created
vanish with them, and corefan can rise. The smallest case is
H = {v1v3 x1, v2v3 x3} at t = 1, with corefan(H) = 1 but corefan 2 for the
triple edge alone. test_criterion_4_threshold_equivalence_as_stated
therefore asserts (a) the equivalence on every pair where no class of
multiplicity <= t touches a class of multiplicity > t, where it is
provable; (b) that every other disagreement is one-sided,
corefan(H) <= t < corefan(edges_above(H, t)), with both values confirmed by
the brute-force oracle; and (c) that the hand-checked counterexample is
among those disagreements.
"""

import math
import random
import time

from fancore import (
    Multigraph,
    SubgraphSelection,
    bqueue_core_condition,
    cfan_degree,
    chromatic_index_exact,
    constant_multiplicity_lift,
    construct_witness,
    corefan,
    corefan_bruteforce,
    edges_above,
    fan_bound,
    fan_colouring,
    fan_number,
    fan_pair_exceeds,
    forest_core_condition,
    greedy_full_bqueue,
    t_core,
    validate_bqueue,
    verify_colouring,
    verify_witness,
)
from helpers import (
    all_simple_graphs,
    all_simple_graphs_up_to,
    all_small_multigraphs,
    fixture,
    random_multigraph,
    random_simple_graph,
)
from oracles import corefan_oracle, least_full_bqueue_oracle


def announce(n: int, elapsed: float, detail: str) -> None:
    print(f"criterion {n}: PASS ({elapsed:.1f}s) {detail}")


def forest_core_family():
    """Deterministic enumeration of simple graphs (<= 7 vertices) whose
    0-core is a forest: exhaustive through 5 vertices, a seeded sample of
    6- and 7-vertex graphs on top."""
    graphs = []
    for n in range(2, 6):
        for g in all_simple_graphs(n):
            if g.class_count and t_core(g, 0).is_multiforest():
                graphs.append(g)
    rng = random.Random(20240810)
    attempts = 0
    while sum(1 for g in graphs if g.vertex_count >= 6) < 120 and attempts < 10000:
        attempts += 1
        g = random_simple_graph(rng, rng.choice([6, 7]), rng.uniform(0.2, 0.9))
        if g.class_count and t_core(g, 0).is_multiforest():
            graphs.append(g)
    return graphs


def test_criterion_1_fat_triangle_sharpness():
    start = time.perf_counter()
    for t in (0, 1, 2):
        g = fixture(f"fat-triangle-t{t}.graph")
        assert g.max_degree() == 2 * t + 3
        chi, colouring = chromatic_index_exact(g)
        assert chi == 3 * t + 4
        assert verify_colouring(colouring)
        assert t_core(g, t) == Multigraph(edges=[("b", "c", t + 2)])
        ok, report = forest_core_condition(g, t)
        assert not ok and report.core_mult == t + 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(1, elapsed, "chi = 3t+4, max degree 2t+3, core is the heavy class")


def test_criterion_2_forest_core_colours_at_max_degree():
    start = time.perf_counter()
    family = forest_core_family()
    assert len(family) >= 200
    failures = []
    for g in family:
        delta = g.max_degree()
        colouring = fan_colouring(g, delta)
        if colouring is None or not verify_colouring(colouring):
            failures.append(g.classes())
            continue
        chi, _ = chromatic_index_exact(g)
        if chi != delta:
            failures.append(g.classes())
    elapsed = time.perf_counter() - start
    assert not failures, failures[:3]
    assert elapsed < 60.0
    announce(2, elapsed, f"{len(family)} forest-core graphs coloured at max degree")


def test_criterion_3_ore_and_fan_bounds():
    start = time.perf_counter()
    count = 0
    for g in all_small_multigraphs(4, 4, 3):
        count += 1
        chi, colouring = chromatic_index_exact(g)
        assert verify_colouring(colouring)
        assert chi <= g.ore_bound()
        assert chi <= fan_bound(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    announce(3, elapsed, f"chi bounded by the degree-sum and Fan bounds on {count} multigraphs")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    count = 0
    for h in all_small_multigraphs(4, 4, 3):
        count += 1
        assert corefan(h).value == corefan_bruteforce(h)
    elapsed = time.perf_counter() - start
    announce(4, elapsed, f"full-multiplicity corefan equals brute force on {count} multigraphs")


def test_criterion_4_threshold_reduction_direction():
    start = time.perf_counter()
    for h in all_small_multigraphs(4, 4, 3):
        cf = corefan(h).value
        for t in range(4):
            if corefan(edges_above(h, t)).value <= t:
                assert cf <= t, (h.classes(), t)
    elapsed = time.perf_counter() - start
    announce(4, elapsed, "threshold reduction direction exact on the same family")


def test_criterion_4_threshold_equivalence_as_stated():
    # corefan is the maximum over the components of H. A component whose
    # classes all have multiplicity <= t has corefan <= t (at l = t every
    # term d_K(z) - d_H(z) + mult_K(x, z) - l is at most mult - t <= 0), and
    # edges_above keeps every other component with the same host degrees.
    # So (a) the equivalence holds when the low and high classes share no
    # vertex. Elsewhere the dropped low classes take their deficits with
    # them, so (b) a disagreement can only be corefan(H) <= t <
    # corefan(edges_above(H, t)), and both values must match the oracle.
    start = time.perf_counter()
    disjoint = 0
    outcomes = set()
    oracle_h = {}
    disagreements = {}
    for h in all_small_multigraphs(4, 4, 3):
        cf = corefan(h).value
        for t in range(4):
            above = edges_above(h, t)
            cf_above = corefan(above).value
            low = {v for u, w, m in h.classes() if m <= t for v in (u, w)}
            high = {v for u, w, m in h.classes() if m > t for v in (u, w)}
            if not low & high:
                assert (cf <= t) == (cf_above <= t), (h.classes(), t, cf, cf_above)
                outcomes.add(cf_above <= t)
                disjoint += 1
            elif (cf <= t) != (cf_above <= t):
                assert cf <= t < cf_above, (h.classes(), t, cf, cf_above)
                if h not in oracle_h:
                    oracle_h[h] = corefan_oracle(h)
                assert (oracle_h[h], corefan_oracle(above)) == (cf, cf_above), (h.classes(), t)
                disagreements[h.classes(), t] = (cf, cf_above)
    assert outcomes == {True, False}  # (a) sees both outcomes
    # (c) the hand-checked counterexample: in H the subgraph {v2v3 x3}
    # leaves v3 a deficit of -1, so (v2, v3) has cfan 1 (-1 + 3 - 1 <= 1)
    # and corefan(H) = 1; the triple edge alone has no deficits and needs
    # 3 - l <= 1 at both ends, so its corefan is 2.
    assert disagreements.get(((("v1", "v3", 1), ("v2", "v3", 3)), 1)) == (1, 2)
    elapsed = time.perf_counter() - start
    announce(
        4,
        elapsed,
        f"threshold equivalence on {disjoint} vertex-disjoint pairs; "
        f"{len(disagreements)} one-sided counterexamples confirmed by the oracle",
    )


def test_criterion_5_constant_multiplicity_lifting():
    start = time.perf_counter()
    count = 0
    for b in all_simple_graphs_up_to(5):
        if b.class_count == 0:
            continue
        count += 1
        values = [corefan(constant_multiplicity_lift(b, m + 1)).value for m in range(3)]
        for s in range(3):
            for t in range(s + 1, 3):
                if values[s] <= s:
                    assert values[t] <= t, (b.classes(), s, t)
    elapsed = time.perf_counter() - start
    announce(5, elapsed, f"lift bound preserved for 0 <= s < t <= 2 on {count} simple graphs")


def test_criterion_6_full_queue_forces_corefan_zero():
    start = time.perf_counter()
    successes = 0
    for n in range(7):
        for g in all_simple_graphs(n):
            if greedy_full_bqueue(g) is not None:
                successes += 1
                assert corefan(g).value == 0, g.classes()
    # non-converse fixtures: corefan 0 without any full queue
    for name in ("fig2-h4.graph", "h5.graph"):
        g = fixture(name)
        assert corefan(g).value == 0
        assert greedy_full_bqueue(g) is None
        assert least_full_bqueue_oracle(g) is None
    elapsed = time.perf_counter() - start
    announce(6, elapsed, f"{successes} full-queue graphs all have corefan 0; converse fails on fixtures")


def test_criterion_7_figure_values():
    start = time.perf_counter()
    h = fixture("fig1-h.graph")
    report = corefan(h)
    assert report.value >= 1
    k = SubgraphSelection(h, [c for c in h.classes() if "v" not in c[:2]])
    degrees = [
        cfan_degree(h, k, x, y)[0]
        for u, v, _ in k.classes()
        for x, y in ((u, v), (v, u))
    ]
    assert min(degrees) >= 1  # the pendant-free subgraph certifies the bound
    assert corefan(fixture("fig1-h1.graph")).value <= 1
    elapsed = time.perf_counter() - start
    announce(7, elapsed, "figure graph has corefan 1 via its pendant-free subgraph; lift stays at 1")


def test_criterion_8_greedy_equals_exhaustive():
    start = time.perf_counter()
    count = full = 0
    for n in range(7):
        for g in all_simple_graphs(n):
            count += 1
            q = greedy_full_bqueue(g)
            assert (None if q is None else q.order) == least_full_bqueue_oracle(g), g.classes()
            if q is not None:
                full += 1
                assert validate_bqueue(q) and q.is_full()
    elapsed = time.perf_counter() - start
    assert full > 0
    assert elapsed < 300.0
    announce(8, elapsed, f"greedy returns the depth-first oracle's least full B-queue on {count} graphs")


def test_criterion_9_witness_construction_end_to_end():
    start = time.perf_counter()
    sizes = {}
    for name, t in (("double-edge.graph", 0), ("fig1-h.graph", 0)):
        h = fixture(name)
        g, plan = construct_witness(h, t)
        ok, diags = verify_witness(h, t, g, plan)
        assert ok, diags
        # re-run the per-edge certificate directly as well
        j = g.induced(tuple(plan.k_vertices) + plan.s_vertices)
        for u, v, _ in j.classes():
            for x, y in ((u, v), (v, u)):
                assert fan_pair_exceeds(j, x, y, plan.D + plan.t)[0]
        sizes[name] = g.vertex_count
    elapsed = time.perf_counter() - start
    assert sizes == {"double-edge.graph": 40, "fig1-h.graph": 303}
    assert elapsed < 60.0
    announce(9, elapsed, f"witness graphs verified, sizes {sizes}")


def test_criterion_10_reports_self_certify():
    start = time.perf_counter()
    rng = random.Random(424242)
    checked = 0
    mismatches = 0
    while checked < 1000:
        g = random_multigraph(rng, rng.randint(2, 4), 4, 3)
        for report in (fan_number(g), corefan(g)):
            checked += 1
            if report.re_evaluate() != report.value:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    announce(10, elapsed, f"{checked} randomized reports re-evaluate to their stated values")


def test_criterion_11_core_conditions_bound_fan():
    # The theorem in its Fan form: when the t-core passes the forest or
    # B-queue condition, or has corefan <= t, then Fan(G) <= max_degree + t.
    # Every Fan(G) is also a colour count the fan engine meets.
    def family():
        yield from all_small_multigraphs(4, 4, 3)
        rng = random.Random(2310)
        count = 0
        while count < 400:
            g = random_multigraph(rng, rng.randint(5, 7), 10, 3)
            if math.prod(m + 1 for _, _, m in g.index_classes) <= 1 << 14:
                count += 1
                yield g

    start = time.perf_counter()
    graphs = cases = 0
    for g in family():
        graphs += 1
        bound = fan_bound(g)
        colouring = fan_colouring(g, bound)
        assert colouring is not None and verify_colouring(colouring), g.classes()
        for t in range(4):
            core = t_core(g, t)
            if not core.class_count:
                continue
            if (
                forest_core_condition(g, t)[0]
                or bqueue_core_condition(g, t)[0]
                or corefan(core).value <= t
            ):
                cases += 1
                assert bound <= g.max_degree() + t, (g.classes(), t)
    elapsed = time.perf_counter() - start
    assert (graphs, cases) == (2309, 708)
    assert elapsed < 60.0
    announce(11, elapsed, f"Fan <= max_degree + t in {cases} condition cases on {graphs} multigraphs")
