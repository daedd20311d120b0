"""Fan and corefan metrics against brute-force oracles and known values."""

import itertools
import random

import pytest

from fancore import (
    GraphError,
    Multigraph,
    ResourceLimitError,
    SubgraphSelection,
    bqueue_core_condition,
    cfan_degree,
    constant_multiplicity_lift,
    corefan,
    corefan_bruteforce,
    degree_preserving_set,
    edges_above,
    fan_bound,
    fan_degree,
    fan_number,
    fan_pair_exceeds,
    full_multiplicity_criterion,
    greedy_full_bqueue,
    parse,
    t_core,
)
from helpers import all_simple_graphs_up_to, fixture, random_multigraph
from oracles import (
    cfan_degree_oracle,
    corefan_oracle,
    fan_degree_oracle,
    fan_number_oracle,
)


def full(g):
    return SubgraphSelection.full(g)


class TestFanDegree:
    def test_double_edge_is_zero(self):
        j = Multigraph(edges=[("x", "y", 2)])
        assert fan_degree(full(j), "x", "y")[0] == 0
        assert fan_degree_oracle(j, "x", "y") == 0

    def test_single_edge_is_zero(self):
        j = Multigraph(edges=[("x", "y", 1)])
        assert fan_degree(full(j), "x", "y")[0] == 0

    def test_fat_triangle_every_pair_is_four(self):
        j = fixture("fat-triangle-t0.graph")
        sel = full(j)
        for u, v, _ in j.classes():
            for x, y in ((u, v), (v, u)):
                value, zset = fan_degree(sel, x, y)
                assert value == 4
                assert value == fan_degree_oracle(j, x, y)
                assert y in zset and zset <= set(j.neighbours(x))

    def test_missing_edge_rejected(self):
        j = fixture("fat-triangle-t0.graph")
        sel = SubgraphSelection(j, [("a", "b", 1)])
        with pytest.raises(GraphError):
            fan_degree(sel, "b", "c")

    def test_matches_oracle_on_random_subgraphs(self):
        rng = random.Random(71)
        for _ in range(120):
            g = random_multigraph(rng, 4, 4, 3)
            if g.class_count == 0:
                continue
            classes = [(u, v, rng.randint(1, m)) for u, v, m in g.classes()]
            sel = SubgraphSelection(g, classes)
            sub = sel.materialize()
            for u, v, _ in classes:
                for x, y in ((u, v), (v, u)):
                    assert fan_degree(sel, x, y)[0] == fan_degree_oracle(sub, x, y)

    def test_exceeds_agrees_with_value(self):
        rng = random.Random(72)
        for _ in range(60):
            g = random_multigraph(rng, 4, 4, 3)
            if g.class_count == 0:
                continue
            sel = full(g)
            for u, v, _ in g.classes():
                value, _ = fan_degree(sel, u, v)
                for k in range(value + 2):
                    assert fan_pair_exceeds(sel, u, v, k)[0] == (value > k)

    def test_exceeds_rejects_negative_level(self):
        # every level is at least 0, so a negative one is a caller error
        j = full(fixture("double-edge.graph"))
        assert fan_degree(j, "x", "y")[0] == 0
        with pytest.raises(GraphError):
            fan_pair_exceeds(j, "x", "y", -1)


class TestFanNumber:
    def test_edgeless(self):
        g = Multigraph(vertices=["a", "b"])
        report = fan_number(g)
        assert report.value == 0 and report.pair is None
        assert fan_bound(g) == 0
        assert corefan_bruteforce(g) == 0

    def test_double_edge(self):
        g = fixture("double-edge.graph")
        assert fan_number(g).value == 0
        assert fan_number_oracle(g) == 0
        assert fan_bound(g) == 2  # max degree wins

    def test_fat_triangle(self):
        g = fixture("fat-triangle-t0.graph")
        report = fan_number(g)
        assert report.value == 4 == fan_number_oracle(g)
        assert fan_bound(g) == 4
        # the witness self-certifies
        assert report.re_evaluate() == 4

    def test_matches_oracle_on_small_multigraphs(self):
        rng = random.Random(73)
        for _ in range(40):
            g = random_multigraph(rng, 4, 3, 3)
            assert fan_number(g).value == fan_number_oracle(g)

    def test_cap(self):
        g = Multigraph(edges=[(f"a{i}", f"b{i}", 3) for i in range(11)])
        with pytest.raises(ResourceLimitError):
            fan_number(g, max_product=1 << 20)


class TestCfanDegree:
    def test_single_edge(self):
        h = Multigraph(edges=[("x", "y", 1)])
        assert cfan_degree(h, full(h), "x", "y")[0] == 0

    def test_double_edge(self):
        h = fixture("double-edge.graph")
        value, zset = cfan_degree(h, full(h), "x", "y")
        assert value == 1 == cfan_degree_oracle(h, h, "x", "y")
        assert zset == {"y"}

    def test_figure_subgraph_every_pair_at_least_one(self):
        h = fixture("fig1-h.graph")
        k = SubgraphSelection(h, [c for c in h.classes() if "v" not in c[:2]])
        for u, v, _ in k.classes():
            for x, y in ((u, v), (v, u)):
                value, _ = cfan_degree(h, k, x, y)
                assert value >= 1
                assert value == cfan_degree_oracle(h, k.materialize(), x, y)

    def test_matches_oracle_on_random_subgraphs(self):
        rng = random.Random(74)
        for _ in range(120):
            h = random_multigraph(rng, 4, 4, 3)
            if h.class_count == 0:
                continue
            classes = [(u, v, rng.randint(1, m)) for u, v, m in h.classes() if rng.random() < 0.8]
            if not classes:
                continue
            sel = SubgraphSelection(h, classes)
            sub = sel.materialize()
            for u, v, _ in classes:
                for x, y in ((u, v), (v, u)):
                    assert cfan_degree(h, sel, x, y)[0] == cfan_degree_oracle(h, sub, x, y)

    def test_wrong_host_rejected(self):
        h = fixture("double-edge.graph")
        other = fixture("c3.graph")
        with pytest.raises(GraphError):
            cfan_degree(other, full(h), "x", "y")


class TestCorefan:
    def test_edgeless(self):
        assert corefan(Multigraph(vertices=["a"])).value == 0

    def test_double_edge(self):
        g = fixture("double-edge.graph")
        assert corefan(g).value == 1 == corefan_bruteforce(g)

    def test_figure_counterexamples_are_zero(self):
        assert corefan(fixture("fig2-h4.graph")).value == 0
        assert corefan(fixture("h5.graph")).value == 0

    def test_witness_identity_is_pinned(self):
        # regression pin for the enumeration order: first maximizer wins, so
        # the reported subgraph must be bit-for-bit reproducible
        h = fixture("fig1-h.graph")
        report = corefan(h)
        assert report.witness.classes() == tuple(
            c for c in h.classes() if "v" not in c[:2]
        )
        assert report.pair == ("w", "a")
        assert report.zset == {"a", "b"}
        ft = fixture("fat-triangle-t0.graph")
        fan_rep = fan_number(ft)
        assert fan_rep.witness.classes() == ft.classes()
        assert fan_rep.pair == ("a", "b")

    def test_figure_graph_and_its_lift(self):
        h = fixture("fig1-h.graph")
        report = corefan(h)
        assert report.value == 1  # > 0
        # the subgraph dropping the pendant class is itself a witness
        k = SubgraphSelection(h, [c for c in h.classes() if "v" not in c[:2]])
        assert min(
            cfan_degree(h, k, x, y)[0]
            for u, v, _ in k.classes()
            for x, y in ((u, v), (v, u))
        ) == 1
        h1 = fixture("fig1-h1.graph")
        assert corefan(h1).value == 1  # <= 1
        assert constant_multiplicity_lift(h, 2) == h1

    def test_matches_bruteforce_and_oracle(self):
        rng = random.Random(75)
        for _ in range(30):
            h = random_multigraph(rng, 4, 3, 3)
            value = corefan(h).value
            assert value == corefan_bruteforce(h)
            assert value == corefan_oracle(h)

    def test_five_vertex_differential(self):
        rng = random.Random(5150)
        done = 0
        while done < 40:
            g = random_multigraph(rng, 5, rng.randint(1, 6), 3)
            if g.total_instances() > 12:
                continue
            done += 1
            assert fan_number(g).value == fan_number_oracle(g), g.classes()
            assert corefan(g).value == corefan_oracle(g) == corefan_bruteforce(g)

    def test_value_bounded_by_ore_quantity(self):
        rng = random.Random(76)
        for _ in range(60):
            h = random_multigraph(rng, 4, 4, 3)
            assert 0 <= corefan(h).value <= h.max_degree() + h.max_mult()
            report = fan_number(h)
            assert 0 <= report.value <= h.max_degree() + h.max_mult()

    def test_class_cap(self):
        g = Multigraph(edges=[(f"a{i}", f"b{i}", 1) for i in range(21)])
        with pytest.raises(ResourceLimitError):
            corefan(g)


def colex_vectors(mults, full_only):
    """Nonempty multiplicity vectors in colex order, class 0 the fastest digit."""
    digits = [(0, m) if full_only else range(m + 1) for m in reversed(mults)]
    for rev in itertools.product(*digits):
        if any(rev):
            yield rev[::-1]


def first_maximiser(g, kind, full_only):
    """(value, witness classes, pair, maximisers, minimising pairs) by oracle.

    The witness is the first candidate in colex order whose minimum equals
    the maximum, and the pair the first ordered pair, (lo, hi) before
    (hi, lo) class by class, that attains the minimum there. The last two
    fields count how many candidates tie at the maximum and how many pairs
    tie at the minimum in the witness.
    """
    classes = g.classes()
    rows = []
    for vec in colex_vectors([m for _, _, m in classes], full_only):
        k_graph = Multigraph(g.labels, [(u, v, m) for (u, v, _), m in zip(classes, vec) if m])
        degrees = [
            ((x, y), fan_degree_oracle(k_graph, x, y) if kind == "fan"
             else cfan_degree_oracle(g, k_graph, x, y))
            for u, v, _ in k_graph.classes()
            for x, y in ((u, v), (v, u))
        ]
        low = min(d for _, d in degrees)
        pairs = [p for p, d in degrees if d == low]
        rows.append((low, k_graph.classes(), pairs))
    top = max(low for low, _, _ in rows)
    low, witness, pairs = next(row for row in rows if row[0] == top)
    return low, witness, pairs[0], sum(row[0] == top for row in rows), len(pairs)


# Hosts on which every candidate scores 0: the witness is then the first
# candidate, chosen only because there is no best value yet.
ALL_ZERO_HOSTS = {
    "fan": ["x y 1", "a b 2\nc d 2\ne f 2", "a b 2\nb c 2", "c a 1\nc b 1\nc d 1"],
    "corefan": ["x y 1", "a b 1\nc d 1\ne f 1", "c a 1\nc b 1\nc d 1", "fig2-h4.graph"],
}


class TestFirstMaximiser:
    @pytest.mark.parametrize("kind,report_of", [("fan", fan_number), ("corefan", corefan)])
    def test_random_witnesses_match_colex_reference(self, kind, report_of):
        rng = random.Random(82)
        tied_subgraphs = tied_pairs = 0
        for _ in range(60):
            g = random_multigraph(rng, rng.randint(3, 5), 4, 3)
            if g.class_count == 0:
                continue
            value, witness, pair, maximisers, minimisers = first_maximiser(g, kind, kind == "corefan")
            report = report_of(g)
            assert (report.value, report.witness.classes(), report.pair) == (value, witness, pair), g.classes()
            tied_subgraphs += maximisers > 1
            tied_pairs += minimisers > 1
        # both tie rules must have been exercised for the test to mean anything
        assert tied_subgraphs and tied_pairs

    @pytest.mark.parametrize("kind,report_of", [("fan", fan_number), ("corefan", corefan)])
    def test_all_zero_hosts_keep_the_first_candidate(self, kind, report_of):
        for text in ALL_ZERO_HOSTS[kind]:
            g = fixture(text) if text.endswith(".graph") else parse(text)
            value, witness, pair, _, _ = first_maximiser(g, kind, kind == "corefan")
            assert value == 0
            report = report_of(g)
            assert (report.value, report.witness.classes(), report.pair) == (value, witness, pair), text

    def test_bruteforce_values_match_colex_reference(self):
        rng = random.Random(83)
        for _ in range(40):
            g = random_multigraph(rng, rng.randint(3, 5), 4, 3)
            if g.class_count == 0:
                continue
            assert corefan_bruteforce(g) == first_maximiser(g, "corefan", False)[0], g.classes()


class TestReductions:
    def test_high_multiplicity_reduction_direction(self):
        # a corefan bound on the mult>t part transfers to the whole graph
        rng = random.Random(77)
        for _ in range(40):
            h = random_multigraph(rng, 4, 3, 3)
            for t in range(4):
                if corefan(edges_above(h, t)).value <= t:
                    assert corefan(h).value <= t, (h.classes(), t)

    def test_threshold_converse_fails_in_general(self):
        # the transfer is one-way: low-multiplicity classes can only lower
        # corefan (they raise host degrees, never subgraph degrees), so the
        # high-multiplicity part may sit strictly above a bound the whole
        # graph satisfies. Doubled triangle plus one pendant edge, t = 1.
        h = Multigraph(
            edges=[("v0", "v3", 1), ("v1", "v2", 2), ("v1", "v3", 2), ("v2", "v3", 2)]
        )
        assert corefan(h).value == 1 == corefan_bruteforce(h)
        assert corefan(edges_above(h, 1)).value == 2 == corefan_bruteforce(edges_above(h, 1))

    def test_lift_preserves_bound(self):
        # corefan(B_s) <= s implies corefan(B_t) <= t for lifts s+1 < t+1
        for g in all_simple_graphs_up_to(4):
            if g.class_count == 0:
                continue
            values = {m: corefan(constant_multiplicity_lift(g, m + 1)).value for m in range(4)}
            for s in range(4):
                for t in range(s + 1, 4):
                    if values[s] <= s:
                        assert values[t] <= t, (g.classes(), s, t)

    def test_constant_multiplicity_criterion_matches_corefan(self):
        rng = random.Random(78)
        cases = []
        for g in all_simple_graphs_up_to(4):
            if g.class_count:
                cases.append((g, 1))
        for _ in range(25):
            g = random_multigraph(rng, 4, 4, 1)
            if g.class_count:
                cases.append((g, rng.randint(2, 3)))
        for simple, m in cases:
            h = constant_multiplicity_lift(simple, m)
            holds, per_k = full_multiplicity_criterion(h)
            assert holds == (corefan(h).value <= m - 1), (h.classes(),)
            assert len(per_k) == (1 << h.class_count) - 1

    def test_criterion_examples(self):
        h1 = fixture("fig1-h1.graph")  # constant multiplicity 2
        holds, per_k = full_multiplicity_criterion(h1)
        assert holds and all(ok for _, ok in per_k)
        for name in ("fig2-h4.graph", "h5.graph"):
            holds, per_k = full_multiplicity_criterion(fixture(name))
            assert holds and all(ok for _, ok in per_k)
        k2 = Multigraph(edges=[("x", "y", 1)])
        assert full_multiplicity_criterion(k2) == (True, [(SubgraphSelection.full(k2), True)])

    def test_criterion_needs_constant_multiplicity(self):
        with pytest.raises(GraphError):
            full_multiplicity_criterion(fixture("fat-triangle-t0.graph"))


class TestDegreePreservingSet:
    def test_whole_graph(self):
        h = fixture("fig1-h.graph")
        assert degree_preserving_set(full(h)) == set(h.labels)

    def test_one_copy_removed(self):
        h = fixture("fat-triangle-t0.graph")
        classes = [(u, v, m - 1 if (u, v) == ("b", "c") else m) for u, v, m in h.classes()]
        sel = SubgraphSelection(h, [c for c in classes if c[2] > 0])
        assert degree_preserving_set(sel) == {"a"}

    def test_figure_subgraph(self):
        h = fixture("fig1-h.graph")
        k = SubgraphSelection(h, [c for c in h.classes() if "v" not in c[:2]])
        assert degree_preserving_set(k) == {"w", "a", "b"}


class TestTheoremChains:
    def test_full_queue_implies_corefan_zero(self):
        for g in all_simple_graphs_up_to(5):
            if greedy_full_bqueue(g) is not None:
                assert corefan(g).value == 0, g.classes()

    def test_bqueue_condition_bounds_core_corefan(self):
        rng = random.Random(79)
        for _ in range(150):
            g = random_multigraph(rng, 5, 5, 3)
            t = rng.randint(0, 2)
            ok, _ = bqueue_core_condition(g, t)
            if ok:
                assert corefan(t_core(g, t)).value <= t

    def test_core_corefan_bounds_fan(self):
        rng = random.Random(80)
        for _ in range(80):
            g = random_multigraph(rng, 4, 4, 3)
            t = rng.randint(0, 2)
            if corefan(t_core(g, t)).value <= t:
                assert fan_bound(g) <= g.max_degree() + t


class TestSelfCertification:
    def test_reports_re_evaluate(self):
        rng = random.Random(81)
        for _ in range(150):
            g = random_multigraph(rng, 4, 4, 3)
            for report in (fan_number(g), corefan(g)):
                assert report.re_evaluate() == report.value
                if report.pair is not None:
                    x, _ = report.pair
                    nbrs = set(report.witness.materialize().neighbours(x))
                    assert report.zset <= nbrs
