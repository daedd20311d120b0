"""t-core extraction and the forest / B-queue core conditions."""

import random

import pytest

from fancore import (
    GraphError,
    Multigraph,
    bqueue_core_condition,
    construct_witness,
    core_report,
    edges_above,
    forest_core_condition,
    t_core,
)
from helpers import all_small_multigraphs, cycle_with_pendants_host, fixture, random_multigraph


class TestTCore:
    @pytest.mark.parametrize("t", [True, False, -1, 1.0, "1"])
    @pytest.mark.parametrize("call", [t_core, edges_above, core_report, forest_core_condition, construct_witness])
    def test_t_must_be_a_nonnegative_int(self, call, t):
        # a bool is an int to isinstance, but True must not read as t = 1
        with pytest.raises(GraphError, match="t must be a nonnegative integer"):
            call(fixture("fat-triangle-t1.graph"), t)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_fat_triangle_core_is_heavy_class(self, t):
        g = fixture(f"fat-triangle-t{t}.graph")
        assert t_core(g, t) == Multigraph(edges=[("b", "c", t + 2)])

    def test_simple_graph_zero_core_is_max_degree_core(self):
        g = fixture("fig1-h.graph")
        core = t_core(g, 0)
        assert set(core.labels) == {v for v in g.labels if g.degree(v) == g.max_degree()}

    def test_star_t1_core_empty(self):
        star = Multigraph(edges=[("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)])
        assert t_core(star, 1) == Multigraph()

    def test_monotone_shrinking(self):
        rng = random.Random(3)
        for _ in range(80):
            g = random_multigraph(rng, 5, 6, 3)
            previous = set(g.labels)
            for t in range(0, g.max_degree() + g.max_mult() + 1):
                current = set(t_core(g, t).labels)
                assert current <= previous
                previous = current

    def test_empty_beyond_ore_bound(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_multigraph(rng, 5, 6, 3)
            assert t_core(g, g.max_degree() + g.max_mult()).vertex_count == 0

    def test_membership_recheck_in_host(self):
        # the definition, d(v) + vertex_mult(v) > max_degree + t, on every
        # vertex, so also on each one t_core skips for 2 d(v) <= max_degree + t
        rng = random.Random(5)
        graphs = [(random_multigraph(rng, 5, 6, 3), rng.randint(0, 3)) for _ in range(80)]
        graphs += [(g, t) for g in all_small_multigraphs() for t in range(4)]
        graphs += [(Multigraph(vertices=["a", "b", "c"]), t) for t in range(2)]
        with_isolated = Multigraph(["i0", "a", "i1"], [("a", "b", 2), ("b", "c", 1), ("c", "d", 3)])
        graphs += [(with_isolated, t) for t in range(4)]
        skipped = 0
        for g, t in graphs:
            threshold = g.max_degree() + t
            core = t_core(g, t)
            assert core.labels == tuple(v for v in g.labels if core.has_vertex(v))  # g's order
            for v in g.labels:
                passes = g.degree(v) + g.vertex_mult(v) > threshold
                assert passes == core.has_vertex(v), (g.classes(), t, v)
                skipped += 2 * g.degree(v) <= threshold
        assert skipped


class TestEdgesAbove:
    def test_fat_triangle_thresholds(self):
        g = fixture("fat-triangle-t1.graph")  # mults 2,2,3
        assert edges_above(g, 1).class_count == 3
        kept = edges_above(g, 2)
        assert kept.classes() == (("b", "c", 3),)

    def test_simple_graph_above_one_is_edgeless(self):
        g = fixture("c5.graph")
        assert edges_above(g, 1).class_count == 0

    def test_zero_threshold_is_identity(self):
        g = fixture("fat-triangle-t0.graph")
        assert edges_above(g, 0) == g

    def test_vertex_set_is_preserved(self):
        g = Multigraph(vertices=["iso"], edges=[("a", "b", 2), ("b", "c", 1)])
        assert edges_above(g, 1).labels == g.labels


class TestCoreConditions:
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_fat_triangle_fails_forest_condition(self, t):
        g = fixture(f"fat-triangle-t{t}.graph")
        ok, report = forest_core_condition(g, t)
        assert not ok
        assert report.core_mult == t + 2
        assert report.max_mult_simple is None

    def test_forest_core_simple_graph_passes(self):
        g = fixture("forest-path4.graph")  # 0-core is the middle edge
        ok, report = forest_core_condition(g, 0)
        assert ok
        assert report.core_mult == 1
        assert set(report.core.labels) == {"p1", "p2"}

    def test_edgeless_core_passes_vacuously(self):
        star = Multigraph(edges=[("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)])
        ok, report = forest_core_condition(star, 1)
        assert ok
        assert report.core.vertex_count == 0

    def test_cycle_core_fails_forest_but_pendant_saves_bqueue(self):
        host, base = cycle_with_pendants_host()
        assert base == fixture("cycle-pendant.graph")
        assert t_core(host, 0) == base  # the padded construction worked
        forest_ok, _ = forest_core_condition(host, 0)
        bq_ok, report = bqueue_core_condition(host, 0)
        assert not forest_ok  # the core contains a cycle
        assert bq_ok  # but the pendant edge gives it a full B-queue
        assert report.max_mult_simple == base

    def test_bare_cycle_core_fails_bqueue(self):
        c3 = fixture("c3.graph")  # its own 0-core
        ok, report = bqueue_core_condition(c3, 0)
        assert not ok
        assert report.core == c3

    def test_isolated_core_vertex_passes_both_conditions(self):
        # the star's core is its isolated centre; the edgeless core graph is
        # vacuously a multiforest and its single vertex enqueues alone
        star = Multigraph(edges=[("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)])
        forest_ok, report = forest_core_condition(star, 0)
        bq_ok, _ = bqueue_core_condition(star, 0)
        assert forest_ok and bq_ok
        assert report.core.labels == ("c",) and report.core.class_count == 0

    def test_forest_condition_implies_bqueue_condition(self):
        rng = random.Random(9)
        for _ in range(150):
            g = random_multigraph(rng, 5, 6, 3)
            t = rng.randint(0, 2)
            if forest_core_condition(g, t)[0]:
                assert bqueue_core_condition(g, t)[0]

    def test_report_core_mult_matches_core(self):
        rng = random.Random(10)
        for _ in range(80):
            g = random_multigraph(rng, 5, 6, 3)
            report = core_report(g, 1)
            assert report.core_mult == report.core.max_mult()
