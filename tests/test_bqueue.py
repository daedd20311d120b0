"""B-queue validation and greedy construction, checked against a depth-first oracle."""

import random

import pytest

from fancore import (
    BQueue,
    GraphError,
    Multigraph,
    greedy_full_bqueue,
    validate_bqueue,
)
from fancore import bqueue
from helpers import counts, cycle_graph, fixture, path_graph, random_simple_graph, record, traced
from oracles import least_full_bqueue_oracle


def as_order(q):
    """A BQueue as the oracle reports one: its order, or None."""
    return None if q is None else q.order


class TestValidate:
    def test_single_edge_queue(self):
        g = Multigraph(edges=[("u", "v", 1)])
        q = BQueue(graph=g, order=("u",))
        assert validate_bqueue(q)

    def test_triangle_has_no_first_vertex(self):
        g = fixture("c3.graph")
        for u in g.labels:
            q = BQueue(graph=g, order=(u,))
            assert not validate_bqueue(q)  # step adds three vertices

    def test_empty_queue_on_edgeless_graph(self):
        q = BQueue(graph=Multigraph(), order=())
        assert validate_bqueue(q)
        assert q.is_full()

    def test_repeated_vertex_rejected(self):
        # the replay decides it: b's N[b] is inside the reach after b
        g = path_graph(["a", "b", "c"])
        q = BQueue(graph=g, order=("b", "b"))
        assert not validate_bqueue(q)

    def test_multigraph_rejected(self):
        g = Multigraph(edges=[("u", "v", 2)])
        q = BQueue(graph=g, order=())
        with pytest.raises(GraphError):
            validate_bqueue(q)

    def test_unknown_vertex_raises_at_its_step(self):
        g = path_graph(["a", "b", "c"])
        q = BQueue(graph=g, order=("a", "zz"))
        with pytest.raises(GraphError, match="^unknown vertex 'zz' in B-queue$"):
            validate_bqueue(q)
        # an earlier illegal step decides first: b would add three vertices
        assert not validate_bqueue(BQueue(graph=g, order=("b", "zz")))

    def test_step_adding_two_vertices_besides_u_rejected(self):
        # after x, the centre c is reached, and choosing it would add both y and z
        g = Multigraph(edges=[("c", "x", 1), ("c", "y", 1), ("c", "z", 1)])
        assert validate_bqueue(BQueue(graph=g, order=("x",)))
        assert not validate_bqueue(BQueue(graph=g, order=("x", "c")))


class TestIsFull:
    def test_a_valid_queue_that_is_not_full(self):
        g = path_graph(["a", "b", "c"])
        q = BQueue(graph=g, order=("a",))
        assert validate_bqueue(q)
        assert not q.is_full()
        assert BQueue(graph=g, order=("a", "b")).is_full()

    def test_unknown_vertex_raises(self):
        q = BQueue(graph=path_graph(["a", "b", "c"]), order=("a", "zz"))
        with pytest.raises(GraphError, match="^unknown vertex 'zz' in B-queue$"):
            q.is_full()


class TestGreedy:
    @pytest.mark.parametrize(
        "name", ["forest-path4.graph", "forest-spider.graph"]
    )
    def test_forests_have_full_queues(self, name):
        b = fixture(name)
        q = greedy_full_bqueue(b)
        assert q is not None
        assert validate_bqueue(q)
        assert q.is_full()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_bare_cycles_fail(self, n):
        assert greedy_full_bqueue(cycle_graph(n)) is None

    def test_figure_counterexample_fails(self):
        assert greedy_full_bqueue(fixture("fig2-h4.graph")) is None
        assert greedy_full_bqueue(fixture("h5.graph")) is None

    def test_cycle_with_pendant_succeeds(self):
        q = greedy_full_bqueue(fixture("cycle-pendant.graph"))
        assert q is not None and q.is_full() and validate_bqueue(q)

    def test_isolated_vertices_enqueue_alone(self):
        g = Multigraph(vertices=["i1", "i2"], edges=[("a", "b", 1)])
        q = greedy_full_bqueue(g)
        assert q is not None and q.is_full()
        assert set(q.order) >= {"i1", "i2"}

    def test_empty_graph(self):
        q = greedy_full_bqueue(Multigraph())
        assert q is not None and q.order == () and q.is_full()

    def test_multigraph_rejected(self):
        with pytest.raises(GraphError):
            greedy_full_bqueue(fixture("double-edge.graph"))

    def test_a_long_path_costs_one_legality_test_per_step(self, monkeypatch):
        # each scan starts at the first vertex whose N[u] is not inside the
        # reach, so every step takes the first vertex it tests: n - 1 tests,
        # where a scan from vertex 0 makes n(n - 1)/2 = 1,999,000
        n = 2000
        g = path_graph([f"p{i}" for i in range(n)])
        calls = record(monkeypatch, bqueue, "_legal_new")
        q = greedy_full_bqueue(g)
        assert q.order == g.labels[:-1] and q.is_full()
        assert counts(calls)["_legal_new"] <= 2 * n

    def test_a_long_path_runs_in_linear_memory(self):
        # the queue is its order, so memory stays linear in the path; a
        # stored reach set per step would hold n^2/2 labels, about 83 MB
        g = path_graph([f"p{i}" for i in range(2000)])
        q, peak = traced(lambda: greedy_full_bqueue(g))
        assert q.is_full()
        assert peak < 1_000_000


class TestOracle:
    def test_forest_found(self):
        g = fixture("forest-spider.graph")
        q = BQueue(graph=g, order=least_full_bqueue_oracle(g))
        assert q.is_full() and validate_bqueue(q)

    def test_c5_absent(self):
        assert least_full_bqueue_oracle(fixture("c5.graph")) is None

    def test_cycle_plus_pendant_found(self):
        assert least_full_bqueue_oracle(fixture("cycle-pendant.graph")) is not None


class TestAgreement:
    # greedy is complete and scans in index order, so its queue is the
    # lexicographically least full one: the oracle's.
    # Every simple graph up to 6 vertices is checked in
    # test_acceptance.py::test_criterion_8_greedy_equals_exhaustive.
    def test_greedy_matches_the_oracle_random_6_to_8(self):
        rng = random.Random(20240810)
        for _ in range(1500):
            g = random_simple_graph(rng, rng.choice([6, 7, 8]), rng.uniform(0.1, 0.9))
            assert as_order(greedy_full_bqueue(g)) == least_full_bqueue_oracle(g), g.classes()

    def test_long_path_is_greedy_order(self):
        g = path_graph([f"p{i}" for i in range(12)])
        assert as_order(greedy_full_bqueue(g)) == least_full_bqueue_oracle(g)

    def test_pendant_monotonicity_on_cycles(self):
        # once a cycle has one pendant, adding more pendants keeps fullness
        for n in (3, 4, 5, 6):
            base = cycle_graph(n)
            edges = list(base.classes())
            for pendants in range(1, 4):
                edges_p = edges + [
                    (f"x{i % n}", f"pend{i}", 1) for i in range(pendants)
                ]
                g = Multigraph(base.labels, edges_p)
                q = greedy_full_bqueue(g)
                assert q is not None and q.is_full()
