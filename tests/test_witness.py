"""Witness construction: circulants, parameter choice, build, verification."""

import pytest

from fancore import (
    GraphError,
    Multigraph,
    SubgraphSelection,
    choose_params,
    circulant_with_matching,
    construct_witness,
    corefan,
    fan_degree,
    fan_pair_exceeds,
    plan_from_text,
    plan_to_text,
    t_core,
    verify_witness,
)
from helpers import fixture


def hosts():
    return [
        (fixture("double-edge.graph"), 0),
        (fixture("fig1-h.graph"), 0),
    ]


class TestCirculant:
    def test_c5_with_matched_quadruple(self):
        g, s_r = circulant_with_matching(5, 2, 4)
        assert g.vertex_count == 5 and all(g.degree(v) == 2 for v in g.labels)
        assert len(s_r) == 4
        induced = g.induced(s_r)
        assert induced.mult("c0", "c1") == 1 and induced.mult("c2", "c3") == 1

    def test_c4_perfect_matching(self):
        g, s_r = circulant_with_matching(4, 2, 4)
        assert set(s_r) == set(g.labels)
        assert g.mult("c0", "c1") == 1 and g.mult("c2", "c3") == 1

    def test_four_regular_on_six(self):
        g, s_r = circulant_with_matching(6, 4, 6)
        assert all(g.degree(v) == 4 for v in g.labels)
        assert g.is_simple()
        for a, b in (("c0", "c1"), ("c2", "c3"), ("c4", "c5")):
            assert g.mult(a, b) == 1

    @pytest.mark.parametrize("n,k,r", [(5, 3, 4), (5, 2, 3), (4, 4, 4), (3, 2, 4)])
    def test_bad_parameters(self, n, k, r):
        with pytest.raises(GraphError):
            circulant_with_matching(n, k, r)


class TestChooseParams:
    def test_double_edge_minimal_parameters(self):
        h = fixture("double-edge.graph")
        k_sel = corefan(h).witness.strip_isolated()
        plan = choose_params(h, 0, k_sel)
        assert (plan.r, plan.D) == (8, 140)
        assert plan.D + plan.t == 20 * (plan.r - 1)  # even multiple, at least 4
        assert plan.a_r == (5, 5) and plan.a_rm1 == (14, 14)
        assert plan.s_r == 10 and plan.s_rm1 == 28
        assert plan.reg_k == 18

    def test_split_arithmetic(self):
        for h, t in hosts():
            k_sel = corefan(h).witness.strip_isolated()
            plan = choose_params(h, t, k_sel)
            assert sum(plan.a_r) % 2 == 0
            for idx, x in enumerate(plan.k_vertices):
                assert plan.a_r[idx] >= 0 and plan.a_rm1[idx] >= 0
                got = plan.a_r[idx] * plan.r + plan.a_rm1[idx] * (plan.r - 1)
                assert got == plan.D - h.degree(x)
            # the split lower bound may only be broken on the first vertex
            assert all(v >= plan.r for v in plan.a_rm1[1:])
            # stage-2 degree identities
            r, D, t_, k = plan.r, plan.D, plan.t, plan.reg_k
            assert (r - 1) + (r - 1) * k == D - (r - 1) + t_
            assert r + (r - 1) * k - 2 == D - r + t_
            assert plan.s_r + plan.s_rm1 > k

    def test_rejects_empty_witness(self):
        h = fixture("double-edge.graph")
        with pytest.raises(GraphError):
            choose_params(h, 0, SubgraphSelection(h, [], vertices=[]))

    def test_rejects_weak_witness(self):
        # a witness whose cfan degree is not above t certifies nothing
        h = fixture("fig1-h.graph")
        weak = SubgraphSelection(h, [("u", "v", 1)], vertices=["u", "v"])
        with pytest.raises(GraphError):
            choose_params(h, 0, weak)


class TestConstructAndVerify:
    def test_double_edge_end_to_end(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        assert g.vertex_count == 40  # 2 host + 38 attached
        assert g.max_degree() == plan.D == 140
        ok, diags = verify_witness(h, 0, g, plan)
        assert ok, diags

    def test_figure_graph_end_to_end(self):
        h = fixture("fig1-h.graph")
        g, plan = construct_witness(h, 0)
        ok, diags = verify_witness(h, 0, g, plan)
        assert ok, diags
        assert t_core(g, 0) == h

    @pytest.mark.parametrize(
        "name,t",
        [
            ("fat-triangle-t0.graph", 0),
            ("fig1-h1.graph", 0),
            ("multiforest-path.graph", 0),
            ("multiforest-path.graph", 4),  # corefan is 5; exercises t > 0,
            # the odd-split parity fix, and stage-3 top-ups together
        ],
    )
    def test_more_hosts_end_to_end(self, name, t):
        h = fixture(name)
        g, plan = construct_witness(h, t)
        ok, diags = verify_witness(h, t, g, plan)
        assert ok, diags
        assert t_core(g, t) == h

    def test_every_s_vertex_sits_on_the_threshold(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        for v in plan.s_vertices:
            assert g.degree(v) + g.vertex_mult(v) == plan.D + plan.t

    def test_certificate_holds_edgewise(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        j = g.induced(tuple(plan.k_vertices) + plan.s_vertices)
        level = plan.D + plan.t
        for u, v, _ in j.classes():
            exceeds, zset = fan_pair_exceeds(j, u, v, level)
            assert exceeds and len(zset) >= 2

    def test_certificate_matches_literal_fan_degree(self):
        # spot-check the fixed-level certificate against the full ascending
        # definition on one host edge, one attachment edge, one overlay edge
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        j = g.induced(tuple(plan.k_vertices) + plan.s_vertices)
        level = plan.D + plan.t
        classes = j.classes()
        in_k = set(plan.k_vertices)
        in_s = set(plan.s_vertices)
        samples = [
            next(c for c in classes if c[0] in in_k and c[1] in in_k),
            next(c for c in classes if (c[0] in in_k) != (c[1] in in_k)),
            next(c for c in classes if c[0] in in_s and c[1] in in_s),
        ]
        for u, v, _ in samples:
            for x, y in ((u, v), (v, u)):
                value, _ = fan_degree(j, x, y)
                assert value > level
                assert fan_pair_exceeds(j, x, y, level)[0]
                assert not fan_pair_exceeds(j, x, y, value)[0]

    def test_low_corefan_host_rejected(self):
        with pytest.raises(GraphError) as err:
            construct_witness(fixture("fig2-h4.graph"), 0)
        assert "corefan" in str(err.value)
        with pytest.raises(GraphError):
            construct_witness(fixture("double-edge.graph"), 1)  # corefan == 1
        with pytest.raises(GraphError):
            construct_witness(Multigraph(vertices=["a", "b"]), 0)  # edgeless host

    def test_thinned_stage2_edge_fails_degree_check(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        target = frozenset(plan.matching[0])
        mutated = Multigraph(
            g.labels,
            [
                (u, v, m - 1 if frozenset((u, v)) == target else m)
                for u, v, m in g.classes()
            ],
        )
        ok, diags = verify_witness(h, 0, mutated, plan)
        assert not ok
        assert any(d.startswith("s-degrees") for d in diags)

    def test_shifted_t_fails_core_check(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        ok, diags = verify_witness(h, plan.r, g, plan)
        assert not ok
        assert any(d.startswith("core") for d in diags)

    def test_unrelated_graph_is_diagnosed_not_crashed(self):
        h = fixture("double-edge.graph")
        _, plan = construct_witness(h, 0)
        ok, diags = verify_witness(h, 0, fixture("c5.graph"), plan)
        assert not ok
        assert any(d.startswith("plan") for d in diags)

    def test_negative_level_plan_is_diagnosed_not_crashed(self):
        # D + t below 0 fails the degree checks; every edge still clears it
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        text = plan_to_text(plan).replace(f"D={plan.D}", "D=-5")
        ok, diags = verify_witness(h, 0, g, plan_from_text(text))
        assert not ok
        assert any(d.startswith("degree") for d in diags)
        assert not any(d.startswith("edge-certificate") for d in diags)

    def test_foreign_labels_are_kept_fresh(self):
        h = Multigraph(edges=[("sr0", "sq0", 2)])  # clash with generated names
        g, plan = construct_witness(h, 0)
        ok, diags = verify_witness(h, 0, g, plan)
        assert ok, diags
        assert set(plan.s_vertices).isdisjoint(h.labels)


class TestPlanText:
    def test_round_trip(self):
        for h, t in hosts():
            _, plan = construct_witness(h, t)
            assert plan_from_text(plan_to_text(plan)) == plan

    def test_missing_key_rejected(self):
        with pytest.raises(GraphError):
            plan_from_text("t=0\nD=140\n")

    def test_bad_scalar_rejected(self):
        h = fixture("double-edge.graph")
        _, plan = construct_witness(h, 0)
        text = plan_to_text(plan).replace("D=140", "D=x")
        with pytest.raises(GraphError):
            plan_from_text(text)
