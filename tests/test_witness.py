"""Witness construction: circulants, parameter choice, build, verification."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from fancore import (
    GraphError,
    Multigraph,
    ResourceLimitError,
    SubgraphSelection,
    choose_params,
    construct_witness,
    corefan,
    fan_bound,
    fan_colouring,
    fan_degree,
    fan_pair_exceeds,
    plan_from_text,
    plan_to_text,
    serialize,
    t_core,
    verify_colouring,
    verify_witness,
)
from fancore import fanmetrics, witness
from helpers import FIXTURES, counts, fixture, random_multigraph, record


def hosts():
    return [
        (fixture("double-edge.graph"), 0),
        (fixture("fig1-h.graph"), 0),
    ]


class TestCirculant:
    """witness._circulant_pairs, the circulant of _build's stage 2, on index pairs."""

    @staticmethod
    def pairs(n, k):
        """The pairs, checked: each listed once as (i, j) with i < j, ascending, and k-regular."""
        pairs = witness._circulant_pairs(n, k)
        assert pairs == sorted(set(pairs)) and all(i < j for i, j in pairs)
        degree = [0] * n
        for i, j in pairs:
            assert min(j - i, n - (j - i)) <= k // 2  # circular distance
            degree[i] += 1
            degree[j] += 1
        assert degree == [k] * n
        return pairs

    def test_c5_with_matched_quadruple(self):
        pairs = self.pairs(5, 2)
        assert pairs == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]  # (0, 4) from the wrap-around run
        assert {(0, 1), (2, 3)} <= set(pairs)

    def test_c4_perfect_matching(self):
        pairs = self.pairs(4, 2)
        assert pairs == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert {(0, 1), (2, 3)} <= set(pairs)

    def test_four_regular_on_six(self):
        pairs = self.pairs(6, 4)
        assert {(0, 4), (0, 5), (1, 5)} <= set(pairs)  # the wrap-around runs of 0 and 1
        assert {(0, 1), (2, 3), (4, 5)} <= set(pairs)
        for n, k in ((7, 2), (7, 6), (9, 4), (12, 10)):
            assert {(2 * i, 2 * i + 1) for i in range(n // 2)} <= set(self.pairs(n, k))


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
        # (a)-(e) with r and D least, and the facts choose_params's docstring
        # proves instead of checking them, on every fixture host and 200
        # seeded hosts, each at every t below its corefan
        def plans():
            rng = random.Random(18)
            graphs = [fixture(p.name) for p in sorted(FIXTURES.glob("*.graph"))]
            graphs += [random_multigraph(rng, rng.randint(2, 6), 8, 5) for _ in range(200)]
            for h in graphs:
                report = corefan(h)
                for t in range(report.value):
                    yield h, choose_params(h, t, report.witness.strip_isolated())

        count = 0
        for h, plan in plans():
            count += 1
            delta, r, D, t, reg_k = h.max_degree(), plan.r, plan.D, plan.t, plan.reg_k
            m, rest = divmod(D + t, r - 1)
            assert r >= delta + 6 + t > r - 2 and r % 2 == 0  # (a), (b)
            assert D >= 3 * r + t and D >= delta + 2 * r * r  # (c), (d)
            assert rest == 0 and m % 2 == 0 and m >= 4  # (e)
            assert D - 2 * (r - 1) < delta + 2 * r * r  # D is least
            assert sum(plan.a_r) % 2 == 0
            for idx, x in enumerate(plan.k_vertices):
                assert plan.a_r[idx] >= 0 and plan.a_rm1[idx] >= (r if idx else 0)
                assert plan.a_r[idx] * r + plan.a_rm1[idx] * (r - 1) == D - h.degree(x)
            s = plan.s_r + plan.s_rm1
            assert reg_k == m - 2 and reg_k % 2 == 0 and 2 <= reg_k < s
            assert plan.matching == tuple(zip(plan.s_r_vertices[::2], plan.s_r_vertices[1::2]))
            # stage-2 degree identities
            assert (r - 1) + (r - 1) * reg_k == D - (r - 1) + t
            assert r + (r - 1) * reg_k - 2 == D - r + t
        assert count == 16 + 325

    def test_rejects_empty_witness(self):
        h = fixture("double-edge.graph")
        with pytest.raises(GraphError):
            choose_params(h, 0, SubgraphSelection(h, [], vertices=[]))

    def test_rejects_witness_with_an_isolated_vertex(self):
        h = Multigraph(vertices=["iso"], edges=[("x", "y", 2)])
        with pytest.raises(GraphError, match="^witness subgraph must have no isolated vertices$"):
            choose_params(h, 0, SubgraphSelection(h, [("x", "y", 2)]))

    def test_rejects_witness_of_a_reordered_host(self):
        h = Multigraph(edges=[("a", "b", 2), ("b", "c", 1)])
        k_sel = corefan(h).witness.strip_isolated()
        reordered = Multigraph(reversed(h.labels), h.classes())
        assert reordered == h
        with pytest.raises(GraphError, match="selection does not belong to the host"):
            choose_params(reordered, 0, k_sel)

    def test_rejects_weak_witness(self):
        # a witness whose cfan degree is not above t certifies nothing; both
        # pairs of uv fail, and the message names the first in class order
        h = fixture("fig1-h.graph")
        weak = SubgraphSelection(h, [("u", "v", 1)], vertices=["u", "v"])
        with pytest.raises(GraphError) as exc:
            choose_params(h, 0, weak)
        assert str(exc.value) == "witness subgraph has cfan degree 0 <= t on ('u','v'); it certifies nothing"

    @pytest.mark.parametrize("entry", ["choose_params", "construct_witness"])
    @pytest.mark.parametrize("t", [-1, 1.0, "1", True, None], ids=repr)
    def test_bad_t_message(self, entry, t):
        h = fixture("double-edge.graph")
        args = (h, t, corefan(h).witness.strip_isolated())
        with pytest.raises(GraphError) as exc:
            choose_params(*args) if entry == "choose_params" else construct_witness(*args[:2])
        assert str(exc.value) == f"t must be a nonnegative integer, got {t!r}"


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

    def test_a_cap_that_keeps_no_diagnostic_still_fails(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        broken = Multigraph(g.labels, g.classes()[1:])
        ok, diags = verify_witness(h, 0, broken, plan, max_diagnostics=1)
        assert not ok and len(diags) == 1
        for cap in (0, -1, -5):
            assert verify_witness(h, 0, broken, plan, max_diagnostics=cap) == (False, [])
        assert verify_witness(h, 0, g, plan, max_diagnostics=0) == (True, [])

    @pytest.mark.parametrize("cap", [2**63, 10**30], ids=["2^63", "10^30"])
    def test_a_cap_past_sys_maxsize_keeps_every_diagnostic(self, cap):
        # islice refuses a stop past sys.maxsize; this witness has 41 messages, one past the default cap
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        broken = Multigraph(g.labels, g.classes()[1:])
        full = verify_witness(h, 0, broken, plan, max_diagnostics=1000)[1]
        assert verify_witness(h, 0, broken, plan, max_diagnostics=cap) == (False, full) and len(full) == 41

    def test_verification_stops_at_the_cap(self, monkeypatch):
        # the broken degree is the first problem found: at cap 0 it settles
        # the verdict, and neither the t-core nor the certificates are read
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        broken = Multigraph(g.labels, g.classes()[1:])
        calls = record(monkeypatch, witness, "_failing_pairs", "t_core")
        assert verify_witness(h, 0, broken, plan, max_diagnostics=0) == (False, [])
        assert counts(calls) == {"_failing_pairs": 0, "t_core": 0}

    @pytest.mark.parametrize("cap", [0, 1, 40])
    def test_a_negative_t_raises_at_every_cap(self, cap):
        # raised before the broken degree, the first problem, is found
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        broken = Multigraph(g.labels, g.classes()[1:])
        for graph in (g, broken):
            with pytest.raises(GraphError, match="t must be a nonnegative integer, got -1"):
                verify_witness(h, -1, graph, plan, max_diagnostics=cap)

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

    def test_a_degree_set_mismatch_names_at_most_three_vertices_each_way(self):
        # the c5/t0 witness keeps its five host vertices at degree D = 140,
        # as does the double-edge/t0 one its two: each checked against the
        # other's host, three of the five are named, extra or missing
        de, c5 = fixture("double-edge.graph"), fixture("c5.graph")
        (g_de, plan_de), (g_c5, plan_c5) = construct_witness(de, 0), construct_witness(c5, 0)
        assert verify_witness(de, 0, g_c5, plan_c5)[1][0] == (
            "degree: degree-D vertex set mismatch (extra=['x0', 'x1', 'x2'], missing=['x', 'y'])")
        assert verify_witness(c5, 0, g_de, plan_de)[1][0] == (
            "degree: degree-D vertex set mismatch (extra=['x', 'y'], missing=['x0', 'x1', 'x2'])")

    def test_a_vertexless_graph_reads_max_degree_zero(self):
        # the maximum over no degree is 0, and the message says so
        h = fixture("double-edge.graph")
        _, plan = construct_witness(h, 0)
        ok, diags = verify_witness(h, 0, Multigraph(), plan)
        assert not ok and diags[0] == "degree: max degree is 0, expected D=140"

    def test_negative_level_plan_is_diagnosed_not_crashed(self):
        # D + t below 0 fails the degree checks; every edge still clears it
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        text = plan_to_text(plan).replace(f"D={plan.D}", "D=-5")
        ok, diags = verify_witness(h, 0, g, plan_from_text(text))
        assert not ok
        assert any(d.startswith("degree") for d in diags)
        assert not any(d.startswith("edge-certificate") for d in diags)

    @pytest.mark.parametrize("raise_d", [1, 2, 3])
    def test_raised_d_gets_the_edge_certificate_diagnostics(self, raise_d):
        # at D + raise_d, 40, 50 and 662 of the 762 ordered pairs of J fail
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        raised = plan_from_text(plan_to_text(plan).replace(f"D={plan.D}", f"D={plan.D + raise_d}"))
        level = raised.D + raised.t
        j = g.induced(tuple(plan.k_vertices) + plan.s_vertices)
        reference = [
            f"edge-certificate: fan degree of ({x},{y}) is not above {level}"
            for u, v, _ in j.classes()
            for x, y in ((u, v), (v, u))
            if not fan_pair_exceeds(j, x, y, level)[0]
        ]
        assert reference
        ok, full = verify_witness(h, 0, g, raised, max_diagnostics=10**6)
        assert not ok
        head = [d for d in full if not d.startswith("edge-certificate")]
        assert head and full == head + reference
        for cap in (40, len(head) + 1, len(head) + 7, len(full) - 1, len(full)):
            assert verify_witness(h, 0, g, raised, max_diagnostics=cap) == (False, full[:cap])
        assert verify_witness(h, 0, g, raised)[1] == full[:40]

    @pytest.mark.parametrize("host,t", [("double-edge", 0), ("fig1-h", 0), ("multiforest-path", 4)])
    @pytest.mark.parametrize("shift", [-2, -1, 1, 2])
    def test_shifted_d_certificate_diagnostics_follow_the_definition(self, host, t, shift):
        h = fixture(host + ".graph")
        g, plan = construct_witness(h, t)
        shifted = plan_from_text(plan_to_text(plan).replace(f"D={plan.D}", f"D={plan.D + shift}"))
        level = shifted.D + t
        j = g.induced(tuple(plan.k_vertices) + plan.s_vertices)
        reference = [
            f"edge-certificate: fan degree of ({x},{y}) is not above {level}"
            for u, v, _ in j.classes()
            for x, y in ((u, v), (v, u))
            if not fan_pair_exceeds(j, x, y, level)[0]
        ]
        assert bool(reference) == (shift > 0)
        ok, full = verify_witness(h, t, g, shifted, max_diagnostics=10**6)
        assert not ok
        assert full == [d for d in full if not d.startswith("edge-certificate")] + reference

    @pytest.mark.parametrize("old,new,expected", [
        ("t=0\nD=", "t=7\nD=", ["plan: t=7 is not the t=0 checked"]),
        ("reg_k=18", "reg_k=4", ["plan: reg_k=4 is not (D+t)/(r-1) - 2"]),
        ("a_r=5 5", "a_r=999 5", [
            "plan: x has 5 classes of multiplicity r into S_r and 14 of multiplicity r-1 into S_r-1, "
            "expected a_r=999 and a_rm1=14",
            "plan: s_r has 10 vertices, expected sum(a_r)=1004",
        ]),
        ("a_rm1=14 14", "a_rm1=14 13", [
            "plan: y has 5 classes of multiplicity r into S_r and 14 of multiplicity r-1 into S_r-1, "
            "expected a_r=5 and a_rm1=13",
            "plan: s_rm1 has 28 vertices, expected sum(a_rm1)=27",
        ]),
        ("matching=sr0 sr1 sr2 sr3", "matching=sr0 sr2 sr1 sr3", [
            "plan: matching pair sr0 sr2 has multiplicity 7, expected r-3=5",
            "plan: matching pair sr1 sr3 has multiplicity 7, expected r-3=5",
        ]),
        ("matching=sr0 sr1", "matching=sr0 sq0", ["plan: matching pair sr0 sq0 has multiplicity 0, expected r-3=5"]),
    ], ids=["t", "reg_k", "a_r", "a_rm1", "matching", "matching-without-a-class"])
    def test_plan_keys_that_contradict_the_graph_fail(self, old, new, expected):
        # the double-edge/t0 witness: D = 140, r = 8, reg_k = 18, K = {x, y}
        # with a_r = (5, 5) and a_rm1 = (14, 14), matching sr0-sr1, sr2-sr3, ...
        # sr0 and sq0 share no class
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        text = plan_to_text(plan)
        assert old in text
        assert verify_witness(h, 0, g, plan_from_text(text.replace(old, new))) == (False, expected)

    def test_a_split_counts_only_classes_of_its_multiplicity_into_its_set(self):
        # sr9 and sq27 trade lists, so J keeps its vertices: y's class of
        # multiplicity r into sr9 and its class of multiplicity r - 1 into
        # sq27 each leave their set, and y is one short on both counts
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        assert (plan.s_r_vertices[-1], plan.s_rm1_vertices[-1]) == ("sr9", "sq27")
        swapped = dataclasses.replace(plan, s_r_vertices=plan.s_r_vertices[:-1] + ("sq27",),
                                      s_rm1_vertices=plan.s_rm1_vertices[:-1] + ("sr9",))
        assert verify_witness(h, 0, g, swapped) == (False, [
            "s-degrees: sr9 has degree 132, expected 133",
            "s-degrees: sq27 has degree 133, expected 132",
            "plan: y has 4 classes of multiplicity r into S_r and 13 of multiplicity r-1 into S_r-1, "
            "expected a_r=5 and a_rm1=14",
        ])

    def test_plan_key_checks_stop_at_the_cap(self):
        # both K vertices' splits and all five matching pairs contradict the
        # graph, and S_r has 10 vertices for a_r = (4, 4): eight diagnostics,
        # and each loop stops when the cap is full
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        text = plan_to_text(plan).replace("a_r=5 5", "a_r=4 4")
        text = text.replace("matching=sr0 sr1 sr2 sr3 sr4 sr5 sr6 sr7 sr8 sr9", "matching=sr1 sr2 sr3 sr4 sr5 sr6 sr7 sr8 sr9 sr0")
        corrupt = plan_from_text(text)
        ok, full = verify_witness(h, 0, g, corrupt, max_diagnostics=10**6)
        assert not ok and len(full) == 8
        assert [d.split()[1] for d in full] == ["x", "y"] + ["matching"] * 5 + ["s_r"]
        for cap in (1, 2, 3):
            assert verify_witness(h, 0, g, corrupt, max_diagnostics=cap) == (False, full[:cap])

    def test_a_library_plan_needs_one_split_entry_per_k_vertex(self):
        # a shorter a_r would let zip drop K vertex y, whose split then goes
        # unchecked; the sidecar reader and the constructor share the check
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        with pytest.raises(GraphError, match="plan a_r has 3 entries for 2 k_vertices"):
            dataclasses.replace(plan, a_r=plan.a_r + (5,), a_rm1=plan.a_rm1 + (14,))
        with pytest.raises(GraphError, match="plan a_r has 1 entries for 2 k_vertices"):
            dataclasses.replace(plan, a_r=plan.a_r[:1])

    def test_a_plan_vertex_listed_twice_fails(self):
        h = fixture("double-edge.graph")
        g, plan = construct_witness(h, 0)
        first = plan.matching[0]
        repeated = dataclasses.replace(plan, matching=(first,) + plan.matching)
        assert verify_witness(h, 0, g, repeated) == (
            False, ["plan: vertices ['sr0', 'sr1'] are listed more than once in the matching"])
        doubled = dataclasses.replace(plan, s_r_vertices=plan.s_r_vertices + plan.s_r_vertices[:1])
        assert verify_witness(h, 0, g, doubled) == (False, [
            "plan: vertices ['sr0'] are listed more than once in k_vertices, s_r and s_rm1",
            "plan: s_r has 11 vertices, expected sum(a_r)=10",
        ])

    def test_foreign_labels_are_kept_fresh(self):
        h = Multigraph(edges=[("sr0", "sq0", 2)])  # clash with generated names
        g, plan = construct_witness(h, 0)
        ok, diags = verify_witness(h, 0, g, plan)
        assert ok, diags
        assert set(plan.s_vertices).isdisjoint(h.labels)


# sha256 of serialize(g) and of plan_to_text(plan) for every fixture host and
# every t below its corefan, recorded before construction moved to index space
CONSTRUCT_PINS = [
    ("c3.graph", 0, "a6580683fb831743788be28ae6e7f00617b89d574fdff3294c4259d8996a3d57", "052a48e5af4bedbbece294a656cf35c84cb2cd2cd27d6a07373e28b5b8b2aa39"),
    ("c5.graph", 0, "ecc50fccd28f1da2af77b9f38c2bab65b5cd8ed238b2e252471ecf65f351d282", "3aa6c832779c20e8b0b6dd75a7737d2a4600734d9886f8f7c985f844cf6f085f"),
    ("double-edge.graph", 0, "184581944bf70783b09e5951c31bf5975840407b22205b5154637ca5a160ace3", "f763088de9474a2898fa9c6be7005d95210c7139f43b4674129371cad203ea1b"),
    ("fat-triangle-t0.graph", 0, "96fe918191e330b8990d716493ff3f5c246f3afeb318b9c10397135e67e247a0", "c8fd1f831002ec6daa842c9404f4a23ca707cdfa745aa6ff43e153ef8e1724a4"),
    ("fat-triangle-t1.graph", 0, "59b28ad7d00f317a940bc1df1c845dc3e3ccb7186b1824d06424ec778cf8fba3", "463bd7d18aaef94df66bf61fc735d54f6fab446acf04e0d66d270d3e91ad42b1"),
    ("fat-triangle-t1.graph", 1, "dfbea465e120253fab686fd01e83554fb9c45fa41f2ddf4fc171a7d2f227c2ae", "cb294e4eee24d3158c50a80fbd66408f9eade87ec9ed3ac0b6b9ad0d665766cc"),
    ("fat-triangle-t2.graph", 0, "28be27f77b1d015b7b3c925f27ffca3f7f44a4dd54f7053e26b3171083a483db", "32bb4d1802cbe5d1b647b02a2d319953202a1671c6c2f8cd1845271fab515e7a"),
    ("fat-triangle-t2.graph", 1, "bf4e6f0bb0df760eaa5004d07b38d6fcca07fe8a3c97f98affb2b7a8813839a0", "eade6b3131f41e850d24398e017b71689bdb41b3a9831863c94bb46ddeb1b6f1"),
    ("fat-triangle-t2.graph", 2, "3cf616f6e82b54d73eb6e7cb57a02c08ffad3e54bea8118cc63918b04b9f6b05", "c520fea555fb27ada66c1ca0669de7c331d1091b0351c58ecb37d84546199917"),
    ("fig1-h.graph", 0, "305d9e8b371391d6235ee0d3f9bf49cd687f4b80c85bee01037cb63261f79784", "e6f0eb7f1da4187f1b4b488275da8296246f184236994151044ffbb2a6625986"),
    ("fig1-h1.graph", 0, "2e0e55610a8136e2b3a5a198332107006f004851f11718655e3d203a40547bd6", "53c261a84fd7854b07328bbc05e466e1ee975ec2ee4f68dfe06459be2dbc3fc5"),
    ("multiforest-path.graph", 0, "a4a8e3c7d2820bbf4e37260e28fe9d906b013986f8d839416fabc9cca74ddff5", "0ef709556e61515eaf2a986e5bede574a6870bff4d0aabd5e02fa585fed0d31d"),
    ("multiforest-path.graph", 1, "b024a2562a1a4b78208902cc7386422bfd509943242d002602da2f4d22260135", "c0d3f0b1f33d8d618ee6f059dfbd6d7c210477c3dad5a420ed2ba92d91cf2bf3"),
    ("multiforest-path.graph", 2, "9fd35d4b56fe65af92fb14c75aec47cd4d8a42b6a9dcfe8957a11ff93983c891", "ed684ffca9989ffc667411bbfe1b42461ff2d111c3889100b61d8cb9a8a0a259"),
    ("multiforest-path.graph", 3, "e8b140d3e3b7804d16739345b5aba22624e5ac8454e2637d339701a631b67afc", "f02a729d212006578fb83d5bc643b5bb94d8b8911aaa029d8b1345b08cbb381b"),
    ("multiforest-path.graph", 4, "e0643f2186fb8663406a0577df9ea52343f1ffb73ae9a671abfff0b5521cb39c", "8322a004393d3d09628ca4daf0c72dbbbf6e03410e608aeae538f237a765e773"),
]


def test_construct_pins_cover_every_fixture_host():
    hosts = {p.name: corefan(fixture(p.name)).value for p in FIXTURES.glob("*.graph")}
    want = sorted((name, t) for name, value in hosts.items() for t in range(value))
    assert sorted((name, t) for name, t, _, _ in CONSTRUCT_PINS) == want


@pytest.mark.parametrize("name,t,graph_digest,plan_digest", CONSTRUCT_PINS)
def test_construct_bytes_are_pinned(name, t, graph_digest, plan_digest):
    g, plan = construct_witness(fixture(name), t)
    assert hashlib.sha256(serialize(g).encode()).hexdigest() == graph_digest
    assert hashlib.sha256(plan_to_text(plan).encode()).hexdigest() == plan_digest


# Fan(G) of the witness built for each pinned (host, t), measured. Delta(G)
# is D on every pair. The construction guarantees only Fan(G) > D + t, and
# Fan(G) - (D + t) is 1 on twelve pairs but 2 on fat-triangle-t2 at t = 0
# and multiforest-path at t = 1 and 2, and 3 on multiforest-path at t = 0.
WITNESS_FAN = {
    ("c3.graph", 0): 141,
    ("c5.graph", 0): 141,
    ("double-edge.graph", 0): 141,
    ("fat-triangle-t0.graph", 0): 217,
    ("fat-triangle-t1.graph", 0): 309,
    ("fat-triangle-t1.graph", 1): 309,
    ("fat-triangle-t2.graph", 0): 418,
    ("fat-triangle-t2.graph", 1): 417,
    ("fat-triangle-t2.graph", 2): 541,
    ("fig1-h.graph", 0): 217,
    ("fig1-h1.graph", 0): 309,
    ("multiforest-path.graph", 0): 419,
    ("multiforest-path.graph", 1): 542,
    ("multiforest-path.graph", 2): 542,
    ("multiforest-path.graph", 3): 681,
    ("multiforest-path.graph", 4): 681,
}


@pytest.mark.parametrize("name,t", [(name, t) for name, t, _, _ in CONSTRUCT_PINS])
def test_witness_fan_is_pinned_from_both_sides(name, t):
    g, plan = construct_witness(fixture(name), t)
    v = WITNESS_FAN[name, t]
    base, classes = [0] * len(g.labels), list(g.index_classes)
    assert g.max_degree() == plan.D and plan.D + t < v
    # some subgraph has every pair degree at least v, and none has all above v
    assert fanmetrics._peel(classes, base, v - 1, fanmetrics._fan_failures)
    assert not fanmetrics._peel(classes, base, v, fanmetrics._fan_failures)
    assert fan_bound(g) == v


def test_witness_fan_sits_between_the_two_bounds():
    # the construction's lower bound Delta + t < Fan, and the paper's upper
    # bound Fan <= Delta + t*, t* the least t' >= t whose t'-core has corefan
    # at most t', on the first 100 witnesses of small random hosts. No closed
    # form is pinned: t* - (Fan - Delta) was 0 on 53, 1 on 44 and 2 on 3
    rng = random.Random(2026)
    cases = []
    while len(cases) < 100:
        h = random_multigraph(rng, rng.randint(2, 6), rng.randint(1, 8), rng.randint(1, 5))
        for t in range(corefan(h).value):
            try:
                cases.append((construct_witness(h, t)[0], t))
            except ResourceLimitError:
                pass
    for g, t in cases[:100]:
        delta = g.max_degree()
        fan = fan_bound(g)
        t_star = next(s for s in itertools.count(t) if corefan(t_core(g, s)).value <= s)
        assert delta + t < fan <= delta + t_star, (g.classes(), t)


# chi'(G) = Delta(G) = D on every fixture witness: the fan engine colours
# each with D colours, and all 16 were measured to pass (4.4 s of colouring
# on 2 vCPUs). This test colours the 11 of at most 19,354 edge instances and
# multiforest-path at t = 4 (27,536, the witness whose colour op the
# benchmark leaves out), about 2.1 s. The other four are left out for their
# time, not their outcome.
CHI_SLOW = {("fat-triangle-t2.graph", 2), ("multiforest-path.graph", 1),
            ("multiforest-path.graph", 2), ("multiforest-path.graph", 3)}


@pytest.mark.parametrize("name,t", [(name, t) for name, t, _, _ in CONSTRUCT_PINS if (name, t) not in CHI_SLOW])
def test_witness_is_coloured_with_max_degree_colours(name, t):
    g, plan = construct_witness(fixture(name), t)
    colouring = fan_colouring(g, plan.D)
    assert colouring is not None and colouring.k == g.max_degree() == plan.D
    assert verify_colouring(colouring)


@pytest.mark.parametrize("name,t", [(name, t) for name, t, _, _ in CONSTRUCT_PINS])
def test_class_cap_counts_the_built_classes(name, t, monkeypatch):
    # the count choose_params checks against the cap is the class count of
    # the graph _build makes: it builds at that cap and is refused one below
    h = fixture(name)
    g, _ = construct_witness(h, t)
    monkeypatch.setattr(witness, "WITNESS_CLASS_CAP", g.class_count)
    assert construct_witness(h, t)[0] == g
    monkeypatch.setattr(witness, "WITNESS_CLASS_CAP", g.class_count - 1)
    with pytest.raises(ResourceLimitError, match=f"capped at {g.class_count - 1} classes, .* makes {g.class_count}$"):
        construct_witness(h, t)


class TestPlanText:
    def test_round_trip(self):
        for h, t in hosts():
            _, plan = construct_witness(h, t)
            assert plan_from_text(plan_to_text(plan)) == plan

    def test_only_cr_and_lf_end_a_line(self):
        # \x1c is whitespace inside a line, as in the graph format, although
        # str.splitlines breaks at it
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        text = plan_to_text(plan)
        assert "k_vertices=x y\n" in text
        assert plan_from_text(text.replace("k_vertices=x y\n", "k_vertices=x\x1cy\r\n")) == plan

    def test_missing_key_rejected(self):
        with pytest.raises(GraphError):
            plan_from_text("t=0\nD=140\n")

    def test_bad_scalar_rejected(self):
        h = fixture("double-edge.graph")
        _, plan = construct_witness(h, 0)
        text = plan_to_text(plan).replace("D=140", "D=x")
        with pytest.raises(GraphError):
            plan_from_text(text)

    def test_duplicate_key_rejected(self):
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        with pytest.raises(GraphError, match="plan line 11: duplicate key 'D'"):
            plan_from_text(plan_to_text(plan) + "D=1\n")

    def test_unknown_key_rejected(self):
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        text = plan_to_text(plan).replace("reg_k=", "# a comment\nregk=1\nreg_k=")
        with pytest.raises(GraphError, match="plan line 5: unknown key 'regk'"):
            plan_from_text(text)

    @pytest.mark.parametrize("key", ["a_r", "a_rm1"])
    def test_split_per_k_vertex_required(self, key):
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        lines = [
            f"{key}=5 5 5" if line.startswith(f"{key}=") else line
            for line in plan_to_text(plan).splitlines()
        ]
        with pytest.raises(GraphError, match=f"plan {key} has 3 entries for 2 k_vertices"):
            plan_from_text("\n".join(lines))

    @pytest.mark.parametrize("old,new,message", [
        ("r=8\n", "r 8\n", "plan line 3: expected key=value, got 'r 8'"),
        ("a_r=5 5\n", "a_r=5 x\n", "plan has a non-integer split: invalid literal for int() with base 10: 'x'"),
        ("matching=sr0", "matching=sq0 sr0", "plan matching must list an even number of labels"),
    ])
    def test_malformed_sidecar_message(self, old, new, message):
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        text = plan_to_text(plan)
        assert text.count(old) == 1
        with pytest.raises(GraphError) as exc:
            plan_from_text(text.replace(old, new))
        assert str(exc.value) == message

    @pytest.mark.parametrize("key,value", [("D", "x"), ("D", "x" * 300), ("D", "1 2"), ("t", ""), ("r", "--8")])
    def test_non_integer_message_is_ints(self, key, value):
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        old = f"{key}={getattr(plan, key)}\n"
        with pytest.raises(ValueError) as ref:
            int(value)
        with pytest.raises(GraphError) as exc:
            plan_from_text(plan_to_text(plan).replace(old, f"{key}={value}\n"))
        assert str(exc.value) == f"plan has a non-integer scalar: {ref.value}"

    @pytest.mark.parametrize("old,new,kind,token", [
        ("D=140\n", "D=\u0661\u0664\u0660\n", "scalar", "\u0661\u0664\u0660"),
        ("t=0\n", "t=+0\n", "scalar", "+0"),
        ("r=8\n", "r=0_8\n", "scalar", "0_8"),
        ("a_r=5 5\n", "a_r=5 \u0665\n", "split", "\u0665"),
        ("a_rm1=14 14\n", "a_rm1=+14 14\n", "split", "+14"),
    ])
    def test_integers_follow_the_graph_format_grammar(self, old, new, kind, token):
        # ASCII digits with an optional leading '-', like a multiplicity;
        # int() alone would read each of these
        _, plan = construct_witness(fixture("double-edge.graph"), 0)
        with pytest.raises(GraphError) as exc:
            plan_from_text(plan_to_text(plan).replace(old, new))
        assert str(exc.value) == f"plan has a non-integer {kind}: invalid literal for int() with base 10: {token!r}"
