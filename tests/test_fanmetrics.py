"""Fan and corefan metrics against brute-force oracles and known values."""

import hashlib
import itertools
import math
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
    construct_witness,
    corefan,
    corefan_bruteforce,
    degree_preserving_set,
    edges_above,
    fan_bound,
    fan_degree,
    fan_number,
    fan_pair_exceeds,
    forest_core_condition,
    full_multiplicity_criterion,
    greedy_full_bqueue,
    parse,
    t_core,
)
from fancore import fanmetrics
from fancore.fanmetrics import _failing_pairs
from helpers import (
    FIXTURES,
    all_simple_graphs_up_to,
    all_small_multigraphs,
    cycle_with_pendants_host,
    fixture,
    random_multigraph,
)
from oracles import (
    cfan_degree_oracle,
    corefan_oracle,
    fan_degree_oracle,
    fan_number_oracle,
    sub_assignments,
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
        g = fixture("double-edge.graph")
        j = full(g)
        assert fan_degree(j, "x", "y")[0] == 0
        with pytest.raises(GraphError):
            fan_pair_exceeds(j, "x", "y", -1)

    def test_edge_certificates_match_per_pair_test(self):
        # the per-vertex pass decides each pair from its anchor's total and
        # two largest terms; the padding cases are the ones that need both
        rng = random.Random(75)
        lone = tied = padded = 0
        for _ in range(500):
            g = random_multigraph(rng, rng.randint(2, 8), 10, 4)
            lab = g.labels
            pairs = [(x, y) for u, v, _ in g.classes() for x, y in ((u, v), (v, u))]
            for k in range(14):
                want = [(x, y, fan_pair_exceeds(g, x, y, k)[0]) for x, y in pairs]
                failing = [(lab[x], lab[y]) for x, y in _failing_pairs(g, range(len(lab)), k)]
                assert failing == [(x, y) for x, y, exceeds in want if not exceeds]
                for x, y, exceeds in want:
                    terms = {z: g.degree(z) + g.mult(x, z) for z in g.neighbours(x)}
                    if any(b > k for z, b in terms.items() if z != y):
                        continue  # y has positive company: no padding
                    top = sorted(terms.values())[-2:]
                    lone += len(top) == 1
                    tied += len(top) == 2 and top[0] == top[1]
                    padded += exceeds
        assert lone and tied and padded



def _per_pair_failures(g, members, k):
    """The failing pairs of J = g[members] by the definition: J built, each pair tested."""
    j = g.induced([g.labels[x] for x in members])
    return [(x, y) for u, v, _ in j.classes() for x, y in ((u, v), (v, u)) if not fan_pair_exceeds(j, x, y, k)[0]]


class TestCertificateKernel:
    """_failing_pairs, which reads J on its host in place, one anchor pass per vertex deciding all its pairs."""

    @staticmethod
    def check(g, members, levels):
        labels = g.labels
        for k in levels:
            got = [(labels[x], labels[y]) for x, y in _failing_pairs(g, members, k)]
            assert got == _per_pair_failures(g, members, k), (g.classes(), members, k)

    @staticmethod
    def levels(g, members):
        """0 up to two above the largest cap d_J(x) + d_J(y) - mult_J(x, y)."""
        j = g._induced(members)
        return range(max((j.deg[x] + j.deg[y] - m for x, y, m in j.index_classes), default=0) + 3)

    def test_random_masks_match_the_per_pair_definition(self):
        rng = random.Random(76)
        for _ in range(300):
            g = random_multigraph(rng, rng.randint(2, 9), 14, 4)
            members = {x for x in range(len(g.labels)) if rng.random() < 0.75}
            self.check(g, members, self.levels(g, members))
            everyone = range(len(g.labels))
            self.check(g, everyone, self.levels(g, everyone))

    def test_constructed_cases(self):
        # in J = g - {out, q}: x has one neighbour outside J and, at levels 2
        # to 8, exactly one positive contribution (a's); b (its neighbour q
        # is outside J) and p are anchors of degree 1, with no padding
        # neighbour for their one pair
        g = Multigraph(edges=[("x", "a", 2), ("x", "b", 1), ("x", "out", 2), ("a", "c1", 1), ("a", "c2", 1),
                              ("a", "c3", 1), ("a", "c4", 1), ("a", "p", 1), ("b", "q", 3)])
        members = {g.index_of(v) for v in g.labels if v not in ("out", "q")}
        j = g.induced([g.labels[x] for x in members])
        assert g.degree("x") > j.degree("x") and g.degree("b") > j.degree("b") == 1 == j.degree("p")
        one_positive = [k for k in range(12) if sum(j.degree(z) + j.mult("x", z) > k for z in j.neighbours("x")) == 1]
        assert one_positive == list(range(2, 9))
        exceed_at_x = [k for k in one_positive if all(fan_pair_exceeds(j, "x", y, k)[0] for y in j.neighbours("x"))]
        assert exceed_at_x == [2]  # every pair of x passes; at 3 and 4 only some fail
        assert ("p", "a") in [(g.labels[x], g.labels[y]) for x, y in _failing_pairs(g, members, 2)]
        self.check(g, members, self.levels(g, members))
        # every level is at least 0, so a negative one fails no pair, even
        # at b and p, whose lone neighbour leaves no admissible Z
        assert _failing_pairs(g, members, -1) == []

    @pytest.mark.parametrize("host,t", [("double-edge", 0), ("fig1-h", 0), ("multiforest-path", 4)])
    def test_witness_hosts_with_d_raised_and_lowered(self, host, t):
        g, plan = construct_witness(fixture(host + ".graph"), t)
        members = {g.index_of(v) for v in plan.k_vertices + plan.s_vertices}
        level = plan.D + t
        self.check(g, members, range(level - 3, level + 4))
        assert _failing_pairs(g, members, level) == []

    def test_one_anchor_pass_per_vertex(self, monkeypatch):
        # a star of 2,000 leaves at level 17: a leaf has no second neighbour
        # to pad its one Z, and the centre's terms are all 2, so every one of
        # the 4,000 ordered pairs fails, decided from one anchor pass per
        # vertex and no per-pair test
        leaves = 2000
        g = Multigraph(edges=[("c", f"l{i}", 1) for i in range(leaves)])
        calls = {"_fan_anchor": 0, "_fan_exceeds": 0}
        for name in calls:
            def counting(*args, name=name, test=getattr(fanmetrics, name)):
                calls[name] += 1
                return test(*args)
            monkeypatch.setattr(fanmetrics, name, counting)
        bad = _failing_pairs(g, range(leaves + 1), 17)
        assert bad == [p for i in range(1, leaves + 1) for p in ((0, i), (i, 0))]
        assert calls == {"_fan_anchor": leaves + 1, "_fan_exceeds": 0}

    def test_an_anchor_whose_least_term_sums_to_2_makes_no_per_pair_step(self, monkeypatch):
        # K3 at level 2: every term is 3, each slack 1 is above the cap 0,
        # and the worst sum at the least term is (3 - 2) + (3 - 2) = 2, above
        # 1, so each of the 3 anchors is passed on that one worst sum
        g = Multigraph(edges=[("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        sums, worst_sum = [], fanmetrics._worst_sum
        monkeypatch.setattr(fanmetrics, "_worst_sum", lambda *args: sums.append(args) or worst_sum(*args))
        assert _failing_pairs(g, range(3), 2) == []
        assert len(sums) == 3


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

    def test_fan_bound_answers_where_fan_number_refuses(self):
        # the fat triangle beside ten triple edges: 12 * 4^10 assignments,
        # past fan_number's default cap, which fan_bound does not share
        triples = [(f"a{i}", f"b{i}", 3) for i in range(10)]
        g = Multigraph(edges=list(fixture("fat-triangle-t0.graph").classes()) + triples)
        with pytest.raises(ResourceLimitError):
            fan_number(g)
        assert fan_bound(g) == fan_number(g, max_product=12 * 4**10).value == 4

    def test_fan_bound_searches_no_witness(self, monkeypatch):
        # fan_bound reads the peeled value alone: with the witness search
        # made to raise, it still returns max(Delta, fan) on every fixture
        # and every four-vertex graph of the family
        graphs = [fixture(p.name) for p in sorted(FIXTURES.glob("*.graph"))] + list(all_small_multigraphs())
        want = [max(g.max_degree(), fan_number(g).value) for g in graphs]

        def no_search(*args):
            raise AssertionError("fan_bound searched for a witness")

        monkeypatch.setattr(fanmetrics, "_max_min", no_search)
        assert [fan_bound(g) for g in graphs] == want


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
        # an equal host that numbers its vertices otherwise is another index space
        h = Multigraph(edges=[("a", "b", 2), ("b", "c", 1)])
        k = SubgraphSelection(h, [("a", "b", 2)])
        assert cfan_degree(Multigraph(h.labels, h.classes()), k, "b", "a")[0] == 1
        reordered = Multigraph(reversed(h.labels), h.classes())
        assert reordered == h
        with pytest.raises(GraphError, match="does not belong to the host"):
            cfan_degree(reordered, k, "b", "a")


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

    @pytest.mark.parametrize("text,value,floors", [
        ("x y 2", 1, [0, 1]),
        ("x y 3", 2, [1, 2]),
        ("a b 2\nb c 2\na c 2", 2, [0, 1]),
        (None, 0, []),
    ], ids=["double", "triple", "double-triangle", "edgeless"])
    def test_bruteforce_value_is_bisected_below_one_above_the_largest_multiplicity(
            self, text, value, floors, monkeypatch):
        # a cfan degree is at most its anchor's largest term, and a term at
        # most a multiplicity, so the value is bisected in [0, M + 1) for the
        # largest multiplicity M, each probe v a whole-space walk at the
        # fixed floor v - 1; with no class nothing is walked
        g = parse(text) if text else Multigraph(vertices=["a"])
        walked, walk = [], fanmetrics._max_min
        monkeypatch.setattr(fanmetrics, "_max_min", lambda *args: walked.append(args[4]) or walk(*args))
        assert corefan_bruteforce(g) == value
        assert walked == floors


def triangle_behind_a_matching(count):
    """A triple triangle whose classes come after those of a matching of count single edges."""
    return [(f"m{i}", f"n{i}", 1) for i in range(count)] + [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]


class TestLevelIsBisected:
    """A level costs O(log d) pair tests, not one per unit of the value it returns."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        test = getattr(fanmetrics, name)

        def counting(*args):
            calls.append(args[-1])
            return test(*args)

        monkeypatch.setattr(fanmetrics, name, counting)
        return calls

    def test_corefan_of_one_heavy_class(self, monkeypatch):
        levels = self.counted(monkeypatch, "_cfan_exceeds")
        report = corefan(parse("x y 1000000"))
        assert (report.value, report.pair, report.zset) == (999_999, ("x", "y"), {"y"})
        # the value bisected in 21 probes of at most two tests each, the core's
        # one candidate's two pairs, one test for the pair and 21 for its degree
        assert len(levels) <= 2 + 3 * 22
        assert min(levels) >= 0 and max(levels) < 2_000_000

    def test_fan_degree_of_a_heavy_triangle(self, monkeypatch):
        # the largest term of a is 3,000,000, so the degree v is the largest
        # in [0, 3,000,001) whose test at v - 1 holds: each probe tests one
        # below the midpoint, and every test below the degree holds
        levels = self.counted(monkeypatch, "_fan_exceeds")
        g = parse("a b 1000000\nb c 1000000\na c 1000000")
        assert fan_degree(g, "a", "b") == (3_000_000, {"b", "c"})
        assert levels == [
            1499999, 2249999, 2624999, 2812499, 2906249, 2953124, 2976562, 2988281, 2994140, 2997070, 2998535,
            2999267, 2999633, 2999816, 2999908, 2999954, 2999977, 2999988, 2999994, 2999997, 2999998, 2999999,
        ]

    @pytest.mark.parametrize("kind,edges,witness", [
        ("corefan", [(f"p{i}", f"p{i + 1}", 1) for i in range(20)], "first"),
        ("corefan", [("c", f"s{i}", 1) for i in range(20)], "first"),
        ("fan", [("c", f"s{i}", 1) for i in range(20)], "first"),
        ("corefan", triangle_behind_a_matching(17), "triangle"),
        ("fan", triangle_behind_a_matching(14), "triangle"),
    ], ids=["corefan-path", "corefan-star", "fan-star", "corefan-triangle", "fan-triangle"])
    def test_the_search_stops_at_the_first_maximiser(self, monkeypatch, kind, edges, witness):
        # about 2^20 candidates each: on the path and stars the first class
        # alone is the first maximiser, and the triangle, the last classes,
        # comes after 7 * 2^17 or 63 * 2^14 candidates that keep a matching
        # edge, outside the value's core. The value's probes, the core's few
        # candidates, the pair and its degree cost a few tests per class and
        # bisection step, not one per candidate
        g = Multigraph(edges=edges)
        levels = self.counted(monkeypatch, "_fan_exceeds" if kind == "fan" else "_cfan_exceeds")
        report = fan_number(g) if kind == "fan" else corefan(g)
        first = g.classes()[0][:2] + (1,)
        assert report.witness.classes() == ((first,) if witness == "first" else g.classes()[-3:])
        bits = max(g.deg[i] + g.deg[j] for i, j, _ in g.index_classes).bit_length()
        assert len(levels) <= 3 * g.class_count * bits

    def test_degrees_past_2_to_the_63(self):
        # a level is bisected over plain integers: a range of the length
        # d(x) + d(y) would not fit an index past sys.maxsize
        g = parse("a b 99999999999999999999")
        assert fan_degree(g, "a", "b") == (0, {"b"})
        assert cfan_degree(g, full(g), "a", "b") == (99999999999999999998, {"b"})
        assert corefan(g).value == 99999999999999999998

    def test_construct_refuses_a_heavy_class_after_few_pair_tests(self, monkeypatch):
        levels = self.counted(monkeypatch, "_cfan_exceeds")
        with pytest.raises(ResourceLimitError):
            construct_witness(parse("x y 1000000"), 5)
        assert len(levels) <= 2 + 5 * 22


class TestPinnedReports:
    def test_bytes_are_pinned(self):
        # one sha256 over the value, pair, certifying set and witness classes
        # of fan_number and corefan, and the corefan_bruteforce value, on every
        # four-vertex family member and 300 seeded 5-7-vertex multigraphs of
        # at most 2^12 candidates, recorded before the searches moved onto
        # the one-pass pair test
        def family():
            yield from all_small_multigraphs(4, 4, 3)
            rng = random.Random(1414)
            count = 0
            while count < 300:
                g = random_multigraph(rng, rng.randint(5, 7), 7, 3)
                if g.class_count and math.prod(m + 1 for _, _, m in g.index_classes) <= 1 << 12:
                    count += 1
                    yield g

        digest, graphs = hashlib.sha256(), 0
        for g in family():
            for r in (fan_number(g), corefan(g)):
                digest.update(f"{r.kind} {r.value} {r.pair} {sorted(r.zset)} {r.witness.classes()}\n".encode())
            digest.update(f"brute {corefan_bruteforce(g)}\n".encode())
            graphs += 1
        assert graphs == 2209
        assert digest.hexdigest() == "ac1043e00391a7de2a547d173c8188404458cddbe18517642e8c588852722e09"


def rules(g, kind):
    """(base, pair test, anchor rule) of the invariant on g's index space, as _report uses them.

    base is the empty subgraph's degree vector: zeros for fan, -d_H for the
    cfan deficits.
    """
    if kind == "fan":
        return [0] * len(g.labels), fanmetrics._fan_exceeds, fanmetrics._fan_failures
    return [-d for d in g.deg], fanmetrics._cfan_exceeds, fanmetrics._cfan_failures


def as_report(g, kind, value, kept):
    """(value, witness classes, pair, zset) of the classes kept on g; the trivial one for None.

    The pair is read on the witness by degree: its first ordered pair, (lo,
    hi) before (hi, lo) class by class, whose degree is the value.
    """
    if kept is None:
        return 0, (), None, frozenset()
    sel = SubgraphSelection._derived(g, kept)

    def degree(x, y):
        return fan_degree(sel, x, y) if kind == "fan" else cfan_degree(g, sel, x, y)

    pairs = [(g.labels[x], g.labels[y]) for i, j, _ in kept for x, y in ((i, j), (j, i))]
    pair, zset = next((p, d[1]) for p in pairs if (d := degree(*p))[0] == value)
    return value, sel.classes(), pair, zset


def exhaustive_report(g, kind):
    """(value, witness classes, pair, zset) of whole-space walks at fixed floors, with no peel.

    The floor rises by one from -1 while some candidate has every pair
    above it; the value is one above the last such floor, and the witness
    the first survivor at that floor.
    """
    base, exceeds, _ = rules(g, kind)
    v, kept = 0, None
    while (survivor := fanmetrics._max_min(base, g.index_classes, kind == "corefan", exceeds, v - 1)) is not None:
        v, kept = v + 1, survivor
    return as_report(g, kind, v - 1, kept)


def unskipped_report(g, kind):
    """The report of the first-hit walk over the whole value core from its first vector, and its side.

    The side is True where _report bisects the core's top class first: where
    the core's vector space, a product of 2 (corefan) or of m + 1 (fan) over
    its C classes, exceeds C².
    """
    (base, exceeds, failures), full_only = rules(g, kind), kind == "corefan"
    value, core = fanmetrics._value(g, base, failures)
    kept = fanmetrics._max_min(base, core, full_only, exceeds, value - 1) if core else None
    space = math.prod(2 if full_only else m + 1 for _, _, m in core)
    return as_report(g, kind, value, kept), len(core) ** 2 < space


def canonical(g):
    """The least relabelling of g's index classes over vertex permutations, with its permutation."""
    return min(
        (tuple(sorted((min(p[i], p[j]), max(p[i], p[j]), m) for i, j, m in g.index_classes)), p)
        for p in itertools.permutations(range(len(g.labels)))
    )


def oracle_cores(g, kind):
    """v -> the union of the subgraphs of g whose least pair degree is at least v, by oracle.

    The union is a dict {(i, j): largest multiplicity}, in g's index space.
    """
    lows = []
    for j in sub_assignments(g):
        pairs = [(x, y) for u, v, _ in j.classes() for x, y in ((u, v), (v, u))]
        low = min(fan_degree_oracle(j, x, y) if kind == "fan" else cfan_degree_oracle(g, j, x, y) for x, y in pairs)
        lows.append((low, j.index_classes))
    cores = {}
    for v in range(max(low for low, _ in lows) + 2):
        union = {}
        for low, classes in lows:
            if low >= v:
                for i, j, m in classes:
                    union[i, j] = max(m, union.get((i, j), 0))
        cores[v] = union
    return cores


# A fan host of 7,776 vectors whose first maximiser keeps v3 v4 at 2 of 3.
FAN_PARTIAL_HOST = "v0 v1 2\nv0 v2 2\nv0 v3 2\nv0 v4 2\nv1 v2 1\nv1 v4 1\nv2 v3 2\nv2 v4 1\nv3 v4 3"


def dense_reference_host(name):
    """Simple K6, a seeded 14-class multigraph on 7 vertices, or the fan host FAN_PARTIAL_HOST."""
    if name == "k6":
        return Multigraph(edges=[(u, v, 1) for u, v in itertools.combinations("abcdef", 2)])
    if name == "partial":
        return parse(FAN_PARTIAL_HOST)
    rng = random.Random(20)
    n = rng.randint(7, 8)
    pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), 14))
    return Multigraph([f"v{i}" for i in range(n)], [(f"v{i}", f"v{j}", rng.randint(1, 3)) for i, j in pairs])


class TestPeel:
    """The v-cores behind the value, and the first-hit search over the value's core."""

    @pytest.mark.parametrize("kind", ["fan", "corefan"])
    def test_cores_are_the_union_of_the_qualifying_subgraphs(self, kind):
        # every member of the four-vertex family; the oracle side is computed
        # once per isomorphism class and carried to each member by relabelling,
        # which both sides commute with
        by_form, members, proper = {}, 0, 0
        for g in all_small_multigraphs(4, 4, 3):
            if not g.class_count:
                continue
            form, perm = canonical(g)
            if form not in by_form:
                rep = Multigraph._derived(g.labels, form)
                by_form[form] = oracle_cores(rep, kind)
            cores = by_form[form]
            deg, (base, _, failures) = g.deg, rules(g, kind)
            top = max(deg[i] + deg[j] for i, j, _ in g.index_classes)
            for v in range(top + 1):
                core = fanmetrics._peel(list(g.index_classes), base, v - 1, failures)
                assert set(core) <= set(g.index_classes)  # each class at host multiplicity
                got = {tuple(sorted((perm[i], perm[j]))): m for i, j, m in core}
                assert got == cores.get(v, {}), (g.classes(), v)
                proper += 0 < len(core) < g.class_count
            members += 1
        assert members == 1908 and proper and len(by_form) < members

    def test_reports_match_the_exhaustive_search(self):
        # the whole-space search and the walk over the value's whole core
        # from its first vector both give the reported value, witness, pair
        # and zset, on both sides of the rule that picks the top-class start
        rng = random.Random(1515)
        graphs = late = sub_multiplicity = 0
        sides = set()
        while graphs < 2000:
            g = random_multigraph(rng, rng.randint(2, 8), 14, 3)
            if math.prod(m + 1 for _, _, m in g.index_classes) > 1 << 14:
                continue
            graphs += 1
            for kind, report in (("fan", fan_number(g)), ("corefan", corefan(g))):
                unskipped, top = unskipped_report(g, kind)
                got = (report.value, report.witness.classes(), report.pair, report.zset)
                assert got == exhaustive_report(g, kind) == unskipped, (kind, g.classes())
                sides.add((kind, top))
                late += len(report.witness.index_classes) > 1
                sub_multiplicity += kind == "fan" and any(
                    m < g.mult(u, v) for u, v, m in report.witness.classes())
        # a witness of two or more classes is not the first candidate, and
        # fan_number's witness is not always at host multiplicity
        assert late and sub_multiplicity
        assert sides == {(kind, top) for kind in ("fan", "corefan") for top in (False, True)}

    @pytest.mark.parametrize("kind,hosts,classes,cap", [
        ("corefan", 190, (10, 13), None),
        ("corefan", 10, (14, 16), None),
        ("fan", 100, (10, 12), 1 << 14),
    ], ids=["corefan-10-13", "corefan-14-16", "fan-10-12"])
    def test_dense_reports_match_the_unskipped_walk(self, kind, hosts, classes, cap):
        # dense hosts of 6-8 vertices and multiplicity at most 3, whose core
        # is most of the host and whose first maximiser comes late: the top
        # class is bisected and only its block is walked, with the same
        # report as the walk over the whole core (fan hosts are kept within
        # 2^14 candidates, as the unskipped walk is the slow side)
        rng = random.Random(1616)
        report_of = fan_number if kind == "fan" else corefan
        skipped = 0
        for _ in range(hosts):
            while True:
                n, k = rng.randint(6, 8), rng.randint(*classes)
                pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), min(k, n * (n - 1) // 2)))
                g = Multigraph._derived([f"v{i}" for i in range(n)], [(i, j, rng.randint(1, 3)) for i, j in pairs])
                if cap is None or math.prod(m + 1 for _, _, m in g.index_classes) <= cap:
                    break
            report = report_of(g)
            unskipped, top = unskipped_report(g, kind)
            assert (report.value, report.witness.classes(), report.pair, report.zset) == unskipped, g.classes()
            skipped += top and report.witness.index_classes[-1] != g.index_classes[-1]
        # the skip is exercised below the last class, not only at it
        assert skipped

    def test_k6_walks_the_top_class_block_only(self, monkeypatch):
        # simple K6: the first maximiser keeps classes 0-13 of 15, so the
        # whole-core walk makes 2^14 - 1 = 16,383 steps to it; bisecting its
        # top class, 13, starts the walk at vector 2^13 - 1 and reaches it
        # in 2^13 = 8,192 steps. The walk makes its steps in place, so they
        # are counted through the pair test: the 8,192 steps and the
        # winner's pairs make 8,349 tests, where a walk of the whole core
        # from its first vector makes 16,566. The peels make no pair test:
        # they decide through the anchor rule, in 22 anchor passes, and the
        # prefix bisection's last nonempty peel is the search box, not
        # peeled a second time
        g = Multigraph(edges=[(u, v, 1) for u, v in itertools.combinations("abcdef", 2)])
        calls = {"_cfan_exceeds": 0, "_cfan_failures": 0}
        for name in calls:
            def counting(*args, name=name, test=getattr(fanmetrics, name)):
                calls[name] += 1
                return test(*args)
            monkeypatch.setattr(fanmetrics, name, counting)
        report = corefan(g)
        assert (report.value, report.witness.classes()) == (1, g.classes()[:14])
        assert calls == {"_cfan_exceeds": 8349, "_cfan_failures": 22}

    def test_fan_walks_unit_steps_to_a_partial_class(self, monkeypatch):
        # the unit-step walk of fan_number over 7,776 vectors: its first
        # maximiser keeps v3 v4 at 2 of 3, so the walk raises classes one
        # instance at a time. The walk's steps, its survivor's pairs and
        # the search for the reported pair make 3,932 pair tests; the
        # value's and the prefix bisection's peels make 23 anchor passes
        g = parse(FAN_PARTIAL_HOST)
        calls = {"_fan_exceeds": 0, "_fan_failures": 0}
        for name in calls:
            def counting(*args, name=name, test=getattr(fanmetrics, name)):
                calls[name] += 1
                return test(*args)
            monkeypatch.setattr(fanmetrics, name, counting)
        report = fan_number(g)
        assert (report.value, report.pair, report.zset) == (8, ("v0", "v1"), frozenset({"v1", "v2", "v3", "v4"}))
        assert report.witness.classes() == g.classes()[:-1] + (("v3", "v4", 2),)
        assert calls == {"_fan_exceeds": 3932, "_fan_failures": 23}

    @pytest.mark.parametrize("kind,host", [
        ("corefan", "k6"),
        ("corefan", "seeded-14"),
        ("fan", "partial"),
    ])
    def test_dense_witnesses_match_the_public_degrees(self, kind, host):
        # an independent reference for the walk where it walks longest:
        # every candidate in colex order is built as a public
        # SubgraphSelection, its pairs read through fan_degree or
        # cfan_degree, and the first whose every ordered pair reaches the
        # reported value is the first maximiser. The witnesses keep 14 of
        # K6's 15 classes, 13 of the seeded host's 14 and all 9 classes of
        # the fan host, one below its top, thousands of candidates in
        g = dense_reference_host(host)
        report = fan_number(g) if kind == "fan" else corefan(g)
        classes = g.classes()

        def degree(sel, x, y):
            return (fan_degree(sel, x, y) if kind == "fan" else cfan_degree(g, sel, x, y))[0]

        for vec in colex_vectors([m for _, _, m in classes], kind == "corefan"):
            sel = SubgraphSelection(g, [(u, v, m) for (u, v, _), m in zip(classes, vec) if m])
            if all(degree(sel, x, y) >= report.value for u, v, _ in sel.classes() for x, y in ((u, v), (v, u))):
                break
        assert sel.classes() == report.witness.classes()
        assert degree(sel, *report.pair) == report.value

    @pytest.mark.parametrize("kind,edges,tests,passes,peels", [
        ("corefan", [("v0", "v1", 2), ("v0", "v2", 1), ("v0", "v3", 1), ("v1", "v3", 2), ("v2", "v3", 1)], 11, 14,
         [(5, 0), (5, 1), (3, 0), (4, 0)]),
        ("fan", [("a", "b", 1), ("a", "c", 1), ("b", "c", 2)], 14, 9, [(3, 2), (3, 3), (3, 4), (2, 3)]),
        ("fan", [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)], 13, 6, [(3, 1), (3, 2)]),
    ], ids=["corefan-prefix-peeled", "fan-above-c2", "fan-within-c2"])
    def test_pair_tests_of_a_report(self, kind, edges, tests, passes, peels, monkeypatch):
        # corefan-prefix-peeled: value 1 and the core is the host; the first
        # maximiser's top class is 3, and the prefix box of classes 0-3
        # loses v0v2 when peeled at the value less one, so the walk covers
        # only the 2^2 vectors of v0v1 and v0v3 below v1v3, where peeling at
        # a lower level would keep v0v2 and walk twice as many. The fan
        # triangles sit on both sides of the C² rule: (1 + 1)(1 + 1)(2 + 1)
        # = 12 vectors are above 3², so the top class is bisected, and the
        # simple triangle's 8 are within it, so its whole core is walked.
        # The walk counts pair tests, the peels anchor passes. peels lists
        # each peel's box length and level: the value's probes on the whole
        # host, then the prefix bisection's, which drops 2 and then 1 of the
        # corefan core's 5 classes, and 1 of the bisected triangle's 3; its
        # last nonempty prefix is the search box, peeled no second time
        g = Multigraph(edges=edges)
        rule = "_fan" if kind == "fan" else "_cfan"
        calls = {rule + "_exceeds": 0, rule + "_failures": 0}
        for name in calls:
            def counting(*args, name=name, test=getattr(fanmetrics, name)):
                calls[name] += 1
                return test(*args)
            monkeypatch.setattr(fanmetrics, name, counting)
        peeled, peel = [], fanmetrics._peel
        monkeypatch.setattr(fanmetrics, "_peel", lambda box, b, k, f: peeled.append((len(box), k)) or peel(box, b, k, f))
        report = fan_number(g) if kind == "fan" else corefan(g)
        if kind == "corefan":
            assert (report.value, report.witness.classes()) == (1, (edges[0], edges[2], edges[3]))
        else:
            assert (report.value, report.witness.classes()) == (2 + edges[2][2], g.classes())
        assert calls == {rule + "_exceeds": tests, rule + "_failures": passes}
        assert peeled == peels

    @pytest.mark.parametrize("report,value", [(corefan, 1), (fan_number, 3)], ids=["corefan", "fan"])
    def test_a_space_of_exactly_c2_walks_the_whole_core(self, report, value, monkeypatch):
        # C4 is the C² rule's boundary for both invariants: 4 classes and
        # 2^4 = (1 + 1)^4 = 16 = 4² vectors, so the whole core is walked
        # from its first vector in 23 pair tests; bisecting the top class
        # first would make 16
        g = Multigraph(edges=[("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 1)])
        calls = []
        for name in ("_fan_exceeds", "_cfan_exceeds"):
            def counting(*args, test=getattr(fanmetrics, name)):
                calls.append(args[-1])
                return test(*args)
            monkeypatch.setattr(fanmetrics, name, counting)
        r = report(g)
        assert (r.value, r.pair, r.zset, r.witness.classes()) == (value, ("a", "b"), frozenset("bd"), g.classes())
        assert len(calls) == 23

    def test_a_tail_peels_in_linear_work(self, monkeypatch):
        # a triangle with a path of L classes hanging from it, peeled for the
        # fan degree at level 0: only the leaf fails at first, and each
        # deletion makes the next tail vertex the leaf, back toward the
        # triangle, which survives. Every vertex is passed once at the start
        # and each tail vertex once more when its outer class goes: 2L + 5
        # anchor passes and 3L + 11 adjacency steps, where index-order
        # sweeps took one sweep per tail class
        passes, steps, rule = [], [], fanmetrics._fan_failures

        def counting(deg, adj, x, k):
            passes.append(x)
            steps.append(len(adj[x]))
            return rule(deg, adj, x, k)

        monkeypatch.setattr(fanmetrics, "_fan_failures", counting)
        for tail in (800, 3200):
            box = [(0, 1, 1), (0, 2, 1), (1, 2, 1)] + [(i, i + 1, 1) for i in range(2, tail + 2)]
            passes.clear()
            steps.clear()
            assert fanmetrics._peel(box, [0] * (tail + 3), 0, fanmetrics._fan_failures) == box[:3]
            assert (len(passes), sum(steps)) == (2 * tail + 5, 3 * tail + 11)

    @pytest.mark.parametrize("kind,edges,value,levels", [
        ("fan", list(itertools.combinations("abcd", 2)), 4, [1, 2, 3]),
        ("corefan", list(itertools.combinations("abcd", 2)), 1, [0]),
        ("fan", [], 0, []),
    ], ids=["k4-fan", "k4-corefan", "edgeless"])
    def test_the_value_is_bisected_below_one_above_the_largest_term(self, kind, edges, value, levels, monkeypatch):
        # K4's largest fan term is d(z) + 1 = 4 and its largest cfan term 1,
        # as the deficits are 0 on the host, so v* is bisected in [0, 5) and
        # [0, 2), each probe peeling at its level less one; with no class
        # there is nothing to peel
        g = Multigraph(["a", "b", "c", "d"], [(u, v, 1) for u, v in edges])
        base, _, failures = rules(g, kind)
        probed, peel = [], fanmetrics._peel
        monkeypatch.setattr(fanmetrics, "_peel", lambda box, b, k, f: probed.append(k) or peel(box, b, k, f))
        assert fanmetrics._value(g, base, failures)[0] == value
        assert probed == levels

    @pytest.mark.parametrize("report", [corefan, fan_number], ids=["corefan", "fan"])
    @pytest.mark.parametrize("host", ["path-value-0", "triangle-8-vectors"])
    def test_only_the_value_peels_at_value_0_or_within_the_c2_rule(self, host, report, monkeypatch):
        # a 12-class simple path has value 0, so every vector is a maximiser
        # and the first, class 0 alone, is the witness: its 2^12 vectors are
        # above the C² rule, yet no top class is bisected; a simple triangle's
        # 2^3 vectors are within the rule, so its whole core is walked
        if host == "path-value-0":
            g = Multigraph(edges=[(f"p{i}", f"p{i + 1}", 1) for i in range(12)])
            expected = (0, ("p0", "p1"), frozenset({"p1"}), (("p0", "p1", 1),))
        else:
            g = Multigraph(edges=[("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
            expected = (1 if report is corefan else 3, ("a", "b"), frozenset("bc"), g.classes())
        peeled, peel = [], fanmetrics._peel

        def recording(box, base, k, failures):
            peeled.append((list(box), list(base), k, failures))
            return peel(box, base, k, failures)

        monkeypatch.setattr(fanmetrics, "_peel", recording)
        r = report(g)
        by_report = peeled[:]
        peeled.clear()
        base, _, failures = rules(g, "fan" if report is fan_number else "corefan")
        fanmetrics._value(g, base, failures)
        assert peeled and by_report == peeled
        assert (r.value, r.pair, r.zset, r.witness.classes()) == expected
        assert r.witness.vertices() == g.labels

    def test_a_deletion_fails_classes_that_only_neighbour_it(self):
        # at level 7 only (3, 4) fails at first. Deleting it lowers d(3),
        # which the pair test of (0, 2) reads through 0's neighbour 3, so
        # (0, 2) fails next, though it has no endpoint at 3 or 4, while the
        # classes there, (0, 3) and (2, 3), still pass: a peel that rechecks
        # only the classes at the endpoints of a deleted class would keep
        # the first five classes, where the largest passing subgraph is empty
        box = [(0, 1, 3), (0, 2, 1), (0, 3, 3), (1, 2, 1), (2, 3, 3), (3, 4, 3)]
        g = Multigraph._derived([f"v{i}" for i in range(5)], box)
        rest = Multigraph._derived(g.labels, box[:5])

        def passes(j, i, k):
            return all(fanmetrics._fan_exceeds(j.deg, j.adj, x, y, 7) for x, y in ((i, k), (k, i)))

        assert [c for c in box if not passes(g, *c[:2])] == [(3, 4, 3)]
        assert passes(rest, 0, 3) and passes(rest, 2, 3) and not passes(rest, 0, 2)
        assert fanmetrics._peel(box, [0] * 5, 7, fanmetrics._fan_failures) == []
        assert oracle_cores(g, "fan").get(8, {}) == {}

    def test_a_search_that_finds_no_maximiser_raises(self, monkeypatch):
        # the value's core holds every maximiser; a value one too high has none
        peel = fanmetrics._peel
        monkeypatch.setattr(fanmetrics, "_peel", lambda box, base, k, failures: peel(box, base, k - 1, failures))
        with pytest.raises(RuntimeError, match="attains"):
            corefan(fixture("fig1-h.graph"))


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

    def test_criterion_lists_the_subgraphs_in_colex_order(self):
        # class 0 (a b) is the fastest digit, class 2 (b c) the slowest
        h = Multigraph(edges=[("a", "b", 2), ("a", "c", 2), ("b", "c", 2)])
        ab, ac, bc = ("a", "b", 2), ("a", "c", 2), ("b", "c", 2)
        _, per_k = full_multiplicity_criterion(h)
        assert [sel.classes() for sel, _ in per_k] == [
            (ab,), (ac,), (ab, ac), (bc,), (ab, bc), (ac, bc), (ab, ac, bc),
        ]

    def test_criterion_refuses_one_class_over_its_cap_before_building(self, monkeypatch):
        # 2^C - 1 selections for C classes: the cap is checked on the
        # classes before the first selection is derived
        cap = fanmetrics.CRITERION_CLASS_CAP
        h = Multigraph(edges=[(f"p{i}", f"p{i + 1}", 2) for i in range(cap + 1)])

        def derived(*args):
            raise AssertionError("a selection was built")

        monkeypatch.setattr(SubgraphSelection, "_derived", derived)
        with pytest.raises(ResourceLimitError, match=f"{cap + 1} parallel classes exceed the cap of {cap}"):
            full_multiplicity_criterion(h)

    def test_criterion_cap_is_the_module_constant(self, monkeypatch):
        # the cap is read at call time: lowered to 3, three classes give
        # their 7 selections and a fourth class is refused
        monkeypatch.setattr(fanmetrics, "CRITERION_CLASS_CAP", 3)
        path = [(f"p{i}", f"p{i + 1}", 2) for i in range(4)]
        _, per_k = full_multiplicity_criterion(Multigraph(edges=path[:3]))
        assert len(per_k) == 7
        with pytest.raises(ResourceLimitError, match="4 parallel classes exceed the cap of 3"):
            full_multiplicity_criterion(Multigraph(edges=path))

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

    def test_core_conditions_bound_fan_at_20_to_200_vertices(self):
        # the paper's theorem on a nonempty t-core: the multiforest or the
        # full-B-queue condition gives Fan(G) <= Delta + t, and so does
        # corefan(t-core) <= t, checked where the core has at most 20
        # classes. Of these 1,184 draws, 60 meet both conditions and 84
        # have corefan(t-core) <= t, the 60 among them
        rng = random.Random(2027)
        held = 0
        for _ in range(1184):
            n, t = rng.randint(20, 200), rng.randint(0, 3)
            g = random_multigraph(rng, n, rng.randint(n, 3 * n), t + 2)
            core = t_core(g, t)
            if not core.class_count:
                continue
            small = core.class_count <= 20
            if forest_core_condition(g, t)[0] or bqueue_core_condition(g, t)[0] or small and corefan(core).value <= t:
                held += 1
                assert fan_bound(g) <= g.max_degree() + t, (g.classes(), t)
        assert held == 84

    @pytest.mark.parametrize("n", [20, 50, 100, 199])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_bqueue_condition_bounds_fan_on_a_cycle_core(self, n, t):
        # the t-core is an n-cycle with a pendant, every class at t + 1: not
        # a multiforest, but it has a full B-queue, and Fan(G) = 3(t + 1)
        g, base = cycle_with_pendants_host(n, t)
        assert t_core(g, t) == base
        assert not forest_core_condition(g, t)[0] and bqueue_core_condition(g, t)[0]
        assert fan_bound(g) == 3 * (t + 1) <= g.max_degree() + t


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
