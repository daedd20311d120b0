"""Fan and corefan metrics against brute-force oracles and known values."""

import hashlib
import itertools
import math
import random
import sys
from functools import partial

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
        levels = self.counted(monkeypatch, "_fan_exceeds")
        g = parse("a b 1000000\nb c 1000000\na c 1000000")
        assert fan_degree(g, "a", "b") == (3_000_000, {"b", "c"})
        assert len(levels) <= 23

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


def pair_test(g, kind):
    """The invariant's pair test on g's index space, as _report uses it."""
    return fanmetrics._fan_exceeds if kind == "fan" else partial(fanmetrics._cfan_exceeds, g.deg)


def as_report(g, kind, best):
    """(value, witness classes, pair, zset) of a _max_min result on g; the trivial one for None."""
    if best is None:
        return 0, (), None, frozenset()
    value, kept, (x, y) = best
    sel = SubgraphSelection._derived(g, kept)
    x, y = g.labels[x], g.labels[y]
    zset = fan_degree(sel, x, y)[1] if kind == "fan" else cfan_degree(g, sel, x, y)[1]
    return value, sel.classes(), (x, y), zset


def exhaustive_report(g, kind):
    """(value, witness classes, pair, zset) of the running-floor search over the whole space."""
    best = fanmetrics._max_min(len(g.labels), g.index_classes, kind == "corefan", pair_test(g, kind))
    return as_report(g, kind, best)


def unskipped_report(g, kind):
    """The report of the first-hit walk over the whole value core from its first vector, and its side.

    The side is True where _report bisects the core's top class first: where
    the core's vector space, a product of 2 (corefan) or of m + 1 (fan) over
    its C classes, exceeds C².
    """
    exceeds, full_only = pair_test(g, kind), kind == "corefan"
    value, core = fanmetrics._value(g, exceeds)
    best = fanmetrics._max_min(len(g.labels), core, full_only, exceeds, value - 1) if core else None
    space = math.prod(2 if full_only else m + 1 for _, _, m in core)
    return as_report(g, kind, best), len(core) ** 2 < space


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
            n, deg = len(g.labels), g.deg
            exceeds = fanmetrics._fan_exceeds if kind == "fan" else partial(fanmetrics._cfan_exceeds, deg)
            top = max(deg[i] + deg[j] for i, j, _ in g.index_classes)
            for v in range(top + 1):
                core = fanmetrics._core(n, list(g.index_classes), exceeds, v - 1)
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
        # are counted through the pair test: the peels, the 8,192 steps and
        # the winner's pairs make 8,510 calls, where a walk of the whole core
        # from its first vector makes 16,727
        g = Multigraph(edges=[(u, v, 1) for u, v in itertools.combinations("abcdef", 2)])
        calls = 0
        test = fanmetrics._cfan_exceeds

        def counting_test(*args):
            nonlocal calls
            calls += 1
            return test(*args)

        monkeypatch.setattr(fanmetrics, "_cfan_exceeds", counting_test)
        report = corefan(g)
        assert (report.value, report.witness.classes()) == (1, g.classes()[:14])
        assert calls == 8510

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
        callers, peel = [], fanmetrics._core

        def recording(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return peel(*args)

        monkeypatch.setattr(fanmetrics, "_core", recording)
        r = report(g)
        assert callers and set(callers) == {"_value"}
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
        assert fanmetrics._core(5, box, fanmetrics._fan_exceeds, 7) == []
        assert oracle_cores(g, "fan").get(8, {}) == {}

    def test_a_search_that_finds_no_maximiser_raises(self, monkeypatch):
        # the value's core holds every maximiser; a value one too high has none
        core = fanmetrics._core
        monkeypatch.setattr(fanmetrics, "_core", lambda n, box, exceeds, k: core(n, box, exceeds, k - 1))
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
        # classes. Fan(G) is peeled, as these graphs are far above
        # fan_bound's cap. Of these 1,184 draws, 60 meet both conditions
        # and 84 have corefan(t-core) <= t, the 60 among them
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
                fan = max(g.max_degree(), fanmetrics._value(g, fanmetrics._fan_exceeds)[0])
                assert fan <= g.max_degree() + t, (g.classes(), t)
        assert held == 84

    @pytest.mark.parametrize("n", [20, 50, 100, 199])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_bqueue_condition_bounds_fan_on_a_cycle_core(self, n, t):
        # the t-core is an n-cycle with a pendant, every class at t + 1: not
        # a multiforest, but it has a full B-queue, and Fan(G) = 3(t + 1)
        g, base = cycle_with_pendants_host(n, t)
        assert t_core(g, t) == base
        assert not forest_core_condition(g, t)[0] and bqueue_core_condition(g, t)[0]
        fan = max(g.max_degree(), fanmetrics._value(g, fanmetrics._fan_exceeds)[0])
        assert fan == 3 * (t + 1) <= g.max_degree() + t


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
