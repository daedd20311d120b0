"""Edge-colouring verification, the exact solver, and the fan engine."""

import hashlib
import random

import pytest

from fancore import (
    EdgeColouring,
    GraphError,
    Multigraph,
    ResourceLimitError,
    bqueue_core_condition,
    chromatic_index_exact,
    construct_witness,
    fan_bound,
    fan_colouring,
    forest_core_condition,
    parse,
    serialize,
    verify_colouring,
)
from fancore import colouring
from helpers import FIXTURES, all_small_multigraphs, counts, fixture, path_graph, random_multigraph, record, traced


@pytest.fixture
def engine_calls(monkeypatch):
    """The calls of the fan engine's passes, fan attempts and perturbations (helpers.record)."""
    return record(monkeypatch, colouring, "_run_pass", "_fan_attempt", "_perturb")


def p3():
    return path_graph(["a", "b", "c"])


class TestVerify:
    def test_proper_path(self):
        c = EdgeColouring(p3(), 2, {("a", "b", 0): 1, ("b", "c", 0): 2})
        assert verify_colouring(c)

    def test_improper_path(self):
        c = EdgeColouring(p3(), 2, {("a", "b", 0): 1, ("b", "c", 0): 1})
        assert not verify_colouring(c)

    def test_double_edge(self):
        g = fixture("double-edge.graph")
        assert verify_colouring(EdgeColouring(g, 2, {("x", "y", 0): 1, ("x", "y", 1): 2}))
        assert not verify_colouring(EdgeColouring(g, 2, {("x", "y", 0): 2, ("x", "y", 1): 2}))

    def test_partial_assignment_fails(self):
        c = EdgeColouring(p3(), 2, {("a", "b", 0): 1})
        assert not verify_colouring(c)

    def test_colour_out_of_range_fails(self):
        c = EdgeColouring(p3(), 1, {("a", "b", 0): 1, ("b", "c", 0): 2})
        assert not verify_colouring(c)

    @pytest.mark.parametrize("bad", ["1", None, True, 1.0])
    def test_colour_that_is_not_an_int_fails(self, bad):
        # neither a str or None (unordered against ints) nor True or 1.0 (equal to 1) is a colour
        c = EdgeColouring(p3(), 2, {("a", "b", 0): bad, ("b", "c", 0): 2})
        assert verify_colouring(c) is False


class TestExactChromaticIndex:
    @pytest.mark.parametrize("t,chi", [(0, 4), (1, 7), (2, 10)])
    def test_fat_triangles(self, t, chi):
        g = fixture(f"fat-triangle-t{t}.graph")
        value, colouring = chromatic_index_exact(g)
        assert value == chi == 3 * t + 4
        assert verify_colouring(colouring) and colouring.k == chi

    def test_path(self):
        value, colouring = chromatic_index_exact(p3())
        assert value == 2 and verify_colouring(colouring)

    def test_edgeless(self):
        value, colouring = chromatic_index_exact(Multigraph(vertices=["a"]))
        assert value == 0 and colouring.assignment == {}

    @pytest.mark.parametrize("name,delta,chi", [("fat-triangle-t1.graph", 5, 7), ("c5.graph", 2, 3)])
    def test_one_palette_state_per_call(self, name, delta, chi, monkeypatch):
        # a failed k hands the state back uncoloured, so every k reuses it
        calls = record(monkeypatch, colouring, "_State")
        g = fixture(name)
        value, c = chromatic_index_exact(g)
        assert (g.max_degree(), value) == (delta, chi) and verify_colouring(c)
        assert counts(calls) == {"_State": 1}

    @pytest.mark.parametrize("name,steps", [("c5", 9), ("petersen", 54)])
    def test_backtracking_steps_where_the_first_k_fails(self, name, steps, monkeypatch):
        # C5 and the Petersen graph are class 2: k = Delta fails, and Delta
        # + 1 colours them. Each colour given, a step forward or a retry
        # after backing up, is one _State.assign; the first instance of
        # every k opens colour 1 alone, as no colour is on the instances
        # before it, which is where the search refuses symmetric branches
        if name == "c5":
            g = fixture("c5.graph")
        else:
            g = Multigraph(edges=[(f"o{i}", f"o{(i + 1) % 5}", 1) for i in range(5)]
                           + [(f"i{i}", f"i{(i + 2) % 5}", 1) for i in range(5)]
                           + [(f"o{i}", f"i{i}", 1) for i in range(5)])
        calls = record(monkeypatch, colouring._State, "assign")
        value, c = chromatic_index_exact(g)
        assert (g.max_degree(), value) == (value - 1, value) and verify_colouring(c)
        assert counts(calls) == {"assign": steps}

    def test_cap(self):
        g = Multigraph(edges=[(f"a{i}", f"b{i}", 5) for i in range(5)])
        with pytest.raises(ResourceLimitError):
            chromatic_index_exact(g)

    def test_no_cap_admits_more_than_the_state_cap(self, monkeypatch):
        # the search's state is fan_colouring's, built under the same fixed cap
        monkeypatch.setattr(colouring, "COLOUR_INSTANCE_CAP", 3)
        assert chromatic_index_exact(Multigraph(edges=[("a", "b", 3)]), max_instances=10)[0] == 3
        with pytest.raises(ResourceLimitError, match="capped at 3 edge instances, got 4"):
            chromatic_index_exact(Multigraph(edges=[("a", "b", 4)]), max_instances=10)
        with pytest.raises(ResourceLimitError, match="capped at 2 edge instances, got 3"):
            chromatic_index_exact(Multigraph(edges=[("a", "b", 3)]), max_instances=2)

    def test_at_least_max_degree(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_multigraph(rng, 4, 4, 3)
            value, colouring = chromatic_index_exact(g)
            assert value >= g.max_degree()
            assert verify_colouring(colouring)

    def test_bytes_are_pinned(self):
        # one sha256 over f"{k}\n{as_text}" on every four-vertex family member
        # and 1,000 seeded multigraphs of 13-20 instances (592 of the 2,909
        # graphs need more than max_degree colours), recorded before the
        # solver moved onto the fan engine's palette state
        def family():
            yield from all_small_multigraphs(4, 4, 3)
            rng = random.Random(1213)
            count = 0
            while count < 1000:
                g = random_multigraph(rng, rng.randint(3, 6), 8, 4)
                if 13 <= g.total_instances() <= 20:
                    count += 1
                    yield g

        digest, graphs, above = hashlib.sha256(), 0, 0
        for g in family():
            k, c = chromatic_index_exact(g)
            digest.update(f"{k}\n{c.as_text()}".encode())
            graphs += 1
            above += k > g.max_degree()
        assert (graphs, above) == (2909, 592)
        assert digest.hexdigest() == "6e1e22b7606580e5ad64a0134930d49fe3772a7783127305f9de6bc95fb7232a"


class TestFanColouring:
    def test_path_two_colours(self):
        c = fan_colouring(p3(), 2)
        assert c is not None and verify_colouring(c) and c.k == 2

    def test_fat_triangle_absent_below_chi(self):
        g = fixture("fat-triangle-t0.graph")
        assert fan_colouring(g, 3) is None

    def test_below_max_degree_rejected(self):
        with pytest.raises(GraphError):
            fan_colouring(fixture("fat-triangle-t0.graph"), 2)

    def test_instance_cap_admits_its_own_count(self, monkeypatch):
        monkeypatch.setattr(colouring, "COLOUR_INSTANCE_CAP", 3)
        assert verify_colouring(fan_colouring(Multigraph(edges=[("a", "b", 2), ("b", "c", 1)]), 3))
        with pytest.raises(ResourceLimitError, match="fan_colouring capped at 3 edge instances, got 4"):
            fan_colouring(Multigraph(edges=[("a", "b", 2), ("b", "c", 2)]), 4)

    def test_instance_cap_is_two_to_the_twenty(self):
        # the cap is sized by a call's bytes an instance; twice it is refused
        # on the count alone, before any state is built
        g = Multigraph(edges=[("a", "b", 2**21 + 1)])
        with pytest.raises(ResourceLimitError, match="fan_colouring capped at 1048576 edge instances, got 2097153"):
            fan_colouring(g, g.max_degree())

    @pytest.mark.parametrize("k", [True, False, 1.0, "2", -1])
    def test_colour_count_must_be_a_nonnegative_int(self, k):
        with pytest.raises(GraphError, match="colour count must be a nonnegative integer"):
            fan_colouring(path_graph(["a", "b"]), k)

    @pytest.mark.parametrize("corrupt", ["repeat", "repeat-across-classes", "uncoloured", "above-k"])
    def test_soundness_guard_fires(self, monkeypatch, corrupt):
        # the guard recomputes palettes from the classes and the instance
        # colours alone, so a colour changed behind the engine's palette
        # tables is caught
        real = colouring._run_pass

        def corrupted(st, order):
            done = real(st, order)
            ends = st.ends
            if corrupt == "repeat-across-classes":
                # the first copy of the second class, next to the last of the first
                e = next(e for e in range(1, len(ends)) if ends[e] != ends[e - 1])
                assert set(ends[e]) & set(ends[e - 1])
            else:
                e = next(e for e in range(1, len(ends)) if ends[e] == ends[e - 1])
            st.colour[e] = {"uncoloured": 0, "above-k": st.k + 1}.get(corrupt, st.colour[e - 1])
            return done

        monkeypatch.setattr(colouring, "_run_pass", corrupted)
        g = fixture("fat-triangle-t1.graph")
        with pytest.raises(RuntimeError, match="improper colouring"):
            fan_colouring(g, g.ore_bound())

    def test_guard_agrees_with_the_pairwise_definition(self):
        # one instance of a proper colouring is given a colour in 0..k+1; the
        # guard must then agree with the definition checked pair by pair
        rng = random.Random(35)
        verdicts = []
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(2, 6), 8, 4)
            if g.class_count == 0:
                continue
            k = g.ore_bound()
            a = dict(fan_colouring(g, k).assignment)
            a[rng.choice(sorted(a))] = rng.randint(0, k + 1)
            keys = list(a)
            proper = all(1 <= col <= k for col in a.values()) and all(
                a[p] != a[q] for n, p in enumerate(keys) for q in keys[n + 1 :] if set(p[:2]) & set(q[:2])
            )
            assert verify_colouring(EdgeColouring(g, k, a)) is proper
            verdicts.append(proper)
        assert True in verdicts and False in verdicts

    def test_edgeless_zero_colours(self):
        c = fan_colouring(Multigraph(vertices=["a", "b"]), 0)
        assert c is not None and c.assignment == {}

    def test_deterministic(self):
        rng = random.Random(32)
        for _ in range(20):
            g = random_multigraph(rng, 5, 6, 3)
            k = g.ore_bound()
            first = fan_colouring(g, k)
            second = fan_colouring(g, k)
            assert first == second

    def test_never_fails_at_ore_bound(self):
        rng = random.Random(33)
        for _ in range(400):
            g = random_multigraph(rng, rng.randint(2, 6), 8, 4)
            c = fan_colouring(g, g.ore_bound())
            if g.class_count:
                assert c is not None and verify_colouring(c)

    def test_never_fails_at_vizing_bound(self):
        rng = random.Random(34)
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(2, 5), 6, 4)
            if g.class_count == 0:
                continue
            c = fan_colouring(g, g.max_degree() + g.max_mult())
            assert c is not None and verify_colouring(c)

    def test_success_upper_bounds_exact_value(self):
        rng = random.Random(35)
        for _ in range(80):
            g = random_multigraph(rng, 4, 4, 3)
            if g.class_count == 0:
                continue
            chi, _ = chromatic_index_exact(g)
            for k in range(g.max_degree(), g.ore_bound() + 1):
                if fan_colouring(g, k) is not None:
                    assert chi <= k

    def test_exact_value_within_theoretical_bounds(self):
        rng = random.Random(36)
        for _ in range(50):
            g = random_multigraph(rng, 4, 4, 3)
            chi, _ = chromatic_index_exact(g)
            assert chi <= g.ore_bound()
            assert chi <= fan_bound(g)

    def test_exhaustive_small_family_at_ore_bound(self, engine_calls):
        # every 4-vertex multigraph (<= 4 classes, mult <= 3) colours at the
        # degree-sum bound on the first pass of the engine, unperturbed
        graphs = 0
        for g in all_small_multigraphs(4, 4, 3):
            if g.class_count == 0:
                continue
            graphs += 1
            c = fan_colouring(g, g.ore_bound())
            assert c is not None and verify_colouring(c)
        calls = counts(engine_calls)
        assert calls["_run_pass"] == graphs and calls["_perturb"] == 0

    @pytest.mark.parametrize("host,t", [("double-edge", 0), ("fig1-h", 0), ("multiforest-path", 4)])
    def test_witness_at_ore_bound_takes_one_pass_and_no_perturbation(self, engine_calls, host, t):
        # at the Ore bound no fan is stuck, so every stuck instance is
        # repaired by its first fan attempt: 142, 360 and 2,051 of them here
        g, _ = construct_witness(fixture(host + ".graph"), t)
        c = fan_colouring(g, g.ore_bound())
        assert c is not None and verify_colouring(c)
        calls = counts(engine_calls)
        assert calls["_run_pass"] == 1 and calls["_perturb"] == 0 and calls["_fan_attempt"] > 0

    def test_fan_grows_past_a_repeated_rim_vertex(self):
        # x's fan from the uncoloured x-a takes x-b (colour 6, free at a),
        # then x-b's copy (colour 5): b comes back as the new rim vertex. Its
        # free colour 2 is in the rim's free union, but the only rim vertex
        # missing 2 is b itself, so b, met again, has no reduce partner and
        # the fan neither reduces nor stops: it takes x-c (colour 2, free at
        # b) and folds at c, where colour 4 is free at both c and x.
        g = Multigraph(["x", "a", "b", "c", "d"], [("x", "a", 1), ("x", "b", 2), ("x", "c", 2), ("a", "b", 3), ("a", "d", 1), ("c", "d", 1)])
        st = colouring._State(g, 6)
        for e, c in enumerate([0, 6, 5, 3, 2, 4, 3, 1, 2, 1]):
            if c:
                st.assign(e, c)
        assert colouring._fan_attempt(st, 0, 0) is True
        assert st.colour == [6, 2, 5, 3, 4, 4, 3, 1, 2, 1]

    def test_reduce_partner_is_the_scan_over_every_earlier_rim_vertex(self, monkeypatch):
        # The engine looks for a reduce partner only at a new rim vertex, by
        # invariant (D). At every reduce, the partner it passes must be the
        # one a scan of the whole rim before the swap picks: the first
        # earlier rim vertex, other than the last, missing a colour that is
        # free at the last. The last must also be in the rim once.
        reduced = []
        real = colouring._reduce

        def checked(st, x, fan, rim, i):
            fy = st.full & ~st.used[rim[-1]]
            scan = next((idx for idx in range(len(rim) - 1) if rim[idx] != rim[-1] and fy & ~st.used[rim[idx]]), None)
            assert (i, rim.count(rim[-1])) == (scan, 1)
            reduced.append(i)
            real(st, x, fan, rim, i)

        monkeypatch.setattr(colouring, "_reduce", checked)
        for g in all_small_multigraphs(4, 4, 3):
            if g.class_count:
                fan_colouring(g, g.max_degree())
                fan_colouring(g, g.max_degree() + 1)
        for host in ("double-edge", "fig1-h"):
            g, _ = construct_witness(fixture(host + ".graph"), 0)
            fan_colouring(g, g.max_degree())
        assert reduced

    def test_a_fold_with_a_broken_invariant_raises(self):
        # (F) is broken: the fan edge x-b has colour 1, which no earlier rim
        # vertex misses (a holds it on a-c). The fold looks for colour 1's
        # rim vertex only before the last, so it raises instead of looping.
        g = Multigraph(["x", "a", "b", "c"], [("x", "a", 1), ("x", "b", 1), ("a", "c", 1)])
        st = colouring._State(g, 3)
        st.assign(1, 1)
        st.assign(2, 1)
        with pytest.raises(IndexError):
            colouring._fold(st, 0, [0, 1], [1, 2])

    def test_fan_scan_restarts_when_a_new_rim_vertex_frees_an_earlier_colour(self, monkeypatch):
        # x's instances are x-a (uncoloured), x-b (1), x-c (2), x-d (3). The
        # fan from x-a takes x-c, whose colour 2 is free at a. Its rim vertex
        # c frees colour 1, which sits on x-b, before x-c at x, so the scan
        # starts again from x's first instance and takes x-b, not x-d (colour
        # 3, also free at a and after x-c). The fan folds at b, where colour
        # 4 is free at both b and x.
        g = Multigraph(["x", "a", "b", "c", "d", "p", "r"], [("x", "a", 1), ("x", "b", 1), ("x", "c", 1), ("x", "d", 1), ("a", "c", 1), ("a", "p", 1), ("c", "r", 1)])
        st = colouring._State(g, 4)
        for e, c in enumerate([0, 1, 2, 3, 4, 1, 3]):
            if c:
                st.assign(e, c)
        folded = []
        real = colouring._fold

        def fold(st, x, fan, rim):
            folded.append((list(fan), list(rim)))
            real(st, x, fan, rim)

        monkeypatch.setattr(colouring, "_fold", fold)
        assert colouring._fan_attempt(st, 0, 0) is True
        assert folded == [([0, 2, 1], [1, 3, 2])]
        assert st.colour == [2, 4, 1, 3, 4, 1, 3]

    def test_one_palette_state_across_passes(self, engine_calls, monkeypatch):
        # every pass resets the colours and palettes of the one state; the
        # instance tables and anchor lists hold for any instance order
        built = record(monkeypatch, colouring, "_State")["_State"]
        g = fixture("fat-triangle-t0.graph")
        assert fan_colouring(g, g.max_degree()) is None
        assert counts(engine_calls)["_run_pass"] == 8 and [k for _, k in built] == [3]

    def test_state_takes_at_most_twice_max_degree_colours(self, monkeypatch):
        built = record(monkeypatch, colouring, "_State")["_State"]
        g = fixture("fat-triangle-t0.graph")
        for k in (2, 3, 10):
            assert fan_colouring(g, k * g.max_degree()).k == k * g.max_degree()
        assert [k for _, k in built] == [2 * g.max_degree()] * 3

    def test_star_tables_stay_linear(self):
        # at k = Delta a palette-wide table at each of the 2,001 vertices
        # would take about 32 MB here, and O(|V| * Delta) in general; only
        # the centre, with 4 * deg >= k, gets one
        g = Multigraph(edges=[("hub", f"leaf{i}", 1) for i in range(2000)])
        c, peak = traced(lambda: fan_colouring(g, g.max_degree()))
        assert c is not None and verify_colouring(c)
        assert peak < 4 * 2**20

    def test_retry_orders_are_made_lazily(self):
        # all 2N pass orders held at once take O(N^2) memory: about 110 MB
        # on this 2,662-instance witness, against about 1.5 MB for one pass
        g, _ = construct_witness(fixture("double-edge.graph"), 0)
        c, peak = traced(lambda: fan_colouring(g, g.ore_bound()))
        assert c is not None and verify_colouring(c)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("bound", ["max_degree", "ore_bound"])
    def test_call_peak_per_instance(self, bound):
        # the call's state, first pass and guard: 124-139 bytes an instance
        # here, where a guard keyed per instance end and pass orders built
        # before the first pass took 426-441
        g, _ = construct_witness(fixture("double-edge.graph"), 0)
        k = getattr(g, bound)()
        assert g.total_instances() == 2662
        c, peak = traced(lambda: fan_colouring(g, k))
        assert c is not None
        assert peak < 200 * g.total_instances()

    def test_pass_orders_are_the_forward_then_the_reversed_rotations(self):
        for n in range(7):
            fwd, rev = list(range(n)), list(range(n - 1, -1, -1))
            rotations = [fwd[o:] + fwd[:o] for o in range(n)] + [rev[o:] + rev[:o] for o in range(n)]
            assert [list(o) for o in colouring._pass_orders(n)] == (rotations or [[]])

    def test_cost_does_not_grow_with_k_above_twice_max_degree(self):
        # from 2 * Delta - 1 colours on no instance is ever stuck, so the
        # engine runs with min(k, 2 * Delta); at k = 10^6 on this witness the
        # palette masks and text table used to be 10^6 colours wide (about
        # 60 MB traced), and the colouring was the same
        g, _ = construct_witness(fixture("double-edge.graph"), 0)
        at_2delta = fan_colouring(g, 2 * g.max_degree()).as_text()

        def colour_and_write():
            c = fan_colouring(g, 10**6)
            return c, c.as_text()

        (c, text), peak = traced(colour_and_write)
        assert c.k == 10**6 and verify_colouring(c)
        assert text == at_2delta
        assert peak < 4 * 2**20

    def test_same_colouring_at_every_k_from_twice_max_degree_less_one(self):
        rng = random.Random(38)
        for _ in range(100):
            g = random_multigraph(rng, rng.randint(2, 6), 8, 4)
            d = g.max_degree()
            texts = {fan_colouring(g, k).as_text() for k in range(max(d, 2 * d - 1), 2 * d + 4)}
            assert len(texts) == 1

    def test_core_conditions_imply_colourability(self):
        # a passing core condition at t certifies max_degree + t colours
        rng = random.Random(37)
        for _ in range(250):
            g = random_multigraph(rng, rng.randint(2, 5), 5, 3)
            if g.total_instances() > 20:
                continue
            for t in (0, 1, 2):
                forest_ok, _ = forest_core_condition(g, t)
                bq_ok, _ = bqueue_core_condition(g, t)
                if forest_ok:
                    assert bq_ok
                if bq_ok:
                    chi, _ = chromatic_index_exact(g)
                    assert chi <= g.max_degree() + t, (g.classes(), t)

    def test_core_conditions_exhaustive_small_family(self):
        # same implication swept over every 4-vertex multigraph family member
        for g in all_small_multigraphs(4, 4, 3):
            chi = None
            for t in (0, 1, 2):
                ok, _ = bqueue_core_condition(g, t)
                if ok:
                    if chi is None:
                        chi, _ = chromatic_index_exact(g)
                    assert chi <= g.max_degree() + t, (g.classes(), t)


# sha256 of fan_colouring(g, k).as_text(), None where the engine returns
# None, for every fixture, the 2,662-instance double-edge/t0 and the
# 10,049-instance fig1-h/t0 and the 27,536-instance multiforest-path/t4
# witnesses at both bounds (the last at the maximum degree makes 2,258 fan
# attempts). The engine is deterministic, so a changed digest means it now
# picks other colours.
ENGINE_DIGESTS = [
    ("c3.graph", "ore_bound", '8453af3afcd1d4c16924a97e95d8b91a1bd986c77d5440ce0cdc725c0e4ed926'),
    ("c3.graph", "max_degree", None),
    ("c5.graph", "ore_bound", 'dea7e278079a3d223fa478c31ae94480f2612b5572e8f7f075e82740f1bcb59f'),
    ("c5.graph", "max_degree", None),
    ("cycle-pendant.graph", "ore_bound", '99e0169f073d3288ae4cd345d21a1c471bcaef8c4d2ad0e40eb13cb0597bdf1d'),
    ("cycle-pendant.graph", "max_degree", '99e0169f073d3288ae4cd345d21a1c471bcaef8c4d2ad0e40eb13cb0597bdf1d'),
    ("double-edge.graph", "ore_bound", 'e9695cf6b361d83dcada7af4cb162bc78fb2fb18bf2a9bde985ab9d0e782576a'),
    ("double-edge.graph", "max_degree", 'e9695cf6b361d83dcada7af4cb162bc78fb2fb18bf2a9bde985ab9d0e782576a'),
    ("fat-triangle-t0.graph", "ore_bound", '6a9b8f218e849752f76b094276d34ab0f563a1b5573e43da1ca277e021554993'),
    ("fat-triangle-t0.graph", "max_degree", None),
    ("fat-triangle-t1.graph", "ore_bound", 'c30410a5bda5ca820923a82bbf6e96c11056c77101e0565e31ecfb86c7f409b9'),
    ("fat-triangle-t1.graph", "max_degree", None),
    ("fat-triangle-t2.graph", "ore_bound", 'aa2513b42c23781582927d853af548dc5e35cd86e547db196e7509bc9f201444'),
    ("fat-triangle-t2.graph", "max_degree", None),
    ("fig1-h.graph", "ore_bound", '0bc0c3db0d636adbd01ac10dd513cd8dca20f6b4075107a9658c7dceaa9f7a51'),
    ("fig1-h.graph", "max_degree", '0bc0c3db0d636adbd01ac10dd513cd8dca20f6b4075107a9658c7dceaa9f7a51'),
    ("fig1-h1.graph", "ore_bound", '8c8d44b1d036c3c3aeca2146650b2ff152b77c257c4b1a3c31ac718fcaddd75a'),
    ("fig1-h1.graph", "max_degree", '8c8d44b1d036c3c3aeca2146650b2ff152b77c257c4b1a3c31ac718fcaddd75a'),
    ("fig2-h4.graph", "ore_bound", '53539464df3f9c3d4c9755291c8e6f8b86c58094c261ad59959a6a8f8d794718'),
    ("fig2-h4.graph", "max_degree", '53539464df3f9c3d4c9755291c8e6f8b86c58094c261ad59959a6a8f8d794718'),
    ("forest-path4.graph", "ore_bound", 'bf938d2c93184f4fa8b18adfae8d4ae68575946300ced3b71bcad31ccf078941'),
    ("forest-path4.graph", "max_degree", 'bf938d2c93184f4fa8b18adfae8d4ae68575946300ced3b71bcad31ccf078941'),
    ("forest-spider.graph", "ore_bound", 'dd3681f1fbd9ccec98a0d8f883df356900643ffabc4e0199c27f1978b808f770'),
    ("forest-spider.graph", "max_degree", 'dd3681f1fbd9ccec98a0d8f883df356900643ffabc4e0199c27f1978b808f770'),
    ("h5.graph", "ore_bound", '30509894cc56d8f58a35dfee64793ba9de176ed0459a0b1207ad89ff562bbb63'),
    ("h5.graph", "max_degree", '30509894cc56d8f58a35dfee64793ba9de176ed0459a0b1207ad89ff562bbb63'),
    ("multiforest-path.graph", "ore_bound", '8131b208f9d4137154da1044a713234b5ebf50ab9aadcc90dd0131eaa51fa5e6'),
    ("multiforest-path.graph", "max_degree", '8131b208f9d4137154da1044a713234b5ebf50ab9aadcc90dd0131eaa51fa5e6'),
    ("double-edge/t0", "ore_bound", '6fd6af3f3e984241415ad2cca0849fc14f67c8edd0ce878be1c326bec245eab5'),
    ("double-edge/t0", "max_degree", 'f1173cf209d90903ae63968d94fd2b3e95caf4d5446edfddb73efea8e07902e9'),
    ("fig1-h/t0", "ore_bound", 'ea0f3316a839d484359ddcd58239b831bafe15311fee6d0164bc2bc19f10eeb7'),
    ("fig1-h/t0", "max_degree", '3b42e2c69383efaadb46cbaaf76bd0ae8cdbd46e23c338d31a83e1dc9af3c20d'),
    ("multiforest-path/t4", "ore_bound", '5d91893eaafdf2a3d4b59d0579b19b4df55463cc4770798b48bea61550266499'),
    ("multiforest-path/t4", "max_degree", '3aad3e3fdf8347bd64a77237f5d8d4f0156fe0782ed42188a5a17106ad8648ae'),
]


@pytest.mark.parametrize("name,bound,digest", ENGINE_DIGESTS)
def test_fan_engine_bytes_are_pinned(name, bound, digest):
    if "/t" in name:
        host, t = name.split("/t")
        g, _ = construct_witness(fixture(host + ".graph"), int(t))
    else:
        g = fixture(name)
    c = fan_colouring(g, getattr(g, bound)())
    assert (None if c is None else hashlib.sha256(c.as_text().encode()).hexdigest()) == digest


def test_fan_engine_retry_path_is_pinned(engine_calls):
    # The four-vertex family and 300 seeded 5-8-vertex graphs at k = Delta,
    # Delta + 1 and Delta + 2: 6,624 calls, 528 of them None after every
    # pass, and 196,398 stuck fans, each followed by a perturbation.
    # The digest covers every colouring's text or None in call order, and the
    # counts pin how many passes, fan attempts and perturbations it took, so
    # the retry path cannot change a choice without failing here.
    rng = random.Random(19)
    graphs = [g for g in all_small_multigraphs(4, 4, 3) if g.class_count]
    graphs += [random_multigraph(rng, rng.randint(5, 8), 10, 3) for _ in range(300)]
    digest = hashlib.sha256()
    for g in graphs:
        d = g.max_degree()
        for k in range(d, d + 3):
            c = fan_colouring(g, k)
            digest.update(b"None\n" if c is None else c.as_text().encode() + b"\n")
    assert digest.hexdigest() == "61bff0a31568dfa2cdc7435b75d40bd6f6b75bd7aeecac5f830c57e73dc90da8"
    assert counts(engine_calls) == {"_run_pass": 14312, "_fan_attempt": 196757, "_perturb": 196398}


class TestColouringText:
    def test_deterministic_line_order(self):
        g = fixture("double-edge.graph")
        _, colouring = chromatic_index_exact(g)
        lines = colouring.as_text().splitlines()
        assert lines == ["x y 0 1", "x y 1 2"]

    @staticmethod
    def library_colourings():
        """Colourings the library makes: the engine's at both bounds and the exact solver's."""
        rng = random.Random(44)
        graphs = [fixture(p.name) for p in sorted(FIXTURES.glob("*.graph"))]
        graphs += [random_multigraph(rng, rng.randint(0, 7), 10, 4) for _ in range(150)]
        graphs.append(construct_witness(fixture("double-edge.graph"), 0)[0])
        for g in graphs:
            for k in {g.ore_bound(), g.max_degree()}:
                c = fan_colouring(g, k)
                if c is not None:
                    yield c
            if g.total_instances() <= 12:
                yield chromatic_index_exact(g)[1]

    def test_text_is_the_assignment_formatted(self):
        # the text the library prints from instance colours is the text of
        # the same colouring built from a plain dict of its assignment
        seen = 0
        for c in self.library_colourings():
            g, a = c.graph, c.assignment
            plain = EdgeColouring(g, c.k, dict(a))
            assert len(a) == g.total_instances() == len(dict(a))
            assert c.as_text() == plain.as_text()
            assert c == plain and verify_colouring(c) and verify_colouring(plain)
            expected = [f"{u} {v} {copy} {a[(u, v, copy)]}" for u, v, m in g.classes() for copy in range(m)]
            assert c.as_text().splitlines() == expected
            seen += 1
        assert seen > 300

    def test_library_assignment_is_read_only(self):
        c = fan_colouring(fixture("fat-triangle-t0.graph"), 4)
        key = ("a", "b", 0)
        with pytest.raises(TypeError):
            c.assignment[key] = 2
        assert repr(c.assignment) == repr(dict(c.assignment))
        assert c.assignment == dict(c.assignment) and 1 <= c.assignment[key] <= 4

    def test_assignment_over_another_graph_reads_its_keys(self):
        # a library assignment reused with another graph is read by key, like
        # any caller's mapping: keys follow the graph's own vertex order
        g = Multigraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 1)])
        c = fan_colouring(g, g.ore_bound())
        copy = EdgeColouring(parse(serialize(g)), c.k, c.assignment)
        assert copy.graph is not g and copy.as_text() == c.as_text()
        reordered = Multigraph(["c", "b", "a"], [("c", "b", 1), ("b", "a", 2)])
        with pytest.raises(KeyError):
            EdgeColouring(reordered, c.k, c.assignment).as_text()
        assert not verify_colouring(EdgeColouring(reordered, c.k, c.assignment))

    def test_caller_dict_is_read_at_formatting_time(self):
        g = path_graph(["a", "b", "c"])
        a = {("a", "b", 0): 1, ("b", "c", 0): 2}
        c = EdgeColouring(g, 2, a)
        a[("b", "c", 0)] = 1
        assert c.as_text() == "a b 0 1\nb c 0 1\n"
        assert not verify_colouring(c)
        with pytest.raises(KeyError):
            EdgeColouring(g, 2, {("a", "b", 0): 1}).as_text()
