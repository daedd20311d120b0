"""Multigraph and SubgraphSelection model tests, plus text format round trips."""

import itertools
import random
import sys
import time

import pytest

from fancore import (
    GraphError,
    Multigraph,
    ParseError,
    SubgraphSelection,
    constant_multiplicity_lift,
    core_report,
    edges_above,
    parse,
    serialize,
    t_core,
)
from fancore.fanmetrics import _kept
from fancore.multigraph import _parse_canonical
from helpers import all_small_multigraphs, fixture, random_multigraph


def fat_triangle_t0():
    return Multigraph(edges=[("a", "b", 1), ("a", "c", 1), ("b", "c", 2)])


class TestDegrees:
    def test_fat_triangle_degree(self):
        assert fat_triangle_t0().degree("b") == 3

    def test_isolated_vertex_degree(self):
        g = Multigraph(vertices=["x"])
        assert g.degree("x") == 0

    def test_double_edge_degree(self):
        g = Multigraph(edges=[("x", "y", 2)])
        assert g.degree("x") == 2

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            fat_triangle_t0().degree("zz")

    def test_vertex_mult(self):
        g = fat_triangle_t0()
        assert g.vertex_mult("b") == 2
        assert Multigraph(vertices=["x"]).vertex_mult("x") == 0
        star = Multigraph(edges=[("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)])
        assert star.vertex_mult("c") == 1
        with pytest.raises(GraphError):
            g.vertex_mult("zz")
        with pytest.raises(GraphError):
            g.mult("a", "zz")

    def test_mult_of_a_vertex_with_itself_is_zero(self):
        g = fat_triangle_t0()
        assert [g.mult(v, v) for v in g.labels] == [0, 0, 0]
        assert Multigraph(vertices=["x"]).mult("x", "x") == 0

    def test_max_degree(self):
        assert fat_triangle_t0().max_degree() == 3
        assert fixture("fat-triangle-t1.graph").max_degree() == 5
        assert Multigraph(vertices=["x", "y"]).max_degree() == 0

    def test_degree_dominates_vertex_mult(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(1, 5), 6, 4)
            for v in g.labels:
                if g.degree(v) > 0:
                    assert g.degree(v) >= g.vertex_mult(v)


class TestDerivedGraphs:
    def test_underlying_simple(self):
        de = Multigraph(edges=[("x", "y", 2)])
        assert de.underlying_simple() == Multigraph(edges=[("x", "y", 1)])
        ft = fat_triangle_t0()
        k3 = Multigraph(edges=[("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
        assert ft.underlying_simple() == k3
        assert k3.underlying_simple() == k3

    def test_induced(self):
        ft = fat_triangle_t0()
        assert ft.induced(["b", "c"]) == Multigraph(edges=[("b", "c", 2)])
        assert ft.induced([]) == Multigraph()
        assert ft.induced(ft.labels) == ft
        with pytest.raises(GraphError):
            ft.induced(["nope"])

    def test_induced_monotone(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_multigraph(rng, 5, 8, 3)
            labels = list(g.labels)
            rng.shuffle(labels)
            small = labels[:2]
            big = labels[:4]
            inner = g.induced(small)
            outer = g.induced(big)
            for u, v, m in inner.classes():
                assert outer.mult(u, v) == m

    def test_is_multiforest(self):
        assert Multigraph(edges=[("x", "y", 2)]).is_multiforest()
        assert not fat_triangle_t0().is_multiforest()
        assert fixture("multiforest-path.graph").is_multiforest()
        assert not fixture("c5.graph").is_multiforest()


class TestConstruction:
    # The fragments are the ones parse reports: both entry points share one
    # set of checks.

    def test_no_loops(self):
        with pytest.raises(GraphError, match="loop"):
            Multigraph(edges=[("a", "a", 1)])

    def test_positive_multiplicity(self):
        with pytest.raises(GraphError, match="zero"):
            Multigraph(edges=[("a", "b", 0)])
        with pytest.raises(GraphError, match="negative"):
            Multigraph(edges=[("a", "b", -2)])

    def test_bool_multiplicity_rejected(self):
        # a bool is an int to isinstance, but serialize would write 'True'
        b = Multigraph(edges=[("a", "b", 1)])
        for build in (
            lambda: Multigraph(["a", "b"], [("a", "b", True)]),
            lambda: Multigraph(edges=[("a", "b", False)]),
            lambda: SubgraphSelection(b, [("a", "b", True)]),
            lambda: constant_multiplicity_lift(b, True),
        ):
            with pytest.raises(GraphError, match="must be a positive integer"):
                build()

    def test_duplicate_pair_rejected(self):
        with pytest.raises(GraphError, match="duplicate pair"):
            Multigraph(edges=[("a", "b", 1), ("b", "a", 2)])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            Multigraph(vertices=["a", "a"])

    @pytest.mark.parametrize("label", [5, None, b"a", ""])
    def test_label_must_be_a_nonempty_string(self, label):
        for build in (lambda: Multigraph(vertices=[label]), lambda: Multigraph(edges=[("a", label, 1)])):
            with pytest.raises(GraphError) as exc:
                build()
            assert str(exc.value) == f"vertex label must be a non-empty string, got {label!r}"

    @pytest.mark.parametrize("ch", [" ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000", "#"])
    def test_whitespace_and_hash_rejected_in_labels(self, ch):
        with pytest.raises(GraphError, match="may not contain whitespace"):
            Multigraph(vertices=[f"a{ch}b"])

    def test_non_whitespace_format_characters_are_labels(self):
        # str.isspace decides: zero-width space and word joiner are not whitespace
        g = Multigraph(edges=[("a\u200bb", "c\u2060d", 1)])
        assert parse(serialize(g)) == g

    def test_insertion_order_is_kept(self):
        g = Multigraph(vertices=["z"], edges=[("b", "a", 1)])
        assert g.labels == ("z", "b", "a")

    def test_equality_ignores_order(self):
        g1 = Multigraph(edges=[("a", "b", 1), ("b", "c", 2)])
        g2 = Multigraph(vertices=["c", "b", "a"], edges=[("c", "b", 2), ("a", "b", 1)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != Multigraph(edges=[("a", "b", 1), ("b", "c", 3)])

    def test_equality_with_another_type_and_repr(self):
        g = Multigraph(vertices=["c"], edges=[("a", "b", 2)])
        assert (g == 1) is False and g != 1
        assert repr(g) == "Multigraph(3 vertices, 1 classes)"


class TestTextFormat:
    def test_parse_edge_line(self):
        g = parse("a b 2\n")
        assert g == Multigraph(edges=[("a", "b", 2)])

    def test_parse_isolated_vertex(self):
        g = parse("vertex x\n")
        assert g.labels == ("x",)
        assert g.class_count == 0

    def test_parse_comments_and_blanks(self):
        g = parse("# header\n\na b 1  # trailing\n")
        assert g.mult("a", "b") == 1

    def test_parse_crlf_and_unicode_labels(self):
        g = parse("α β 2\r\nvertex γ\r\n")
        assert g.mult("α", "β") == 2
        assert g.labels == ("α", "β", "γ")
        assert parse(serialize(g)) == g

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("a b 1\n\f\nc c 1\n", 3, "loop at 'c'"),
            ("vertex a\fb", 1, "vertex declaration needs exactly one label"),
            ("a b 1\x1dc d 2", 1, "malformed line: 'a b 1\\x1dc d 2'"),
            ("a b 1\rc c 1\r\n", 2, "loop at 'c'"),
        ],
    )
    def test_only_cr_and_lf_end_a_line(self, text, line, message):
        # str.splitlines also breaks at \f, \x1d and the like, which
        # str.split reads as whitespace inside a line
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line and message in str(err.value)

    def test_reserved_word_cannot_label_a_vertex(self):
        with pytest.raises(GraphError, match="reserved"):
            Multigraph(vertices=["vertex"])
        with pytest.raises(ParseError):
            parse("a vertex x\n")  # non-integer multiplicity either way

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("a a 1\n", "loop"),
            ("a b -1\n", "negative"),
            ("a b 0\n", "zero"),
            ("a b 1\na b 2\n", "duplicate pair"),
            ("a b one\n", "not an integer"),
            ("a b 1_0\n", "not an integer"),
            ("a b +2\n", "not an integer"),
            ("a b \u0663\n", "not an integer"),
            ("a b\n", "malformed"),
            ("vertex\n", "vertex declaration"),
            ("vertex x\nvertex x\n", "duplicate vertex"),
            ("a b 1\nvertex a\n", "duplicate vertex"),
            ("a vertex 1\n", "reserved"),
            ("x y 1\nvertex vertex\n", "reserved"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)
        # every row's fault is on its last line
        assert err.value.line == len(text.splitlines())

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_multigraph(rng, rng.randint(0, 5), 6, 4)
            assert parse(serialize(g)) == g

    def test_canonical_fixpoint(self):
        for g in list(all_small_multigraphs(3, 3, 2))[:200]:
            text = serialize(g)
            assert serialize(parse(text)) == text

    def test_load_dump_round_trip(self, tmp_path):
        from fancore import dump, load

        g = fixture("fat-triangle-t1.graph")
        target = tmp_path / "copy.graph"
        dump(g, target)
        assert load(target) == g

    def test_all_fixtures_parse(self):
        for name in (
            "fat-triangle-t0.graph",
            "fig1-h.graph",
            "fig2-h4.graph",
            "h5.graph",
            "cycle-pendant.graph",
            "double-edge.graph",
        ):
            assert fixture(name).vertex_count > 0


class TestSubgraphSelection:
    def test_validation(self):
        g = fat_triangle_t0()
        with pytest.raises(GraphError):
            SubgraphSelection(g, [("b", "c", 3)])  # above parent multiplicity
        with pytest.raises(GraphError):
            SubgraphSelection(g, [("a", "b", 1)], vertices=["a"])  # endpoint outside mask

    def test_unknown_vertex_rejected(self):
        g = fat_triangle_t0()
        with pytest.raises(GraphError, match="^unknown vertex 'zz'$"):
            SubgraphSelection(g, [("a", "zz", 1)])
        with pytest.raises(GraphError, match="^unknown vertex 'zz'$"):
            SubgraphSelection(g, [], vertices=["a", "zz"])

    def test_index_of_is_limited_to_the_mask(self):
        g = fat_triangle_t0()
        sel = SubgraphSelection(g, [("b", "c", 1)], vertices=["b", "c"])
        assert sel.index_of("c") == g.index_of("c")
        with pytest.raises(GraphError, match="^vertex 'a' is outside the selection$"):
            sel.index_of("a")
        with pytest.raises(GraphError, match="^unknown vertex 'zz'$"):
            sel.index_of("zz")

    def test_materialize_degrees_bounded(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_multigraph(rng, 4, 5, 3)
            classes = [
                (u, v, rng.randint(1, m)) for u, v, m in g.classes() if rng.random() < 0.7
            ]
            sel = SubgraphSelection(g, classes)
            sub = sel.materialize()
            for v in sub.labels:
                assert sub.degree(v) <= g.degree(v)

    def test_full_and_strip(self):
        g = Multigraph(vertices=["iso"], edges=[("x", "y", 2)])
        sel = SubgraphSelection.full(g)
        assert sel.materialize() == g
        stripped = sel.strip_isolated()
        assert stripped.vertices() == ("x", "y")
        assert stripped.materialize() == Multigraph(edges=[("x", "y", 2)])

    def test_materialize_is_valid_multigraph(self):
        g = fat_triangle_t0()
        sel = SubgraphSelection(g, [("b", "c", 1)])
        sub = sel.materialize()
        assert sub.mult("b", "c") == 1
        assert set(sub.labels) == {"a", "b", "c"}

    def test_equality_keeps_labels_over_a_reordered_parent(self):
        h = Multigraph(["a", "b", "c", "d"], [("a", "b", 2), ("c", "d", 2)])
        h2 = Multigraph(["c", "d", "a", "b"], h.classes())
        assert h == h2
        ab = SubgraphSelection(h, [("a", "b", 2)])
        # same index pair (0, 1) and full mask, but other vertices
        assert ab != SubgraphSelection(h2, [("c", "d", 2)])
        assert ab == SubgraphSelection(h2, [("b", "a", 2)])
        assert hash(ab) == hash(SubgraphSelection(h2, [("b", "a", 2)]))
        on_ab = SubgraphSelection(h, [("a", "b", 2)], ["a", "b"])
        assert on_ab == SubgraphSelection(h2, [("a", "b", 2)], ["b", "a"])
        assert on_ab != SubgraphSelection(h2, [("a", "b", 2)], ["a", "b", "c"])

    def test_equality_with_another_type_and_repr(self):
        sel = SubgraphSelection(fat_triangle_t0(), [("b", "c", 1)], vertices=["b", "c"])
        assert (sel == 1) is False and sel != 1
        assert (sel == sel.graph) is False
        assert repr(sel) == "SubgraphSelection(2 vertices, 1 classes)"


class TestDerivedGraphFields:
    """Graphs derived from a valid graph skip the checks; they must still equal,
    field by field, what the checking constructor builds from the same labels
    and classes. adj is compared with its iteration order, which the kernels
    depend on."""

    @staticmethod
    def fields(g):
        return (
            g.labels,
            list(g._index.items()),
            g.index_classes,
            g.deg,
            [list(a.items()) for a in g.adj],
        )

    def assert_built_as(self, derived, labels, classes):
        assert self.fields(derived) == self.fields(Multigraph(labels, classes))

    def assert_selected_as(self, derived, classes, vertices=None):
        """derived equals the checking constructor's selection on its parent."""
        checked = SubgraphSelection(derived.parent, classes, vertices)
        for sel in (derived, checked):
            assert sel.graph.labels == sel.parent.labels
        assert (
            derived.deg, [list(a.items()) for a in derived.adj], derived.index_classes, derived.mask,
            serialize(derived.materialize()),
        ) == (
            checked.deg, [list(a.items()) for a in checked.adj], checked.index_classes, checked.mask,
            serialize(checked.materialize()),
        )
        assert self.fields(derived.graph) == self.fields(checked.graph)
        assert derived == checked and hash(derived) == hash(checked)

    @staticmethod
    def random_graph(rng):
        """Labels declared out of order, some isolated; classes in any order and orientation."""
        names = [f"{rng.choice('zyxba')}{k}" for k in rng.sample(range(100), rng.randint(0, 9))]
        pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.4]
        rng.shuffle(pairs)
        classes = [(u, v, rng.randint(1, 4)) if rng.random() < 0.5 else (v, u, rng.randint(1, 4))
                   for u, v in pairs]
        declared = [v for v in names if rng.random() < 0.6]
        return Multigraph(declared, classes)

    def test_derived_graphs_match_the_checking_constructor(self):
        rng = random.Random(707)
        seen_isolated = seen_core_mult = 0
        for _ in range(500):
            g = self.random_graph(rng)
            lab, classes = g.labels, g.classes()
            seen_isolated += 0 in g.deg

            keep = {v for v in lab if rng.random() < 0.6}
            self.assert_built_as(
                g.induced(rng.sample(sorted(keep), len(keep))),
                [v for v in lab if v in keep],
                [(u, v, m) for u, v, m in classes if u in keep and v in keep],
            )
            self.assert_built_as(g.underlying_simple(), lab, [(u, v, 1) for u, v, _ in classes])

            selected = [(u, v, rng.randint(1, m)) for u, v, m in classes if rng.random() < 0.6]
            mask = {x for u, v, _ in selected for x in (u, v)} | {v for v in lab if rng.random() < 0.3}
            sel = SubgraphSelection(g, selected, mask)
            self.assert_built_as(sel.materialize(), sel.vertices(), sel.classes())

            self.assert_selected_as(SubgraphSelection.full(g), classes)
            vec = [rng.randint(0, m) for _, _, m in classes]
            derived = SubgraphSelection._derived(g, _kept(g.index_classes, vec))
            self.assert_selected_as(derived, [(u, v, m) for (u, v, _), m in zip(classes, vec) if m])
            self.assert_selected_as(sel.strip_isolated(), selected, [x for u, v, _ in selected for x in (u, v)])

            for t in range(4):
                threshold = g.max_degree() + t
                core_labels = {v for v in lab if g.ore_degree(v) > threshold}
                core = t_core(g, t)
                self.assert_built_as(
                    core,
                    [v for v in lab if v in core_labels],
                    [(u, v, m) for u, v, m in classes if u in core_labels and v in core_labels],
                )
                self.assert_built_as(edges_above(g, t), lab, [(u, v, m) for u, v, m in classes if m > t])
                simple = core_report(g, t).max_mult_simple
                if simple is not None:
                    seen_core_mult += any(m == t + 1 for _, _, m in core.index_classes)
                    self.assert_built_as(
                        simple, core.labels, [(u, v, 1) for u, v, m in core.classes() if m == t + 1]
                    )
        assert seen_isolated > 50 and seen_core_mult > 50

    def test_lift_still_checks_its_multiplicity(self):
        with pytest.raises(GraphError, match="positive integer"):
            constant_multiplicity_lift(Multigraph(edges=[("a", "b", 1)]), 2.0)

    def test_lift_refuses_a_multigraph_and_a_multiplicity_below_one(self):
        with pytest.raises(GraphError, match="^lift expects a simple graph$"):
            constant_multiplicity_lift(Multigraph(edges=[("a", "b", 2)]), 1)
        with pytest.raises(GraphError, match="^lift multiplicity must be at least 1$"):
            constant_multiplicity_lift(Multigraph(edges=[("a", "b", 1)]), 0)


class TestCanonicalText:
    """Canonical text, as serialize writes it, is read in whole-text passes.

    Everything else, and canonical-looking text that breaks a rule, is read
    line by line. A trailing comment line sends any text to the line reader
    without changing its graph or the line of any error, so the two paths
    can be compared on the same content.
    """

    LINE_BY_LINE = "\n# read line by line\n"
    LABELS = ["a", "b", "z9", "10", "0", "α", "β\u200bγ", "verte", "vertexx", "Vertex", "é", "-", "_"]

    @staticmethod
    def fields(g):
        return TestDerivedGraphFields.fields(g)

    def outcome(self, text):
        try:
            return self.fields(parse(text))
        except ParseError as exc:
            return (exc.line, str(exc))

    def random_graph(self, rng):
        names = rng.sample(self.LABELS + [f"v{k}" for k in range(40)], rng.randint(0, 12))
        pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.35]
        rng.shuffle(pairs)
        mults = (1, 1, 2, 3, 9, 10, 11, 99, 100, 12345)
        declared = [v for v in names if rng.random() < 0.7]
        return Multigraph(declared, [(u, v, rng.choice(mults)) for u, v in pairs])

    def test_canonical_text_matches_the_line_reader(self):
        rng = random.Random(1010)
        for _ in range(600):
            g = self.random_graph(rng)
            text = serialize(g)
            assert _parse_canonical(text) is not None
            assert _parse_canonical(text + self.LINE_BY_LINE) is None
            bulk, lines = parse(text), parse(text + self.LINE_BY_LINE)
            assert self.fields(bulk) == self.fields(lines) == self.fields(g)
            assert serialize(bulk) == text

    @staticmethod
    def mutate(rng, kind, vlines, clines):
        """Text with one seeded change of the given kind, or None where it cannot apply."""
        V, C = list(vlines), list(clines)
        end = "\n"
        if kind in ("vertex vertex", "duplicate vertex", "vertex after classes") and not V:
            return None
        if kind not in ("vertex vertex", "duplicate vertex", "vertex after classes", "crlf",
                        "no final newline", "tab", "double space") and not C:
            return None
        i = rng.randrange(len(V)) if V else 0
        c = rng.randrange(len(C)) if C else 0
        u, v, m = C[c].split() if C else ("", "", "")
        if kind == "duplicate vertex":
            V.insert(i + 1, V[i])
        elif kind == "vertex vertex":
            V[i] = "vertex vertex"
        elif kind == "class line starting with vertex":
            C[c] = f"vertex {v} {m}"
        elif kind == "undeclared endpoint":
            V.remove(f"vertex {rng.choice((u, v))}")
        elif kind == "v u m":
            C[c] = f"{v} {u} {m}"
        elif kind == "out of order":
            if len(C) < 2:
                return None
            d = rng.randrange(len(C) - 1)
            C[d], C[d + 1] = C[d + 1], C[d]
        elif kind == "duplicate pair":
            C.insert(rng.randint(0, len(C)), rng.choice((f"{u} {v} {m}", f"{v} {u} 1")))
        elif kind.startswith("multiplicity "):
            C[c] = f"{u} {v} {kind.split()[1]}"
        elif kind == "loop":
            C.insert(rng.randint(0, len(C)), f"{u} {u} 1")
        elif kind == "vertex after classes":
            C.append(V.pop(i))
        all_lines = V + C
        if not all_lines:
            return None
        if kind in ("tab", "double space"):
            r = rng.randrange(len(all_lines))
            all_lines[r] = all_lines[r].replace(" ", "\t" if kind == "tab" else "  ", 1)
        if kind == "crlf":
            end = "\r\n"
        text = end.join(all_lines) + end
        return text[:-1] if kind == "no final newline" else text

    KINDS = [
        "duplicate vertex", "vertex vertex", "class line starting with vertex", "undeclared endpoint",
        "v u m", "out of order", "duplicate pair", "loop", "tab", "double space", "crlf",
        "no final newline", "vertex after classes",
        *(f"multiplicity {tok}" for tok in ("0", "00", "01", "-1", "1_0", "\u0663")),
    ]

    def test_mutated_text_reads_as_on_the_line_reader(self):
        rng = random.Random(2020)
        applied = dict.fromkeys(self.KINDS, 0)
        errors = dict.fromkeys(self.KINDS, 0)
        for _ in range(150):
            text = serialize(self.random_graph(rng))
            lines = text.splitlines()
            vlines = [x for x in lines if x.startswith("vertex ")]
            clines = lines[len(vlines):]
            for kind in self.KINDS:
                mutated = self.mutate(rng, kind, vlines, clines)
                if mutated is None:
                    continue
                applied[kind] += 1
                got = self.outcome(mutated)
                assert got == self.outcome(mutated + self.LINE_BY_LINE), (kind, mutated)
                if isinstance(got[0], int):  # a ParseError: the bulk reader must have declined
                    errors[kind] += 1
                    assert _parse_canonical(mutated) is None, (kind, mutated)
        assert min(applied.values()) >= 50, applied
        for kind in ("duplicate vertex", "vertex vertex", "class line starting with vertex", "duplicate pair",
                     "loop", "multiplicity 0", "multiplicity 00", "multiplicity -1", "multiplicity 1_0",
                     "multiplicity \u0663"):
            assert errors[kind] == applied[kind], kind
        for kind in ("undeclared endpoint", "v u m", "out of order", "tab", "double space", "crlf",
                     "no final newline", "multiplicity 01"):
            assert errors[kind] == 0, kind

    TOKEN = "a" * 10**5

    @pytest.mark.parametrize(
        "text",
        [
            TOKEN,
            TOKEN + "\n",
            "vertex " + TOKEN + "\n",
            "vertex " + TOKEN + " " + TOKEN + "\n",
            TOKEN + " b 1\n",
            "vertex b\n" + TOKEN + " b 1\n",
            "a b " + "1" * 10**5 + "\n",
            "vertex a\nvertex b\na b " + "1" * 10**5,
            "a " * 10**5,
            "x y 1\n" * 10**4 + TOKEN,
        ],
        ids=["alone", "line", "vertex", "two-labels", "class", "declared-class", "multiplicity",
             "canonical-multiplicity", "many-tokens", "last-line"],
    )
    def test_a_long_token_is_read_in_bounded_time(self, text):
        start = time.perf_counter()
        got = self.outcome(text)
        assert time.perf_counter() - start < 2.0
        assert got == self.outcome(text + self.LINE_BY_LINE)

    def test_multiplicity_beyond_the_int_digit_limit_is_a_parse_error(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts digit strings of any length")
        for text in ("vertex a\nvertex b\na b " + "7" * (limit + 1) + "\n", "a b -" + "7" * (limit + 1)):
            with pytest.raises(ParseError, match=f"multiplicity of {limit + 1} digits is too long") as err:
                parse(text)
            assert err.value.line == len(text.splitlines())
