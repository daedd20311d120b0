"""Constructing graphs whose t-core is prescribed and whose fan number is large.

Given a host graph h with corefan(h) > t, build a graph G whose t-core is
exactly h and in which the subgraph J induced on V(K) and the attached
vertex set S (K being a corefan witness) has fan degree above
max_degree(G) + t on every edge. That per-edge certificate is checked
directly; fan(G) itself is never enumerated on these graphs (the subgraph
space is astronomically large), exactly mirroring how the lower bound is
established in the first place.

The build is staged. Parameters D (the target degree of every h-vertex)
and r (the pendant multiplicity scale) are the lexicographically smallest
pair satisfying

  (a) r >= max_degree(h) + 6 + t,
  (b) r even,
  (c) D >= 3r + t,
  (d) D >= max_degree(h) + 2r^2,
  (e) D + t = m(r - 1) with m even, m >= 4.

(c) follows from (a) and (d), so D is the least value allowed by (d) and
(e); choose_params proves it, with the bounds the split and the circulant
need.

Stage 1 attaches pendant classes of multiplicity r and r-1 from each K
vertex to fresh vertices (the sets S_r and S_{r-1}), raising every K vertex
to degree D. The count split per vertex comes from writing
D - deg_h(x_i) = a_r * r + a_{r-1} * (r - 1) with a_r in [0, r-1]; when the
total of the a_r is odd, the first vertex's split is shifted by
(+(r-1), -r), which flips the parity without changing the sum. Stage 2
overlays a reg_k-regular circulant on S, reg_k = (D+t)/(r-1) - 2 = m - 2,
with a planted perfect matching on S_r; matching edges get multiplicity r-3
and the rest r-1, leaving S_{r-1} vertices at degree D-(r-1)+t and S_r vertices at
D-r+t, so every S vertex lands exactly on the t-core threshold without
crossing it. Stage 3 tops up each vertex of V(h) - V(K) to degree D with
one pendant class of multiplicity r-1 plus single-copy pendants.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .core import t_core
from .errors import GraphError, ResourceLimitError, check_count, check_int
from .fanmetrics import _cfan_failures, _deficits, _failing, _failing_pairs, cfan_degree, corefan
from .multigraph import Multigraph, SubgraphSelection, _int, _split_lines

# The most classes construct_witness builds: some 220 MB of graph at the
# 206 bytes a class that building 'x y 120' at t = 40 adds to peak RSS.
# The largest fixture witness, multiforest-path at t = 4, has 2,856.
WITNESS_CLASS_CAP = 1 << 20


def _circulant_pairs(n: int, k: int) -> list[tuple[int, int]]:
    """Index pairs of the distance-set circulant, ascending: i adjacent to i +- 1..k/2.

    Needs k < n, so no pair is at two distances and each comes once. The
    neighbours above i are i+1..i+k/2 (below n), then, wrapping round,
    n+i-k/2..n-1, all above the first run.
    """
    h = k // 2
    return [
        (i, j)
        for i in range(n)
        for run in (range(i + 1, min(i + h + 1, n)), range(n + i - h, n))
        for j in run
    ]


@dataclass(frozen=True)
class ConstructionPlan:
    """Everything needed to rebuild or verify a constructed witness graph."""

    t: int
    D: int
    r: int
    reg_k: int
    k_vertices: tuple[str, ...]
    a_r: tuple[int, ...]
    a_rm1: tuple[int, ...]
    s_r_vertices: tuple[str, ...]
    s_rm1_vertices: tuple[str, ...]
    matching: tuple[tuple[str, str], ...]

    def __post_init__(self):
        """Refuse splits that are not one entry per K vertex, whatever made the plan."""
        n = len(self.k_vertices)
        for key in ("a_r", "a_rm1"):
            if len(getattr(self, key)) != n:
                raise GraphError(f"plan {key} has {len(getattr(self, key))} entries for {n} k_vertices")

    @property
    def s_r(self) -> int:
        return len(self.s_r_vertices)

    @property
    def s_rm1(self) -> int:
        return len(self.s_rm1_vertices)

    @property
    def s_vertices(self) -> tuple[str, ...]:
        return self.s_r_vertices + self.s_rm1_vertices


def _fresh_prefix(labels) -> str:
    """Shortest underscore prefix making the generated label families fresh."""
    prefix = ""
    while True:
        pattern = re.compile(re.escape(prefix) + r"(sr|sq|px)\d+$")
        if not any(pattern.fullmatch(label) for label in labels):
            return prefix
        prefix += "_"


def _validate_witness_subgraph(h: Multigraph, k_sel: SubgraphSelection, t: int) -> None:
    k_sel._check_host(h)
    classes = k_sel.index_classes
    if not classes:
        raise GraphError("witness subgraph must contain an edge")
    if k_sel.mask != {x for i, j, _ in classes for x in (i, j)}:
        raise GraphError("witness subgraph must have no isolated vertices")
    labels = h.labels
    bad = _failing(_deficits(h, k_sel), k_sel.adj, k_sel.mask, t, _cfan_failures)
    if bad:  # the first failing pair in class order
        x, y = bad[0]
        value = cfan_degree(h, k_sel, labels[x], labels[y])[0]
        raise GraphError(
            f"witness subgraph has cfan degree {value} <= t on "
            f"({labels[x]!r},{labels[y]!r}); it certifies nothing"
        )


def choose_params(h: Multigraph, t: int, k_sel: SubgraphSelection) -> ConstructionPlan:
    """Pick minimal (r, D), the per-vertex splits, and the fresh vertex names.

    Raises ResourceLimitError, before any label is made, when the graph the
    plan builds would have more than WITNESS_CLASS_CAP classes.

    The plan needs no check of its own, by these facts. Write Delta for
    max_degree(h); K has an edge, so 1 <= deg_h(x) <= Delta on V(K) and K
    has at least two vertices.

    - (c) follows from (a) and (d): (a) gives t <= r - 6 - Delta, so
      3r + t <= 4r - 6 - Delta < Delta + 2r^2, and m is the least even
      integer with m(r - 1) >= Delta + 2r^2 + t.
    - m > 2r >= 12: m(r - 1) >= 2r^2 > 2r(r - 1), and r >= 6 by (a).
    - The split: D - deg_h(x) = alpha(r - 1) + beta with 0 <= beta <= r - 2
      gives a_r = beta and a_rm1 = alpha - beta. By (d) D - deg_h(x) >= 2r^2
      = (2r + 1)(r - 1) + r + 1, so alpha >= 2r + 2 and a_rm1 >= r + 4. The
      parity shift takes r off the first vertex's a_rm1 only, leaving it at
      least 4.
    - The circulant: reg_k = (D + t)/(r - 1) - 2 = m - 2 exactly. It is even
      because m is, and at least 2 because m >= 12. t + deg_h(x) <= r - 6
      < r - 1, so D - deg_h(x) = m(r - 1) - (t + deg_h(x)) leaves alpha >=
      m - 1 at every K vertex. The shift takes one off a vertex's a_r +
      a_rm1 = alpha, so s = |S| >= 2(m - 1) - 1 = 2m - 3 > m - 2 = reg_k,
      and _circulant_pairs gets reg_k < s.
    """
    check_count("t", t)
    _validate_witness_subgraph(h, k_sel, t)

    delta = h.max_degree()
    r = delta + 6 + t
    if r % 2:
        r += 1
    m = -(-(delta + 2 * r * r + t) // (r - 1))  # ceil division
    if m % 2:
        m += 1
    D = m * (r - 1) - t

    k_indices = sorted(k_sel.mask)
    a_r: list[int] = []
    a_rm1: list[int] = []
    for i in k_indices:
        alpha, beta = divmod(D - h.deg[i], r - 1)
        a_r.append(beta)
        a_rm1.append(alpha - beta)
    if sum(a_r) % 2:
        a_r[0] += r - 1
        a_rm1[0] -= r

    reg_k = m - 2
    s = sum(a_r) + sum(a_rm1)
    # _build's classes: h's, the stage-1 pendants, the circulant on S, and
    # per vertex outside K one class of multiplicity r - 1 plus single copies
    classes = h.class_count + s + s * reg_k // 2 + sum(
        1 + D - h.deg[v] - (r - 1) for v in range(h.vertex_count) if v not in k_sel.mask
    )
    if classes > WITNESS_CLASS_CAP:
        raise ResourceLimitError(
            f"construct_witness capped at {WITNESS_CLASS_CAP} classes, the plan for t={t} makes {classes}"
        )

    prefix = _fresh_prefix(h.labels)
    s_r_vertices = tuple(f"{prefix}sr{i}" for i in range(sum(a_r)))
    s_rm1_vertices = tuple(f"{prefix}sq{i}" for i in range(sum(a_rm1)))
    matching = tuple(
        (s_r_vertices[2 * j], s_r_vertices[2 * j + 1]) for j in range(len(s_r_vertices) // 2)
    )

    return ConstructionPlan(
        t=t,
        D=D,
        r=r,
        reg_k=reg_k,
        k_vertices=tuple(h.labels[i] for i in k_indices),
        a_r=tuple(a_r),
        a_rm1=tuple(a_rm1),
        s_r_vertices=s_r_vertices,
        s_rm1_vertices=s_rm1_vertices,
        matching=matching,
    )


def _build(h: Multigraph, plan: ConstructionPlan) -> Multigraph:
    """The witness graph of a plan made by choose_params, built in index space.

    Vertices are h's, then S (S_r before S_{r-1}), then the pendants of
    stage 3 in the order they are made; every class is emitted as an index
    pair and the list is sorted once. The plan comes from choose_params, so
    its labels are fresh and the build needs no checks.
    """
    D, r = plan.D, plan.r
    n = len(h.labels)
    s_order = plan.s_vertices
    classes: list[tuple[int, int, int]] = list(h.index_classes)

    # Stage 1: pendant classes from K vertices into S_r and S_{r-1}.
    off_r = n
    off_q = n + plan.s_r
    for x, a_r, a_rm1 in zip(plan.k_vertices, plan.a_r, plan.a_rm1):
        xi = h.index_of(x)
        classes.extend((xi, y, r) for y in range(off_r, off_r + a_r))
        classes.extend((xi, y, r - 1) for y in range(off_q, off_q + a_rm1))
        off_r += a_r
        off_q += a_rm1

    # Stage 2: regular circulant on S, matching edges thinned to r-3. The
    # matching pairs the S_r positions (2i, 2i+1), so a circulant pair (i, j)
    # is matched exactly when i is even and j = i + 1 is in S_r.
    s_r = plan.s_r
    for i, j in _circulant_pairs(len(s_order), plan.reg_k):
        classes.append((n + i, n + j, r - 3 if i % 2 == 0 and j == i + 1 < s_r else r - 1))

    # Stage 3: top up the remaining h vertices with fresh pendants, named
    # with the prefix choose_params found fresh for the S labels.
    prefix = _fresh_prefix(h.labels)
    labels = list(h.labels) + list(s_order)
    px0 = len(labels)
    in_k = set(plan.k_vertices)
    for vi, v in enumerate(h.labels):
        if v in in_k:
            continue
        need = D - h.deg[vi]
        for mult in [r - 1] + [1] * (need - (r - 1)):
            classes.append((vi, len(labels), mult))
            labels.append(f"{prefix}px{len(labels) - px0}")

    classes.sort()
    return Multigraph._derived(labels, classes)


def construct_witness(h: Multigraph, t: int) -> tuple[Multigraph, ConstructionPlan]:
    """Build a graph with t-core h and certified fan(G) > max_degree(G) + t.

    Raises GraphError (carrying the corefan value) when corefan(h) <= t; no
    such graph exists then, so the precondition is sharp.
    """
    check_count("t", t)
    report = corefan(h)
    if report.value <= t:
        raise GraphError(
            f"corefan of the host graph is {report.value}, not above t={t}; "
            f"every graph with this t-core has Fan <= max_degree + t"
        )
    k_sel = report.witness.strip_isolated()
    plan = choose_params(h, t, k_sel)
    return _build(h, plan), plan


def verify_witness(
    h: Multigraph, t: int, g: Multigraph, plan: ConstructionPlan, max_diagnostics: int = 40
) -> tuple[bool, list[str]]:
    """Polynomial check that g certifies the construction's two claims.

    Five checks, none of which enumerate subgraphs: (1) max_degree(g) = D,
    attained exactly on V(h); (2) the t-core of g equals h, multiplicities
    included; (3) the S vertices hit their exact degree targets; (4) the
    plan's other keys describe g: its t is the t checked, reg_k =
    (D + t)/(r - 1) - 2, K vertex i has a_r[i] classes of multiplicity r
    into S_r and a_rm1[i] of multiplicity r - 1 into S_{r-1}, each
    matching pair is a class of multiplicity r - 3, no vertex is listed
    twice in k_vertices and S or in the matching, and S_r and S_{r-1} have
    sum(a_r) and sum(a_rm1) vertices; (5) on the subgraph J induced by
    V(K) and S, both fan-degree conditions fail at level D + t for every
    ordered pair on an edge, so every edge of J has fan degree above D + t
    and hence fan(g) > max_degree(g) + t.

    One pass over g's degrees gives the maximum and the degree-D set; the
    t-core is the only graph built. J is never built: the certificates are
    read on g under a membership mask, one anchor pass per vertex deciding
    all of its pairs (see fanmetrics), so the whole check is linear in g's
    classes on every input.

    The checks yield their messages lazily, in the order above. At most
    max_diagnostics of them are kept, and checking stops at the first
    problem past the cap: the verdict says whether any problem was found,
    so a cap of 0 or below still returns False, having looked no further
    than the first problem, and a cap past sys.maxsize keeps every
    message. t is checked before anything else, so a bad t raises
    GraphError at every cap; a max_diagnostics that is not an int does too.
    """
    check_count("t", t)
    check_int("max_diagnostics", max_diagnostics)
    problems = _diagnostics(h, t, g, plan)
    kept = list(islice(problems, min(max(max_diagnostics, 0), sys.maxsize)))
    return not kept and next(problems, None) is None, kept


def _diagnostics(h: Multigraph, t: int, g: Multigraph, plan: ConstructionPlan):
    """verify_witness's messages, each yielded as soon as its check finds it."""
    D, r = plan.D, plan.r
    labels, deg, index = g.labels, g.deg, g._index

    delta = max(deg, default=0)
    if delta != D:
        yield f"degree: max degree is {delta}, expected D={D}"
    want_top = set(h.labels)
    got_top = {v for v, d in zip(labels, deg) if d == D}
    if got_top != want_top:
        extra = sorted(got_top - want_top)[:3]
        missing = sorted(want_top - got_top)[:3]
        yield f"degree: degree-D vertex set mismatch (extra={extra}, missing={missing})"

    if t_core(g, t) != h:
        yield "core: the t-core of the constructed graph is not the host graph"

    listed = plan.k_vertices + plan.s_vertices
    matched = tuple(v for pair in plan.matching for v in pair)
    unknown = [v for v in listed + matched if v not in index]
    if unknown:
        yield f"plan: vertices {unknown[:3]} are not in the graph"
        return

    for vertices, want in ((plan.s_rm1_vertices, D - (r - 1) + t), (plan.s_r_vertices, D - r + t)):
        for v in vertices:
            if deg[index[v]] != want:
                yield f"s-degrees: {v} has degree {deg[index[v]]}, expected {want}"

    if plan.t != t:
        yield f"plan: t={plan.t} is not the t={t} checked"
    if (plan.reg_k + 2) * (r - 1) != D + t:
        yield f"plan: reg_k={plan.reg_k} is not (D+t)/(r-1) - 2"
    s_r = {index[v] for v in plan.s_r_vertices}
    s_rm1 = {index[v] for v in plan.s_rm1_vertices}
    for x, want_r, want_rm1 in zip(plan.k_vertices, plan.a_r, plan.a_rm1):
        adj = g.adj[index[x]]
        got_r = sum(1 for y, m in adj.items() if m == r and y in s_r)
        got_rm1 = sum(1 for y, m in adj.items() if m == r - 1 and y in s_rm1)
        if (got_r, got_rm1) != (want_r, want_rm1):
            yield (
                f"plan: {x} has {got_r} classes of multiplicity r into S_r and {got_rm1} of "
                f"multiplicity r-1 into S_r-1, expected a_r={want_r} and a_rm1={want_rm1}"
            )
    for u, v in plan.matching:
        m = g.adj[index[u]].get(index[v], 0)
        if m != r - 3:
            yield f"plan: matching pair {u} {v} has multiplicity {m}, expected r-3={r - 3}"
    for where, vertices in (("k_vertices, s_r and s_rm1", listed), ("the matching", matched)):
        twice = sorted(v for v, count in Counter(vertices).items() if count > 1)
        if twice:
            yield f"plan: vertices {twice[:3]} are listed more than once in {where}"
    for key, vertices, split in (("s_r", plan.s_r_vertices, "a_r"), ("s_rm1", plan.s_rm1_vertices, "a_rm1")):
        want = sum(getattr(plan, split))
        if len(vertices) != want:
            yield f"plan: {key} has {len(vertices)} vertices, expected sum({split})={want}"

    level = D + t
    members = {index[v] for v in listed}
    for x, y in _failing_pairs(g, members, level):
        yield f"edge-certificate: fan degree of ({labels[x]},{labels[y]}) is not above {level}"


# -- plan sidecar text ----------------------------------------------------


# One 'key=value' line per field, in this order: the sidecar key, the
# ConstructionPlan field it holds and the field's kind.
_PLAN_FIELDS = (
    ("t", "t", "scalar"),
    ("D", "D", "scalar"),
    ("r", "r", "scalar"),
    ("reg_k", "reg_k", "scalar"),
    ("k_vertices", "k_vertices", "labels"),
    ("a_r", "a_r", "split"),
    ("a_rm1", "a_rm1", "split"),
    ("s_r", "s_r_vertices", "labels"),
    ("s_rm1", "s_rm1_vertices", "labels"),
    ("matching", "matching", "pairs"),
)

# How each kind of field is written and read back: one integer, integers,
# labels, or label pairs flattened; lists are space-separated.
_KINDS = {
    "scalar": (str, _int),
    "split": (lambda v: " ".join(map(str, v)), lambda text: tuple(map(_int, text.split()))),
    "labels": (" ".join, lambda text: tuple(text.split())),
    "pairs": (lambda v: " ".join(x for pair in v for x in pair), lambda text: tuple(zip(*[iter(text.split())] * 2))),
}


def plan_to_text(plan: ConstructionPlan) -> str:
    return "".join(f"{key}={_KINDS[kind][0](getattr(plan, field))}\n" for key, field, kind in _PLAN_FIELDS)


def plan_from_text(text: str) -> ConstructionPlan:
    """Read a plan sidecar; every key exactly once, each split one entry per K vertex."""
    keys = [key for key, _, _ in _PLAN_FIELDS]
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_split_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GraphError(f"plan line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise GraphError(f"plan line {lineno}: unknown key {key!r}")
        if key in values:
            raise GraphError(f"plan line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    missing = [k for k in keys if k not in values]
    if missing:
        raise GraphError(f"plan is missing keys: {', '.join(missing)}")
    fields = {}
    for key, field, kind in _PLAN_FIELDS:
        try:
            fields[field] = _KINDS[kind][1](values[key])
        except ValueError as exc:  # only the integer kinds raise it
            raise GraphError(f"plan has a non-integer {kind}: {exc}") from None
    plan = ConstructionPlan(**fields)
    if len(values["matching"].split()) % 2:
        raise GraphError("plan matching must list an even number of labels")
    return plan
