"""Fan degree, fan number, and their core-relative variants.

For a graph J and an ordered pair (x, y) on an edge of J, the fan degree
deg_J(x, y) is the smallest nonnegative k such that either

  (i)  d_J(x) + d_J(y) - mult_J(x, y) <= k, or
  (ii) sum over z in Z of (d_J(z) + mult_J(x, z) - k) <= 1 for every
       Z subset of N_J(x) with y in Z and |Z| >= 2.

fan(G) is the maximum over subgraphs J with an edge of the minimum fan
degree over ordered pairs on edges of J, and Fan(G) = max(max_degree, fan)
is an upper bound on the chromatic index.

The core-relative cfan degree replaces absolute degrees by the deficit
d_K(z) - d_H(z) of a subgraph K inside its host H, and drops the |Z| >= 2
restriction. corefan(H) maximizes the minimum cfan degree over subgraphs K
that keep each parallel class whole or drop it; the whole-class argument
below shows this does not change the value. corefan_bruteforce searches
every sub-multiplicity as an independent oracle.

Subset notation is read non-strictly throughout (Z may equal N(x), K may
equal H): singleton and whole-graph cases are exactly the ones several of
the tested equivalences depend on.

Each invariant has one pair test, "level of (x, y) above k", and every
search, degree and certificate decides through it. The worst-set sum does
not increase with the level, so the test is monotone in k: the searches
compare a pair with a threshold, and a degree is bisected between 0 and
d(x) + d(y), at or above either invariant's cap, in O(log d) tests. The
test is one pass over the adjacency of x with no container built: it
adds up the positive contributions b_z - k over N(x), b_z being the term
of z, and for the fan degree, whose Z needs two members, it also keeps
the two largest terms. The worst sum of (x, y) is then the total less
y's own positive part plus y's contribution, and, when no other positive
term supplies Z's second member, the largest term other than y's: the
largest unless y holds it, else the second, which equals it on a tie.
The fan test checks condition (i), d_J(x) + d_J(y) - mult_J(x, y) <= k,
before the pass. The cfan value needs no cap check: at or above the
largest term no contribution is positive. Only a certifying set builds
the terms into a dict, once per reported pair.

Both invariants are a maximum over subgraphs J of the minimum over the
classes c of J of p(c, J), the smaller of c's two ordered-pair degrees,
and p is monotone in J: an added edge instance raises every d_J(z) and
mult_J(x, z), hence every term and the fan cap d_J(x) + d_J(y) -
mult_J(x, y), and can only add admissible sets Z. As for generalized
cores (Batagelj and Zaversnik, arXiv cs/0202039; Matula and Beck, JACM
1983), the subgraphs whose every p is at least v are then closed under
union, their union is the largest of them, the v-core, and the value v*
is the largest v with a nonempty v-core.

The v-core is found by peeling whole classes. Inside a box, a class that
fails either pair test at level v - 1 fails in every subgraph of the box
that keeps it, at any multiplicity, since that subgraph lies in the box;
so it is deleted whole, and sweeps over the box repeat until none fails.
The survivors keep their box multiplicity. By the same monotonicity a
subgraph whose every p is at least v keeps that property when each of
its classes is raised to host multiplicity, so the largest value is
attained by a subgraph of whole classes: the reason corefan may search
full-multiplicity candidates only, and fan_number's value needs no
partial class either. Cores nest as v grows, so v* is bisected between
0, whose core is the host, and the largest d(i) + d(j) over classes,
which no degree reaches; each probe peels the last nonempty core, in
O(classes) pair tests per sweep. _value is that bisection and the one
entry to the value: it returns v* and its core and searches no witness,
so fan_bound reads it alone, and only a report (fan_number, corefan)
goes on to the witness search below.

The witness is pinned for reproducibility: the first maximiser in the
enumeration order below. Every maximiser lies in the v*-core, so the
enumerator runs over the core's classes only, each at its host
multiplicity, the others at 0, which visits the vectors of that box in
the same relative order as the whole space. It drops a candidate at its
first pair whose level is not above the fixed floor v* - 1 and stops at
the first candidate that survives. Its minimum is at least v*, so it is
a maximiser, and every candidate before it in the whole space either
keeps a class outside the core or was dropped, so none of them is: it is
the first maximiser. The reported pair is the candidate's first pair
whose test at v* fails, the first pair attaining the minimum.

The search starts at the first maximiser's highest class. Colex order
puts a vector whose highest class is lower first, and a maximiser whose
highest class is the core's class h lies in the core of the core's
classes 0..h, since it qualifies there. That prefix core is itself a
maximiser, and prefix cores nest, so the first maximiser's highest class
is the smallest h whose prefix core is nonempty, h*, bisected in about
log2 C peels at v* - 1 for a core of C classes. The search box is that
prefix core: every maximiser of highest class h* lies in it, and its
last class is h*, as the prefix before h* has an empty core. The walk
starts at the last vector before h*'s block, every class below h* at its
top value and h* at 0, so it visits only the box's vectors that keep h*,
in the whole space's relative order, and finds the same survivor, pair
and certifying set. On dense hosts, whose core is the whole host, that
about halves the walk. Where the core's vector space, the product of 2
(corefan) or of m + 1 (fan_number) over its classes, is at most C², the
peels cost more than the walk they save, so the whole core is walked
from its first vector; so it is at value 0, where every vector is a
maximiser and the first one is the witness. The value takes O(log d)
probes; the walk over the top class's block remains, a cost only the
reports pay.

Enumeration order is pinned for reproducible witnesses. Classes are sorted
by dense endpoint pair, and candidates are multiplicity vectors in
colexicographic order, class 0 the fastest digit, each class taking every
multiplicity 0..m (fan_number, corefan_bruteforce) or only 0 and m
(corefan, full_multiplicity_criterion). Within a candidate, ordered pairs
are tried class by class as (lo, hi) then (hi, lo). Colex counting
changes fewer than two classes per step on average, so the candidate's
degrees and adjacency are updated in place, not rebuilt. Candidates live
in the host's dense index space as plain degree and adjacency lists; the
witness subgraph, label pair and certifying set are built once, for the
winner only.

corefan_bruteforce runs the same enumerator over the whole space with a
floor that follows the best value so far, -1 at first, which every
degree exceeds. A candidate is dropped at its first pair whose degree is
not above the floor, as its minimum cannot then exceed it; a survivor
beats the best strictly, gets its exact minimum, and raises the floor, so
the first candidate attaining the maximum is the one kept, at most
value + 1 candidates survive, and a dropped one costs about one pair
test.

The certificate kernel behind verify_witness, _failing_pairs, shares the
fan test's rule and its pass: one anchor pass per vertex of J gives the
total and the two largest terms, and each pair of that anchor is decided
from them by the cap check and the worst sum, each O(1). So the
certificate of a whole graph, or of a subgraph read in place on its host,
costs time linear in its classes on every input. The same pass keeps the
anchor's least term and least slack d_J(y) - mult_J(x, y), and an anchor
whose every pair passes is known from them alone and lists no pair: no
slack meets the cap, and the worst sum, which does not decrease as the
term grows over one anchor's terms, is above 1 at the least term. Every
vertex of a valid witness is such an anchor, so a certificate that holds
makes no per-pair step; any other anchor decides its pairs one by one as
above.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from math import inf, prod
from typing import Optional, Union

from .errors import GraphError, ResourceLimitError, check_cap
from .multigraph import Multigraph, SubgraphSelection

FAN_PRODUCT_CAP = 1 << 20
COREFAN_CLASS_CAP = 20
BRUTEFORCE_PRODUCT_CAP = 1 << 16

GraphLike = Union[Multigraph, SubgraphSelection]


# -- per-pair degrees ----------------------------------------------------
#
# For fixed x and k, condition (ii) ranges over all admissible Z. The sum
# is maximized by taking y together with every other neighbour whose term
# is positive, padding with the best remaining neighbour when a minimum
# size of 2 is required. Checking that single worst set decides (ii). Each
# term falls as k grows, so the worst sum does not increase with k: once
# (ii) holds at some k it holds above it, and the level of a pair exceeds
# k exactly when both conditions fail at k itself.


def _worst_sum(total: int, by: int, k: int, need_two: bool, first: int, second: int) -> int:
    """The largest sum over admissible Z at level k, for the pair (x, y).

    total is the sum of the positive contributions over N(x) at level k and
    by the term of y, so the answer costs O(1) per pair. first and second,
    the two largest terms of x, are read only when need_two is set and y
    has no positive company: Z is then padded with the largest term other
    than y's, first unless y holds it, else second (equal on a tie). second
    is 0 when x has no second neighbour (every fan term is at least 2), and
    then no Z is admissible; the sum is 0.
    """
    ty = by - k
    rest = total - (ty if ty > 0 else 0)  # all positive contributions but y's
    if rest or not need_two:
        return ty + rest
    if by < first:
        return ty + first - k
    return ty + second - k if second else 0


def _fan_anchor(deg, adj, x: int, k: int) -> tuple[int, int, int, float, float]:
    """The anchor pass of x at level k: (total, first, second, least, slack).

    One pass over adj[x] adds up the positive contributions b_z - k, the
    term of neighbour z being b_z = d_J(z) + mult_J(x, z), and keeps the two
    largest terms, second being 0 when x has one neighbour; _worst_sum reads
    these three. It also keeps the least term and the least slack
    d_J(z) - mult_J(x, z), both infinite when x has no neighbour, which
    _failing_pairs reads. It depends on x and k only, so one pass decides
    every pair anchored at x.
    """
    total = first = second = 0
    least = slack = inf
    for z, m in adj[x].items():
        d = deg[z]
        b = d + m
        if b < least:
            least = b
        if d - m < slack:
            slack = d - m
        if b > k:
            total += b - k
        if b > second:
            if b > first:
                first, second = b, first
            else:
                second = b
    return total, first, second, least, slack


def _fan_exceeds(deg, adj, x: int, y: int, k: int) -> bool:
    """Whether the fan degree of the index pair (x, y) is above k.

    Every level is at least 0, so it is above each negative k. Otherwise
    both conditions must fail at k itself: the degree-sum bound
    d_J(x) + d_J(y) - mult_J(x, y), checked first, must exceed k, and the
    worst Z, read from x's anchor pass (_fan_anchor), must sum to at least
    2. The term of y is d_J(y) + mult_J(x, y), and Z needs two members.
    """
    if k < 0:
        return True
    ax = adj[x]
    if k >= deg[x] + deg[y] - ax[y]:
        return False
    total, first, second, _, _ = _fan_anchor(deg, adj, x, k)
    return _worst_sum(total, deg[y] + ax[y], k, True, first, second) > 1


def _cfan_exceeds(hdeg, deg, adj, x: int, y: int, k: int) -> bool:
    """Whether the cfan degree of the index pair (x, y) is above k.

    The term of neighbour z is the deficit d_K(z) - d_H(z) plus
    mult_K(x, z), and Z may be {y} alone, so one pass over adj[x] collects
    the positive total and nothing else. The largest term caps the value
    without a check of its own: at or above it no contribution is positive
    and no Z sums above 0.
    """
    if k < 0:
        return True
    total = 0
    for z, m in adj[x].items():
        b = deg[z] - hdeg[z] + m
        if b > k:
            total += b - k
    return _worst_sum(total, deg[y] - hdeg[y] + adj[x][y], k, False, 0, 0) > 1


def _level(exceeds, deg, adj, x: int, y: int) -> int:
    """The degree of (x, y): the smallest k >= 0 at which exceeds(deg, adj, x, y, k) fails.

    The test is monotone in k and fails at d(x) + d(y), which is at or
    above either invariant's cap, so the level is bisected below it in
    O(log d) pair tests.
    """
    return bisect_left(range(deg[x] + deg[y]), True, key=lambda k: not exceeds(deg, adj, x, y, k))


def _cfan_level(h: Multigraph, k_sel: SubgraphSelection, x: int, y: int) -> int:
    """The cfan degree of the index pair (x, y) of k_sel inside its host h."""
    return _level(partial(_cfan_exceeds, h.deg), k_sel.deg, k_sel.adj, x, y)


def _fan_terms(deg, adj, x: int) -> dict[int, int]:
    """Each neighbour z of x mapped to its fan term d_J(z) + mult_J(x, z)."""
    return {z: deg[z] + m for z, m in adj[x].items()}


def _cfan_terms(hdeg, deg, adj, x: int) -> dict[int, int]:
    """Each neighbour z of x mapped to its cfan term d_K(z) - d_H(z) + mult_K(x, z)."""
    return {z: deg[z] - hdeg[z] + m for z, m in adj[x].items()}


def _worst_set(terms: dict[int, int], y: int, k: int, need_two: bool) -> list[int]:
    """The Z attaining _worst_sum, unordered; just y when none is admissible.

    Only certificates need the set, built once per report from the terms
    dict, so the pair tests read _worst_sum alone. The padding neighbour is
    the one of largest term, the smallest index winning a tie.
    """
    zset = [y] + [z for z, b in terms.items() if b > k and z != y]
    if need_two and len(zset) == 1:
        others = [z for z in terms if z != y]
        if others:
            zset.append(max(others, key=lambda z: (terms[z], -z)))
    return zset


def _certified(labels, value: int, terms: dict[int, int], y: int, need_two: bool) -> tuple[int, frozenset[str]]:
    """value plus the certifying set described in fan_degree, as labels."""
    zset = _worst_set(terms, y, value - 1, need_two) if value else (y,)
    return value, frozenset(labels[z] for z in zset)


def _pair_indices(j: GraphLike, x: str, y: str) -> tuple[int, int]:
    xi, yi = j.index_of(x), j.index_of(y)
    if yi not in j.adj[xi]:
        raise GraphError(f"pair {x!r},{y!r} has no edge in the subgraph")
    return xi, yi


def fan_degree(j: GraphLike, x: str, y: str) -> tuple[int, frozenset[str]]:
    """Fan degree of the ordered pair (x, y) plus a certifying vertex set.

    The value is the smallest k at which (i) holds or the worst-Z sum drops
    to at most 1, bisected between 0 and d_J(x) + d_J(y). For a positive
    value the returned set is the worst Z at k = value - 1, the explicit
    violator showing the value cannot be smaller; for value 0 it
    degenerates to {y}.
    """
    xi, yi = _pair_indices(j, x, y)
    deg, adj = j.deg, j.adj
    return _certified(j.labels, _level(_fan_exceeds, deg, adj, xi, yi), _fan_terms(deg, adj, xi), yi, True)


def fan_pair_exceeds(j: GraphLike, x: str, y: str, k: int) -> tuple[bool, Optional[frozenset[str]]]:
    """Decide deg_J(x, y) > k without computing the degree.

    Both defining conditions must fail at level k: the degree-sum bound
    must exceed k, and the worst admissible Z must sum to at least 2.
    Returns the violating Z when the answer is True, so the answer can be
    checked by hand where the fan degree itself is astronomically large.
    verify_witness does not call it: _failing_pairs makes the same test on
    every edge of a witness, with one anchor pass per vertex, so the whole
    certificate is linear in the witness's classes. A negative k raises
    GraphError.
    """
    if k < 0:
        raise GraphError(f"level {k} is negative")
    xi, yi = _pair_indices(j, x, y)
    if not _fan_exceeds(j.deg, j.adj, xi, yi, k):
        return False, None
    return True, frozenset(j.labels[z] for z in _worst_set(_fan_terms(j.deg, j.adj, xi), yi, k, True))


def _failing_pairs(g: Multigraph, members, k: int) -> list[tuple[int, int]]:
    """The ordered pairs on edges of J = g[members] whose fan degree is not above k.

    members are distinct vertex indices of g. J is read on g in place: a
    member with a neighbour outside J gets a filtered copy of its adjacency
    and the degree that copy sums to, every other member keeps g's. Each
    anchor x gets one pass, _fan_anchor, and each of its pairs (x, y) is
    decided from it by _fan_exceeds' rule: it fails when k >= d_J(x) +
    d_J(y) - mult_J(x, y) or its worst sum is at most 1. The worst sum reads
    y only through its term d_J(y) + mult_J(x, y) and costs O(1) from the
    pass, so the kernel is linear in J's classes on every input.
    A negative k fails no pair, as every level is at least 0. The pairs,
    indices of g, come class by class as (lo, hi) then (hi, lo) in index
    pair order, which is J's.

    An anchor with no failing pair skips that per-pair loop, as every
    vertex of a valid witness does. Its least slack d_J(y) - mult_J(x, y)
    is above k - d_J(x), so no pair meets the cap, and the worst sum of its
    least term is above 1, which is then true of every term: over the terms
    of one anchor the worst sum does not decrease as the term b grows. A
    lone neighbour's term is the only one. Otherwise second is at least
    every term but the largest, first. With a positive total, b <= k sums
    to total + b - k, and b > k to the total, or, when b is the only
    positive term, hence first, to total + second - k. With no positive
    total, b < first sums to b + first - 2k, and first to first + second -
    2k.
    """
    deg, adj, inside = list(g.deg), list(g.adj), set(members)
    for x in inside:
        if not all(map(inside.__contains__, adj[x])):
            adj[x] = a = {z: m for z, m in adj[x].items() if z in inside}
            deg[x] = sum(a.values())
    bad = []
    for x in filter(adj.__getitem__, inside):  # an isolated member has no pair
        total, first, second, least, slack = _fan_anchor(deg, adj, x, k)
        cap = k - deg[x]
        if slack > cap and _worst_sum(total, least, k, True, first, second) > 1:
            continue
        for y, m in adj[x].items():  # a negative k fails no pair: every level is at least 0
            if deg[y] - m <= cap or k >= 0 and _worst_sum(total, deg[y] + m, k, True, first, second) <= 1:
                bad.append((x, y))
    bad.sort(key=lambda p: (min(p), max(p), p[0] > p[1]))
    return bad


def cfan_degree(h: Multigraph, k_sel: SubgraphSelection, x: str, y: str) -> tuple[int, frozenset[str]]:
    """Core-relative fan degree of (x, y) for the subgraph selection inside h.

    Smallest l such that for every Z subset of N_K(x) containing y (no
    minimum size), sum over Z of (d_K(z) - d_H(z) + mult_K(x, z) - l) <= 1.
    The certifying set follows the same convention as fan_degree.
    """
    k_sel._check_host(h)
    xi, yi = _pair_indices(k_sel, x, y)
    terms = _cfan_terms(h.deg, k_sel.deg, k_sel.adj, xi)
    return _certified(h.labels, _cfan_level(h, k_sel, xi, yi), terms, yi, False)


# -- the subgraph max-min -------------------------------------------------


@dataclass(frozen=True)
class FanReport:
    """A computed invariant value with enough context to recheck it.

    value is the peeled maximum; witness is the first maximizing subgraph
    in the pinned enumeration order, found by searching the value's core,
    pair the first ordered pair attaining the inner minimum there, and
    zset the certifying vertex set for that pair (see the module
    docstring). For an edgeless input the report is the trivial one
    (value 0, no pair).
    """

    kind: str  # "fan" or "corefan"
    value: int
    witness: SubgraphSelection
    pair: Optional[tuple[str, str]]
    zset: frozenset[str]

    def re_evaluate(self) -> int:
        """Recompute the degree of the witness pair inside the witness."""
        if self.pair is None:
            return 0
        x, y = self.pair
        if self.kind == "fan":
            return fan_degree(self.witness, x, y)[0]
        return cfan_degree(self.witness.parent, self.witness, x, y)[0]


def _assignment_space(classes, cap: int, op: str) -> None:
    check_cap("max_product", cap)
    product = 1
    for _, _, m in classes:
        product *= m + 1
        if product > cap:
            raise ResourceLimitError(
                f"{op}: assignment space exceeds the cap of {cap} candidates"
            )


def _class_cap(classes, cap: int, op: str) -> None:
    check_cap("max_classes", cap)
    if len(classes) > cap:
        raise ResourceLimitError(f"{op}: {len(classes)} parallel classes exceed the cap of {cap}")


def _selections(classes, full_only: bool, vec: Optional[list[int]] = None):
    """Yield the nonempty multiplicity vectors over classes in colex order.

    Class 0 is the fastest digit. A class of multiplicity m takes every
    value 0..m, or only 0 and m when full_only is set. One list is yielded
    throughout, updated in place, together with the highest class it
    changed: every class below that one was reset to 0. The walk starts
    after vec, all zeros by default, and runs to the last vector, every
    class at its top value; _max_min passes the last vector before the
    last class's block, every other class at its top value and the last
    at 0, to walk that block alone.
    """
    n = len(classes)
    vec = [0] * n if vec is None else vec
    while True:
        pos = 0
        while pos < n and vec[pos] == classes[pos][2]:
            vec[pos] = 0
            pos += 1
        if pos == n:
            return
        vec[pos] = classes[pos][2] if full_only else vec[pos] + 1
        yield vec, pos


def _kept(classes, vec) -> list[tuple[int, int, int]]:
    """The classes (i, j, m) that vec keeps, each at its multiplicity m in vec."""
    return [(i, j, m) for (i, j, _), m in zip(classes, vec) if m]


def _selection(g: Multigraph, vec) -> SubgraphSelection:
    """The subgraph of g keeping multiplicity vec[c] of its class c."""
    return SubgraphSelection._derived(g, _kept(g.index_classes, vec))


def _max_min(n: int, classes, full_only: bool, exceeds, floor: Optional[int] = None, top: bool = False):
    """Maximum over selections of classes of the minimum degree over ordered pairs.

    classes are index classes (i, j, m) of a graph on n vertices, the box
    searched; exceeds(deg, adj, x, y, k) is the invariant's pair test,
    "level of (x, y) above k", in the index space of the candidate. Returns
    (value, kept classes, (x, y)) for the first maximizing selection and
    its first minimizing pair, with x and y dense indices; None when no
    candidate has every pair above floor.

    One deg and adj follow the enumeration, updated only on the classes
    a step changed: those below the changed class drop from their top value
    to 0, and the changed class rises. The classes are walked by index from
    the changed one, as those below it are off, and a candidate is dropped
    at its first pair whose level is not above floor. A candidate that
    survives has its minimum above floor. A floor passed in stays fixed and
    the first survivor is returned, its value floor + 1: the caller passes
    one below the known maximum. Without one, floor starts at -1, the
    minimum of every survivor is bisected and becomes the new floor, so at
    most value + 1 candidates survive. Either way the reported pair is the
    first whose level is not above the value. A dropped candidate costs its
    update and about one pair test, a pass over one adjacency dict.

    The walk starts at the first vector, or, with top set, at the last
    vector before the last class's block: every other class at its top
    value, in deg and adj as well, and the last at 0. Only the vectors that
    keep the last class are then visited, in the same relative order, and
    the first step resets every class below the last from its top value,
    as the update expects.
    """
    first = floor is not None
    floor = floor if first else -1
    deg = [0] * n
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    vec = [0] * len(classes)
    for c, (i, j, m) in enumerate(classes[:-1] if top else ()):
        vec[c] = m
        deg[i] += m
        deg[j] += m
        adj[i][j] = adj[j][i] = m
    best = None
    for vec, changed in _selections(classes, full_only, vec):
        for c in range(changed):  # each was at its top value and is reset to 0
            i, j, m = classes[c]
            deg[i] -= m
            deg[j] -= m
            del adj[i][j], adj[j][i]
        i, j, _ = classes[changed]
        m = vec[changed]
        step = m - adj[i].get(j, 0)
        deg[i] += step
        deg[j] += step
        adj[i][j] = adj[j][i] = m
        for c in range(changed, len(classes)):
            if vec[c]:
                i, j, _ = classes[c]
                if not (exceeds(deg, adj, i, j, floor) and exceeds(deg, adj, j, i, floor)):
                    break
        else:
            kept = _kept(classes, vec)
            pairs = [(x, y) for i, j, _ in kept for x, y in ((i, j), (j, i))]
            floor = floor + 1 if first else min(_level(exceeds, deg, adj, x, y) for x, y in pairs)
            best = floor, kept, next(p for p in pairs if not exceeds(deg, adj, *p, floor))
            if first:
                return best
    return best


def _core(n: int, box, exceeds, k: int) -> list[tuple[int, int, int]]:
    """The classes of the largest subgraph of box whose every class passes both pair tests at k.

    box is a list of index classes (i, j, m) of a graph on n vertices,
    each at its multiplicity in the box. A class whose pair test fails
    fails in every subgraph of the box that keeps it, at any multiplicity,
    as the degree is monotone in the subgraph (see the module docstring),
    so whole classes are deleted, in sweeps over the box until one deletes
    nothing, and the survivors keep their box multiplicity. Which failing
    class goes first does not change the result.
    """
    deg = [0] * n
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, m in box:
        deg[i] += m
        deg[j] += m
        adj[i][j] = adj[j][i] = m
    while True:
        kept = []
        for c in box:
            i, j, m = c
            if exceeds(deg, adj, i, j, k) and exceeds(deg, adj, j, i, k):
                kept.append(c)
            else:
                deg[i] -= m
                deg[j] -= m
                del adj[i][j], adj[j][i]
        if len(kept) == len(box):
            return kept
        box = kept


def _value(g: Multigraph, exceeds) -> tuple[int, list[tuple[int, int, int]]]:
    """The peeled value v* of g and its v*-core, as index classes; (0, []) for no class.

    The v-core, _core at level v - 1, is nonempty exactly when some
    subgraph has every pair degree at least v, and cores nest, so v* is
    bisected: the 0-core is g, no core exists at the largest d(i) + d(j)
    over classes, which no degree reaches, and each probe peels the last
    nonempty core. No witness is searched; every maximiser lies in the
    returned core. With no class there is nothing to bisect and the core
    is empty.
    """
    n, deg, core = len(g.labels), g.deg, list(g.index_classes)
    low, high = 0, max((deg[i] + deg[j] for i, j, _ in core), default=0)
    while high - low > 1:
        mid = (low + high) // 2
        inner = _core(n, core, exceeds, mid - 1)
        if inner:
            low, core = mid, inner
        else:
            high = mid
    return low, core


def _report(kind: str, g: Multigraph, full_only: bool, exceeds) -> FanReport:
    """The FanReport of g's first maximiser; the trivial one for no class.

    The value and its core come from _value. The witness search is _max_min
    over that core at the fixed floor v* - 1, whose first survivor is the
    first maximiser. Unless the value is 0 (every vector is a maximiser)
    or the core's vector space is at most C² for C classes, the first
    maximiser's highest class h* is bisected first, and the search runs
    over the core of the core's classes 0..h* from the last vector before
    h*'s block (see the module docstring); where h* is the core's last
    class, the core is that box already and is not peeled again.
    A core with no survivor is an error in the peel, raised, not reported.
    The reported pair's level is the value itself, so its certifying set is
    read at the value without another bisection.
    """
    value, core = _value(g, exceeds)
    n = len(g.labels)
    top = value > 0 and len(core) ** 2 < prod(2 if full_only else m + 1 for _, _, m in core)
    if core and top:  # the core of the shortest prefix of the core whose own core is nonempty
        h = bisect_left(range(len(core) - 1), True, key=lambda h: bool(_core(n, core[:h + 1], exceeds, value - 1)))
        core = _core(n, core[:h + 1], exceeds, value - 1) if h < len(core) - 1 else core
    best = _max_min(n, core, full_only, exceeds, value - 1, top) if core else (0, [], None)
    if best is None:
        raise RuntimeError(f"no selection of the {value}-core attains {value}")
    _, kept, pair = best
    sel = SubgraphSelection._derived(g, kept)
    if pair is None:
        return FanReport(kind=kind, value=value, witness=sel, pair=None, zset=frozenset())
    x, y = pair
    fan = kind == "fan"
    terms = _fan_terms(sel.deg, sel.adj, x) if fan else _cfan_terms(g.deg, sel.deg, sel.adj, x)
    _, zset = _certified(g.labels, value, terms, y, fan)
    return FanReport(kind=kind, value=value, witness=sel, pair=(g.labels[x], g.labels[y]), zset=zset)


def fan_number(g: Multigraph, max_product: int = FAN_PRODUCT_CAP) -> FanReport:
    """fan(g) with a maximizing subgraph and minimizing pair as witness.

    The value is peeled; the witness is the first maximiser among the
    sub-multiplicity assignments with at least one edge, searched inside
    the value's core. Guarded by a cap on prod(mult + 1) over parallel
    classes.
    """
    _assignment_space(g.index_classes, max_product, "fan_number")
    return _report("fan", g, False, _fan_exceeds)


def fan_bound(g: Multigraph, max_product: int = FAN_PRODUCT_CAP) -> int:
    """Fan(g) = max(max_degree, fan); an upper bound on the chromatic index.

    fan is read from the peel alone (_value): no report is built and no
    witness searched. The cap on prod(mult + 1) over parallel classes is
    fan_number's, refusing the same inputs; here it bounds the peel, whose
    sweeps can go quadratic in the classes.
    """
    _assignment_space(g.index_classes, max_product, "fan_bound")
    return max(g.max_degree(), _value(g, _fan_exceeds)[0])


def corefan(h: Multigraph, max_classes: int = COREFAN_CLASS_CAP) -> FanReport:
    """corefan(h) over full-multiplicity subgraphs, with witness.

    Each parallel class is kept at full multiplicity or dropped, which is
    value-preserving (see module docstring) and which corefan_bruteforce
    verifies independently on enumerable inputs. The value is peeled; the
    witness is the first maximiser among those 2^(#classes) candidates,
    searched inside the value's core. Guarded by a cap on the classes.
    """
    _class_cap(h.index_classes, max_classes, "corefan")
    return _report("corefan", h, True, partial(_cfan_exceeds, h.deg))


def corefan_bruteforce(h: Multigraph, max_product: int = BRUTEFORCE_PRODUCT_CAP) -> int:
    """corefan(h) by enumerating every sub-multiplicity assignment.

    Oracle counterpart of corefan, by the running-floor search and no
    peeling; returns the value only.
    """
    _assignment_space(h.index_classes, max_product, "corefan_bruteforce")
    best = _max_min(len(h.labels), h.index_classes, False, partial(_cfan_exceeds, h.deg))
    return best[0] if best else 0


# -- constant-multiplicity criterion --------------------------------------


def degree_preserving_set(sel: SubgraphSelection) -> frozenset[str]:
    """Vertices of the selection whose degree matches the parent's."""
    parent = sel.parent
    deg = sel.deg
    return frozenset(
        parent.labels[i] for i in sel.mask if deg[i] == parent.deg[i]
    )


def has_qualifying_edge(h: Multigraph, sel: SubgraphSelection) -> bool:
    """Some edge xy of the selection satisfies the degree-slack inequality.

    The inequality, for Z the degree-preserving set of the selection, is
    |(N_H(x) & Z) - {y}| <= d_H(y) - d_K(y); both orientations of every
    selected class are tried.
    """
    sel._check_host(h)
    hadj, hdeg, kdeg = h.adj, h.deg, sel.deg
    preserved = {i for i in sel.mask if kdeg[i] == hdeg[i]}
    for i, j, _ in sel.index_classes:
        for x, y in ((i, j), (j, i)):
            lhs = sum(1 for z in hadj[x] if z in preserved and z != y)
            if lhs <= hdeg[y] - kdeg[y]:
                return True
    return False


def full_multiplicity_criterion(
    h: Multigraph, max_classes: int = COREFAN_CLASS_CAP
) -> tuple[bool, list[tuple[SubgraphSelection, bool]]]:
    """Per-subgraph qualifying-edge check for constant-multiplicity graphs.

    Requires every class of h to carry the same multiplicity t+1. Reports,
    for each nonempty full-multiplicity subgraph K, whether a qualifying
    edge exists; the conjunction over all K holds iff corefan(h) <= t,
    which the test suite checks against corefan directly.
    """
    classes = h.index_classes
    if len({m for _, _, m in classes}) > 1:
        raise GraphError("the qualifying-edge criterion needs constant multiplicity")
    _class_cap(classes, max_classes, "full_multiplicity_criterion")
    results: list[tuple[SubgraphSelection, bool]] = []
    for vec, _ in _selections(classes, True):
        sel = _selection(h, vec)
        results.append((sel, has_qualifying_edge(h, sel)))
    return all(ok for _, ok in results), results


def constant_multiplicity_lift(b: Multigraph, m: int) -> Multigraph:
    """Replace every class of the simple graph b by m parallel copies."""
    if not b.is_simple():
        raise GraphError("lift expects a simple graph")
    if m < 1:
        raise GraphError("lift multiplicity must be at least 1")
    return Multigraph(b.labels, [(u, v, m) for u, v, _ in b.classes()])
