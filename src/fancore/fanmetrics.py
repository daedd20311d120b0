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
the largest term of x, at which both tests fail, in O(log d) tests. The
test is one pass over the adjacency of x with no container built: it
adds up the positive contributions b_z - k over N(x), b_z being the term
of z. The fan term is d_J(z) + mult_J(x, z). The cfan searches store each
vertex's deficit D(z) = d_K(z) - d_H(z) in place of its degree, updated
by the same steps, so the cfan term D(z) + mult_K(x, z) has the same
shape and the empty candidate starts from -d_H. Z may be {y} alone for
the cfan degree, so its worst sum is closed: T + min(t, 0), T the
positive total and t = b_y - k the contribution of y. The fan degree's Z
needs two members, so its pass also keeps the second largest term. The
worst sum of (x, y) is then the total less y's own positive part plus
y's contribution, and, when no other positive term supplies Z's second
member, the largest term other than y's less k. That sum can pass 1 only
when y's contribution does, so when y holds the largest term, and its
padding is then the second largest. The fan test checks condition
(i), d_J(x) + d_J(y) - mult_J(x, y) <= k, before the pass. The cfan value
needs no cap check: at or above the largest term no contribution is
positive. Only a certifying set builds the terms into a dict, once per
reported pair.

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
so it is deleted whole. The peel is a worklist of anchors. One anchor
pass decides every pair at x, by the rule of the certificate kernel below
for the fan and by T + min(t, 0) for cfan, and the classes of x's failing
pairs go at once. Each deletion of (x, y) queues the anchors whose pass
read d(x), d(y) or mult(x, y): x and y where they keep a neighbour, and
their remaining neighbours, unless they are queued already. The peel
ends when the queue is empty and returns its survivors in a list of
their own, in box order, each at its box multiplicity. An anchor is
passed once at the start and once per deletion at or next to it, so a
peel costs time linear in the box's classes plus its deleted classes
times their degree. By the same monotonicity a
subgraph whose every p is at least v keeps that property when each of
its classes is raised to host multiplicity, so the largest value is
attained by a subgraph of whole classes: the reason corefan may search
full-multiplicity candidates only, and fan_number's value needs no
partial class either. Cores nest as v grows, so v* is bisected between
0, whose core is the host, and one above the host's largest term: a
degree is at most its anchor's largest term, and terms grow with the
subgraph. That is the largest d(z) + mult(x, z) for the fan and the
largest multiplicity for cfan, whose deficits are 0 on the host. Each
probe peels the last nonempty core. One helper, _bisect, makes each
monotone search of the module: this value, a pair's degree, the prefix
below and corefan_bruteforce's value. _value is that bisection and the one
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
the first maximiser. The reported pair is read on that witness after
the walk: its first pair whose test at v* fails, the first pair attaining
the minimum.

The search starts at the first maximiser's highest class. Colex order
puts a vector whose highest class is lower first, and a maximiser whose
highest class is the core's class h lies in the core of the core's
classes 0..h, since it qualifies there. That prefix core is itself a
maximiser, and prefix cores nest, so the first maximiser's highest class
is the smallest h whose prefix core is nonempty, h*, bisected in about
log2 C peels at v* - 1 for a core of C classes, as the most classes that
can be dropped from the core's end. The search box is that prefix core,
the bisection's last nonempty peel, or the core itself where nothing can
be dropped: every maximiser of highest class h* lies in it, and its
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
changes fewer than two classes per step on average, so one loop counts
and keeps the candidate in place: it resets each class at its top value
to 0 in the vector, the degrees and the adjacency in one step, raises
the first class below its top, and tests the raised class's two pairs
right after the raise, going on to the classes above it only when both
pass, with no generator and nothing rebuilt. The classes are read from
columns of endpoints and multiplicities made once per walk. Candidates
live in the host's dense index space as plain degree and adjacency
lists; the witness subgraph, label pair and certifying set are built
once, for the winner only.

corefan_bruteforce runs the same enumerator over the whole space, with
no peel, at fixed floors: some assignment has every pair above v - 1
exactly when the value is at least v, so the value is bisected below one
above the largest multiplicity, each probe a walk to its first survivor.
A dropped candidate costs about one pair test.

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
above. The cfan rule keeps the least term for the same skip, and
construct_witness checks its witness subgraph's pairs with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import inf, prod
from typing import Optional, Union

from .errors import GraphError, ResourceLimitError, check_cap
from .multigraph import Multigraph, SubgraphSelection

FAN_PRODUCT_CAP = 1 << 20
COREFAN_CLASS_CAP = 20
CRITERION_CLASS_CAP = 14  # 16,383 selections: 131 MB traced on a 14-class matching, the widest host
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


def _worst_sum(total: int, by: int, k: int, second: int) -> int:
    """The worst sum over admissible Z at level k for the fan pair (x, y), exact where it can pass 1.

    total is the sum of the positive contributions over N(x) at level k and
    by the term of y, so the answer costs O(1) per pair. Z needs two
    members. With positive company, Z is y and that company. Without it,
    every other term is at most k, so the sum is at most y's contribution
    and can pass 1 only when y holds the largest term; Z is then padded
    with second, the second largest term of x, and the sum is exact. When
    y does not hold it, the sum returned and the exact one are both at most
    0. second is 0 when x has no second neighbour (every fan term is at
    least 2), and then no Z is admissible; the sum is 0.
    """
    ty = by - k
    rest = total - (ty if ty > 0 else 0)  # all positive contributions but y's
    if rest:
        return ty + rest
    return ty + second - k if second else 0


def _fan_anchor(deg, adj, x: int, k: int) -> tuple[int, int, float, float]:
    """The anchor pass of x at level k: (total, second, least, slack).

    One pass over adj[x] adds up the positive contributions b_z - k, the
    term of neighbour z being b_z = d_J(z) + mult_J(x, z), and keeps the
    second largest term, 0 when x has one neighbour; _worst_sum reads
    these two. It also keeps the least term and the least slack
    d_J(z) - mult_J(x, z), both infinite when x has no neighbour, which
    _fan_failures reads; over deficits, _cfan_failures reads the total and
    the least term. It depends on x and k only, so one pass decides every
    pair anchored at x.
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
    return total, second, least, slack


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
    total, second, _, _ = _fan_anchor(deg, adj, x, k)
    return _worst_sum(total, deg[y] + ax[y], k, second) > 1


def _cfan_exceeds(deg, adj, x: int, y: int, k: int) -> bool:
    """Whether the cfan degree of the index pair (x, y) is above k; deg holds deficits.

    The term of neighbour z is its deficit d_K(z) - d_H(z) plus
    mult_K(x, z). Z may be {y} alone, so the worst sum is the positive
    total T of one pass over adj[x] plus y's contribution t when t is
    negative: T + min(t, 0). The largest term caps the value without a
    check of its own: at or above it no contribution is positive and no Z
    sums above 0.
    """
    if k < 0:
        return True
    ax = adj[x]
    total = 0
    for z, m in ax.items():
        b = deg[z] + m
        if b > k:
            total += b - k
    t = deg[y] + ax[y] - k
    return total + (t if t < 0 else 0) > 1


def _fan_failures(deg, adj, x: int, k: int) -> list[int]:
    """The neighbours y of x whose fan pair (x, y) is not above level k, from one anchor pass.

    Each pair fails when k >= d_J(x) + d_J(y) - mult_J(x, y) or its worst
    sum is at most 1; a negative k fails none, as every level is at least
    0. An anchor with no failing pair skips that per-pair loop, as every
    vertex of a valid witness does. Its least slack d_J(y) - mult_J(x, y)
    is above k - d_J(x), so no pair meets the cap, and the worst sum of its
    least term is above 1, which is then true of every term: over the terms
    of one anchor the worst sum does not decrease as the term b grows. A
    lone neighbour's term is the only one. Otherwise, with a positive
    total, b <= k sums to total + b - k, and b > k to the total, or, when
    b is the only positive term, hence the largest, to total + second - k,
    and every other term is at most second. With no positive total every b
    sums to b + second - 2k.
    """
    total, second, least, slack = _fan_anchor(deg, adj, x, k)
    cap = k - deg[x]
    if slack > cap and _worst_sum(total, least, k, second) > 1:
        return []
    return [y for y, m in adj[x].items()
            if deg[y] - m <= cap or k >= 0 and _worst_sum(total, deg[y] + m, k, second) <= 1]


def _cfan_failures(deg, adj, x: int, k: int) -> list[int]:
    """The neighbours y of x whose cfan pair (x, y) is not above level k; deg holds deficits.

    The anchor pass (_fan_anchor) over deficits gives the positive total T
    and the least term. (x, y) fails when T + min(t, 0) <= 1 for y's
    contribution t = b_y - k: every pair fails when T <= 1, and otherwise
    the pairs whose term b_y is at most k + 1 - T, none of them when the
    least term is above it, which needs no second pass. k is at least 0,
    as at every caller.
    """
    total, _, least, _ = _fan_anchor(deg, adj, x, k)
    cut = k + 1 - total if total > 1 else inf
    return [y for y, m in adj[x].items() if deg[y] + m <= cut] if least <= cut else []


def _bisect(high: int, probe, found):
    """The largest v in [0, high) whose probe(v, last) is truthy, with that probe's result.

    probe is monotone, truthy at v only if truthy at every smaller v; found
    is its result at 0, taken as truthy, and last is the result at the
    largest v known so far to be truthy, which a probe may search inside.
    The search is over plain integers, so past 2^63 too, in about
    log2(high) probes.
    """
    low = 0
    while high - low > 1:
        mid = (low + high) // 2
        got = probe(mid, found)
        if got:
            low, found = mid, got
        else:
            high = mid
    return low, found


def _level(exceeds, deg, adj, x: int, y: int) -> int:
    """The degree of (x, y): the smallest k >= 0 at which exceeds(deg, adj, x, y, k) fails.

    That is the largest v whose test at v - 1 holds, as every level is
    above -1. The test is monotone in k and fails at the largest term of
    x, where no contribution is positive and a padded Z sums to at most 0,
    so the level is bisected at or below it in O(log d) pair tests.
    """
    top = max(deg[z] + m for z, m in adj[x].items())
    return _bisect(top + 1, lambda v, _: exceeds(deg, adj, x, y, v - 1), True)[0]


def _deficits(h: Multigraph, k_sel: SubgraphSelection) -> list[int]:
    """Each vertex's deficit d_K(z) - d_H(z) for the selection k_sel inside its host h."""
    return [d - hd for d, hd in zip(k_sel.deg, h.deg)]


def _worst_set(deg, adj, x: int, y: int, k: int, need_two: bool) -> list[int]:
    """The Z attaining the worst sum of (x, y) at level k, unordered; just y when none is admissible.

    Only certificates need the set, built once per report from a dict of
    x's terms deg[z] + mult(x, z) (fan terms over degrees, cfan terms over
    deficits), so the pair tests read the sum alone. The padding neighbour
    is the one of largest term, the smallest index winning a tie.
    """
    terms = {z: deg[z] + m for z, m in adj[x].items()}
    zset = [y] + [z for z, b in terms.items() if b > k and z != y]
    if need_two and len(zset) == 1:
        others = [z for z in terms if z != y]
        if others:
            zset.append(max(others, key=lambda z: (terms[z], -z)))
    return zset


def _certified(labels, value: int, deg, adj, x: int, y: int, need_two: bool) -> tuple[int, frozenset[str]]:
    """value plus the certifying set of (x, y) described in fan_degree, as labels."""
    zset = _worst_set(deg, adj, x, y, value - 1, need_two) if value else (y,)
    return value, frozenset(labels[z] for z in zset)


def _pair_indices(j: GraphLike, x: str, y: str) -> tuple[int, int]:
    xi, yi = j.index_of(x), j.index_of(y)
    if yi not in j.adj[xi]:
        raise GraphError(f"pair {x!r},{y!r} has no edge in the subgraph")
    return xi, yi


def fan_degree(j: GraphLike, x: str, y: str) -> tuple[int, frozenset[str]]:
    """Fan degree of the ordered pair (x, y) plus a certifying vertex set.

    The value is the smallest k at which (i) holds or the worst-Z sum drops
    to at most 1, bisected between 0 and the largest term of x. For a
    positive value the returned set is the worst Z at k = value - 1, the
    explicit violator showing the value cannot be smaller; for value 0 it
    degenerates to {y}.
    """
    xi, yi = _pair_indices(j, x, y)
    deg, adj = j.deg, j.adj
    return _certified(j.labels, _level(_fan_exceeds, deg, adj, xi, yi), deg, adj, xi, yi, True)


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
    return True, frozenset(j.labels[z] for z in _worst_set(j.deg, j.adj, xi, yi, k, True))


def _failing(deg, adj, anchors, k: int, failures) -> list[tuple[int, int]]:
    """The ordered pairs (x, y) at the anchors x whose level is not above k, in class order.

    failures(deg, adj, x, k) is the invariant's anchor rule, _fan_failures
    or _cfan_failures, one pass per anchor with a pair. The pairs come
    class by class as (lo, hi) then (hi, lo) in index pair order.
    """
    bad = ((x, y) for x in anchors if adj[x] for y in failures(deg, adj, x, k))
    return sorted(bad, key=lambda p: (min(p), max(p), p[0] > p[1]))


def _failing_pairs(g: Multigraph, members, k: int) -> list[tuple[int, int]]:
    """The ordered pairs on edges of J = g[members] whose fan degree is not above k.

    members are distinct vertex indices of g. J is read on g in place: a
    member with a neighbour outside J gets a filtered copy of its adjacency
    and the degree that copy sums to, every other member keeps g's. Each
    anchor x gets one pass, and each of its pairs (x, y) is decided from it
    by _fan_exceeds' rule (_fan_failures). The worst sum reads y only
    through its term d_J(y) + mult_J(x, y) and costs O(1) from the pass, so
    the kernel is linear in J's classes on every input. A negative k fails
    no pair. The pairs, indices of g, come in J's class order (_failing).
    """
    deg, adj, inside = list(g.deg), list(g.adj), set(members)
    for x in inside:
        if not all(map(inside.__contains__, adj[x])):
            adj[x] = a = {z: m for z, m in adj[x].items() if z in inside}
            deg[x] = sum(a.values())
    return _failing(deg, adj, inside, k, _fan_failures)


def cfan_degree(h: Multigraph, k_sel: SubgraphSelection, x: str, y: str) -> tuple[int, frozenset[str]]:
    """Core-relative fan degree of (x, y) for the subgraph selection inside h.

    Smallest l such that for every Z subset of N_K(x) containing y (no
    minimum size), sum over Z of (d_K(z) - d_H(z) + mult_K(x, z) - l) <= 1.
    The certifying set follows the same convention as fan_degree.
    """
    k_sel._check_host(h)
    xi, yi = _pair_indices(k_sel, x, y)
    deg, adj = _deficits(h, k_sel), k_sel.adj
    return _certified(h.labels, _level(_cfan_exceeds, deg, adj, xi, yi), deg, adj, xi, yi, False)


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
    space = 1
    for _, _, m in classes:
        space *= m + 1
        if space > cap:
            raise ResourceLimitError(
                f"{op}: assignment space exceeds the cap of {cap} candidates"
            )


def _class_cap(classes, cap: int, op: str) -> None:
    check_cap("max_classes", cap)
    if len(classes) > cap:
        raise ResourceLimitError(f"{op}: {len(classes)} parallel classes exceed the cap of {cap}")


def _loaded(base, classes):
    """(deg, adj) of the subgraph made of classes (i, j, m) on base, the empty subgraph's degree vector."""
    deg, adj = list(base), [{} for _ in base]
    for i, j, m in classes:
        deg[i] += m
        deg[j] += m
        adj[i][j] = adj[j][i] = m
    return deg, adj


def _kept(classes, vec) -> list[tuple[int, int, int]]:
    """The classes (i, j, m) that vec keeps, each at its multiplicity m in vec."""
    return [(i, j, m) for (i, j, _), m in zip(classes, vec) if m]


def _max_min(base, classes, full_only: bool, exceeds, floor: int, top: bool = False):
    """The kept classes of the first selection of classes whose every pair is above floor; None for none.

    classes are index classes (i, j, m) of a graph on len(base) vertices,
    the box searched, and base is the degree vector of the empty candidate
    (zeros for fan, -d_H for cfan); exceeds(deg, adj, x, y, k) is the
    invariant's pair test, "level of (x, y) above k", in the index space of
    the candidate. The kept classes are (i, j, m), each at its multiplicity
    in the selection. A caller that passes one below the maximum gets the
    first maximiser.

    The box is read as three columns built once per call, the endpoints lo
    and hi and the multiplicities tops, which are also the top values, so
    a step reads list slots and unpacks no class. One loop counts the
    multiplicity vector in colex order and keeps deg and adj in step with
    it: from class 0 up, each class at its top value is reset to 0 in vec,
    deg and adj at once, and the first class below its top rises by one,
    or to its top when full_only is set, its new multiplicity computed
    once for both adjacency entries. Its pairs (lo, hi) and (hi, lo) are
    tested right after the raise, and a failure takes the next step; only
    a candidate that passes both goes on to the kept classes above it, in
    class order, as every class below it is off. A candidate is so dropped
    at its first pair whose level is not above floor. The walk ends at the
    first candidate that survives, or when every class is at its top. A
    dropped candidate costs its update and about one pair test, a pass
    over one adjacency dict.

    The walk starts after the all-zero vector, or, with top set, after the
    last vector before the last class's block: every other class at its top
    value, in deg and adj as well, and the last at 0. Only the vectors that
    keep the last class are then visited, in the same relative order, and
    the first step resets every class below the last from its top value.
    """
    deg, adj = _loaded(base, classes[:-1] if top else ())
    lo, hi, tops = ([c[k] for c in classes] for k in range(3))
    last = len(classes)
    vec = tops[:-1] + [0] if top else [0] * last
    while True:
        low = 0
        while low < last and vec[low] == tops[low]:  # at its top value: reset to 0
            i, j, m = lo[low], hi[low], tops[low]
            vec[low] = 0
            deg[i] -= m
            deg[j] -= m
            del adj[i][j], adj[j][i]
            low += 1
        if low == last:
            return None
        i, j = lo[low], hi[low]
        step = tops[low] if full_only else 1  # a full-only class below its top is at 0
        vec[low] = m = vec[low] + step
        deg[i] += step
        deg[j] += step
        adj[i][j] = adj[j][i] = m
        if not (exceeds(deg, adj, i, j, floor) and exceeds(deg, adj, j, i, floor)):
            continue
        for c in range(low + 1, last):
            if vec[c] and not (exceeds(deg, adj, lo[c], hi[c], floor) and exceeds(deg, adj, hi[c], lo[c], floor)):
                break
        else:
            return _kept(classes, vec)


def _peel(box, base, k: int, failures) -> list[tuple[int, int, int]]:
    """The classes of the largest subgraph of box whose every pair is above level k.

    box is a list of index classes (i, j, m), each at its multiplicity in
    the box, base the degree vector of the empty subgraph (zeros for fan,
    -d_H for cfan) and failures the invariant's anchor rule, _fan_failures
    or _cfan_failures. A FIFO of anchors, a list read in order as it
    grows, with a pending flag per vertex, starts with every vertex; an
    anchor with no neighbour is skipped. A popped anchor x deletes the
    classes of its failing pairs whole (see the module docstring); then x
    and each deleted neighbour y are queued where they keep a neighbour,
    and so are their remaining neighbours, unless pending. The survivors
    are returned in a new list, in box order, each at its box
    multiplicity. Which failing class goes first does not change the
    result.
    """
    deg, adj = _loaded(base, box)
    queue, pending = list(range(len(adj))), [True] * len(adj)
    for x in queue:
        pending[x] = False
        bad = failures(deg, adj, x, k) if adj[x] else ()
        for y in bad:
            m = adj[x].pop(y)
            del adj[y][x]
            deg[x] -= m
            deg[y] -= m
        for w in [x, *bad] if bad else ():  # x, each y and their remaining neighbours
            for z in [w, *adj[w]] if adj[w] else ():
                if not pending[z]:
                    pending[z] = True
                    queue.append(z)
    return [c for c in box if c[1] in adj[c[0]]]


def _value(g: Multigraph, base, failures) -> tuple[int, list[tuple[int, int, int]]]:
    """The peeled value v* of g and its v*-core, as index classes; (0, []) for no class.

    The v-core, _peel at level v - 1, is nonempty exactly when some
    subgraph has every pair degree at least v, and cores nest, so v* is
    bisected (_bisect): the 0-core is g, no core exists one above the
    host's largest term, base plus degree plus multiplicity, which no
    degree reaches, and each probe peels the last nonempty core. No witness
    is searched; every maximiser lies in the returned core. With no class
    there is nothing to bisect and the core is empty.
    """
    top, classes = [d + b for d, b in zip(g.deg, base)], list(g.index_classes)
    high = max((m + max(top[i], top[j]) for i, j, m in classes), default=-1) + 1
    return _bisect(high, lambda v, core: _peel(core, base, v - 1, failures), classes)


def _report(kind: str, g: Multigraph, full_only: bool) -> FanReport:
    """The FanReport of g's first maximiser; the trivial one, returned first, for no class.

    The value and its core come from _value. The witness search is _max_min
    over that core at the fixed floor v* - 1, whose first survivor is the
    first maximiser. Unless the value is 0 (every vector is a maximiser)
    or the core's vector space is at most C² for C classes, the first
    maximiser's highest class h* is bisected first, as the most classes
    that can be dropped from the core's end with a nonempty core left, and
    the search runs over that last nonempty core, of the core's classes
    0..h*, from the last vector before h*'s block (see the module
    docstring). A core with no survivor is an error in the peel, raised,
    not reported. The reported pair is the witness's first pair whose test
    at the value fails, its level the value itself, so its certifying set
    is read at the value without another bisection.
    """
    fan = kind == "fan"
    base = [0] * len(g.labels) if fan else [-d for d in g.deg]
    exceeds, failures = (_fan_exceeds, _fan_failures) if fan else (_cfan_exceeds, _cfan_failures)
    value, core = _value(g, base, failures)
    if not core:
        return FanReport(kind=kind, value=0, witness=SubgraphSelection._derived(g, []), pair=None, zset=frozenset())
    top = value > 0 and len(core) ** 2 < prod(2 if full_only else m + 1 for _, _, m in core)
    if top:  # the core of the shortest prefix of the core whose own core is nonempty
        c = len(core)
        core = _bisect(c, lambda drop, _: _peel(core[:c - drop], base, value - 1, failures), core)[1]
    kept = _max_min(base, core, full_only, exceeds, value - 1, top)
    if kept is None:
        raise RuntimeError(f"no selection of the {value}-core attains {value}")
    sel = SubgraphSelection._derived(g, kept)
    deg, adj = sel.deg if fan else _deficits(g, sel), sel.adj
    x, y = next(p for i, j, _ in kept for p in ((i, j), (j, i)) if not exceeds(deg, adj, *p, value))
    _, zset = _certified(g.labels, value, deg, adj, x, y, fan)
    return FanReport(kind=kind, value=value, witness=sel, pair=(g.labels[x], g.labels[y]), zset=zset)


def fan_number(g: Multigraph, max_product: int = FAN_PRODUCT_CAP) -> FanReport:
    """fan(g) with a maximizing subgraph and minimizing pair as witness.

    The value is peeled; the witness is the first maximiser among the
    sub-multiplicity assignments with at least one edge, searched inside
    the value's core. Guarded by a cap on prod(mult + 1) over parallel
    classes.
    """
    _assignment_space(g.index_classes, max_product, "fan_number")
    return _report("fan", g, False)


def fan_bound(g: Multigraph) -> int:
    """Fan(g) = max(max_degree, fan); an upper bound on the chromatic index.

    fan is read from the peel alone (_value): no report is built and no
    witness searched, so no cap applies. The peel is linear in the
    classes per probe, and O(log d) probes make the value.
    """
    return max(g.max_degree(), _value(g, [0] * len(g.labels), _fan_failures)[0])


def corefan(h: Multigraph, max_classes: int = COREFAN_CLASS_CAP) -> FanReport:
    """corefan(h) over full-multiplicity subgraphs, with witness.

    Each parallel class is kept at full multiplicity or dropped, which is
    value-preserving (see module docstring) and which corefan_bruteforce
    verifies independently on enumerable inputs. The value is peeled; the
    witness is the first maximiser among those 2^(#classes) candidates,
    searched inside the value's core. Guarded by a cap on the classes.
    """
    _class_cap(h.index_classes, max_classes, "corefan")
    return _report("corefan", h, True)


def corefan_bruteforce(h: Multigraph, max_product: int = BRUTEFORCE_PRODUCT_CAP) -> int:
    """corefan(h) by enumerating every sub-multiplicity assignment.

    Oracle counterpart of corefan, with no peeling; returns the value
    only. The value v* is the largest v for which some assignment has every
    pair above v - 1, bisected (_bisect) over whole-space walks at those
    fixed floors (_max_min). It is at most the largest multiplicity: a
    degree is at most its anchor's largest term, and a term, a deficit of
    at most 0 plus a multiplicity, is at most that.
    """
    classes, base = h.index_classes, [-d for d in h.deg]
    _assignment_space(classes, max_product, "corefan_bruteforce")
    high = max((m for _, _, m in classes), default=0) + 1
    return _bisect(high, lambda v, _: _max_min(base, classes, False, _cfan_exceeds, v - 1), True)[0]


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


def full_multiplicity_criterion(h: Multigraph) -> tuple[bool, list[tuple[SubgraphSelection, bool]]]:
    """Per-subgraph qualifying-edge check for constant-multiplicity graphs.

    Requires every class of h to carry the same multiplicity t+1. Reports,
    for each nonempty full-multiplicity subgraph K, whether a qualifying
    edge exists; the conjunction over all K holds iff corefan(h) <= t,
    which the test suite checks against corefan directly. The subgraphs
    come in colex order, class 0 the fastest digit, all 2^C - 1 of them
    for C classes, each a selection of its own, so the fixed cap on the
    classes is the result's size: CRITERION_CLASS_CAP, 14 classes, is
    16,383 selections.
    """
    classes = h.index_classes
    if len({m for _, _, m in classes}) > 1:
        raise GraphError("the qualifying-edge criterion needs constant multiplicity")
    _class_cap(classes, CRITERION_CLASS_CAP, "full_multiplicity_criterion")
    results: list[tuple[SubgraphSelection, bool]] = []
    for rev in islice(product(*[(0, m) for _, _, m in reversed(classes)]), 1, None):  # colex, class 0 fastest
        sel = SubgraphSelection._derived(h, _kept(classes, rev[::-1]))
        results.append((sel, has_qualifying_edge(h, sel)))
    return all(ok for _, ok in results), results


def constant_multiplicity_lift(b: Multigraph, m: int) -> Multigraph:
    """Replace every class of the simple graph b by m parallel copies."""
    if not b.is_simple():
        raise GraphError("lift expects a simple graph")
    if m < 1:
        raise GraphError("lift multiplicity must be at least 1")
    return Multigraph(b.labels, [(u, v, m) for u, v, _ in b.classes()])
