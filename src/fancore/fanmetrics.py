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
restriction. corefan(H) maximizes the minimum cfan degree over subgraphs K;
restricting the maximization to full-multiplicity subgraphs (each parallel
class kept whole or dropped) provably does not change the value, which is
what makes corefan computable at 2^(#classes) instead of prod(mult+1)
candidates. corefan_bruteforce enumerates the full space as an oracle.

Subset notation is read non-strictly throughout (Z may equal N(x), K may
equal H): singleton and whole-graph cases are exactly the ones several of
the tested equivalences depend on.

Both invariants are a maximum over subgraphs of a minimum over ordered
pairs, differing only in the per-pair degree, so one enumerator and one
max-min routine compute fan_number, corefan and corefan_bruteforce, and
full_multiplicity_criterion walks the same enumerator. Candidates live in
the host's dense index space as plain degree and adjacency lists; the
witness subgraph, label pair and certifying set are built once, for the
winning candidate only.

Enumeration order is pinned for reproducible witnesses. Classes are sorted
by dense endpoint pair, and candidates are multiplicity vectors in
colexicographic order, class 0 the fastest digit, each class taking every
multiplicity 0..m (fan_number, corefan_bruteforce) or only 0 and m
(corefan, full_multiplicity_criterion). Within a candidate, ordered pairs
are tried class by class as (lo, hi) then (hi, lo); the minimum is the
first pair attaining it, and the maximum is the first candidate attaining
it. Colex counting changes fewer than two classes per step on average, so
the candidate's degrees and adjacency are updated in place, not rebuilt.

The search is pruned against the best value so far. The worst-set sum
does not increase with the level, so one worst-set sum decides whether a
pair's degree exceeds a given k. A candidate is dropped at its first pair
whose degree does not exceed the best value, as its minimum cannot then
exceed it. That keeps the first maximiser: only a strictly larger minimum
replaces the best, so a dropped candidate could never have been chosen,
and the first candidate attaining the maximum still replaces whatever came
before it. Before any candidate the best value is taken as -1, which every
degree exceeds, so the first candidate is never dropped. A candidate that
survives gets the exact degree of every pair, so its reported pair is
still the first one attaining its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Optional, Union

from .errors import GraphError, ResourceLimitError
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


def _worst_sum(base: dict[int, int], y: int, k: int, need_two: bool) -> int:
    """The largest sum over admissible Z at level k.

    base maps each neighbour z of x to its k-independent term, so the
    contribution of z is base[z] - k. When need_two is set and x has no
    second neighbour there is no admissible Z at all; the sum is then 0.
    """
    ty = base[y] - k
    pos = [b for b in base.values() if b > k]
    rest = sum(pos) - k * len(pos) - (ty if ty > 0 else 0)  # all positive terms but y's
    if rest or not need_two:
        return ty + rest
    others = [b for z, b in base.items() if z != y]
    return ty + max(others) - k if others else 0


def _worst_set(base: dict[int, int], y: int, k: int, need_two: bool) -> list[int]:
    """The Z attaining _worst_sum, unordered; just y when none is admissible.

    Only certificates need the set, so the searches read _worst_sum alone.
    The padding neighbour is the one of largest term, the smallest index
    winning a tie.
    """
    zset = [y] + [z for z, b in base.items() if b > k and z != y]
    if need_two and len(zset) == 1:
        others = [z for z in base if z != y]
        if others:
            zset.append(max(others, key=lambda z: (base[z], -z)))
    return zset


def _fan_terms(deg, adj, x: int, y: int) -> tuple[dict[int, int], int, bool, int]:
    """The arguments of _level for the fan degree of (x, y) in index space.

    The term of neighbour z is d_J(z) + mult_J(x, z), Z needs two members,
    and condition (i) caps the value at d_J(x) + d_J(y) - mult_J(x, y).
    """
    base = {z: deg[z] + m for z, m in adj[x].items()}
    return base, y, True, deg[x] + deg[y] - adj[x][y]


def _cfan_terms(hdeg, deg, adj, x: int, y: int) -> tuple[dict[int, int], int, bool, int]:
    """The arguments of _level for the cfan degree of (x, y) in index space.

    The term of neighbour z is the deficit d_K(z) - d_H(z) plus
    mult_K(x, z), and Z may be {y} alone. Once l reaches every term, no Z
    sums above 0, so the largest term caps the value.
    """
    base = {z: deg[z] - hdeg[z] + m for z, m in adj[x].items()}
    return base, y, False, max(base.values())


def _exceeds(base: dict[int, int], y: int, need_two: bool, cap: int, k: int) -> bool:
    """Whether the level of the pair is above k: _level(...) > k.

    Every level is at least 0, so it is above each negative k. Otherwise
    both conditions must fail at k itself: k is below the cap and the worst
    Z sums to at least 2.
    """
    return k < 0 or (k < cap and _worst_sum(base, y, k, need_two) > 1)


def _level(base: dict[int, int], y: int, need_two: bool, cap: int) -> int:
    """Smallest k below cap at which the worst Z sums to at most 1, else cap."""
    k = 0
    while _exceeds(base, y, need_two, cap, k):
        k += 1
    return k


def _certified(labels, base: dict[int, int], y: int, need_two: bool, cap: int) -> tuple[int, frozenset[str]]:
    """_level plus the certifying set described in fan_degree, as labels."""
    value = _level(base, y, need_two, cap)
    zset = _worst_set(base, y, value - 1, need_two) if value else (y,)
    return value, frozenset(labels[z] for z in zset)


def _pair_indices(j: GraphLike, x: str, y: str) -> tuple[int, int]:
    xi, yi = j.index_of(x), j.index_of(y)
    if yi not in j.adj[xi]:
        raise GraphError(f"pair {x!r},{y!r} has no edge in the subgraph")
    return xi, yi


def fan_degree(j: GraphLike, x: str, y: str) -> tuple[int, frozenset[str]]:
    """Fan degree of the ordered pair (x, y) plus a certifying vertex set.

    The search ascends from k = 0; condition (i) caps it, so the first k at
    which (i) holds or the worst-Z sum drops to at most 1 is the value. For
    a positive value the returned set is the worst Z at k = value - 1, the
    explicit violator showing the value cannot be smaller; for value 0 it
    degenerates to {y}.
    """
    xi, yi = _pair_indices(j, x, y)
    return _certified(j.labels, *_fan_terms(j.deg, j.adj, xi, yi))


def fan_pair_exceeds(j: GraphLike, x: str, y: str, k: int) -> tuple[bool, Optional[frozenset[str]]]:
    """Decide deg_J(x, y) > k without the ascending search.

    Both defining conditions must fail at level k: the degree-sum bound
    must exceed k, and the worst admissible Z must sum to at least 2.
    Returns the violating Z when the answer is True. This is the per-edge
    certificate used on constructed witness graphs, where the fan degree
    itself is astronomically large. A negative k raises GraphError.
    """
    if k < 0:
        raise GraphError(f"level {k} is negative")
    xi, yi = _pair_indices(j, x, y)
    base, _, need_two, cap = _fan_terms(j.deg, j.adj, xi, yi)
    if not _exceeds(base, yi, need_two, cap, k):
        return False, None
    return True, frozenset(j.labels[z] for z in _worst_set(base, yi, k, need_two))


def cfan_degree(h: Multigraph, k_sel: SubgraphSelection, x: str, y: str) -> tuple[int, frozenset[str]]:
    """Core-relative fan degree of (x, y) for the subgraph selection inside h.

    Smallest l such that for every Z subset of N_K(x) containing y (no
    minimum size), sum over Z of (d_K(z) - d_H(z) + mult_K(x, z) - l) <= 1.
    The certifying set follows the same convention as fan_degree.
    """
    if k_sel.parent is not h and k_sel.parent != h:
        raise GraphError("subgraph selection does not belong to the given host graph")
    xi, yi = _pair_indices(k_sel, x, y)
    return _certified(h.labels, *_cfan_terms(h.deg, k_sel.deg, k_sel.adj, xi, yi))


# -- the subgraph max-min -------------------------------------------------


@dataclass(frozen=True)
class FanReport:
    """A computed invariant value with enough context to recheck it.

    witness is the maximizing subgraph, pair the ordered pair attaining the
    inner minimum there, zset the certifying vertex set for that pair. For
    an edgeless input the report is the trivial one (value 0, no pair).
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
    product = 1
    for _, _, m in classes:
        product *= m + 1
        if product > cap:
            raise ResourceLimitError(
                f"{op}: assignment space exceeds the cap of {cap} candidates"
            )


def _class_cap(classes, cap: int, op: str) -> None:
    if len(classes) > cap:
        raise ResourceLimitError(f"{op}: {len(classes)} parallel classes exceed the cap of {cap}")


def _selections(classes, full_only: bool):
    """Yield the nonempty multiplicity vectors over classes in colex order.

    Class 0 is the fastest digit. A class of multiplicity m takes every
    value 0..m, or only 0 and m when full_only is set. One list is yielded
    throughout, updated in place, together with the highest class it
    changed: every class below that one was reset to 0.
    """
    n = len(classes)
    vec = [0] * n
    while True:
        pos = 0
        while pos < n and vec[pos] == classes[pos][2]:
            vec[pos] = 0
            pos += 1
        if pos == n:
            return
        vec[pos] = classes[pos][2] if full_only else vec[pos] + 1
        yield vec, pos


def _selection(g: Multigraph, vec) -> SubgraphSelection:
    """The subgraph of g keeping multiplicity vec[c] of its class c."""
    return SubgraphSelection(g, [(u, v, m) for (u, v, _), m in zip(g.classes(), vec) if m])


def _max_min(g: Multigraph, full_only: bool, terms):
    """Maximum over selections of g of the minimum degree over ordered pairs.

    terms(deg, adj, x, y) gives the arguments of _level for one pair, in the
    index space of the candidate. Returns (value, vector, (x, y)) for the
    first maximizing selection and its first minimizing pair, with x and y
    dense indices; None when g has no class.

    One deg and adj follow the enumeration, updated only on the classes
    a step changed. floor is the best value so far, -1 before the first
    candidate: a candidate is dropped at its first pair whose level is not
    above it, and the exact levels are computed only for a candidate none
    of whose pairs is. Each such candidate raises floor, so at most
    value + 1 of them occur.
    """
    classes = g.index_classes
    n = len(g.labels)
    deg = [0] * n
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    pairs = [p for c, (i, j, _) in enumerate(classes) for p in ((c, i, j), (c, j, i))]
    best, floor = None, -1
    for vec, changed in _selections(classes, full_only):
        for c in range(changed + 1):
            i, j, _ = classes[c]
            m = vec[c]
            step = m - adj[i].get(j, 0)
            deg[i] += step
            deg[j] += step
            if m:
                adj[i][j] = adj[j][i] = m
            else:
                del adj[i][j], adj[j][i]
        # the classes below the changed one are 0, so its pairs come first
        for c, x, y in islice(pairs, 2 * changed, None):
            if vec[c] and not _exceeds(*terms(deg, adj, x, y), floor):
                break
        else:
            low = min(
                ((_level(*terms(deg, adj, x, y)), x, y) for c, x, y in pairs if vec[c]),
                key=lambda t: t[0],
            )
            floor = low[0]
            best = (floor, tuple(vec), low[1:])
    return best


def _report(kind: str, g: Multigraph, best) -> FanReport:
    """The FanReport of a _max_min result; the trivial one for None."""
    value, vec, pair = best or (0, (), None)
    sel = _selection(g, vec)
    if pair is None:
        return FanReport(kind=kind, value=value, witness=sel, pair=None, zset=frozenset())
    x, y = (g.labels[v] for v in pair)
    _, zset = fan_degree(sel, x, y) if kind == "fan" else cfan_degree(g, sel, x, y)
    return FanReport(kind=kind, value=value, witness=sel, pair=(x, y), zset=zset)


def fan_number(g: Multigraph, max_product: int = FAN_PRODUCT_CAP) -> FanReport:
    """fan(g) with a maximizing subgraph and minimizing pair as witness.

    Enumerates every sub-multiplicity assignment with at least one edge;
    guarded by a cap on prod(mult + 1) over parallel classes.
    """
    _assignment_space(g.index_classes, max_product, "fan_number")
    return _report("fan", g, _max_min(g, False, _fan_terms))


def fan_bound(g: Multigraph, max_product: int = FAN_PRODUCT_CAP) -> int:
    """Fan(g) = max(max_degree, fan); an upper bound on the chromatic index."""
    return max(g.max_degree(), fan_number(g, max_product=max_product).value)


def corefan(h: Multigraph, max_classes: int = COREFAN_CLASS_CAP) -> FanReport:
    """corefan(h) over full-multiplicity subgraphs, with witness.

    Each parallel class is kept at full multiplicity or dropped, giving
    2^(#classes) candidates; dropping to full-multiplicity subgraphs is
    value-preserving (see module docstring), which corefan_bruteforce
    verifies independently on enumerable inputs.
    """
    _class_cap(h.index_classes, max_classes, "corefan")
    return _report("corefan", h, _max_min(h, True, partial(_cfan_terms, h.deg)))


def corefan_bruteforce(h: Multigraph, max_product: int = BRUTEFORCE_PRODUCT_CAP) -> int:
    """corefan(h) by enumerating every sub-multiplicity assignment.

    Oracle counterpart of corefan; returns the value only.
    """
    _assignment_space(h.index_classes, max_product, "corefan_bruteforce")
    best = _max_min(h, False, partial(_cfan_terms, h.deg))
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
    preserved = {h.index_of(v) for v in degree_preserving_set(sel)}
    hadj, hdeg, kdeg = h.adj, h.deg, sel.deg
    for (i, j) in sel.pairs:
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
