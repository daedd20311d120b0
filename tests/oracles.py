"""Independent brute-force oracles for the fan metrics and B-queues.

These deliberately avoid the library's worst-set shortcut: the inner
condition is checked against every admissible Z by literal enumeration, and
the subgraph maxima enumerate every sub-multiplicity assignment with
itertools. The B-queue oracle is a plain depth-first search whose step rule
is written from the definition, not through the library's. Slow, but they
are the ground truth the fast paths are measured against.
"""

import itertools

from fancore import Multigraph


def _neighbour_mults(g, x):
    """(z, mult(x, z)) for neighbours z of x, by label."""
    return [(z, g.mult(x, z)) for z in g.neighbours(x)]


def fan_degree_oracle(j: Multigraph, x: str, y: str) -> int:
    """Smallest k at which the degree-sum bound or the all-Z condition holds."""
    assert j.mult(x, y) >= 1
    nbrs = _neighbour_mults(j, x)
    cap = j.degree(x) + j.degree(y) - j.mult(x, y)
    for k in range(cap + 1):
        if j.degree(x) + j.degree(y) - j.mult(x, y) <= k:
            return k
        ok = True
        others = [z for z, _ in nbrs if z != y]
        mu = dict(nbrs)
        for size in range(1, len(others) + 1):
            for extra in itertools.combinations(others, size):
                zset = (y,) + extra
                total = sum(j.degree(z) + mu[z] - k for z in zset)
                if total > 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k
    raise AssertionError("unreachable: the degree-sum bound caps the search")


def cfan_degree_oracle(h: Multigraph, k_graph: Multigraph, x: str, y: str) -> int:
    """Smallest l at which the all-Z deficit condition holds (|Z| >= 1)."""
    assert k_graph.mult(x, y) >= 1
    nbrs = _neighbour_mults(k_graph, x)
    mu = dict(nbrs)
    l = 0
    while True:
        ok = True
        others = [z for z, _ in nbrs if z != y]
        for size in range(0, len(others) + 1):
            for extra in itertools.combinations(others, size):
                zset = (y,) + extra
                total = sum(
                    k_graph.degree(z) - h.degree(z) + mu[z] - l for z in zset
                )
                if total > 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return l
        l += 1


def sub_assignments(g: Multigraph):
    """Every sub-multiplicity assignment of g with at least one edge."""
    classes = g.classes()
    ranges = [range(m + 1) for _, _, m in classes]
    for vec in itertools.product(*ranges):
        if not any(vec):
            continue
        edges = [
            (u, v, m) for (u, v, _), m in zip(classes, vec) if m
        ]
        yield Multigraph(g.labels, edges)


def _ordered_pairs(g: Multigraph):
    for u, v, _ in g.classes():
        yield u, v
        yield v, u


def fan_number_oracle(g: Multigraph) -> int:
    best = 0
    for j in sub_assignments(g):
        best = max(best, min(fan_degree_oracle(j, x, y) for x, y in _ordered_pairs(j)))
    return best


def corefan_oracle(h: Multigraph) -> int:
    best = 0
    for k_graph in sub_assignments(h):
        best = max(
            best,
            min(cfan_degree_oracle(h, k_graph, x, y) for x, y in _ordered_pairs(k_graph)),
        )
    return best


def least_full_bqueue_oracle(b: Multigraph):
    """The order of the lexicographically least full B-queue of the simple graph b, or None.

    Depth-first search over sequences of distinct vertices, trying them in
    the order of b.labels. A step u from reach S adds
    new = ({u} | N(u)) - S and is allowed when new has one or two vertices,
    at most one of them other than u. The order of the first sequence whose
    reach is V(b) is returned as a tuple of labels; None when no sequence
    gets there.
    """
    everything = frozenset(b.labels)

    def extend(order, reach):
        if reach == everything:
            return tuple(order)
        for u in b.labels:
            if u in order:
                continue
            new = ({u} | set(b.neighbours(u))) - reach
            if 1 <= len(new) <= 2 and len(new - {u}) <= 1:
                found = extend(order + [u], reach | new)
                if found is not None:
                    return found
        return None

    return extend([], frozenset())
