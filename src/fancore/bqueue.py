"""B-queues of simple graphs: validation and the greedy search.

A B-queue of a simple graph B is a sequence of distinct vertices
(u_1, ..., u_q) with reach sets S_0 = {} and S_i = N(u_i) | {u_i} | S_{i-1}
such that every step adds one or two new vertices, of which at most one is
not u_i itself. The queue is full when S_q = V(B). A queue is its order:
S_i = N[u_1] | ... | N[u_i] is a function of it, so BQueue stores the order
alone, and validation and is_full rebuild the reach in index space, in
memory linear in the graph.

The greedy constructor scans vertices in dense index order and takes the
first legal extension. It is complete: it finds a full B-queue whenever one
exists. A step's new set N[u] - S, N[u] = N(u) | {u} being the closed
neighbourhood, only shrinks as the reach S grows, and a nonempty subset of a
legal new set is itself legal. Let Q = (u_1, ..., u_q) be a full queue and S
any reach a sequence of legal steps attains, greedy's among them. If S is
not V(B), take the first u_i of Q whose N[u_i] is not inside S; one exists,
as Q's reach is V(B). Q's reach before u_i, the union of the earlier N[u_j],
lies inside S, so u_i's new set at S is nonempty and is a subset of its
legal new set in Q: u_i is legal at S. So while a full queue exists, every
reach short of V(B) has a legal step: greedy, adding at least one vertex per
step, ends full, and a depth-first search over queues in index order never
backs up, so the lexicographically least full queue is greedy's, and the two
return None together. A vertex already taken has its N[u] inside the reach,
so its new set is empty and it is never legal again: the search keeps no
record of the vertices it took. Nor is any other vertex whose N[u] lies inside
the reach, and the reach only grows, so each scan starts at the first vertex
that is not such a vertex, with a pointer that only moves forward: a path of
n vertices costs n - 1 legality tests, not n(n - 1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError
from .multigraph import Multigraph


@dataclass(frozen=True)
class BQueue:
    graph: Multigraph
    order: tuple[str, ...]  # u_1 .. u_q; the reach sets S_i are derived from it

    def is_full(self) -> bool:
        """True when the closed neighbourhoods N[u] of the order cover V(B)."""
        g = self.graph
        reach: set[int] = set()
        for u in self.order:
            i = _index(g, u)
            reach |= {i, *g.adj[i]}
        return len(reach) == len(g.labels)


def _index(g: Multigraph, u: str) -> int:
    if not g.has_vertex(u):
        raise GraphError(f"unknown vertex {u!r} in B-queue")
    return g.index_of(u)


def _require_simple(b: Multigraph) -> None:
    if not b.is_simple():
        raise GraphError("B-queues are defined on simple graphs only")


def validate_bqueue(q: BQueue) -> bool:
    """Check the defining conditions; True iff q is a valid B-queue.

    The order is replayed through _legal_new, the step rule the greedy
    search uses. A repeated vertex needs no check of its own: its N[u] is
    already inside the reach, so _legal_new refuses it.
    """
    g = q.graph
    _require_simple(g)
    reach: set[int] = set()
    for u in q.order:
        new = _legal_new(g, _index(g, u), reach)
        if new is None:
            return False
        reach |= new
    return True


def _legal_new(g: Multigraph, i: int, reach: set[int]) -> set[int] | None:
    """New vertices added by choosing u = i, or None if the step is illegal."""
    new = {i, *g.adj[i]} - reach
    # At most one new vertex besides i also bounds the count by two: with i
    # new, the count is one more than that; without it, the same.
    return new if new and len(new - {i}) <= 1 else None


def greedy_full_bqueue(b: Multigraph) -> BQueue | None:
    """First-fit greedy construction; returns a full B-queue or None.

    At each step the smallest-index vertex whose addition satisfies the
    cardinality constraints is taken. Stops as soon as the reach set covers
    V(B) (success) or no vertex extends the queue (failure).
    """
    _require_simple(b)
    labels = b.labels
    n = len(labels)
    reach: set[int] = set()
    order: list[str] = []
    start = 0  # every vertex below start has its N[u] inside the reach
    while len(reach) < n:
        while start in reach and reach.issuperset(b.adj[start]):
            start += 1
        # _legal_new refuses a vertex already taken: its N[u] is in the reach
        for i in range(start, n):
            new = _legal_new(b, i, reach)
            if new is not None:
                reach |= new  # new = N[u] - S_{i-1}, so the reach is now S_i
                order.append(labels[i])
                break
        else:
            return None
    return BQueue(graph=b, order=tuple(order))
