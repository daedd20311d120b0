"""B-queues of simple graphs: validation, greedy search, exhaustive oracle.

A B-queue of a simple graph B is a sequence of distinct vertices
(u_1, ..., u_q) with reach sets S_0 = {} and S_i = N(u_i) | {u_i} | S_{i-1}
such that every step adds one or two new vertices, of which at most one is
not u_i itself. The queue is full when S_q = V(B).

The greedy constructor scans vertices in dense index order and takes the
first legal extension; the cited decision procedure for full B-queues is
greedy, so the scan order does not affect the yes/no answer (the exhaustive
oracle below double-checks this on enumerable graphs in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError, ResourceLimitError, check_cap
from .multigraph import Multigraph

EXHAUSTIVE_VERTEX_CAP = 10


@dataclass(frozen=True)
class BQueue:
    graph: Multigraph
    order: tuple[str, ...]
    sets: tuple[frozenset[str], ...]  # S_0 .. S_q, so len(sets) == len(order) + 1

    def is_full(self) -> bool:
        return self.sets[-1] == frozenset(self.graph.labels)


def _require_simple(b: Multigraph) -> None:
    if not b.is_simple():
        raise GraphError("B-queues are defined on simple graphs only")


def validate_bqueue(q: BQueue) -> bool:
    """Check the defining conditions; True iff q is a valid B-queue.

    The order is replayed through _legal_new, the step rule the searches
    use, and each S_i must be the label set of the replayed reach.
    """
    g = q.graph
    _require_simple(g)
    if len(q.sets) != len(q.order) + 1 or q.sets[0] != frozenset() or len(set(q.order)) != len(q.order):
        return False
    reach: set[int] = set()
    for u, cur in zip(q.order, q.sets[1:]):
        if not g.has_vertex(u):
            raise GraphError(f"unknown vertex {u!r} in B-queue")
        new = _legal_new(g, g.index_of(u), reach)
        if new is None:
            return False
        reach |= new
        if cur != {g.labels[i] for i in reach}:
            return False
    return True


def _legal_new(g: Multigraph, i: int, reach: set[int]) -> frozenset[int] | None:
    """New vertices added by choosing u = i, or None if the step is illegal."""
    new = {j for j in g.adj[i] if j not in reach}
    if i not in reach:
        new.add(i)
    if not 1 <= len(new) <= 2:
        return None
    if len(new - {i}) > 1:
        return None
    return frozenset(new)


def _as_bqueue(b: Multigraph, picks: list[int]) -> BQueue:
    labels = b.labels
    sets = [frozenset()]
    reach: set[int] = set()
    for i in picks:
        reach |= set(b.adj[i])
        reach.add(i)
        sets.append(frozenset(labels[j] for j in reach))
    return BQueue(graph=b, order=tuple(labels[i] for i in picks), sets=tuple(sets))


def greedy_full_bqueue(b: Multigraph) -> BQueue | None:
    """First-fit greedy construction; returns a full B-queue or None.

    At each step the smallest-index unused vertex whose addition satisfies
    the cardinality constraints is taken. Stops as soon as the reach set
    covers V(B) (success) or no vertex extends the queue (failure).
    """
    _require_simple(b)
    n = len(b.labels)
    reach: set[int] = set()
    used = [False] * n
    picks: list[int] = []
    while len(reach) < n:
        for i in range(n):
            if used[i]:
                continue
            new = _legal_new(b, i, reach)
            if new is not None:
                used[i] = True
                picks.append(i)
                reach |= new
                break
        else:
            return None
    return _as_bqueue(b, picks)


def exhaustive_full_bqueue(b: Multigraph, max_vertices: int = EXHAUSTIVE_VERTEX_CAP) -> BQueue | None:
    """Backtracking search over every valid vertex sequence.

    Deterministic: candidates are explored in index order, so the first full
    queue found is the lexicographically least one. Intended as an oracle
    for the greedy decision on small graphs; guarded by a vertex cap.
    """
    _require_simple(b)
    check_cap("max_vertices", max_vertices)
    n = len(b.labels)
    if n > max_vertices:
        raise ResourceLimitError(
            f"exhaustive B-queue search capped at {max_vertices} vertices, got {n}"
        )

    picks: list[int] = []
    added: list[frozenset[int]] = []  # what each pick added to reach
    reach: set[int] = set()
    used = [False] * n
    i = 0  # the next vertex to try after the last pick
    while len(reach) < n:
        new = _legal_new(b, i, reach) if i < n and not used[i] else None
        if new is not None:
            used[i] = True
            picks.append(i)
            added.append(new)
            reach |= new
            i = 0
        elif i < n:
            i += 1
        elif picks:  # nothing extends this queue: take its last pick back
            reach -= added.pop()
            i = picks.pop()
            used[i] = False
            i += 1
        else:
            return None
    return _as_bqueue(b, picks)
