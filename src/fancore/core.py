"""t-core extraction and the two sufficient conditions built on it.

The t-core of a graph G is the subgraph induced by the vertices v whose
degree plus incident multiplicity exceeds max_degree(G) + t. Vertices that
pass the threshold but have no passing neighbour stay in the core as
isolated vertices (plain induced-subgraph semantics; they are harmless
downstream because an edgeless graph has corefan 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bqueue import greedy_full_bqueue
from .errors import GraphError
from .multigraph import Multigraph


def check_t(t: int) -> None:
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise GraphError(f"t must be a nonnegative integer, got {t!r}")


def t_core(g: Multigraph, t: int) -> Multigraph:
    """Induced subgraph on the vertices with ore_degree > max_degree + t.

    Degrees and multiplicities are evaluated in g itself, so the result is
    generally not a fixed point of this operation. The largest incident
    multiplicity is read only where 2 d(v) exceeds the threshold: it is at
    most d(v), so no other vertex can pass, and a vertex that may pass has
    d(v) >= 1, hence a neighbour.
    """
    check_t(t)
    threshold = g.max_degree() + t
    adj = g.adj
    return g._induced([v for v, d in enumerate(g.deg) if 2 * d > threshold and d + max(adj[v].values()) > threshold])


def edges_above(h: Multigraph, t: int) -> Multigraph:
    """Keep every vertex of h but only the classes with multiplicity > t."""
    check_t(t)
    return Multigraph._derived(h.labels, [c for c in h.index_classes if c[2] > t])


@dataclass(frozen=True)
class CoreReport:
    """The t-core together with the data the core conditions look at.

    core_mult is the largest multiplicity inside the core (0 if the core is
    edgeless). max_mult_simple is the simple graph underlying the classes of
    multiplicity exactly t+1 in the core, on the full core vertex set; it is
    None when core_mult exceeds t+1 (neither condition can hold then).
    """

    t: int
    core: Multigraph
    core_mult: int
    max_mult_simple: Optional[Multigraph]


def core_report(g: Multigraph, t: int) -> CoreReport:
    core = t_core(g, t)
    core_mult = core.max_mult()
    if core_mult > t + 1:
        b = None
    else:
        b = Multigraph._derived(core.labels, [(i, j, 1) for i, j, m in core.index_classes if m == t + 1])
    return CoreReport(t=t, core=core, core_mult=core_mult, max_mult_simple=b)


def forest_core_condition(g: Multigraph, t: int) -> tuple[bool, CoreReport]:
    """Core multiplicity at most t+1 and its (t+1)-classes form a multiforest.

    A graph passing this check is (max_degree + t)-edge-colourable.
    """
    report = core_report(g, t)
    ok = report.max_mult_simple is not None and report.max_mult_simple.is_multiforest()
    return ok, report


def bqueue_core_condition(g: Multigraph, t: int) -> tuple[bool, CoreReport]:
    """Core multiplicity at most t+1 and the (t+1)-class simple graph has a
    full B-queue.

    Strictly weaker requirement than forest_core_condition (every forest has
    a full B-queue), with the same colourability conclusion. The check is
    exact: the greedy search finds a full B-queue whenever one exists (see
    fancore.bqueue).
    """
    report = core_report(g, t)
    ok = report.max_mult_simple is not None and greedy_full_bqueue(report.max_mult_simple) is not None
    return ok, report
