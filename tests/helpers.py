"""Shared graph families and fixture access for the test suite."""

import itertools
import tracemalloc
from pathlib import Path

from fancore import Multigraph, parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> Multigraph:
    return parse((FIXTURES / name).read_text())


def labelled(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def simple_graph_from_mask(n: int, mask: int) -> Multigraph:
    labels = labelled(n)
    pairs = list(itertools.combinations(range(n), 2))
    edges = [
        (labels[i], labels[j], 1) for p, (i, j) in enumerate(pairs) if mask >> p & 1
    ]
    return Multigraph(labels, edges)


def all_simple_graphs(n: int):
    """Every labelled simple graph on exactly n vertices."""
    pair_count = n * (n - 1) // 2
    for mask in range(1 << pair_count):
        yield simple_graph_from_mask(n, mask)


def all_simple_graphs_up_to(n: int):
    for m in range(n + 1):
        yield from all_simple_graphs(m)


def all_small_multigraphs(n: int = 4, max_classes: int = 4, max_mult: int = 3):
    """Multigraphs on n labelled vertices with bounded classes and multiplicity."""
    labels = labelled(n)
    pairs = list(itertools.combinations(range(n), 2))
    for sizes in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        if sum(1 for s in sizes if s) > max_classes:
            continue
        edges = [
            (labels[i], labels[j], m) for (i, j), m in zip(pairs, sizes) if m
        ]
        yield Multigraph(labels, edges)


def random_simple_graph(rng, n: int, p: float) -> Multigraph:
    labels = labelled(n)
    edges = [
        (labels[i], labels[j], 1)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Multigraph(labels, edges)


def random_multigraph(rng, n: int, max_classes: int, max_mult: int) -> Multigraph:
    labels = labelled(n)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(0, min(max_classes, len(pairs)))]
    edges = [(labels[i], labels[j], rng.randint(1, max_mult)) for i, j in sorted(chosen)]
    return Multigraph(labels, edges)


def path_graph(labels, mults=None) -> Multigraph:
    mults = mults or [1] * (len(labels) - 1)
    return Multigraph(labels, [(labels[i], labels[i + 1], mults[i]) for i in range(len(labels) - 1)])


def cycle_graph(n: int) -> Multigraph:
    labels = [f"x{i}" for i in range(n)]
    return Multigraph(labels, [(labels[i], labels[(i + 1) % n], 1) for i in range(n)])


def cycle_with_pendants_host(n: int = 5, t: int = 0):
    """(host, base): base an n-cycle x0..x{n-1} with a pendant y at x0, every class at multiplicity t + 1.

    Every base vertex is padded with fresh single-edge pendants up to
    degree 3(t + 1), so the base vertices all pass the t-core threshold
    Delta + t = 4t + 3 (degree plus multiplicity 4t + 4) while the fresh
    endpoints (2) stay below it: the host's t-core is base. At n = 5, t = 0
    base is fixtures/cycle-pendant.graph.
    """
    labels = [f"x{i}" for i in range(n)] + ["y"]
    edges = [(labels[i], labels[(i + 1) % n], t + 1) for i in range(n)] + [("x0", "y", t + 1)]
    base = Multigraph(labels, edges)
    for v in labels:
        edges += [(v, f"pad{v}_{p}", 1) for p in range(3 * (t + 1) - base.degree(v))]
    return Multigraph(labels, edges), base


def record(monkeypatch, owner, *names):
    """{name: [args, ...]}: the positional arguments of each call of owner's named functions, which still run.

    The arguments are kept as passed: a test that reads state a call mutates copies it in a wrapper of its own.
    """
    calls = {name: [] for name in names}
    for name in names:
        def recording(*args, log=calls[name], real=getattr(owner, name)):
            log.append(args)
            return real(*args)
        monkeypatch.setattr(owner, name, recording)
    return calls


def counts(calls):
    """{name: number of calls} of a record log."""
    return {name: len(log) for name, log in calls.items()}


def traced(call):
    """(call(), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def iso_representatives(graphs):
    """One labelled graph per isomorphism class (brute-force canonical form).

    Only sensible for small vertex counts; used where a tested property is
    label-independent by definition.
    """
    seen = set()
    for g in graphs:
        n = len(g.labels)
        idx_edges = {(i, j) for i, j, _ in g.index_classes}
        best = None
        for perm in itertools.permutations(range(n)):
            key = frozenset(
                (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in idx_edges
            )
            key = tuple(sorted(key))
            if best is None or key < best:
                best = key
        if (n, best) not in seen:
            seen.add((n, best))
            yield g
