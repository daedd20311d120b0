"""Proper edge-colourings: verification, exact chromatic index, fan engine.

Parallel copies are coloured individually, so an assignment maps
(pair, copy index) slots to colours in {1..k}. Two instances are adjacent
when they share an endpoint; properness forbids equal colours on adjacent
instances.

chromatic_index_exact is a plain backtracking solver over edge instances
with two symmetry prunings (a fresh instance may only open one new colour,
and copies of the same class take ascending colours). It is the oracle the
rest of the package is checked against, guarded by an instance cap.

fan_colouring is the constructive engine. It colours instances one at a
time; when an instance has no colour free at both endpoints it builds a fan
anchored at one endpoint and repairs the colouring by fan rotation
("folding") and two-colour alternating-path swaps (Kempe chains). With
k >= max over v of degree(v) + vertex_mult(v), a stuck fan is arithmetically
impossible, so the engine always succeeds there; below that bound it is a
deterministic best-effort search with a hard retry budget per instance.

Palettes are bitmasks: each vertex keeps the colours on its instances as
one int, bit c for colour c, updated on every assign and unassign. The
colours free at a vertex, or at both ends of an instance, are then one
and-not against the full palette, every membership test is one bit test,
and the smallest free colour, the one the engine always takes, is the
lowest set bit. Those are the colours a set-based palette gives, so the
colourings, and the None results, do not depend on the representation.

The engine's soundness guard works in index space and trusts none of that
bookkeeping: it recomputes every vertex's colours from scratch from the
instance endpoints and colours alone, and raises RuntimeError unless every
colour is in 1..k and none repeats at a vertex. verify_colouring maps a
label-keyed assignment onto the instances and runs the same check.

Colouring text has one formatter, _colouring_text, which writes a line per
instance from the instance's colour. A colouring the library makes keeps
its per-instance colours, and its assignment is a read-only mapping over
them whose (u, v, copy) dict is built only when it is first read, so
as_text never looks a key up and can never disagree with the assignment.
A colouring built from a caller's mapping reads that mapping's values.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .errors import GraphError, ResourceLimitError
from .multigraph import Multigraph

INSTANCE_CAP = 24


@dataclass(frozen=True)
class EdgeColouring:
    """Total assignment of colours in {1..k} to edge instances.

    Keys are (u, v, copy) with u before v in dense index order and copy in
    range(mult(u, v)). A colouring the library makes holds a read-only
    assignment over its per-instance colours, so its text needs no key
    lookups; one built from a caller's dict reads that dict.
    """

    graph: Multigraph
    k: int
    assignment: Mapping[tuple[str, str, int], int]

    def as_text(self) -> str:
        """One line '<u> <v> <copy> <colour>' per instance, in instance order."""
        g, a = self.graph, self.assignment
        if isinstance(a, _InstanceColours) and a.graph is g:
            names = [f"{c}\n" for c in range(a.k + 1)]
            return _colouring_text(g, map(names.__getitem__, a.colour))
        return _colouring_text(g, [f"{a[key]}\n" for key in _keys(g)])


class _InstanceColours(Mapping):
    """The assignment of a colouring the library made: read-only, over instance colours.

    colour[e] is the colour, in 1..k, of instance e in the order of
    _instances(graph). The (u, v, copy) dict is built on first access.
    """

    __slots__ = ("graph", "k", "colour", "_table")

    def __init__(self, graph: Multigraph, k: int, colour: list[int]):
        self.graph, self.k, self.colour, self._table = graph, k, colour, None

    def _dict(self) -> dict[tuple[str, str, int], int]:
        if self._table is None:
            self._table = dict(zip(_keys(self.graph), self.colour))
        return self._table

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self.colour)

    def __repr__(self) -> str:
        return repr(self._dict())


def _colouring_text(g: Multigraph, colour_lines) -> str:
    """'<u> <v> <copy> <colour>' lines from each instance's colour and newline.

    colour_lines follows the instance order of _instances(g). The text is
    joined from three interleaved columns of shared strings, the pair, the
    copy and the colour, so an instance costs three list slots rather than
    a formatted line of its own.
    """
    lab = g.labels
    copy = [f"{c} " for c in range(g.max_mult())]
    heads: list[str] = []
    copies: list[str] = []
    for i, j, m in g.index_classes:
        heads += [f"{lab[i]} {lab[j]} "] * m
        copies += copy[:m]
    pieces = [""] * (3 * len(heads))
    pieces[0::3] = heads
    pieces[1::3] = copies
    pieces[2::3] = colour_lines
    return "".join(pieces)


def verify_colouring(c: EdgeColouring) -> bool:
    """True iff the assignment is total and proper for c.graph with c.k colours.

    A colour is an int in 1..k; any other value, a bool included, fails.
    """
    g, a = c.graph, c.assignment
    ends = _instances(g)
    colour = list(map(a.get, _keys(g)))
    ints = all(isinstance(col, int) and not isinstance(col, bool) for col in colour)
    return ints and len(a) == len(ends) and _proper(c.k, ends, colour)


def _proper(k: int, ends, colour) -> bool:
    """Whether every colour[e] is in 1..k and no colour repeats at a vertex.

    The palettes are recomputed from ends and colour alone: instance e puts
    the key v * (k + 1) + colour[e] at each end v, so a colour repeated at a
    vertex is a repeated key. An uncoloured instance has colour 0 and fails.
    """
    if colour and not (1 <= min(colour) and max(colour) <= k):
        return False
    s = k + 1
    keys = [i * s + c for (i, _), c in zip(ends, colour)]
    keys += [j * s + c for (_, j), c in zip(ends, colour)]
    return len(set(keys)) == len(keys)


def _instances(g: Multigraph) -> list[tuple[int, int]]:
    """Expand classes (in dense pair order) into instance endpoint pairs."""
    ends: list[tuple[int, int]] = []
    for i, j, m in g.index_classes:
        ends += [(i, j)] * m
    return ends


def _keys(g: Multigraph) -> list[tuple[str, str, int]]:
    """The (u, v, copy) assignment key of every instance, in instance order."""
    lab = g.labels
    return [(lab[i], lab[j], c) for i, j, m in g.index_classes for c in range(m)]


def _as_colouring(g: Multigraph, k: int, colour: list[int]) -> EdgeColouring:
    return EdgeColouring(g, k, _InstanceColours(g, k, colour))


def chromatic_index_exact(g: Multigraph, max_instances: int = INSTANCE_CAP) -> tuple[int, EdgeColouring]:
    """Exact chromatic index plus an optimal colouring, by backtracking."""
    total = g.total_instances()
    if total > max_instances:
        raise ResourceLimitError(
            f"chromatic_index_exact capped at {max_instances} edge instances, got {total}"
        )
    if total == 0:
        return 0, _as_colouring(g, 0, [])

    ends = _instances(g)
    n = len(g.labels)

    def solve(k: int):
        colour = [0] * total
        used_at: list[set[int]] = [set() for _ in range(n)]

        def bt(idx: int, maxused: int) -> bool:
            if idx == total:
                return True
            i, j = ends[idx]
            # ascending colours along copies of one class
            lo = colour[idx - 1] + 1 if idx > 0 and ends[idx - 1] == (i, j) else 1
            hi = min(k, maxused + 1)
            for c in range(lo, hi + 1):
                if c in used_at[i] or c in used_at[j]:
                    continue
                colour[idx] = c
                used_at[i].add(c)
                used_at[j].add(c)
                if bt(idx + 1, max(maxused, c)):
                    return True
                used_at[i].discard(c)
                used_at[j].discard(c)
            colour[idx] = 0
            return False

        return colour if bt(0, 0) else None

    # k = total always succeeds (give every instance its own colour), so the
    # loop terminates without appealing to any colourability bound.
    for k in range(max(1, g.max_degree()), total + 1):
        colour = solve(k)
        if colour is not None:
            return k, _as_colouring(g, k, colour)
    raise RuntimeError("unreachable: k = instance count always admits a colouring")


# -- the fan engine -------------------------------------------------------


class _State:
    """Mutable partial colouring with per-vertex colour lookup.

    used[v] has bit c set when colour c is on an instance at v, so the free
    colours of v are the bits of full & ~used[v]; at[v] maps each colour at
    v to its instance, for the Kempe walks.
    """

    def __init__(self, g: Multigraph, k: int):
        self.g = g
        self.k = k
        self.ends = _instances(g)
        self.colour = [0] * len(self.ends)
        self.used = [0] * len(g.labels)
        self.at: list[dict[int, int]] = [dict() for _ in g.labels]  # colour -> instance
        self.incident: list[list[int]] = [[] for _ in g.labels]
        e = 0
        for i, j, m in g.index_classes:
            self.incident[i] += range(e, e + m)
            self.incident[j] += range(e, e + m)
            e += m
        self.full = (1 << (k + 1)) - 2  # colours 1..k

    def free(self, v: int) -> int:
        return self.full & ~self.used[v]

    def other(self, e: int, v: int) -> int:
        i, j = self.ends[e]
        return j if v == i else i

    def assign(self, e: int, c: int) -> None:
        i, j = self.ends[e]
        self.colour[e] = c
        self.at[i][c] = e
        self.at[j][c] = e
        bit = 1 << c
        self.used[i] |= bit
        self.used[j] |= bit

    def unassign(self, e: int) -> None:
        c = self.colour[e]
        i, j = self.ends[e]
        del self.at[i][c]
        del self.at[j][c]
        bit = 1 << c
        self.used[i] ^= bit
        self.used[j] ^= bit
        self.colour[e] = 0


def _lowest(mask: int) -> int:
    """The smallest colour in a nonzero mask: its lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _flip_path(st: _State, start: int, c_present: int, c_missing: int, avoid) -> bool:
    """Swap the two colours along the maximal alternating path from start.

    start must miss c_missing, so it is an endpoint of its path in the
    two-colour subgraph and the walk cannot cycle. When avoid is a vertex
    and the far end of the path is that vertex, nothing is swapped and the
    call reports False (swapping would disturb the fan anchor's palette).
    """
    if (st.used[start] >> c_missing & 1) or not (st.used[start] >> c_present & 1):
        return False
    z, cur = start, c_present
    chain: list[int] = []
    limit = len(st.ends) + 1
    while cur in st.at[z]:
        e = st.at[z][cur]
        chain.append(e)
        z = st.other(e, z)
        cur = c_missing if cur == c_present else c_present
        if len(chain) > limit:  # would mean the invariant broke; bail safely
            return False
    if avoid is not None and z == avoid:
        return False
    olds = [st.colour[e] for e in chain]
    for e in chain:
        st.unassign(e)
    for e, old in zip(chain, olds):
        st.assign(e, c_missing if old == c_present else c_present)
    return True


def _fold(st: _State, x: int, fan: list[int], rim: list[int]) -> bool:
    """Rotate colours down the fan until the uncoloured first edge is set.

    Recolour the last fan edge with a colour free at both x and the last
    rim vertex; its old colour is then free at x and at some earlier rim
    vertex, so the truncated fan is foldable again. Terminates when the
    first (uncoloured) edge receives a colour. Returns False, leaving a
    proper partial colouring, if the fold invariant is ever unavailable.
    """
    used = st.used
    while True:
        shared = st.full & ~(used[x] | used[rim[-1]])
        if not shared:
            return False
        c = _lowest(shared)
        last = fan[-1]
        old = st.colour[last]
        if old:
            st.unassign(last)
        st.assign(last, c)
        if old == 0:
            return True
        idx = None
        for i2 in range(len(fan) - 1):
            if not used[rim[i2]] >> old & 1:
                idx = i2
                break
        if idx is None:
            return False
        del fan[idx + 1:]
        del rim[idx + 1:]


def _reduce(st: _State, x: int, fan: list[int], rim: list[int], i: int) -> bool:
    """Make the fan foldable via a Kempe swap between two rim vertices.

    rim[i] and rim[-1] (distinct vertices) share a missing colour a, and
    b = min free(x) is present at every rim vertex. The (b, a) path from
    rim[i] and the one from rim[-1] cannot both reach x (x has no b-edge
    and at most one a-edge, so it ends at most one such path). Swapping
    whichever path avoids x leaves b free at x and at one of the two rim
    vertices, so the fan, truncated to that vertex if need be, folds.
    """
    yi, yn = rim[i], rim[-1]
    shared = st.full & ~(st.used[yi] | st.used[yn])
    fx = st.free(x)
    if not shared or not fx:
        return False
    a = _lowest(shared)
    b = _lowest(fx)
    if _flip_path(st, yi, b, a, avoid=x):
        del fan[i + 1:]
        del rim[i + 1:]
    elif not _flip_path(st, yn, b, a, avoid=x):
        return False
    return _fold(st, x, fan, rim)


def _fan_attempt(st: _State, e: int, x: int) -> bool:
    """Grow a fan anchored at x from the uncoloured instance e.

    Fan edges are coloured instances at x whose colour is missing at some
    earlier rim vertex. After each extension: if x and the new rim vertex
    share a free colour the fan folds; if the new rim vertex shares a free
    colour with an earlier, distinct rim vertex the fan reduces. A fan that
    can do neither and cannot extend is stuck and the attempt fails.
    """
    y0 = st.other(e, x)
    fan = [e]
    rim = [y0]
    in_fan = {e}
    used, colour = st.used, st.colour
    missing_union = st.free(y0)
    fx = st.free(x)
    while True:
        nxt = None
        for cand in st.incident[x]:
            # an uncoloured instance has colour 0, never a free colour
            if missing_union >> colour[cand] & 1 and cand not in in_fan:
                nxt = cand
                break
        if nxt is None:
            return False
        fan.append(nxt)
        in_fan.add(nxt)
        ynew = st.other(nxt, x)
        rim.append(ynew)
        fy = st.free(ynew)
        if fx & fy:
            return _fold(st, x, fan, rim)
        hit = None
        for idx in range(len(rim) - 1):
            if rim[idx] != ynew and fy & ~used[rim[idx]]:
                hit = idx
                break
        if hit is not None:
            return _reduce(st, x, fan, rim, hit)
        missing_union |= fy


def _perturb(st: _State, e: int, attempt: int) -> bool:
    """Deterministic Kempe flip near the stuck edge to change the landscape.

    Flips the path from one endpoint between its smallest free colour and a
    present colour selected by the attempt counter. Sound (properness is
    preserved) and cheap; which flip is taken varies with the counter so
    successive retries explore different colourings.
    """
    v = st.ends[e][attempt % 2]
    fv = st.free(v)
    present = sorted(st.at[v])
    if not fv or not present:
        return False
    alpha = _lowest(fv)
    beta = present[(attempt // 2) % len(present)]
    return _flip_path(st, v, beta, alpha, avoid=None)


def _colour_edge(st: _State, e: int) -> bool:
    i, j = st.ends[e]
    budget = max(1, len(st.g.labels) * max(st.k, 1))
    lower = i if (st.g.deg[i], i) <= (st.g.deg[j], j) else j
    higher = j if lower == i else i
    attempt = 0
    stagnant = 0
    while attempt < budget:
        common = st.full & ~(st.used[i] | st.used[j])
        if common:
            st.assign(e, _lowest(common))
            return True
        anchor = lower if attempt % 2 == 0 else higher
        if _fan_attempt(st, e, anchor):
            return True
        attempt += 1
        if attempt >= budget:
            break
        if _perturb(st, e, attempt):
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 2:
                break  # nothing changes any more; retrying is pointless
    return False


def _run_pass(g: Multigraph, k: int, order: list[int]) -> _State | None:
    st = _State(g, k)
    ends, used, full, colour, at = st.ends, st.used, st.full, st.colour, st.at
    for e in order:
        # Almost every instance has a colour free at both ends. Taking the
        # lowest one here is _colour_edge's own first step, so the colouring
        # is the same, but skips that call and its budget and anchor set-up.
        # The assignment is st.assign's, inline.
        i, j = ends[e]
        common = full & ~(used[i] | used[j])
        if common:
            bit = common & -common
            colour[e] = c = bit.bit_length() - 1
            at[i][c] = at[j][c] = e
            used[i] |= bit
            used[j] |= bit
        elif not _colour_edge(st, e):
            return None
    return st


def _pass_orders(total: int):
    """Instance orders of the successive passes, made one at a time.

    Every rotation of the forward order, then every rotation of the
    reversed one; a single empty order when there are no instances.
    They are made lazily because together they take O(total^2) memory,
    while the first pass almost always succeeds.
    """
    base = list(range(total))
    rev = base[::-1]
    for o in range(max(1, total)):
        yield base[o:] + base[:o]
    for o in range(total):
        yield rev[o:] + rev[:o]


def fan_colouring(g: Multigraph, k: int) -> EdgeColouring | None:
    """Colour g with k colours by fan recolouring; None when the search fails.

    Requires k >= max_degree(g). Success is guaranteed for
    k >= max over v of degree(v) + vertex_mult(v); below that bound the
    engine is a deterministic best-effort search: each stuck instance gets
    up to |V| * k fan attempts interleaved with Kempe perturbations, and a
    pass that still fails is retried from scratch with the instance order
    rotated (forward and reversed starts). None is returned only after
    every pass fails. Deterministic throughout: identical inputs give
    identical colourings.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise GraphError(f"colour count must be a nonnegative integer, got {k!r}")
    if k < g.max_degree():
        raise GraphError(f"{k} colours is below the maximum degree {g.max_degree()}")
    st = None
    for order in _pass_orders(g.total_instances()):
        st = _run_pass(g, k, order)
        if st is not None:
            break
    if st is None:
        return None
    if not _proper(k, st.ends, st.colour):  # internal soundness guard
        raise RuntimeError("fan engine produced an improper colouring")
    return _as_colouring(g, k, st.colour)
