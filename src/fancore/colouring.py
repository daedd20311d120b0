"""Proper edge-colourings: verification, exact chromatic index, fan engine.

Parallel copies are coloured individually, so an assignment maps
(pair, copy index) slots to colours in {1..k}. Two instances are adjacent
when they share an endpoint; properness forbids equal colours on adjacent
instances.

Both solvers colour on one palette state, _State, whose palettes are
bitmasks: each vertex keeps the colours on its instances as one int, bit c
for colour c, updated on every colour change. The colours free at a
vertex, or at both ends of an instance, are then one and-not against the
full palette, every membership test is one bit test, and the smallest
free colour is the lowest set bit.

chromatic_index_exact is a plain backtracking search on that state over
the edge instances in order, with two symmetry prunings: a fresh instance
may only open one new colour, and copies of the same class take ascending
colours. An instance's candidates are one mask, the colours free at both
ends cut to that range, tried lowest bit first. It is the oracle the rest
of the package is checked against, guarded by an instance cap.

fan_colouring is the constructive engine. It colours instances one at a
time, each with the lowest colour free at both ends; when an instance has
none it builds a fan anchored at one endpoint and repairs the colouring by
fan rotation ("folding") and two-colour alternating-path swaps (Kempe
chains). Folding and swapping always complete, so the engine has one
failure mode: a stuck fan, which can neither fold, reduce nor grow. A
stuck instance is perturbed by a Kempe swap at one of its ends and
retried, within a budget per instance, and a pass whose budget runs out
is run again in another instance order. With k >= max over v of
degree(v) + vertex_mult(v), a stuck fan is arithmetically impossible, so
the engine always succeeds there; below that bound it is a deterministic
best-effort search. The palette is bounded by 2 * max_degree: with that
many colours no instance is ever stuck, so a larger k gives the same
colouring, and the engine runs with min(k, 2 * Delta) colours whatever k
is asked for.

The engine's state costs what a call uses. fan_colouring builds one state
per call: the instance endpoints, the class offsets, the vertices' instance
lists and the at tables hold for any instance order, and each pass resets
only the colours and the palettes. An at entry left from an earlier pass
is stale like any other, and at is read only after a bit test of the
palette. at[v] is a list of palette + 1 slots where 4 * deg(v) >= palette
and a dict elsewhere, so reads and writes keep the one at[v][c] form while
the lists together hold at most sum(4 * deg(v) + 1) = 8N + |V| slots (N
instances) and a dict one entry per colour that has sat at v during the
call; a palette-wide list at every vertex would cost O(|V| * Delta). A
vertex's instance list is built from the class offsets the first time a
fan is anchored there, so a call whose instances all take a common free
colour builds none.

Almost all of the engine's time below the Ore bound goes to stuck fans and
the perturbations after them, so that path and the fold read and write the
state's lists themselves, with no helper call per step, and their tests are
mask shortcuts that pick exactly what the plain tests pick:

- The colours that can extend the fan are one mask, grow: free at a rim
  vertex, present at x and not yet in the fan. A candidate's colour is free
  at a rim vertex, so it is not 0, the uncoloured e's colour, and colours
  at x are distinct, so a colour names its instance at x and the fan is
  stuck exactly when grow is empty: one mask test, not a scan of x's
  instances. grow is kept up to date as the fan grows: a pick takes its
  colour out, and a new rim vertex brings in the colours present at x that
  it frees and no earlier rim vertex frees. The scan of x's instances for
  the next fan edge resumes after the last pick and still picks the first
  instance in x's order with a colour in grow: only a brought-in colour can
  sit on an instance up to the last pick, so only then does the scan start
  again from x's first instance.
- A reduce partner is looked for only at a rim vertex met for the first
  time whose free colours meet the union of the earlier rim vertices' free
  colours, and the partner is the first earlier rim vertex that misses one
  of the new vertex's free colours. Invariant (D) of _fan_attempt makes
  this exact, so the rim is scanned once, when the fan reduces, not at
  every extension of a fan that may end stuck.
- The perturbation's present colour is the n-th set bit of the vertex's
  palette, which is the n-th entry of its present colours listed in order.

The check of a colouring shares no code with that state. _proper
recomputes every vertex's colours from scratch from the graph's classes
and the instance colours alone, vertex by vertex: each class's copies'
colours are listed at both its ends, and the check fails unless every
colour is in 1..k and no vertex's list holds a colour twice. It is the
engine's soundness guard, which raises RuntimeError on an improper
colouring, and verify_colouring, which checks the exact solver's
colourings in the tests, maps a label-keyed assignment onto the instances
and runs the same check.

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

from .errors import GraphError, ResourceLimitError, check_cap
from .multigraph import Multigraph

INSTANCE_CAP = 24
COLOUR_INSTANCE_CAP = 1 << 20  # 120-190 bytes an instance; the widest fixture witness has 28,090


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
            names = [f"{c}\n" for c in range(a.top + 1)]
            return _colouring_text(g, map(names.__getitem__, a.colour))
        return _colouring_text(g, [f"{a[key]}\n" for key in _keys(g)])


class _InstanceColours(Mapping):
    """The assignment of a colouring the library made: read-only, over instance colours.

    colour[e] is the colour, in 1..top, of instance e in the order of
    _instances(graph); top sizes the text table, so it is the largest colour
    that can occur, not the colouring's k. The (u, v, copy) dict is built on
    first access.
    """

    __slots__ = ("graph", "top", "colour", "_table")

    def __init__(self, graph: Multigraph, top: int, colour: list[int]):
        self.graph, self.top, self.colour, self._table = graph, top, colour, None

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
    colour = list(map(a.get, _keys(g)))
    ints = all(isinstance(col, int) and not isinstance(col, bool) for col in colour)
    return ints and len(a) == len(colour) and _proper(c.k, g, colour)


def _proper(k: int, g: Multigraph, colour) -> bool:
    """Whether every colour[e] is in 1..k and no colour repeats at a vertex.

    Each vertex's colours are recomputed from g's classes and colour alone:
    a class's slice of colour, its copies' colours, is appended to the list
    of each of its two ends, so a colour repeated at a vertex is a repeated
    entry of that vertex's list. An uncoloured instance has colour 0 and
    fails.
    """
    if colour and not (1 <= min(colour) and max(colour) <= k):
        return False
    lists: list[list[int]] = [[] for _ in g.labels]
    e = 0
    for i, j, m in g.index_classes:
        copies = colour[e:e + m]
        lists[i] += copies
        lists[j] += copies
        e += m
    return all(len(set(cs)) == len(cs) for cs in lists)


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


# -- the palette state both solvers share ---------------------------------


class _State:
    """Mutable partial colouring with per-vertex colour lookup.

    used[v] is the one record of which colours sit at v: bit c is set when
    colour c is on an instance at v, so the free colours of v are the bits
    of full & ~used[v]. at[v][c] is that instance, for the Kempe walks; it
    is valid wherever bit c of used[v] is set, and unassign leaves stale
    entries behind, so at is read only after a bit test. at[v] is a list of
    k + 1 slots where 4 * deg(v) >= k and a dict elsewhere.

    incident[x] lists x's instances in instance order. It is None until
    anchor(x) builds it from the class offsets in start, the first time a
    fan is anchored at x.
    """

    def __init__(self, g: Multigraph, k: int):
        self.g = g
        self.k = k
        self.ends = _instances(g)
        self.colour = [0] * len(self.ends)
        self.used = [0] * len(g.labels)
        self.at = [[0] * (k + 1) if 4 * d >= k else {} for d in g.deg]  # colour -> instance
        self.incident: list[list[int] | None] = [None] * len(g.labels)
        self.start: dict[tuple[int, int], int] = {}
        e = 0
        for i, j, m in g.index_classes:
            self.start[i, j] = e
            e += m
        self.full = (1 << (k + 1)) - 2  # colours 1..k

    def anchor(self, x: int) -> list[int]:
        """List x's instances in instance order into incident[x], and return it.

        adj[x] is in neighbour order, the order of x's classes among the
        classes, so the instance indices come out ascending.
        """
        self.incident[x] = inc = []
        for y, m in self.g.adj[x].items():
            e = self.start[(y, x) if y < x else (x, y)]
            inc += range(e, e + m)
        return inc

    def assign(self, e: int, c: int) -> None:
        i, j = self.ends[e]
        self.colour[e] = c
        self.at[i][c] = e
        self.at[j][c] = e
        bit = 1 << c
        self.used[i] |= bit
        self.used[j] |= bit

    def unassign(self, e: int) -> None:
        i, j = self.ends[e]
        bit = 1 << self.colour[e]
        self.used[i] ^= bit
        self.used[j] ^= bit
        self.colour[e] = 0


def _lowest(mask: int) -> int:
    """The smallest colour in a nonzero mask: its lowest set bit."""
    return (mask & -mask).bit_length() - 1


def chromatic_index_exact(g: Multigraph, max_instances: int = INSTANCE_CAP) -> tuple[int, EdgeColouring]:
    """Exact chromatic index plus an optimal colouring, by backtracking.

    Refused above max_instances edge instances, and above
    COLOUR_INSTANCE_CAP whatever max_instances is: no larger state is built.
    """
    check_cap("max_instances", max_instances)
    total, cap = g.total_instances(), min(max_instances, COLOUR_INSTANCE_CAP)
    if total > cap:
        raise ResourceLimitError(f"chromatic_index_exact capped at {cap} edge instances, got {total}")
    # One state serves every k: _extend cuts the palette to 1..k itself and
    # hands the state back uncoloured when it fails. k = total always
    # succeeds (give every instance its own colour), so the loop terminates
    # without appealing to any colourability bound; with no instances, k = 0
    # does.
    st = _State(g, total)
    for k in range(g.max_degree(), total + 1):
        if _extend(st, k):
            return k, EdgeColouring(g, k, _InstanceColours(g, k, st.colour))
    raise RuntimeError("unreachable: k = instance count always admits a colouring")


def _extend(st: _State, k: int) -> bool:
    """Whether st's empty colouring extends to every instance with colours 1..k.

    A depth-first search. Instance e tries, lowest first, the colours free
    at both its ends from lo to top[e] + 1, top[e] being the largest colour
    on the instances before it: a fresh instance opens at most one new
    colour, and a copy of the class before it starts one above that copy's
    colour (lo), so no colouring is tried twice up to a renaming of colours
    or of parallel copies. cand[e] holds the candidates e has still to try.
    An instance is uncoloured when the search first reaches it and coloured
    when the search backs up to it. On False st is as it was.
    """
    ends, colour, used = st.ends, st.colour, st.used
    full = (1 << (k + 1)) - 2  # colours 1..k
    n = len(ends)
    cand = [0] * n
    top = [0] * (n + 1)
    e = 0
    while 0 <= e < n:
        if colour[e]:
            st.unassign(e)
        else:
            i, j = ends[e]
            lo = colour[e - 1] + 1 if e and ends[e - 1] == (i, j) else 1
            cand[e] = full & ~(used[i] | used[j]) & ((1 << top[e] + 2) - (1 << lo))
        if cand[e]:
            c = _lowest(cand[e])
            cand[e] &= cand[e] - 1
            st.assign(e, c)
            top[e + 1] = max(top[e], c)
            e += 1
        else:
            e -= 1
    return e == n


# -- the fan engine -------------------------------------------------------


def _flip_path(st: _State, start: int, c_present: int, c_missing: int, avoid) -> bool:
    """Swap the two colours along the maximal alternating path from start.

    start holds c_present and misses c_missing, as both callers ensure
    (_reduce and _perturb say why). Every vertex has at most two instances
    in those two colours and start has one, so start ends a path and the
    walk stops at its other end, z. When z is avoid, nothing is swapped and
    the call reports False (swapping would disturb the fan anchor's
    palette); avoid is None for a swap that may end anywhere.

    The swap writes the state directly. Every inner vertex of the path keeps
    both colours, so of the palettes only the two ends' change: each trades
    the colour it held on the path for the other, one xor of both bits.
    """
    used, at, ends, colour = st.used, st.at, st.ends, st.colour
    z, cur, alt = start, c_present, c_missing
    chain: list[int] = []
    while used[z] >> cur & 1:
        e = at[z][cur]
        chain.append(e)
        i, j = ends[e]
        z = j if z == i else i
        cur, alt = alt, cur
    if z == avoid:
        return False
    swap = 1 << c_present | 1 << c_missing
    used[start] ^= swap
    used[z] ^= swap
    for e in chain:
        colour[e] = c = c_present + c_missing - colour[e]
        i, j = ends[e]
        at[i][c] = at[j][c] = e
    return True


def _fold(st: _State, x: int, fan: list[int], rim: list[int]) -> None:
    """Rotate colours down the fan until the uncoloured first edge is set.

    Each step recolours the last fan edge with the lowest colour c free at
    both x and the last rim vertex, then cuts the fan back to the first rim
    vertex at which the edge's old colour is now free. Invariant (F) of
    _fan_attempt holds on entry, and so does the step's condition: x and the
    last rim vertex share a free colour, the fold condition or b after
    _reduce's swap. Each step keeps both:

    - Some earlier rim vertex misses old. By (F) one did before the step,
      and it is not the last rim vertex, which held old on the recoloured
      edge; the step changes free colours only at x and that vertex.
    - x misses old now, so x shares old with the cut fan's last rim vertex.
    - (F) holds for the cut fan. Its edges keep their colours, and the one
      rim vertex whose free colours changed, the last, lost only c, which
      no fan edge has because c was free at x.

    The fan shrinks at every step, and the step on the first edge ends it.
    A step pops the last fan edge and rim vertex and looks for old's rim
    vertex only among those left, so a broken (F) runs off the rim and
    raises IndexError instead of recolouring the same edge for ever.
    """
    used, colour, at, full = st.used, st.colour, st.at, st.full
    while True:
        last = fan.pop()
        y = rim.pop()
        free = full & ~(used[x] | used[y])
        bit = free & -free
        old = colour[last]
        colour[last] = c = bit.bit_length() - 1
        at[x][c] = at[y][c] = last
        if not old:
            used[x] |= bit
            used[y] |= bit
            return
        bit |= 1 << old
        used[x] ^= bit
        used[y] ^= bit
        idx = 0
        while used[rim[idx]] >> old & 1:
            idx += 1
        del fan[idx + 1:]
        del rim[idx + 1:]


def _reduce(st: _State, x: int, fan: list[int], rim: list[int], i: int) -> None:
    """Make the fan foldable by a Kempe swap between two rim vertices, and fold it.

    yi = rim[i] and yn = rim[-1] are distinct vertices sharing a free
    colour, a the lowest, and b is the lowest colour free at x. By (X) every
    rim vertex holds b and a is not free at x, so yi and yn each miss a and
    hold b, as _flip_path requires of its start. x misses b, so it can only
    end a (b, a)-path. If yi's path does not end at x, it is swapped: b is
    then free at yi and, untouched, at x, and the fan is cut back to yi.
    Otherwise that path's two ends are yi and x, so yn, which ends its own
    path, lies on another one, which avoids x and is swapped: b is then
    free at yn and at x. Either way x and the last rim vertex share b.

    (F) survives the swap. No swapped instance is at x, so no fan edge
    changes colour, and free colours change only at the path's ends and
    only in a and b. No fan edge has b, which is free at x. By (D) yi is the
    only rim vertex before the last that misses a, and i is its first
    index, so an a-coloured fan edge comes after rim[i]: the cut drops it
    when yi's path is swapped, and yi, on the other path, still misses a
    when yn's is.
    """
    yi, yn = rim[i], rim[-1]
    a = _lowest(st.full & ~(st.used[yi] | st.used[yn]))
    b = _lowest(st.full & ~st.used[x])
    if _flip_path(st, yi, b, a, avoid=x):
        del fan[i + 1:]
        del rim[i + 1:]
    else:
        _flip_path(st, yn, b, a, avoid=x)
    _fold(st, x, fan, rim)


def _fan_attempt(st: _State, e: int, x: int) -> bool:
    """Grow a fan anchored at x from the uncoloured instance e; False when it is stuck.

    The fan is a list of instances at x, e first, and rim[j] is the other
    end of fan[j]. A coloured instance at x joins the fan when its colour is
    free at a rim vertex already in it. After each extension: if x and the
    new rim vertex share a free colour the fan folds; if the new rim vertex
    shares a free colour with an earlier, distinct rim vertex the fan
    reduces. A fan that can do neither and cannot extend is stuck: the
    attempt fails, and it has changed no colour. Folding and reducing
    always complete, so this is the engine's only failure.

    Nothing is recoloured while the fan grows, so when it folds or reduces:

    - (F) every fan edge after e has a colour free at an earlier rim vertex;
    - (X) no rim vertex shares a free colour with x, except the last when
      the fan folds (rim[0] shares none because no colour is free at both
      ends of e);
    - (D) no two distinct vertices among the rim vertices before the last
      share a free colour.

    x has a free colour: the palette has at least max_degree colours, and
    one of x's instances, e, is uncoloured.

    The growth reads the state directly. grow is the set of colours that
    can extend the fan: free at a rim vertex (missing_union), on an
    instance at x (used[x]) and not yet in the fan. When it is empty no
    instance can join, since an instance at x joins exactly when its colour
    is in grow: its colour is not 0, which is never free, and colours at x
    are distinct, so the colour names the instance. Otherwise the scan of
    x's instances takes the first one with a colour in grow, from p, just
    after the last pick. A pick takes its colour out of grow, and the new
    rim vertex brings in new = fy & ux & ~missing_union (the fan's colours
    are in missing_union already); the instances up to p stay out of grow
    unless new is not empty, and then p goes back to 0.
    A reduce partner is searched for only when fy meets missing_union, the
    union of the earlier rim vertices' free colours, and ynew is in the rim
    for the first time; it is then the first earlier rim vertex that misses
    a colour of fy. (D) makes both tests exact, as it holds for the rim
    before ynew. A rim vertex met again, reached before by a parallel
    instance, is one of those vertices, so no other one shares a free
    colour with it and it has no partner. A new one that meets the union
    shares a colour with an earlier vertex, which is not ynew itself. So the
    rim is scanned once, when the fan reduces, not at every extension.
    """
    ends, used, colour, full = st.ends, st.used, st.colour, st.full
    inc = st.incident[x] or st.anchor(x)
    i, j = ends[e]
    y0 = j if x == i else i
    fan = [e]
    rim = [y0]
    missing_union = full & ~used[y0]
    ux = used[x]
    fx = full & ~ux
    grow = missing_union & ux
    p = 0
    while grow:
        while not grow >> colour[inc[p]] & 1:
            p += 1
        nxt = inc[p]
        fan.append(nxt)
        grow ^= 1 << colour[nxt]
        i, j = ends[nxt]
        ynew = j if x == i else i
        rim.append(ynew)
        fy = full & ~used[ynew]
        if fx & fy:
            _fold(st, x, fan, rim)
            return True
        if fy & missing_union and rim.index(ynew) == len(rim) - 1:
            _reduce(st, x, fan, rim, next(idx for idx, y in enumerate(rim) if fy & ~used[y]))
            return True
        new = fy & ux & ~missing_union
        grow |= new
        p = 0 if new else p + 1
        missing_union |= fy
    return False


def _perturb(st: _State, e: int, attempt: int) -> None:
    """Deterministic Kempe flip near the stuck edge to change the landscape.

    Flips the path from one endpoint v between its smallest free colour and
    a present colour selected by the attempt counter. Sound (properness is
    preserved) and cheap; which flip is taken varies with the counter so
    successive retries explore different colourings. Both colours exist:
    v ends the uncoloured e, so it has fewer than max_degree coloured
    instances and a free colour; and no colour is free at both ends of e,
    so if v had no colour at all, its other end would hold every palette
    colour besides e and have more than max_degree instances.

    The present colour is the n-th set bit of used[v], n = (attempt // 2)
    modulo their count, found by clearing the n lowest bits: the n-th of
    v's present colours in increasing order.
    """
    v = st.ends[e][attempt % 2]
    u = st.used[v]
    for _ in range((attempt // 2) % u.bit_count()):
        u &= u - 1
    _flip_path(st, v, _lowest(u), _lowest(st.full & ~st.used[v]), avoid=None)


def _colour_edge(st: _State, e: int) -> bool:
    """Colour the uncoloured instance e; False when every attempt is stuck.

    An attempt takes the lowest colour free at both ends if there is one,
    and otherwise grows a fan, anchored at the end of lower (degree, index)
    on even attempts and at the other on odd ones; after a stuck fan it
    perturbs the colouring. There are |V| * palette attempts, at least two,
    since e has two ends and the palette at least max_degree >= 1 colours.
    """
    i, j = st.ends[e]
    used, full, deg = st.used, st.full, st.g.deg
    lower, higher = (i, j) if (deg[i], i) <= (deg[j], j) else (j, i)
    for attempt in range(len(deg) * st.k):
        common = full & ~(used[i] | used[j])
        if common:
            st.assign(e, _lowest(common))
            return True
        if _fan_attempt(st, e, lower if attempt % 2 == 0 else higher):
            return True
        _perturb(st, e, attempt + 1)
    return False


def _run_pass(st: _State, order: range | list[int]) -> bool:
    """Colour st's instances in order, starting from none; False when one is stuck.

    Only colour and used start afresh: the rest of st holds for any order,
    and at's entries left from an earlier pass are read only after a bit
    test of used.
    """
    st.colour = colour = [0] * len(st.ends)
    st.used = used = [0] * len(st.used)
    ends, full, at = st.ends, st.full, st.at
    last = None
    for e in order:
        # Almost every instance has a colour free at both ends. Taking the
        # lowest one here is _colour_edge's own first step, so the colouring
        # is the same, but skips that call and its budget and anchor set-up.
        # The assignment is st.assign's, inline. A copy of the class just
        # coloured here (copies share one ends tuple) has that class's
        # common mask less the colour taken.
        ij = ends[e]
        i, j = ij
        if ij is not last:
            common = full & ~(used[i] | used[j])
        if common:
            bit = common & -common
            colour[e] = c = bit.bit_length() - 1
            at[i][c] = at[j][c] = e
            used[i] |= bit
            used[j] |= bit
            common ^= bit
            last = ij
        else:
            last = None
            if not _colour_edge(st, e):
                return False
    return True


def _pass_orders(total: int):
    """Instance orders of the successive passes, made one at a time.

    Every rotation of the forward order, then every rotation of the
    reversed one; a single empty order when there are no instances.
    They are made lazily because together they take O(total^2) memory,
    while the first pass almost always succeeds. That pass is a range, so
    the lists the later orders are cut from are built only once it fails.
    """
    yield range(total)
    base = list(range(total))
    rev = base[::-1]
    for o in range(1, total):
        yield base[o:] + base[:o]
    for o in range(total):
        yield rev[o:] + rev[:o]


def fan_colouring(g: Multigraph, k: int) -> EdgeColouring | None:
    """Colour g with k colours by fan recolouring; None when the search fails.

    Requires k >= max_degree(g). An instance with no colour free at both
    ends fails only when its fan is stuck; it is then perturbed and retried,
    up to |V| * palette fan attempts, and a pass with an instance that exhausts
    them is retried from no colour at all, on the same state, with the
    instance order rotated (forward and reversed starts). None is returned
    only after every pass fails. No fan is stuck for k >= max over v of
    degree(v) + vertex_mult(v), so success is guaranteed there, on the first
    pass; below that bound the engine is a deterministic best-effort search.
    Deterministic throughout: identical inputs give identical colourings.

    A call that fails is the costly one: each of its 2N passes, N the
    instance count, spends up to |V| * palette fan attempts on a stuck
    instance. At k = max_degree = 4, doubled odd cycles of 51, 101 and 201
    vertices give None after 0.5, 2.9-3.1 and 22.7-23.4 s (a shared 2-vCPU
    Intel Xeon VM, Python 3.11.7, whose speed drifts between runs), roughly
    the cube of the size.

    The engine's palette is min(k, 2 * max_degree(g)). From 2 * Delta - 1
    colours on, the two ends of an instance block at most 2 * Delta - 2 of
    them, so every instance takes the lowest colour free at both ends and
    no colour above 2 * Delta - 1 is used: the colouring is the same for
    every such k, and a call costs the same time and memory at any k above
    2 * Delta. The returned colouring's k is the k asked for.

    A graph of more than COLOUR_INSTANCE_CAP (2^20) edge instances is
    refused with ResourceLimitError before any state is built, as a call
    takes 120-190 bytes an instance. The cap bounds memory, not time: a
    failing call within it can still run for minutes.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise GraphError(f"colour count must be a nonnegative integer, got {k!r}")
    if k < g.max_degree():
        raise GraphError(f"{k} colours is below the maximum degree {g.max_degree()}")
    total = g.total_instances()
    if total > COLOUR_INSTANCE_CAP:
        raise ResourceLimitError(f"fan_colouring capped at {COLOUR_INSTANCE_CAP} edge instances, got {total}")
    palette = min(k, 2 * g.max_degree())
    st = _State(g, palette)
    if not any(_run_pass(st, order) for order in _pass_orders(total)):
        return None
    if not _proper(palette, g, st.colour):  # internal soundness guard
        raise RuntimeError("fan engine produced an improper colouring")
    return EdgeColouring(g, k, _InstanceColours(g, palette, st.colour))
