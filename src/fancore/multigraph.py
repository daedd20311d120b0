"""Loopless multigraph values with multiplicity arithmetic and text I/O.

Vertices are arbitrary string labels mapped to dense integer indices in
insertion order; every deterministic ordering in this package is the dense
index order. Parallel edges are a multiplicity counter per unordered vertex
pair, never individual edge objects. Multigraph and SubgraphSelection values
are immutable after construction, so they are safe to share between threads;
all operations here are pure functions of their inputs.

Input is checked once, where it enters: at parse and at the public
Multigraph constructor. A graph derived from one that is already valid
(an induced subgraph, a t-core, a materialized selection, a constructed
witness) is built directly from index-space data, which is valid by
construction, and skips the label and class checks.

Text is read on one of two paths, selected by the input alone. Canonical
text, exactly what serialize writes (every vertex declared, then the
classes in strictly ascending pair order, single spaces, every line ended
by a newline), is matched whole by one regular expression and built from
whole-text passes. Any other text, and canonical-looking text that breaks
a rule, is read line by line through the constructor's checks. Only that
reader raises, so the graph, the message and the line number of an error
do not depend on the path.

There is one graph model. A SubgraphSelection is a vertex mask over a
Multigraph on its parent's own labels, so the subgraph shares the parent's
index space. Its public constructor checks the selected classes through
the Multigraph constructor and then only what is particular to a
selection; selections made inside the library, from index data, are not
checked again.
"""

from __future__ import annotations

import os
import re
import stat
from operator import lt
from typing import Iterable, Optional

from .errors import GraphError, ParseError, check_int

_RESERVED = "vertex"
# str.isspace's characters are exactly those \s matches in a str pattern
_FORBIDDEN = re.compile(r"[\s#]").search
# The text formats' one line splitter. str.splitlines would also break at
# \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, which str.split and
# _FORBIDDEN treat as whitespace inside a line.
_split_lines = re.compile("\r\n|\r|\n").split


def _check_label(label) -> None:
    if not isinstance(label, str) or not label:
        raise GraphError(f"vertex label must be a non-empty string, got {label!r}")
    if label == _RESERVED:
        raise GraphError("'vertex' is a reserved word in the text format and cannot name a vertex")
    if _FORBIDDEN(label):
        raise GraphError(f"vertex label {label!r} may not contain whitespace or '#'")


class _Builder:
    """A graph under construction: every per-item check, applied in input order.

    Multigraph's constructor and parse both declare vertices and add classes
    through one builder, so each check exists once and parse can attach the
    line number of the item that failed it.
    """

    def __init__(self):
        self.labels: list[str] = []
        self.index: dict[str, int] = {}
        self.pairs: dict[tuple[int, int], int] = {}

    def _intern(self, label: str) -> int:
        got = self.index.get(label)
        if got is None:
            _check_label(label)
            got = self.index[label] = len(self.labels)
            self.labels.append(label)
        return got

    def vertex(self, label: str) -> None:
        if label in self.index:
            raise GraphError(f"duplicate vertex {label!r}")
        self._intern(label)

    def add_class(self, u: str, v: str, m: int) -> None:
        if not (isinstance(m, int) and m > 0) or m is True:
            check_int(f"multiplicity of {u!r},{v!r}", m, "a positive integer")
            if m < 0:
                raise GraphError(f"negative multiplicity {m} on {u!r},{v!r}")
            raise GraphError(f"zero multiplicity on {u!r},{v!r}; omit the pair instead")
        index = self.index
        iu = index[u] if u in index else self._intern(u)
        iv = index[v] if v in index else self._intern(v)
        if iu == iv:
            raise GraphError(f"loop at {u!r} is not allowed")
        key = (iu, iv) if iu < iv else (iv, iu)
        if key in self.pairs:
            raise GraphError(f"duplicate pair {u!r},{v!r}")
        self.pairs[key] = m

    def seal(self, g: "Multigraph") -> "Multigraph":
        """Fill g's fields from the builder, whatever order the input came in."""
        return g._fill(self.labels, sorted((i, j, m) for (i, j), m in self.pairs.items()))


class Multigraph:
    """An immutable loopless multigraph.

    Construction takes an ordered iterable of vertex labels plus an iterable
    of parallel classes ``(u, v, multiplicity)``. Endpoints not already
    declared are appended in order of first appearance. Declaring the same
    unordered pair twice is an error (summing silently would hide fixture
    typos), as are loops and non-positive multiplicities.

    Index-space fields: ``labels``, ``adj`` (per vertex, neighbour index to
    multiplicity, in index order), ``deg`` and ``index_classes``, the
    classes as ``(i, j, m)`` with ``i < j``, sorted by dense index pair.
    """

    __slots__ = ("labels", "_index", "adj", "deg", "index_classes")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str, int]] = ()):
        b = _Builder()
        for label in vertices:
            b.vertex(label)
        for u, v, m in edges:
            b.add_class(u, v, m)
        b.seal(self)

    def _fill(self, labels: Iterable[str], classes: Iterable[tuple[int, int, int]]) -> "Multigraph":
        """Set every field from index-space data that is already valid.

        The one place the fields are filled. labels must be distinct valid
        labels and classes (i, j, m) distinct pairs with i < j and m >= 1,
        in pair order; nothing here checks that. Filling the adjacency dicts
        in pair order puts each in neighbour-index order, the order in which
        the kernels iterate it: vertex v meets its neighbours below v in the
        classes (i, v) and those above it in the later classes (v, j).
        """
        self.labels = labels = tuple(labels)
        self._index = dict(zip(labels, range(len(labels))))
        self.index_classes = classes = tuple(classes)
        adj: list[dict[int, int]] = [{} for _ in labels]
        for i, j, m in classes:
            adj[i][j] = m
            adj[j][i] = m
        self.adj = tuple(adj)
        self.deg = tuple(map(sum, map(dict.values, adj)))
        return self

    @classmethod
    def _derived(cls, labels: Iterable[str], classes: Iterable[tuple[int, int, int]]) -> "Multigraph":
        """A graph from the index-space data of a valid one; see _fill."""
        return cls.__new__(cls)._fill(labels, classes)

    # -- basic queries -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def class_count(self) -> int:
        return len(self.index_classes)

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def index_of(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def mult(self, u: str, v: str) -> int:
        """Multiplicity of the unordered pair, 0 when no class is present (and for u == v)."""
        return self.adj[self.index_of(u)].get(self.index_of(v), 0)

    def degree(self, v: str) -> int:
        """Sum of incident multiplicities; each parallel copy counts once."""
        return self.deg[self.index_of(v)]

    def vertex_mult(self, v: str) -> int:
        """Largest multiplicity on an edge incident to v, 0 when isolated."""
        a = self.adj[self.index_of(v)]
        return max(a.values()) if a else 0

    def ore_degree(self, v: str) -> int:
        """degree(v) + vertex_mult(v): the measure of the t-core and of the Ore bound."""
        return self.degree(v) + self.vertex_mult(v)

    def max_degree(self) -> int:
        return max(self.deg, default=0)

    def max_mult(self) -> int:
        return max((m for _, _, m in self.index_classes), default=0)

    def ore_bound(self) -> int:
        """max over vertices of ore_degree(v) (0 when empty)."""
        return max((d + max(a.values(), default=0) for d, a in zip(self.deg, self.adj)), default=0)

    def total_instances(self) -> int:
        return sum(m for _, _, m in self.index_classes)

    def classes(self) -> tuple[tuple[str, str, int], ...]:
        """Parallel classes as (u, v, mult), sorted by dense index pair."""
        lab = self.labels
        return tuple((lab[i], lab[j], m) for i, j, m in self.index_classes)

    def neighbours(self, v: str) -> tuple[str, ...]:
        a = self.adj[self.index_of(v)]
        return tuple(self.labels[i] for i in sorted(a))

    def is_simple(self) -> bool:
        return all(m == 1 for _, _, m in self.index_classes)

    # -- derived graphs ------------------------------------------------

    def underlying_simple(self) -> "Multigraph":
        """Same vertices, every stored pair flattened to multiplicity 1."""
        return Multigraph._derived(self.labels, [(i, j, 1) for i, j, _ in self.index_classes])

    def induced(self, s: Iterable[str]) -> "Multigraph":
        """Induced sub-multigraph on s; pairs inside s keep full multiplicity."""
        return self._induced({self.index_of(v) for v in s})

    def _induced(self, keep: Iterable[int]) -> "Multigraph":
        """Induced sub-multigraph on a set of vertex indices.

        Kept vertices are renumbered in index order, which keeps the pair
        order; each kept vertex's adjacency is already in neighbour order.
        """
        keep = sorted(keep)
        new = {old: i for i, old in enumerate(keep)}
        classes = []
        for i in keep:
            ni = new[i]
            for j, m in self.adj[i].items():
                if j > i and j in new:
                    classes.append((ni, new[j], m))
        lab = self.labels
        return Multigraph._derived([lab[i] for i in keep], classes)

    def is_multiforest(self) -> bool:
        """True iff the underlying simple graph is acyclic."""
        parent = list(range(len(self.labels)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j, _ in self.index_classes:
            ri, rj = find(i), find(j)
            if ri == rj:
                return False
            parent[ri] = rj
        return True

    # -- value semantics -----------------------------------------------

    def _key(self) -> tuple[frozenset[str], frozenset[tuple[str, str, int]]]:
        """The vertex labels and the classes with endpoints in label order, as sets."""
        return frozenset(self.labels), frozenset(map(_norm_class, self.classes()))

    def __eq__(self, other) -> bool:
        """Label-preserving equality: same vertex labels, same multiplicities."""
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Multigraph({len(self.labels)} vertices, {self.class_count} classes)"


def _norm_class(c: tuple[str, str, int]) -> tuple[str, str, int]:
    u, v, m = c
    return (u, v, m) if u <= v else (v, u, m)


class SubgraphSelection:
    """A subgraph of a parent Multigraph: selected classes and a vertex mask.

    graph is a Multigraph on the parent's own labels, so it shares the
    parent's dense index space, and holds each selected class at a
    multiplicity between 1 and the parent's; mask is the set of selected
    vertex indices and holds every endpoint of a selected class. Degrees,
    adjacency and classes are graph's, so metrics can mix parent and
    subgraph quantities without relabelling.
    """

    __slots__ = ("parent", "mask", "graph")

    def __init__(
        self,
        parent: Multigraph,
        classes: Iterable[tuple[str, str, int]] = (),
        vertices: Optional[Iterable[str]] = None,
    ):
        if vertices is None:
            mask = frozenset(range(len(parent.labels)))
        else:
            mask = frozenset(parent.index_of(v) for v in vertices)
        graph = Multigraph(parent.labels, classes)
        lab = graph.labels
        if len(lab) > len(parent.labels):
            raise GraphError(f"unknown vertex {lab[len(parent.labels)]!r}")
        for i, j, m in graph.index_classes:
            cap = parent.adj[i].get(j, 0)
            if m > cap:
                raise GraphError(f"selection exceeds parent multiplicity on {lab[i]!r},{lab[j]!r} ({m} > {cap})")
            if i not in mask or j not in mask:
                raise GraphError(f"selected class {lab[i]!r},{lab[j]!r} has an endpoint outside the vertex mask")
        self.parent, self.mask, self.graph = parent, mask, graph

    @classmethod
    def _derived(cls, parent: Multigraph, classes, mask: Optional[frozenset[int]] = None) -> "SubgraphSelection":
        """A selection from index-space data that is already valid; nothing is checked.

        classes are (i, j, m) of parent in pair order, each m between 1 and
        the parent's, and mask (every vertex by default) holds their
        endpoints; see Multigraph._fill.
        """
        sel = cls.__new__(cls)
        sel.parent = parent
        sel.mask = frozenset(range(len(parent.labels))) if mask is None else mask
        sel.graph = Multigraph._derived(parent.labels, classes)
        return sel

    @classmethod
    def full(cls, parent: Multigraph) -> "SubgraphSelection":
        return cls._derived(parent, parent.index_classes)

    def _check_host(self, h: Multigraph) -> None:
        """Raise GraphError unless h has the parent's index space.

        That is the same labels in the same order and the same classes. A
        graph equal to the parent may number its vertices differently, and
        metrics that mix host and selection indices would then mix vertices.
        """
        p = self.parent
        if p is not h and (p.labels != h.labels or p.index_classes != h.index_classes):
            raise GraphError("subgraph selection does not belong to the host graph")

    # -- index-space views ----------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self.parent.labels

    def index_of(self, v: str) -> int:
        i = self.parent.index_of(v)
        if i not in self.mask:
            raise GraphError(f"vertex {v!r} is outside the selection")
        return i

    @property
    def deg(self) -> tuple[int, ...]:
        return self.graph.deg

    @property
    def adj(self) -> tuple[dict[int, int], ...]:
        return self.graph.adj

    @property
    def index_classes(self) -> tuple[tuple[int, int, int], ...]:
        return self.graph.index_classes

    # -- label-space API -------------------------------------------------

    def classes(self) -> tuple[tuple[str, str, int], ...]:
        return self.graph.classes()

    def vertices(self) -> tuple[str, ...]:
        lab = self.parent.labels
        return tuple(lab[i] for i in range(len(lab)) if i in self.mask)

    def strip_isolated(self) -> "SubgraphSelection":
        """Shrink the mask to the endpoints of selected classes."""
        classes = self.graph.index_classes
        mask = frozenset(x for i, j, _ in classes for x in (i, j))
        return SubgraphSelection._derived(self.parent, classes, mask)

    def materialize(self) -> Multigraph:
        """Realize the selection as a standalone Multigraph on the masked vertices."""
        return self.graph._induced(self.mask)

    def __eq__(self, other) -> bool:
        """Label-preserving, like Multigraph's: equal parents, classes and mask labels."""
        if not isinstance(other, SubgraphSelection):
            return NotImplemented
        return (
            self.parent == other.parent
            and self.graph == other.graph
            and set(self.vertices()) == set(other.vertices())
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.graph, frozenset(self.vertices())))

    def __repr__(self) -> str:
        return f"SubgraphSelection({len(self.mask)} vertices, {self.graph.class_count} classes)"


# -- text format -------------------------------------------------------
#
# Line-oriented UTF-8. '#' starts a comment anywhere in a line. A line of
# the form 'vertex <label>' declares an isolated vertex; '<u> <v> <mult>'
# declares a parallel class with a positive multiplicity, written in ASCII
# digits only. Tokens are whitespace-separated, so labels cannot contain
# whitespace.


def _is_int(token: str) -> bool:
    """The format's integer grammar: ASCII digits with an optional leading '-'.

    The plan sidecar and the CLI's integer arguments read tokens by it, through _int.
    """
    return token.isascii() and token.removeprefix("-").isdigit()


def _int(token: str) -> int:
    """int(token) for a token of the integer grammar (_is_int), else int's ValueError."""
    if not _is_int(token):
        raise ValueError(f"invalid literal for int() with base 10: {token!r:.200}")
    return int(token)


def parse(text: str) -> Multigraph:
    """Parse graph text; raise ParseError with a line number on bad input.

    Canonical text, as serialize writes it, is read in whole-text passes
    (_parse_canonical). Any other text, and canonical-looking text that
    breaks a rule, is read line by line (_parse_lines), the one place a
    parse error is raised; both give the same graph for the same text.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


# Canonical text: every 'vertex <label>' line, then every '<u> <v> <m>' line,
# single spaces, each line ended by '\n', m in ASCII digits without a
# leading zero. A token cannot hold whitespace, so no line break either,
# and the lines split apart without backtracking across them. Every
# quantifier is possessive: a token ends only at a separator and a vertex
# line cannot be read as a class line, so giving a character or a line back
# never leads to a match, and the pattern matches exactly the texts its
# greedy form does while keeping no backtracking state.
_CANONICAL = re.compile(r"((?:vertex [^\s#]++\n)*+)((?:[^\s#]++ [^\s#]++ [1-9][0-9]*+\n)*+)").fullmatch


def _parse_canonical(text: str) -> Optional[Multigraph]:
    """The graph of canonical text; None if the text is not canonical.

    Beyond the grammar, canonical text declares distinct, unreserved labels
    and every endpoint, with u before v in declaration order and the
    classes in strictly ascending pair order, which are exactly the
    classes the constructor's checks accept in pair order.
    """
    match = _CANONICAL(text)
    if match is None:
        return None
    labels = match[1].split()[1::2]
    n = len(labels)
    index = dict(zip(labels, range(n)))
    if len(index) != n or _RESERVED in index:
        return None
    tokens = match[2].split()
    mults = tokens[2::3]
    try:
        iu = list(map(index.__getitem__, tokens[0::3]))
        iv = list(map(index.__getitem__, tokens[1::3]))
        as_int = {m: int(m) for m in set(mults)}
    except (KeyError, ValueError):  # an undeclared endpoint, or too many digits for int
        return None
    pairs = list(zip(iu, iv))
    if not (all(map(lt, iu, iv)) and all(map(lt, pairs, pairs[1:]))):
        return None
    return Multigraph._derived(labels, zip(iu, iv, map(as_int.__getitem__, mults)))


def _parse_lines(text: str) -> Multigraph:
    """Read any graph text line by line.

    Only the grammar is checked here. Each vertex declaration and class goes
    through the constructor's checks in line order, and a failed check is
    reported at its line.
    """
    b = _Builder()
    vertex, add_class = b.vertex, b.add_class
    for lineno, raw in enumerate(_split_lines(text), 1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        if tokens[0] == _RESERVED:
            if len(tokens) != 2:
                raise ParseError(lineno, "vertex declaration needs exactly one label")
        elif len(tokens) != 3:
            raise ParseError(lineno, f"malformed line: {raw.strip()!r}")
        elif not _is_int(tokens[2]):
            raise ParseError(lineno, f"multiplicity {tokens[2]!r} is not an integer")
        try:
            if len(tokens) == 2:
                vertex(tokens[1])
            else:
                add_class(tokens[0], tokens[1], int(tokens[2]))
        except GraphError as exc:
            raise ParseError(lineno, str(exc)) from exc
        except ValueError:  # int refuses more digits than sys.get_int_max_str_digits()
            raise ParseError(lineno, f"multiplicity of {len(tokens[2].removeprefix('-'))} digits is too long") from None
    return b.seal(Multigraph.__new__(Multigraph))


def serialize(g: Multigraph) -> str:
    """Canonical text form: every vertex declared in order, then classes.

    serialize(parse(serialize(g))) == serialize(g) for every graph.
    """
    lab = g.labels
    lines = [f"vertex {label}\n" for label in lab]
    lines += [f"{lab[i]} {lab[j]} {m}\n" for i, j, m in g.index_classes]
    return "".join(lines)


def load(path) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, in place: the package's one file writer.

    The file is opened without O_TRUNC (created with mode 0o666 less the
    umask) and, when fstat says it is a regular file, truncated at the end
    of what was written, also after a failed write. So a rewrite leaves the
    same bytes, inode and mode as open(path, "w") does, without first
    truncating to zero, which ext4 (auto_da_alloc) answers by flushing the
    file on close. The gain is only on rewriting an existing, non-empty
    file; a new path costs the same either way. A non-regular target
    (/dev/null, a FIFO) is written and left untruncated, as truncating it
    fails. An OSError propagates.

    The trade-off: no crash consistency for a rewritten file. After a power
    loss it may hold old bytes, new bytes or a mix, cut to either length;
    a process killed between the last write and the truncate leaves the new
    bytes followed by the old file's tail.
    """
    data = memoryview(text.encode("utf-8"))
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        try:
            while data:  # a raw write may be short
                data = data[fh.write(data):]
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def dump(g: Multigraph, path) -> None:
    """Write serialize(g) to path in place, through write_text.

    The file is opened without truncation and, when it is a regular file,
    truncated at the end of the new text; a non-regular target such as
    /dev/null or a FIFO is written and left untruncated. A rewrite is not
    crash-consistent (see write_text).
    """
    write_text(path, serialize(g))
