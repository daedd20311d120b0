"""The three benchmark workloads: seeded inputs, timed ops and their checks.

A workload is built once per set-up from the imported fancore modules, a
seed and a work directory. It writes its input files there and then hands
out rounds of ops. The runner times only ``run``; ``prepare`` and ``check``
run outside the timed region with tracing off.

Seeded inputs come from fixed pools, so that every input a seed can produce
has a golden output digest in ``golden.json``: the pool is generated from
fixed per-input seeds, and the run seed only chooses which pool members a
round uses and in which order.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Any, Optional


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Op:
    """One timed operation. ``key`` identifies its input for the goldens."""

    kind: str
    name: str
    key: str


@dataclass
class Checked:
    """What the untimed check learned about one op's result.

    ``colourable`` is True when a colouring with the op's k is known to
    exist from a source other than this run (Ore bound, exact chromatic
    index, or the golden record); ``found`` says whether the op found one.
    Both stay None for ops that do not colour.
    """

    problems: list
    digest: str
    found: Optional[bool] = None
    colourable: Optional[bool] = None


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _round_rng(seed: int, name: str, r: int) -> random.Random:
    return _rng(name, "seed", seed, "round", r)


def _read_fixture(root: str, name: str) -> str:
    with open(os.path.join(root, "fixtures", name + ".graph"), encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _blocks(out: str) -> tuple[dict, dict]:
    """Split CLI stdout into '<key> <value>' lines and begin/end blocks."""
    fields: dict[str, str] = {}
    blocks: dict[str, str] = {}
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        key, _, value = lines[i].partition(" ")
        if key == "begin":
            end = lines.index(f"end {value}", i + 1)
            blocks[value] = "".join(line + "\n" for line in lines[i + 1:end])
            i = end + 1
            continue
        fields.setdefault(key, value)
        i += 1
    return fields, blocks


def _colouring_from_text(fc, g, k: int, body: str):
    assignment = {}
    for line in body.splitlines():
        u, v, copy, colour = line.split()
        assignment[(u, v, int(copy))] = int(colour)
    return fc.col.EdgeColouring(graph=g, k=k, assignment=assignment)


# -- host generators for corefan-enum -------------------------------------


def _labels(n: int, prefix: str = "v") -> list:
    return [f"{prefix}{i}" for i in range(n)]


def _complete(rng, n, max_mult):
    labels = _labels(n)
    return labels, [(labels[i], labels[j], rng.randint(1, max_mult))
                    for i, j in itertools.combinations(range(n), 2)]


def _dense(rng, classes, max_mult):
    n = rng.choice((7, 8))
    labels = _labels(n)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    return labels, [(labels[i], labels[j], rng.randint(1, max_mult)) for i, j in sorted(pairs[:classes])]


def _path(rng, classes, max_mult):
    labels = _labels(classes + 1, "p")
    return labels, [(labels[i], labels[i + 1], rng.randint(1, max_mult)) for i in range(classes)]


def _cycle(rng, classes, max_mult):
    labels = _labels(classes, "c")
    return labels, [(labels[i], labels[(i + 1) % classes], rng.randint(1, max_mult)) for i in range(classes)]


def _tree(rng, classes, max_mult):
    labels = _labels(classes + 1, "t")
    return labels, [(labels[rng.randrange(i)], labels[i], rng.randint(1, max_mult)) for i in range(1, classes + 1)]


def _fan_host(rng, bits, max_mult):
    """5-6 vertices whose sub-multiplicity space prod(m+1) lies in (2^(bits-1), 2^bits]."""
    while True:
        n = rng.choice((5, 6))
        labels = _labels(n)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        edges, product = [], 1
        for i, j in pairs:
            m = rng.randint(1, max_mult)
            if product * (m + 1) <= 1 << bits:
                product *= m + 1
                edges.append((labels[i], labels[j], m))
        if product > 1 << (bits - 1):
            return labels, sorted(edges)


class CorefanEnum:
    """CLI ``corefan`` and ``fan`` on dense and sparse hosts.

    A slot names a host family and how many of its hosts a round runs.
    Slots with as many variants as ops per round use fixed hosts; the others
    draw from a pool of 16 seeded variants, and a run walks a seed-chosen
    permutation of the pool, so consecutive rounds use different hosts.
    A round's 22 ops fall into three cost bands at the reference commit:
    nine costly fixed ops (0.5-1.8 s), seven mid-cost fixed hosts
    (0.15-0.35 s) and six cheap ones (about 0.1 s), four of them seeded.
    The counts put as many ops below the four mid-cost hosts of 0.31-0.33 s
    (13-class path, tree and cycle, a fan space of 2^12) as above them, so
    the median falls in the middle of that tight group, and they put the
    p75 tail between K6 and the 14-class cycle (0.66-0.68 s), for any
    number of rounds from two to four. The seeded hosts carry little of the
    throughput, so a run's figures barely depend on which variants the seed
    picks. Hosts stop at 16 classes: one 18-class corefan takes 5-8 s at
    the reference commit, half a round.
    """

    name = "corefan-enum"
    memory_bound = ()
    op_limit_s = 30.0
    as_limit_mb = 1024
    # (command, slot, generator or fixture name, size, max multiplicity, variants, per round)
    SLOTS = (
        ("corefan", "k6", _complete, 6, 1, 1, 2),
        ("corefan", "k6-mult", _complete, 6, 3, 2, 2),
        ("corefan", "dense-e14", _dense, 14, 3, 1, 1),
        ("corefan", "dense-e16", _dense, 16, 3, 1, 1),
        ("corefan", "cycle-e14", _cycle, 14, 3, 1, 1),
        ("corefan", "tree-e15", _tree, 15, 3, 1, 1),
        ("fan", "fan-p13", _fan_host, 13, 3, 1, 1),
        ("corefan", "h5", "h5", 0, 0, 1, 1),
        ("corefan", "dense-e13", _dense, 13, 3, 1, 1),
        ("corefan", "path-e13", _path, 13, 3, 1, 1),
        ("corefan", "tree-e13", _tree, 13, 3, 1, 1),
        ("corefan", "cycle-e13", _cycle, 13, 3, 1, 1),
        ("fan", "fan-p11", _fan_host, 11, 3, 1, 1),
        ("fan", "fan-p12", _fan_host, 12, 3, 1, 1),
        ("corefan", "path-e12", _path, 12, 1, 1, 1),
        ("corefan", "cycle-e12", _cycle, 12, 1, 1, 1),
        ("corefan", "dense-e12", _dense, 12, 3, 16, 2),
        ("corefan", "tree-e12", _tree, 12, 1, 16, 1),
        ("fan", "fan-p10", _fan_host, 10, 3, 16, 1),
    )
    QUICK_SLOTS = ("h5", "dense-e12", "path-e12", "fan-p10")

    def __init__(self, fc, seed: int, workdir: str, root: str, quick: bool = False):
        self.fc = fc
        self.seed = seed
        self.slots = [s for s in self.SLOTS if not quick or s[1] in self.QUICK_SLOTS]
        self.texts: dict[str, str] = {}  # file name -> host text
        for command, slot, gen, size, max_mult, variants, _ in self.slots:
            for variant in range(variants):
                if isinstance(gen, str):
                    text = _read_fixture(root, gen)
                else:
                    labels, edges = gen(_rng(self.name, slot, variant), size, max_mult)
                    text = fc.mg.serialize(fc.mg.Multigraph(labels, edges))
                path = f"{slot}-v{variant}.graph"
                self.texts[path] = text
                _write(os.path.join(workdir, path), text)
        rng = _rng(self.name, "seed", seed)
        self.perm = {s[1]: rng.sample(range(s[5]), s[5]) for s in self.slots}
        self._checked: dict = {}

    def _op(self, command: str, path: str) -> Op:
        return Op(command, path, digest(f"{command}\n{self.texts[path]}"))

    def ops(self, r: int) -> list:
        ops = [self._op(command, f"{slot}-v{self.perm[slot][(r * count + i) % variants]}.graph")
               for command, slot, _, _, _, variants, count in self.slots for i in range(count)]
        _round_rng(self.seed, self.name, r).shuffle(ops)
        return ops

    def all_ops(self) -> list:
        return [self._op(command, f"{slot}-v{v}.graph")
                for command, slot, _, _, _, variants, _ in self.slots for v in range(variants)]

    def prepare(self, op: Op):
        return [op.kind, op.name]

    def run(self, op: Op, argv):
        out = io.StringIO()
        rc = self.fc.cli.run(argv, out)
        return rc, out.getvalue()

    def check(self, op: Op, result, golden) -> Checked:
        rc, out = result
        d = digest(f"{rc}\n{out}")
        if (op.key, d) not in self._checked:
            self._checked[(op.key, d)] = [f"exit code {rc}"] if rc else self._check_report(op, out)
        return Checked(self._checked[(op.key, d)], d)

    def _check_report(self, op: Op, out: str) -> list:
        """Re-evaluate the reported pair on the reported witness subgraph;
        compare corefan with the brute-force oracle where it is enumerable."""
        fc = self.fc
        host = fc.mg.parse(self.texts[op.name])
        fields, blocks = _blocks(out)
        value = int(fields[op.kind])
        x, y = fields["pair"].split()
        witness = fc.mg.parse(blocks["witness"])
        sel = fc.mg.SubgraphSelection(host, witness.classes(), witness.labels)
        if op.kind == "corefan":
            again, zset = fc.fm.cfan_degree(host, sel, x, y)
        else:
            again, zset = fc.fm.fan_degree(sel, x, y)
        problems = []
        if again != value or sorted(zset) != fields["zset"].split():
            problems.append(f"witness pair re-evaluates to {again}, reported {value}")
        if op.kind == "fan" and int(fields["Fan"]) != max(host.max_degree(), value):
            problems.append("Fan is not max(max_degree, fan)")
        product = 1
        for _, _, m in host.classes():
            product *= m + 1
        if op.kind == "corefan" and product <= fc.fm.BRUTEFORCE_PRODUCT_CAP:
            brute = fc.fm.corefan_bruteforce(host)
            if brute != value:
                problems.append(f"corefan {value} but brute force gives {brute}")
        return problems


class WitnessColour:
    """CLI construct, verify-witness and colour on constructed witnesses.

    The inputs are the three fixture hosts. A round runs, for each host,
    ``construct`` and ``verify-witness`` several times over, and ``colour``
    at the Ore bound and at the maximum degree several times on the
    double-edge/t0 witness and once on the fig1-h/t0 witness. Each host's
    first op in a round is ``construct``, which writes the witness and plan
    files the others read; the seed orders those first constructs and
    shuffles all other ops of the round.

    The repeat counts fix a round's latency profile at the reference commit
    (180 ops, about 27 s): from fastest to slowest, 50 double-edge, 80
    fig1-h and 16 multiforest-path construct/verify ops (0.01-0.07 s), 32
    double-edge colour ops (about 0.35 s, 0.1 GB each) and 2 fig1-h colour
    ops (5-6 s, 1.6 GB each). So the median falls in the middle of the
    fig1-h construct/verify group and the p90 tail in the middle of the
    double-edge colour group, each a group of many samples of one input: a
    run's latency figures do not hinge on a few samples of the noisy 1.6-GB
    calls, which still take 40% of the round's time.

    ``colour`` on the multiforest-path/t4 witness (27,536 edge instances) is
    left out: the fan engine the golden outputs were recorded with
    materialises 2N retry orders of N instances up front and is OOM-killed
    there. It joins the workload as a benchmark change of its own once the
    engine's schedule is bounded.
    """

    name = "witness-colour"
    memory_bound = ("colour-ore", "colour-max")
    op_limit_s = 60.0
    as_limit_mb = 3072
    # (host, t, construct/verify pairs per round, colour pairs per round)
    HOSTS = (("double-edge", 0, 25, 16), ("fig1-h", 0, 40, 1), ("multiforest-path", 4, 8, 0))
    QUICK_HOSTS = (("double-edge", 0, 1, 1),)

    def __init__(self, fc, seed: int, workdir: str, root: str, quick: bool = False):
        self.fc = fc
        self.seed = seed
        self.hosts = self.QUICK_HOSTS if quick else self.HOSTS
        self.texts = {}
        for host, *_ in self.hosts:
            self.texts[host] = _read_fixture(root, host)
            _write(os.path.join(workdir, host + ".graph"), self.texts[host])
        self._k: dict = {}
        self._checked: dict = {}

    def _op(self, kind: str, host: str) -> Op:
        return Op(kind, host, digest(f"{kind} {host} t{self._t(host)}\n{self.texts[host]}"))

    def ops(self, r: int) -> list:
        rng = _round_rng(self.seed, self.name, r)
        first = [self._op("construct", host) for host, *_ in self.hosts]
        rest = [self._op(kind, host) for host, _, pairs, colours in self.hosts
                for kind in ["verify-witness"] + ["construct", "verify-witness"] * (pairs - 1)
                + ["colour-ore", "colour-max"] * colours]
        rng.shuffle(first)
        rng.shuffle(rest)
        return first + rest

    def all_ops(self) -> list:
        return [self._op(kind, host) for host, _, _, colours in self.hosts
                for kind in ["construct", "verify-witness"] + ["colour-ore", "colour-max"] * bool(colours)]

    def _t(self, host: str) -> int:
        return next(t for h, t, *_ in self.hosts if h == host)

    def _witness(self, host: str) -> str:
        return f"{host}.t{self._t(host)}.graph"

    def _bounds(self, host: str):
        """(ore_bound, max_degree) of the constructed witness, cached per run."""
        if host not in self._k:
            g = self.fc.mg.load(self._witness(host))
            self._k[host] = (g, g.ore_bound(), g.max_degree())
        return self._k[host]

    def prepare(self, op: Op):
        t, w = str(self._t(op.name)), self._witness(op.name)
        if op.kind == "construct":
            return ["construct", op.name + ".graph", "--t", t, "-o", w]
        if op.kind == "verify-witness":
            return ["verify-witness", op.name + ".graph", w, w + ".plan", "--t", t]
        _, ore, delta = self._bounds(op.name)
        return ["colour", w, "-k", str(ore if op.kind == "colour-ore" else delta)]

    def run(self, op: Op, argv):
        out = io.StringIO()
        rc = self.fc.cli.run(argv, out)
        return rc, out.getvalue()

    def check(self, op: Op, result, golden) -> Checked:
        rc, out = result
        d = digest(f"{rc}\n{out}")
        if (op.key, d) not in self._checked:
            self._checked[(op.key, d)] = [f"exit code {rc}"] if rc else self._check_output(op, out)
        problems, found = self._checked[(op.key, d)], None
        colourable = None
        if op.kind.startswith("colour"):
            found = out.startswith("colouring k ")
            seed_found = golden is not None and golden[1]
            colourable = op.kind == "colour-ore" or bool(seed_found)
        return Checked(problems, d, found, colourable)

    def _check_output(self, op: Op, out: str) -> list:
        fc = self.fc
        fields, blocks = _blocks(out)
        if op.kind in ("construct", "verify-witness"):
            if fields.get("verified") != "true":
                return ["witness not verified"]
            if op.kind == "verify-witness":
                return []
            # a second, library-level verification of the written files
            w = self._witness(op.name)
            with open(w + ".plan", encoding="utf-8") as fh:
                plan = fc.wit.plan_from_text(fh.read())
            self._k.pop(op.name, None)
            ok, diags = fc.wit.verify_witness(fc.mg.parse(self.texts[op.name]), self._t(op.name),
                                              fc.mg.load(w), plan)
            return [] if ok else [f"library verify_witness failed: {diags[:2]}"]
        if "colouring" not in blocks:
            return []
        g, _, _ = self._bounds(op.name)
        c = _colouring_from_text(fc, g, int(fields["colouring"].split()[1]), blocks["colouring"])
        return [] if fc.col.verify_colouring(c) else ["colouring block is not a proper colouring"]


def _forest_zero_core(n: int, edges) -> bool:
    """The 0-core has multiplicity <= 1 and no cycle (computed independently)."""
    deg, top = [0] * n, [0] * n
    for i, j, m in edges:
        deg[i] += m
        deg[j] += m
        top[i] = max(top[i], m)
        top[j] = max(top[j], m)
    limit = max(deg)
    core = {v for v in range(n) if deg[v] + top[v] > limit}
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, m in edges:
        if i in core and j in core:
            if m > 1 or find(i) == find(j):
                return False
            parent[find(i)] = find(j)
    return True


class SmallBatch:
    """Each op runs one small graph through the whole library pipeline.

    A round is the exhaustive family (4 labelled vertices, at most 4
    classes, multiplicity at most 3: 1,908 graphs) plus SAMPLE graphs drawn
    by the seed from a pool of POOL 5-7-vertex graphs whose 0-core is a
    forest, in a seed-shuffled order.
    """

    name = "small-batch"
    memory_bound = ()
    op_limit_s = 5.0
    as_limit_mb = 1024
    POOL = 400
    SAMPLE = 100

    def __init__(self, fc, seed: int, workdir: str, root: str, quick: bool = False):
        self.fc = fc
        self.seed = seed
        Multigraph, serialize = fc.mg.Multigraph, fc.mg.serialize
        labels = _labels(4)
        pairs = list(itertools.combinations(range(4), 2))
        family = []
        for sizes in itertools.product(range(4), repeat=len(pairs)):
            if 0 < sum(1 for s in sizes if s) <= 4:
                edges = [(labels[i], labels[j], m) for (i, j), m in zip(pairs, sizes) if m]
                family.append(serialize(Multigraph(labels, edges)))
        pool = [serialize(Multigraph(*self._pool_graph(i))) for i in range(self.POOL)]
        if quick:
            family, pool = family[:40], pool[:10]
        self.family, self.pool = family, pool
        self.sample = min(self.SAMPLE, len(pool))
        self.perm = _rng(self.name, "seed", seed).sample(range(len(pool)), len(pool))
        _write(os.path.join(workdir, "small-batch.graphs"), "".join(
            f"# graph {i}\n{text}" for i, text in enumerate(family + pool)))
        self._checked: dict = {}

    def _pool_graph(self, i: int):
        rng = _rng(self.name, "pool", i)
        while True:
            n = rng.choice((5, 6, 7))
            p = rng.uniform(0.25, 0.5)
            edges = [(a, b, 2 if rng.random() < 0.25 else 1)
                     for a, b in itertools.combinations(range(n), 2) if rng.random() < p]
            if not 3 <= len(edges) <= 8 or sum(m for *_, m in edges) > 12:
                continue
            if _forest_zero_core(n, edges):
                labels = _labels(n)
                return labels, [(labels[a], labels[b], m) for a, b, m in edges]

    @staticmethod
    def _op(text: str) -> Op:
        return Op("pipeline", text, digest(f"pipeline\n{text}"))

    def ops(self, r: int) -> list:
        start = r * self.sample
        chosen = [self.pool[self.perm[(start + i) % len(self.pool)]] for i in range(self.sample)]
        ops = [self._op(text) for text in self.family + chosen]
        _round_rng(self.seed, self.name, r).shuffle(ops)
        return ops

    def all_ops(self) -> list:
        return [self._op(text) for text in self.family + self.pool]

    def prepare(self, op: Op):
        return op.name

    def run(self, op: Op, text: str):
        fc = self.fc
        g = fc.mg.parse(text)
        report = fc.core.core_report(g, 0)
        forest_ok, _ = fc.core.forest_core_condition(g, 0)
        bqueue_ok, _ = fc.core.bqueue_core_condition(g, 0)
        queue = fc.bq.greedy_full_bqueue(g.underlying_simple())
        cf = fc.fm.corefan(g)
        fan = fc.fm.fan_number(g)
        chi, optimal = fc.col.chromatic_index_exact(g)
        colouring = fc.col.fan_colouring(g, g.max_degree())
        proper = fc.col.verify_colouring(colouring) if colouring is not None else None
        return g, report, forest_ok, bqueue_ok, queue, cf, fan, chi, optimal, colouring, proper

    def check(self, op: Op, result: Any, golden) -> Checked:
        fc = self.fc
        g, report, forest_ok, bqueue_ok, queue, cf, fan, chi, optimal, colouring, proper = result
        ser = fc.mg.serialize
        text = "\n".join([
            f"core {ser(report.core)!r} {report.core_mult} "
            f"{ser(report.max_mult_simple) if report.max_mult_simple is not None else None!r}",
            f"conditions {forest_ok} {bqueue_ok}",
            f"bqueue {queue.order if queue is not None else None}",
            *(f"{r.kind} {r.value} {r.pair} {sorted(r.zset)} {r.witness.classes()}" for r in (cf, fan)),
            f"chi {chi} {optimal.as_text()!r}",
            f"colouring {colouring.as_text() if colouring is not None else None!r} {proper}",
        ])
        d = digest(text)
        delta = g.max_degree()
        if (op.key, d) not in self._checked:
            problems = []
            for r in (cf, fan):
                if r.re_evaluate() != r.value:
                    problems.append(f"{r.kind} witness re-evaluates to {r.re_evaluate()}, reported {r.value}")
            if optimal.k != chi or not fc.col.verify_colouring(optimal):
                problems.append("exact colouring is not a proper chi-colouring")
            if colouring is not None and proper is not True:
                problems.append("fan colouring is not proper")
            if max(delta, fan.value) < chi:
                problems.append(f"Fan bound {max(delta, fan.value)} is below chi {chi}")
            if (forest_ok or bqueue_ok) and chi != delta:
                problems.append(f"core condition holds but chi {chi} != max_degree {delta}")
            self._checked[(op.key, d)] = problems
        return Checked(self._checked[(op.key, d)], d, colouring is not None, chi <= delta)


WORKLOADS = {w.name: w for w in (CorefanEnum, WitnessColour, SmallBatch)}
