"""Command-line front end.

Graphs travel in the line-oriented text format of fancore.multigraph.
Payloads are plain '<key> <value...>' lines; multi-line structures (graphs,
colourings, B-queue orders) sit between 'begin <name>' and 'end <name>'
markers so harnesses can cut them out and re-verify them with the library.
Output is deterministic byte for byte for identical inputs.

Exit codes: 0 ok, 1 domain error, 2 usage error, 3 a size cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from . import bqueue as bq
from . import colouring as col
from . import core
from . import fanmetrics as fm
from . import multigraph as mg
from . import witness as wit
from .errors import GraphError, ResourceLimitError


def _read(path: str) -> str:
    """The text of a graph or plan file; an unreadable file is a domain error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _write(path: str, text: str) -> None:
    """Write an output file; an unwritable path is a domain error, like an unreadable one."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc.strerror}") from None


def _load(path: str) -> mg.Multigraph:
    return mg.parse(_read(path))


def _verdict(out, ok: bool, diags: list[str]) -> int:
    out.write(f"verified {'true' if ok else 'false'}\n")
    for diag in diags:
        out.write(f"diagnostic {diag}\n")
    return 0 if ok else 1


def _integer(text: str) -> int:
    """argparse type of -k and --t: an integer as graph text writes one, ASCII digits with an optional '-'."""
    if mg._is_int(text):
        with contextlib.suppress(ValueError):  # more digits than int converts
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _nonnegative_int(text: str) -> int:
    """argparse type of the --max-* caps: an _integer, and a negative cap is a usage error."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _block(out, name: str, body: str) -> None:
    out.write(f"begin {name}\n")
    if body:
        out.write(body if body.endswith("\n") else body + "\n")
    out.write(f"end {name}\n")


def _emit_report(out, report: fm.FanReport) -> None:
    if report.pair is not None:
        out.write(f"pair {report.pair[0]} {report.pair[1]}\n")
        out.write(f"zset {' '.join(sorted(report.zset))}\n")
    _block(out, "witness", mg.serialize(report.witness.materialize()))


def _cmd_tcore(args, out) -> int:
    g = _load(args.file)
    out.write(mg.serialize(core.t_core(g, args.t)))
    return 0


def _cmd_hypothesis(args, out) -> int:
    g = _load(args.file)
    checker = core.forest_core_condition if args.check == "forest" else core.bqueue_core_condition
    ok, report = checker(g, args.t)
    out.write(f"holds {'true' if ok else 'false'}\n")
    out.write(f"t {report.t}\n")
    out.write(f"core_mult {report.core_mult}\n")
    _block(out, "core", mg.serialize(report.core))
    if report.max_mult_simple is not None:
        _block(out, "max_mult_simple", mg.serialize(report.max_mult_simple))
    return 0


def _cmd_bqueue(args, out) -> int:
    queue = bq.greedy_full_bqueue(_load(args.file))
    if queue is None:
        out.write("bqueue none\n")
    else:
        out.write("bqueue full\n")
        _block(out, "order", " ".join(queue.order))
    return 0


def _cmd_corefan(args, out) -> int:
    g = _load(args.file)
    if args.brute:
        value = fm.corefan_bruteforce(g, max_product=args.max_subgraphs)
        out.write(f"corefan {value}\n")
    else:
        report = fm.corefan(g, max_classes=args.max_classes)
        out.write(f"corefan {report.value}\n")
        _emit_report(out, report)
    return 0


def _cmd_fan(args, out) -> int:
    g = _load(args.file)
    report = fm.fan_number(g, max_product=args.max_subgraphs)
    out.write(f"fan {report.value}\n")
    out.write(f"Fan {max(g.max_degree(), report.value)}\n")
    _emit_report(out, report)
    return 0


def _cmd_chi(args, out) -> int:
    g = _load(args.file)
    chi, colouring = col.chromatic_index_exact(g, max_instances=args.max_instances)
    out.write(f"chi {chi}\n")
    _block(out, "colouring", colouring.as_text())
    return 0


def _cmd_colour(args, out) -> int:
    g = _load(args.file)
    result = col.fan_colouring(g, args.k)
    if result is None:
        out.write("colouring none\n")
    else:
        out.write(f"colouring k {args.k}\n")
        _block(out, "colouring", result.as_text())
    return 0


def _cmd_construct(args, out) -> int:
    h = _load(args.file)
    g, plan = wit.construct_witness(h, args.t)
    plan_path = args.output + ".plan"
    _write(args.output, mg.serialize(g))
    _write(plan_path, wit.plan_to_text(plan))
    ok, diags = wit.verify_witness(h, args.t, g, plan)
    out.write(f"written {args.output}\n")
    out.write(f"plan {plan_path}\n")
    out.write(f"vertices {g.vertex_count}\n")
    out.write(f"D {plan.D}\n")
    out.write(f"r {plan.r}\n")
    out.write(f"reg_k {plan.reg_k}\n")
    return _verdict(out, ok, diags)


def _cmd_verify_witness(args, out) -> int:
    h = _load(args.host)
    g = _load(args.graph)
    plan = wit.plan_from_text(_read(args.plan))
    return _verdict(out, *wit.verify_witness(h, args.t, g, plan))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building it costs dozens of parses, and parse_args keeps no state
    between calls: each returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="fancore",
        description="Multigraph edge-colouring analysis on text-format graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tcore", help="emit the t-core of a graph")
    p.add_argument("file")
    p.add_argument("--t", type=_integer, required=True)
    p.set_defaults(func=_cmd_tcore)

    p = sub.add_parser("hypothesis", help="check a sufficient colourability condition on the t-core")
    p.add_argument("file")
    p.add_argument("--t", type=_integer, required=True)
    p.add_argument("--check", choices=("forest", "bqueue"), default="forest")
    p.set_defaults(func=_cmd_hypothesis)

    p = sub.add_parser("bqueue", help="search for a full B-queue of a simple graph")
    p.add_argument("file")
    # accepted for old scripts and ignored: the greedy search is complete (see fancore.bqueue)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-vertices", type=_nonnegative_int)
    p.set_defaults(func=_cmd_bqueue)

    p = sub.add_parser("corefan", help="corefan value with witness subgraph")
    p.add_argument("file")
    p.add_argument("--brute", action="store_true")
    p.add_argument("--max-classes", type=_nonnegative_int, default=fm.COREFAN_CLASS_CAP)
    p.add_argument("--max-subgraphs", type=_nonnegative_int, default=fm.BRUTEFORCE_PRODUCT_CAP)
    p.set_defaults(func=_cmd_corefan)

    p = sub.add_parser("fan", help="fan and Fan values with witness subgraph")
    p.add_argument("file")
    p.add_argument("--max-subgraphs", type=_nonnegative_int, default=fm.FAN_PRODUCT_CAP)
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("chi", help="exact chromatic index with an optimal colouring")
    p.add_argument("file")
    p.add_argument("--max-instances", type=_nonnegative_int, default=col.INSTANCE_CAP)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("colour", help="k-edge-colouring via the fan engine")
    p.add_argument("file")
    p.add_argument("-k", type=_integer, required=True)
    p.set_defaults(func=_cmd_colour)

    p = sub.add_parser("construct", help="build and verify a witness graph around a host t-core")
    p.add_argument("file")
    p.add_argument("--t", type=_integer, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify-witness", help="re-verify a constructed witness graph")
    p.add_argument("host")
    p.add_argument("graph")
    p.add_argument("plan")
    p.add_argument("--t", type=_integer, required=True)
    p.set_defaults(func=_cmd_verify_witness)

    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
