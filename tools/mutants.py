"""Run a seeded sample of one-token mutants of a package through its tests.

A site is one token of a package module that has a one-token mutant:

    <  <=  >  >=  ==  !=    each comparison to its neighbour or negation
    +  -   &  |   and  or   each operator to its pair
    +=  -=  &=  |=          each augmented assignment to its pair
    0 .. 9                  a one-digit integer literal n to n + 1

Tokens inside annotations are not sites: with postponed evaluation they
never run. KNOWN_EQUIVALENT lists mutants that no test can kill, keyed by
module name, the stripped source line, the token's occurrence among like
tokens on that line (0 for the first) and the token change, each with its
reason; they are left out before the sample is drawn. A site prints its
occurrence in brackets after the token where it is not the first.

The project, the current directory, is copied once to a temporary
directory: the files git lists (tracked, and untracked ones it does not
ignore), or, outside a git checkout, the whole tree less caches. The test
command first runs unmutated there and must pass; its time sets the
per-mutant timeout, TIMEOUT_FACTOR times it and at least MIN_TIMEOUT_S.
Then each mutant, one at a time, is written into the copy and the command
runs in a child process of its own session with PYTHONDONTWRITEBYTECODE
set, the copy's package parent first on PYTHONPATH, a 3 GiB address-space
limit and that timeout, after which its whole process group is killed. A
mutant is killed when the command fails, timed out when it runs past the
timeout, and survived when it passes. The counts are printed, then each
survivor and each timed-out mutant with its line; progress goes to stderr.

With --diff REV only the sites of one change are kept: those on lines
that 'git diff -U0 REV' reports as added or changed in the package's
modules, the working tree's uncommitted edits included, and those on
every line of a function that holds such a line or a deletion, from the
function's ast span, since a line moved verbatim inside a rewritten
function is not reported as added. Every one of them runs unless
--sample is given: the mutants of one change, in one command.

A run with no site to try prints its zero counts without running the
command at all.

Standard library only. Usage, from the repository root:

    python tools/mutants.py [--seed N] [--sample K] [--diff REV] [PACKAGE_DIR [-- COMMAND ...]]

PACKAGE_DIR is relative to the current directory and defaults to
src/fancore. COMMAND runs with the copy as its working directory and
defaults to 'python -m pytest -x -q -p no:cacheprovider tests'. The exit
status is 0 after a full run and 2 when the unmutated command fails.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ADDRESS_SPACE = 3 * 2**30  # bytes, per run
TIMEOUT_FACTOR = 3  # a mutant's timeout, in unmutated run times
MIN_TIMEOUT_S = 1.0

SWAP = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "&": "|", "|": "&", "and": "or", "or": "and",
    "+=": "-=", "-=": "+=", "&=": "|=", "|=": "&=",
}

# (module, stripped source line, occurrence of the token on it, token, mutant): reason
KNOWN_EQUIVALENT = {
    ("multigraph.py", "key = (iu, iv) if iu < iv else (iv, iu)", 0, "<", "<="):
        "iu == iv is refused as a loop on the line above",
    ("fanmetrics.py", "rest = total - (ty if ty > 0 else 0)  # all positive contributions but y's", 0, ">", ">="):
        "at ty == 0 both sides subtract 0",
    ("fanmetrics.py", "return ty + second - k if second else 0", 0, "0", "1"):
        "the sum is read only as > 1 or <= 1, and 0 and 1 fall on the same side",
    ("fanmetrics.py", "if b < least:", 0, "<", "<="):
        "a tie keeps the same least term",
    ("fanmetrics.py", "if d - m < slack:", 0, "<", "<="):
        "a tie keeps the same least slack",
    ("fanmetrics.py", "if b > k:", 0, ">", ">="):
        "at b == k the contribution added is 0",
    ("fanmetrics.py", "if b > second:", 0, ">", ">="):
        "a tie keeps the same two largest terms",
    ("fanmetrics.py", "if b > first:", 0, ">", ">="):
        "a tie keeps the same two largest terms",
    ("fanmetrics.py", "return total + (t if t < 0 else 0) > 1", 0, "<", "<="):
        "at t == 0 both branches add 0",
    ("fanmetrics.py", "return total + (t if t < 0 else 0) > 1", 0, "0", "1"):
        "t < 1 and t < 0 differ only at t == 0, where both branches add 0",
    ("fanmetrics.py", "return sorted(bad, key=lambda p: (min(p), max(p), p[0] > p[1]))", 0, ">", ">="):
        "a pair's two ends differ, so p[0] == p[1] never occurs",
    ("fanmetrics.py", "high = max((m + max(top[i], top[j]) for i, j, m in classes), default=-1) + 1", 0, "1", "2"):
        "with no class, a bound of 0 or -1 leaves nothing to bisect either way",
    ("colouring.py", "for k in range(g.max_degree(), total + 1):", 0, "1", "2"):
        "k = total always admits a colouring, so the loop returns before its end",
    ("core.py", "return g._induced([v for v, d in enumerate(g.deg) if 2 * d > threshold and "
                "d + max(adj[v].values()) > threshold])", 0, "2", "3"):
        "a prefilter only: d + (largest multiplicity at v) <= 2d, so the exact test decides either way, "
        "and 3d > threshold >= 0 still skips every vertex of degree 0",
    ("witness.py", "m = -(-(delta + 2 * r * r + t) // (r - 1))  # ceil division", 1, "+", "-"):
        "t < cfan <= Delta on a valid witness and r - 1 >= Delta + 5 + t, so Delta + 2 - t and Delta + 2 + t "
        "both lie in (0, r - 1] and both ceilings are 2r + 3",
    ("witness.py", "classes.append((n + i, n + j, r - 3 if i % 2 == 0 and j == i + 1 < s_r else r - 1))", 0, "<", "<="):
        "s_r = sum(a_r) is even, so j = i + 1 = s_r only at an odd i, which i % 2 == 0 refuses",
}


class Site(NamedTuple):
    module: str
    line: int
    col: int
    old: str
    new: str
    source: str
    nth: int  # occurrence among the like tokens on the line

    def __str__(self) -> str:
        nth = f"[{self.nth}]" if self.nth else ""
        return f"{self.module}:{self.line} {self.old!r}{nth} -> {self.new!r}: {self.source}"


def _annotations(tree: ast.AST, lines: list[str]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every annotation, as (line, character column)."""

    def char(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))

    spans = []
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.expr):
                spans.append(((note.lineno, char(note.lineno, note.col_offset)),
                              (note.end_lineno, char(note.end_lineno, note.end_col_offset))))
    return spans


def sites(module: str, source: str) -> list[Site]:
    """Every mutable token of one module, in source order."""
    lines = source.splitlines()
    notes = _annotations(ast.parse(source), lines)
    found, seen = [], Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER and len(tok.string) == 1:
            new = str(int(tok.string) + 1)
        elif tok.type in (tokenize.OP, tokenize.NAME) and tok.string in SWAP:
            new = SWAP[tok.string]
        else:
            continue
        if any(start <= tok.start < end for start, end in notes):
            continue
        line = tok.start[0]
        found.append(Site(module, line, tok.start[1], tok.string, new, lines[line - 1].strip(), seen[line, tok.string]))
        seen[line, tok.string] += 1
    return found


def mutate(source: str, site: Site) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    assert text[site.col:site.col + len(site.old)] == site.old
    lines[site.line - 1] = text[:site.col] + site.new + text[site.col + len(site.old):]
    return "".join(lines)


def changed_lines(rev: str, package: Path) -> set[tuple[str, int]]:
    """(module, line) of the lines of package's modules that git diff -U0 rev touches.

    Those are the lines it lists as added, and every line of a function,
    decorators included, that holds an added line or a deletion: a hunk
    that adds nothing after line s deleted lines between s and s + 1.
    """
    diff = subprocess.run(["git", "diff", "-U0", "--no-color", rev, "--", str(package)],
                          capture_output=True, text=True, check=True).stdout
    added, cuts, module = set(), set(), None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            module = Path(line[4:]).name if line[4:] != "/dev/null" else None
        elif line.startswith("@@ ") and module:
            start, _, count = line.split()[2][1:].partition(",")
            added.update((module, n) for n in range(int(start), int(start) + int(count or 1)))
            if count == "0":
                cuts.add((module, int(start)))
    changed = set(added)
    for module in {module for module, _ in added | cuts if (package / module).is_file()}:
        for node in ast.walk(ast.parse((package / module).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                span = range(first, node.end_lineno + 1)
                if any((module, n) in added or (module, n) in cuts and n < node.end_lineno for n in span):
                    changed.update((module, n) for n in span)
    return changed


def copy_project(root: Path, dest: Path) -> None:
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "-co", "--exclude-standard"],
                            capture_output=True, check=False)
    if listed.returncode:
        caches = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        shutil.copytree(root, dest, ignore=caches, dirs_exist_ok=True)
        return
    for name in filter(None, listed.stdout.decode().split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_once(command: list[str], cwd: Path, env: dict, timeout: float | None) -> str:
    """'passed', 'failed' or 'timed out': one run of command in its own session under the limits."""
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            preexec_fn=_limit_address_space, start_new_session=True)
    try:
        status = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        status = None
    try:  # the command's own children too
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return "timed out" if status is None else "failed" if status else "passed"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--sample", type=int, help="mutants to run (default 60, or every site with --diff)")
    parser.add_argument("--diff", metavar="REV", help="only the sites on lines changed since REV")
    parser.add_argument("package", nargs="?", type=Path, default=Path("src") / "fancore")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[1:split])
    command = argv[split + 1:] or [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    if args.package.is_absolute() or ".." in args.package.parts:
        parser.error("PACKAGE_DIR must lie inside the current directory, which is the project copied")

    try:
        changed = changed_lines(args.diff, args.package) if args.diff else None
    except subprocess.CalledProcessError as err:
        parser.error(f"git diff {args.diff} failed: {err.stderr.strip()}")
    every, equivalent = [], 0
    for path in sorted(args.package.glob("*.py")):
        for site in sites(path.name, path.read_text(encoding="utf-8")):
            if changed is not None and (site.module, site.line) not in changed:
                continue
            if (site.module, site.source, site.nth, site.old, site.new) in KNOWN_EQUIVALENT:
                equivalent += 1
            else:
                every.append(site)
    modules = len({site.module for site in every})
    sample = args.sample if args.sample is not None else len(every) if args.diff else 60
    drawn = sorted(random.Random(args.seed).sample(every, min(sample, len(every))))
    scope = f" on lines changed since {args.diff}" if args.diff else ""
    print(f"sites {len(every)} in {modules} modules{scope} ({equivalent} known equivalent left out); "
          f"sampled {len(drawn)} with seed {args.seed}")
    if not drawn:  # nothing to try: the baseline would only cost a whole run
        print("killed 0, timed out 0, survived 0")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        copy_project(Path.cwd(), copy)
        package = copy / args.package
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        baseline = run_once(command, copy, env, None)
        if baseline != "passed":
            print(f"baseline {baseline}: the unmutated command must pass")
            return 2
        took = time.perf_counter() - start
        timeout = max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * took)
        print(f"baseline passed in {took:.1f} s; timeout {timeout:.1f} s per mutant")
        outcome = {"killed": [], "timed out": [], "survived": []}
        for n, site in enumerate(drawn, 1):
            path = package / site.module
            original = path.read_text(encoding="utf-8")
            path.write_text(mutate(original, site), encoding="utf-8")
            try:
                result = run_once(command, copy, env, timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            kind = {"failed": "killed", "passed": "survived"}.get(result, result)
            outcome[kind].append(site)
            print(f"[{n}/{len(drawn)}] {kind}: {site}", file=sys.stderr, flush=True)

    print(", ".join(f"{kind} {len(found)}" for kind, found in outcome.items()))
    for kind in ("survived", "timed out"):
        for site in outcome[kind]:
            print(f"{kind} {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
