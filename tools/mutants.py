"""Run a seeded sample of one-token mutants of a package through its tests.

A site is one token of a package module that has a one-token mutant:

    <  <=  >  >=  ==  !=    each comparison to its neighbour or negation
    +  -   &  |   and  or   each operator to its pair
    +=  -=  &=  |=          each augmented assignment to its pair
    0 .. 9                  a one-digit integer literal n to n + 1

Tokens inside annotations are not sites: with postponed evaluation they
never run. KNOWN_EQUIVALENT lists mutants that no test can kill, keyed by
module name, the stripped source line and the token change, each with its
reason; they are left out before the sample is drawn.

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

With --diff REV only the sites on lines that 'git diff -U0 REV' reports
as added or changed in the package's modules are kept, the working tree's
uncommitted edits included, and every one of them runs unless --sample
is given: the mutants of one change, in one command.

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

# (module, stripped source line, token, mutant): reason
KNOWN_EQUIVALENT = {
    ("multigraph.py", "key = (iu, iv) if iu < iv else (iv, iu)", "<", "<="):
        "iu == iv is refused as a loop on the line above",
}


class Site(NamedTuple):
    module: str
    line: int
    col: int
    old: str
    new: str
    source: str

    def __str__(self) -> str:
        return f"{self.module}:{self.line} {self.old!r} -> {self.new!r}: {self.source}"


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
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER and len(tok.string) == 1:
            new = str(int(tok.string) + 1)
        elif tok.type in (tokenize.OP, tokenize.NAME) and tok.string in SWAP:
            new = SWAP[tok.string]
        else:
            continue
        if any(start <= tok.start < end for start, end in notes):
            continue
        found.append(Site(module, tok.start[0], tok.start[1], tok.string, new, lines[tok.start[0] - 1].strip()))
    return found


def mutate(source: str, site: Site) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    assert text[site.col:site.col + len(site.old)] == site.old
    lines[site.line - 1] = text[:site.col] + site.new + text[site.col + len(site.old):]
    return "".join(lines)


def changed_lines(rev: str, package: Path) -> set[tuple[str, int]]:
    """(module, line) of every line that git diff -U0 rev lists as added in package's modules."""
    diff = subprocess.run(["git", "diff", "-U0", "--no-color", rev, "--", str(package)],
                          capture_output=True, text=True, check=True).stdout
    changed, module = set(), None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            module = Path(line[4:]).name if line[4:] != "/dev/null" else None
        elif line.startswith("@@ ") and module:
            start, _, count = line.split()[2][1:].partition(",")
            changed.update((module, n) for n in range(int(start), int(start) + int(count or 1)))
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
            if (site.module, site.source, site.old, site.new) in KNOWN_EQUIVALENT:
                equivalent += 1
            else:
                every.append(site)
    modules = len({site.module for site in every})
    sample = args.sample if args.sample is not None else len(every) if args.diff else 60
    drawn = sorted(random.Random(args.seed).sample(every, min(sample, len(every))))
    scope = f" on lines changed since {args.diff}" if args.diff else ""
    print(f"sites {len(every)} in {modules} modules{scope} ({equivalent} known equivalent left out); "
          f"sampled {len(drawn)} with seed {args.seed}")

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
