"""List the statements of a package that a pytest run never executes.

The tests run in this process under sys.settrace, with line tracing turned
on only in frames whose code lives in the package directory, so the rest of
the run pays one cheap call per frame. Afterwards every module of the
package is parsed and each statement that never produced a line event is
printed, grouped by module, as '<line>: <source>'. Docstrings, imports,
'def' and 'class' lines, 'try' headers and global declarations are left
out: they run at import or hold no code of their own. A compound statement
(if, for, while, with) counts as executed when its header line does.

Only this process is traced, so code that the tests reach through a
subprocess (the CLI run with 'python -m', say) is listed as never executed.

Standard library plus pytest. Usage, from the repository root:

    python tools/unexecuted.py [PACKAGE_DIR [PYTEST_ARG ...]]

PACKAGE_DIR defaults to src/fancore; its parent goes first on sys.path and
on PYTHONPATH, so the package is imported from there, by the tests' own
subprocesses too. The pytest arguments default to the
tests directory. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SKIP = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Global, ast.Nonlocal)
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and node is getattr(parent, "body", [None])[0]
        and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    )


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines that count as executing it) for every listed statement."""
    tree = ast.parse(source)
    found = []
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            for node in block if isinstance(block, list) else ():  # a lambda's body is one expression
                if isinstance(node, _SKIP) or _is_docstring(node, parent):
                    continue
                last = node.body[0].lineno - 1 if isinstance(node, _COMPOUND) else node.end_lineno
                found.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(found)


def trace_run(package: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process; return its exit status and the lines executed per package file."""
    prefix = str(package.resolve()) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    # the tests' subprocesses import the same package, untraced
    home = str(package.resolve().parent)
    sys.path.insert(0, home)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def report(package: Path, executed: dict[str, set[int]]) -> str:
    out = []
    for path in sorted(package.resolve().glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = executed.get(str(path), set())
        missed = [first for first, span in statements(source) if seen.isdisjoint(span)]
        out.append(f"{path.name}: {len(missed)} statements never executed")
        out += [f"  {n}: {lines[n - 1].strip()}" for n in missed]
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "fancore"
    pytest_args = argv[2:] or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, executed = trace_run(package, pytest_args)
    sys.stdout.write(report(package, executed))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
