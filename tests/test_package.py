"""Package-wide rules that no single module's tests can see."""

import ast
import sys
import types
from pathlib import Path

import fancore

SRC = Path(__file__).resolve().parent.parent / "src" / "fancore"


def test_imports_are_relative_or_standard_library():
    """fancore has no runtime dependency beyond the standard library."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_public_names_resolve():
    """fancore.__all__ and the public names fancore binds are the same set, and each resolves."""
    exported = fancore.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(fancore, name)]
    assert not missing
    # submodules are bound as attributes by being imported; they are not exports
    bound = {
        name for name, value in vars(fancore).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(exported)
