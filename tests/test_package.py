"""Package-wide rules that no single module's tests can see."""

import ast
import re
import sys
import types
from pathlib import Path

import pytest

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


# each library call that takes a resource cap, and the cap's name
CAPPED = [
    (fancore.corefan, "max_classes"),
    (fancore.full_multiplicity_criterion, "max_classes"),
    (fancore.fan_number, "max_product"),
    (fancore.fan_bound, "max_product"),
    (fancore.corefan_bruteforce, "max_product"),
    (fancore.chromatic_index_exact, "max_instances"),
]


@pytest.mark.parametrize("cap", [True, False, "3", 3.0, None])
@pytest.mark.parametrize("call,name", CAPPED, ids=[f"{call.__name__}" for call, _ in CAPPED])
def test_caps_take_only_ints(call, name, cap):
    """A cap that is not an int, or is a bool, is a GraphError; a negative int still fails the cap."""
    g = fancore.Multigraph(edges=[("a", "b", 1)])
    with pytest.raises(fancore.GraphError, match=re.escape(f"{name} must be an integer, got {cap!r}")):
        call(g, **{name: cap})
    with pytest.raises(fancore.ResourceLimitError):
        call(g, **{name: -1})
    call(g, **{name: 2})
