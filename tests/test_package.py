"""Package-wide rules that no single module's tests can see."""

import ast
import functools
import inspect
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


# each library call that takes a resource cap, and the cap's name: a cap is a
# parameter only where a CLI flag sets it
CAPPED = [
    (fancore.corefan, "max_classes"),
    (fancore.fan_number, "max_product"),
    (fancore.corefan_bruteforce, "max_product"),
    (fancore.chromatic_index_exact, "max_instances"),
]


def test_only_the_calls_a_flag_caps_take_a_cap():
    """No other public call takes a max_* parameter; verify_witness's max_diagnostics sizes a report, not a walk."""
    taking = {
        (name, param)
        for name in fancore.__all__ if inspect.isfunction(getattr(fancore, name))
        for param in inspect.signature(getattr(fancore, name)).parameters
        if param.startswith("max_")
    }
    assert taking == {(call.__name__, name) for call, name in CAPPED} | {("verify_witness", "max_diagnostics")}


@pytest.mark.parametrize("cap", [True, False, "3", 3.0, None])
@pytest.mark.parametrize("call,name", CAPPED, ids=[f"{call.__name__}" for call, _ in CAPPED])
def test_caps_take_only_ints(call, name, cap):
    """A cap that is not an int, or is a bool, is a GraphError; a negative int still fails the cap.

    The edgeless graph fits a cap of 0, and still fails a negative one.
    """
    edge, edgeless = fancore.Multigraph(edges=[("a", "b", 1)]), fancore.Multigraph(["a"])
    for g in (edge, edgeless):
        with pytest.raises(fancore.GraphError, match=re.escape(f"{name} must be an integer, got {cap!r}")):
            call(g, **{name: cap})
        with pytest.raises(fancore.ResourceLimitError):
            call(g, **{name: -1})
    call(edge, **{name: 2})
    call(edgeless, **{name: 0})


def _integer_arguments():
    """Each integer argument of a public call, as a call of its value with every other argument valid."""
    h = fancore.parse("x y 2\n")
    g, plan = fancore.construct_witness(h, 0)
    k_sel = fancore.corefan(h).witness.strip_isolated()
    taking_t = [fancore.t_core, fancore.edges_above, fancore.core_report, fancore.forest_core_condition,
                fancore.bqueue_core_condition, fancore.construct_witness]
    calls = {f"{call.__name__}-t": functools.partial(call, h) for call in taking_t}
    calls |= {f"{call.__name__}-{name}": lambda n, call=call, name=name: call(h, **{name: n}) for call, name in CAPPED}
    return calls | {
        "choose_params-t": lambda t: fancore.choose_params(h, t, k_sel),
        "verify_witness-t": lambda t: fancore.verify_witness(h, t, g, plan),
        "verify_witness-max_diagnostics": lambda n: fancore.verify_witness(h, 0, g, plan, max_diagnostics=n),
        "fan_colouring-k": lambda k: fancore.fan_colouring(h, k),
        "fan_pair_exceeds-level": lambda k: fancore.fan_pair_exceeds(h, "x", "y", k),
        "constant_multiplicity_lift-m": lambda m: fancore.constant_multiplicity_lift(fancore.parse("x y 1\n"), m),
    }


INTEGER_ARGUMENTS = _integer_arguments()


@pytest.mark.parametrize("value", [True, 1.5, "1", None], ids=repr)
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_what_is_not_an_int(argument, value):
    """Every integer argument of the public calls is checked by one rule (fancore.errors): a bool is not an int."""
    with pytest.raises(fancore.GraphError, match=f" must be an? [a-z ]*integer, got {re.escape(repr(value))}$"):
        INTEGER_ARGUMENTS[argument](value)
