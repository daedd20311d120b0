"""A seeded fuzz of the CLI: every command, on small hostile inputs, keeps the exit-code contract.

cli.run returns 0, 1 or 3, or argparse exits 2; nothing else escapes, a
traceback least of all. Multiplicities are 1-3 or past 2^63: the small ones
keep every walk and colouring short, and a huge one must be refused by a cap
or answered without being enumerated. The run is derandomized and keeps no
example database, so a run of the same tests draws the same examples every
time, and it writes nothing into the checkout.
"""

import contextlib
import io
import os
import tempfile

import pytest

from fancore import GraphError, corefan, parse
from fancore.cli import run

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# hypothesis caches the constants it reads from local source under its home
# directory, .hypothesis/ in the working directory unless set elsewhere, and
# reads them as the suite is collected: the home is set here, on import, to a
# directory removed when the process ends
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

# writing up a failing example, hypothesis imports mypy_extensions, which
# warns on import; as an error, that warning would turn the failure into an
# INTERNALERROR that ends the run
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

HOSTILE = ["#", "vertex", "٣", "x#y", "é", "0"]
HUGE = st.integers(2**63, 2**70)
MULT = st.one_of(st.integers(1, 3), st.integers(1, 3), HUGE)
# integer flags: small, negative, or past 2^63 either way
INTEGER = st.one_of(st.integers(-2, 4), HUGE, st.integers(-(2**70), -(2**63)))
# --max-subgraphs past a huge class's multiplicity admits a walk of that
# many candidates, as the caller asks: fan and corefan --brute on
# 'a b 2^63', 'b c 1', 'a c 1' at 2^80 each ran past 10 s. Until the
# witness is found digit by digit, it is drawn small or negative only
SUBGRAPHS = st.one_of(st.integers(-2, 4), st.integers(-(2**70), -(2**63)))


@st.composite
def graph_texts(draw):
    """Up to 4 vertices and 5 classes; in one graph of four a label is hostile."""
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        labels[-1] = draw(st.sampled_from(HOSTILE))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=5, unique=True)) if pairs else []
    used = {x for pair in chosen for x in pair}
    lines = [f"vertex {v}\n" for v in labels if v not in used] + [f"{u} {v} {draw(MULT)}\n" for u, v in chosen]
    return labels, "".join(lines)


@st.composite
def plan_texts(draw, labels):
    """A plan sidecar of the right keys, its integers and labels drawn."""
    k = draw(st.lists(st.sampled_from(labels), max_size=2))
    ints = [str(draw(INTEGER)) for _ in range(2 * len(k))]
    s_r, s_rm1 = (draw(st.lists(st.sampled_from(["s0", "s1", "s2", *labels]), max_size=3)) for _ in "rq")
    fields = {
        "t": draw(INTEGER), "D": draw(INTEGER), "r": draw(INTEGER), "reg_k": draw(INTEGER),
        "k_vertices": " ".join(k), "a_r": " ".join(ints[: len(k)]), "a_rm1": " ".join(ints[len(k):]),
        "s_r": " ".join(s_r), "s_rm1": " ".join(s_rm1), "matching": " ".join(s_r[:2]),
    }
    return "".join(f"{key}={value}\n" for key, value in fields.items())


def optional(draw, flag, values=INTEGER):
    return [flag, draw(values)] if draw(st.booleans()) else []


def call(*argv) -> int:
    """cli.run's exit code, with usage errors (argparse's SystemExit(2)) as 2 and stderr kept quiet."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return run([str(a) for a in argv], out=io.StringIO())
        except SystemExit as exc:
            assert exc.code == 2
            return 2


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_every_command_keeps_the_exit_code_contract(data):
    draw = data.draw
    labels, text = draw(graph_texts())
    try:  # -k at the engine's bounds, and a t below corefan, which construct accepts
        g = parse(text)
        ks, ts = [g.max_degree(), g.max_degree() + 1, g.ore_bound()], [0, 1, max(corefan(g).value - 1, 0)]
    except GraphError:
        ks, ts = [0], [0]
    k = draw(st.one_of(st.sampled_from(ks), INTEGER))
    t = draw(st.one_of(st.sampled_from(ts), INTEGER))
    with tempfile.TemporaryDirectory() as tmp:
        host, out = os.path.join(tmp, "host.graph"), os.path.join(tmp, "w.graph")
        with open(host, "w", encoding="utf-8") as fh:
            fh.write(text)
        argvs = [
            ("tcore", host, "--t", t),
            ("hypothesis", host, "--t", t, "--check", draw(st.sampled_from(["forest", "bqueue"]))),
            ("bqueue", host, *draw(st.sampled_from([[], ["--exhaustive"]])), *optional(draw, "--max-vertices")),
            ("corefan", host, *draw(st.sampled_from([[], ["--brute"]])),
             *optional(draw, "--max-classes"), *optional(draw, "--max-subgraphs", SUBGRAPHS)),
            ("fan", host, *optional(draw, "--max-subgraphs", SUBGRAPHS)),
            ("chi", host, *optional(draw, "--max-instances")),
            ("colour", host, "-k", k),
            ("construct", host, "--t", t, "-o", out),
        ]
        codes = [call(*argv) for argv in argvs]
        if codes[-1] != 0:  # construct refused: verify a drawn plan against the host itself
            out = host
            with open(out + ".plan", "w", encoding="utf-8") as fh:
                fh.write(draw(plan_texts(labels)))
        argvs.append(("verify-witness", host, out, out + ".plan", "--t", t))
        codes.append(call(*argvs[-1]))
    assert set(codes) <= {0, 1, 2, 3}, list(zip(argvs, codes))
