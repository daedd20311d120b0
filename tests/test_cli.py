"""CLI behaviour: payload shape, re-verifiable blocks, exit codes, determinism."""

import hashlib
import io
import subprocess
import sys
import time

import pytest

from fancore import (
    BQueue,
    EdgeColouring,
    Multigraph,
    SubgraphSelection,
    cfan_degree,
    fan_degree,
    parse,
    plan_from_text,
    t_core,
    validate_bqueue,
    verify_colouring,
    verify_witness,
)
from fancore.cli import run
from helpers import FIXTURES, fixture


def cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run([str(a) for a in argv], out=out)
    return code, out.getvalue()


def fx(name: str) -> str:
    return str(FIXTURES / name)


def block(text: str, name: str) -> str:
    lines = text.splitlines()
    start = lines.index(f"begin {name}") + 1
    end = lines.index(f"end {name}")
    return "\n".join(lines[start:end]) + "\n"


def keyvals(text: str) -> dict:
    result = {}
    for line in text.splitlines():
        if line.startswith(("begin ", "end ")):
            break
        key, _, value = line.partition(" ")
        result[key] = value
    return result


class TestTCore:
    def test_fat_triangle(self):
        code, out = cli("tcore", fx("fat-triangle-t0.graph"), "--t", 0)
        assert code == 0
        assert parse(out) == Multigraph(edges=[("b", "c", 2)])

    def test_matches_library(self):
        for t in (0, 1, 2):
            code, out = cli("tcore", fx("fig2-h4.graph"), "--t", t)
            assert code == 0
            assert parse(out) == t_core(fixture("fig2-h4.graph"), t)


class TestHypothesis:
    def test_fat_triangle_fails_forest(self):
        code, out = cli("hypothesis", fx("fat-triangle-t0.graph"), "--t", 0)
        assert code == 0
        kv = keyvals(out)
        assert kv["holds"] == "false" and kv["core_mult"] == "2"
        assert parse(block(out, "core")) == Multigraph(edges=[("b", "c", 2)])

    def test_bqueue_check_on_forest_core(self):
        code, out = cli("hypothesis", fx("forest-path4.graph"), "--t", 0, "--check", "bqueue")
        assert code == 0
        assert keyvals(out)["holds"] == "true"


class TestBQueue:
    def test_cycle_none(self):
        code, out = cli("bqueue", fx("c5.graph"))
        assert code == 0
        assert out.splitlines()[0] == "bqueue none"

    def test_order_revalidates(self):
        for flag in ([], ["--exhaustive"]):
            code, out = cli("bqueue", fx("cycle-pendant.graph"), *flag)
            assert code == 0
            assert keyvals(out)["bqueue"] == "full"
            order = block(out, "order").split()
            g = fixture("cycle-pendant.graph")
            sets = [frozenset()]
            for u in order:
                sets.append(sets[-1] | {u} | set(g.neighbours(u)))
            q = BQueue(graph=g, order=tuple(order), sets=tuple(sets))
            assert validate_bqueue(q) and q.is_full()

    # --exhaustive and --max-vertices are accepted and select nothing: the
    # greedy search is complete, so there is no second search to choose
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.graph")))
    def test_exhaustive_flag_prints_the_same_bytes(self, name):
        plain = cli("bqueue", fx(name))
        assert cli("bqueue", fx(name), "--exhaustive") == plain
        assert cli("bqueue", fx(name), "--exhaustive", "--max-vertices", 0) == plain
        assert plain[0] == (0 if fixture(name).is_simple() else 1)

    def test_exhaustive_flag_has_no_vertex_cap(self, tmp_path):
        path = tmp_path / "path12.graph"
        path.write_text("".join(f"p{i} p{i + 1} 1\n" for i in range(11)))
        code, out = cli("bqueue", path, "--exhaustive")
        assert code == 0
        assert keyvals(out)["bqueue"] == "full"
        assert out == cli("bqueue", path)[1]


class TestCorefan:
    def test_h4_zero(self):
        code, out = cli("corefan", fx("fig2-h4.graph"))
        assert code == 0
        assert keyvals(out)["corefan"] == "0"

    def test_witness_recomputes(self):
        code, out = cli("corefan", fx("fig1-h.graph"))
        assert code == 0
        kv = keyvals(out)
        value = int(kv["corefan"])
        h = fixture("fig1-h.graph")
        witness = parse(block(out, "witness"))
        sel = SubgraphSelection(h, witness.classes(), vertices=witness.labels)
        degrees = [
            cfan_degree(h, sel, x, y)[0]
            for u, v, _ in sel.classes()
            for x, y in ((u, v), (v, u))
        ]
        assert min(degrees) == value == 1

    def test_brute_agrees(self):
        code, out = cli("corefan", fx("fig1-h1.graph"), "--brute")
        assert code == 0
        assert keyvals(out)["corefan"] == "1"


class TestFan:
    def test_fat_triangle(self):
        code, out = cli("fan", fx("fat-triangle-t0.graph"))
        assert code == 0
        kv = keyvals(out)
        assert kv["fan"] == "4" and kv["Fan"] == "4"
        g = fixture("fat-triangle-t0.graph")
        witness = parse(block(out, "witness"))
        sel = SubgraphSelection(g, witness.classes(), vertices=witness.labels)
        x, y = kv["pair"].split()
        assert fan_degree(sel, x, y)[0] == 4


class TestChi:
    def test_fat_triangle(self):
        code, out = cli("chi", fx("fat-triangle-t0.graph"))
        assert code == 0
        assert keyvals(out)["chi"] == "4"
        g = fixture("fat-triangle-t0.graph")
        assignment = {}
        for line in block(out, "colouring").splitlines():
            u, v, copy, colour = line.split()
            assignment[(u, v, int(copy))] = int(colour)
        assert verify_colouring(EdgeColouring(g, 4, assignment))

    def test_cap_exit_code(self):
        code, _ = cli("chi", fx("fat-triangle-t0.graph"), "--max-instances", 2)
        assert code == 3


class TestColour:
    def test_below_chi_none(self):
        code, out = cli("colour", fx("c5.graph"), "-k", 2)
        assert code == 0
        assert out.splitlines()[0] == "colouring none"

    def test_at_chi_verifies(self):
        code, out = cli("colour", fx("c5.graph"), "-k", 3)
        assert code == 0
        g = fixture("c5.graph")
        assignment = {}
        for line in block(out, "colouring").splitlines():
            u, v, copy, colour = line.split()
            assignment[(u, v, int(copy))] = int(colour)
        assert verify_colouring(EdgeColouring(g, 3, assignment))


# sha256 of `fancore colour` stdout on constructed witnesses at both bounds,
# and of `fancore chi` stdout on every fixture, all with exit code 0. The
# engine-level pins in test_colouring.py see the colouring text only through
# as_text(); these pin the bytes the command prints, headers and block
# markers included.
COLOUR_STDOUT_DIGESTS = [
    ("double-edge", 0, "ore_bound", "966d7663b7802f304ce81dbe984f2ac64462bb16e4a1b6b230b57cb9475f33c7"),
    ("double-edge", 0, "max_degree", "fe38ad09f1aa381be160c5bcc218001f64291491f24d0300f5cdc526191ca569"),
    ("fig1-h", 0, "ore_bound", "464248382c0529c828dfd3780fd97371d74184600269fcecf7b286615742c733"),
    ("fig1-h", 0, "max_degree", "0eeddec7dd65d3e1b27771394f99b72e6f08597176b20e22523991ccbc70384d"),
]
CHI_STDOUT_DIGESTS = {
    "c3.graph": "70d00c65588e09c6a2bda115d6e03ca2a385fb00d528c09648217870d1fce8fa",
    "c5.graph": "c34685c367b772e707cc96f7d130ae01b94eb9775e7e185357fe07f61cccfb27",
    "cycle-pendant.graph": "237418806f7bd74de5e58f4118ba64a7158c0ce995d3ed21ba69699c7acd3643",
    "double-edge.graph": "2490e6141515899c0046d70c7315afeed549e80a41791941faa92c8be0fb5348",
    "fat-triangle-t0.graph": "3bb882973e267af963153944a520f5fc4f72fcdd543debc25b6bee1e2957dc46",
    "fat-triangle-t1.graph": "8b3c8d57e7acafaa7a33cf12b9963be65e6e1b613b5e991c0ff86611e11eaf41",
    "fat-triangle-t2.graph": "632b49fa6f01deb3fa2ac69ad5fb331cd0129f1cbf13801416875bd3aece9ca3",
    "fig1-h.graph": "75e927028d9b3cbb24387b30f769f39621ad42a6bf2bd6a4a5a06e2803050ac8",
    "fig1-h1.graph": "1a1b793e5ff8e5f1ccd69db69fc299a93a4295ae14ba78721fa49cf4f0b60452",
    "fig2-h4.graph": "0cdc1a99b8dedbe3afa1317c0d4e2d7f826f1725e01febe623df31b68ce8a860",
    "forest-path4.graph": "30570ca8b201184228c91fdab8238744c5987581570aaabbd85bc3d7aed0a2a3",
    "forest-spider.graph": "2cb9518031e9f80c17fc89b184bc6b223d0ce1a24ab92d7983826af1be0df50e",
    "h5.graph": "5482ce541d69ad3c47df9c6445849810eaeab160bcb8f79a5767641f601a5a6c",
    "multiforest-path.graph": "9ae9e6549cc5faaaec358362aa8c7e777577960a8821c2310b5eae980d4e78ef",
}


class TestStdoutBytes:
    @pytest.mark.parametrize("host,t,bound,digest", COLOUR_STDOUT_DIGESTS)
    def test_colour_stdout_is_pinned(self, tmp_path, host, t, bound, digest):
        witness = tmp_path / "witness.graph"
        assert cli("construct", fx(host + ".graph"), "--t", t, "-o", witness)[0] == 0
        k = getattr(parse(witness.read_text()), bound)()
        code, out = cli("colour", witness, "-k", k)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_chi_stdout_is_pinned(self):
        assert sorted(CHI_STDOUT_DIGESTS) == sorted(p.name for p in FIXTURES.glob("*.graph"))
        for name, digest in CHI_STDOUT_DIGESTS.items():
            code, out = cli("chi", fx(name))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name


class TestConstruct:
    def test_end_to_end(self, tmp_path):
        out_path = tmp_path / "witness.graph"
        code, out = cli("construct", fx("double-edge.graph"), "--t", 0, "-o", out_path)
        assert code == 0
        kv = keyvals(out)
        assert kv["verified"] == "true" and kv["D"] == "140" and kv["r"] == "8"
        g = parse(out_path.read_text())
        plan = plan_from_text((tmp_path / "witness.graph.plan").read_text())
        ok, diags = verify_witness(fixture("double-edge.graph"), 0, g, plan)
        assert ok, diags

        code2, out2 = cli(
            "verify-witness", fx("double-edge.graph"), out_path,
            tmp_path / "witness.graph.plan", "--t", 0,
        )
        assert code2 == 0
        assert keyvals(out2)["verified"] == "true"

    def test_rejected_host(self, tmp_path):
        code, _ = cli("construct", fx("fig2-h4.graph"), "--t", 0, "-o", tmp_path / "x.graph")
        assert code == 1

    def test_oversized_witness_is_refused_before_it_is_built(self, tmp_path, capsys):
        # corefan of 'x y 2000' is 1999, so t = 1000 is accepted, and the
        # plan is a 6,014-regular circulant on 12,030 S vertices
        host = tmp_path / "host.graph"
        host.write_text("x y 2000\n")
        start = time.perf_counter()
        code, out = cli("construct", host, "--t", 1000, "-o", tmp_path / "w.graph")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == (
            "resource error: construct_witness capped at 1048576 classes, "
            "the plan for t=1000 makes 36186241\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["host.graph"]

    def test_failed_verification_reports_diagnostics(self, tmp_path):
        out_path = tmp_path / "w.graph"
        assert cli("construct", fx("double-edge.graph"), "--t", 0, "-o", out_path)[0] == 0
        code, out = cli(
            "verify-witness", fx("double-edge.graph"), out_path,
            tmp_path / "w.graph.plan", "--t", 3,
        )
        assert code == 1
        assert keyvals(out)["verified"] == "false"
        assert any(line.startswith("diagnostic ") for line in out.splitlines())

    def test_missing_plan_is_domain_error(self, tmp_path, capsys):
        host = fx("double-edge.graph")
        code, out = cli("verify-witness", host, host, tmp_path / "missing.plan", "--t", 0)
        assert code == 1 and out == ""
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,message", [
        ("D=1\n", "duplicate key 'D'"),
        ("depth=1\n", "unknown key 'depth'"),
        ("", "a_r has 3 entries for 2 k_vertices"),
    ], ids=["duplicate-key", "unknown-key", "split-length"])
    def test_bad_plan_is_domain_error(self, extra, message, tmp_path, capsys):
        out_path = tmp_path / "w.graph"
        plan_path = tmp_path / "w.graph.plan"
        assert cli("construct", fx("double-edge.graph"), "--t", 0, "-o", out_path)[0] == 0
        text = plan_path.read_text() + extra
        if not extra:
            text = "\n".join("a_r=5 5 5" if ln.startswith("a_r=") else ln for ln in text.splitlines())
        plan_path.write_text(text)
        code, out = cli("verify-witness", fx("double-edge.graph"), out_path, plan_path, "--t", 0)
        assert code == 1 and out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing-directory", "directory", "plan-directory"])
    def test_unwritable_output_is_domain_error(self, target, tmp_path, capsys):
        out_path = tmp_path / "missing" / "w.graph" if target == "missing-directory" else tmp_path / "w.graph"
        bad = out_path
        if target == "directory":
            out_path.mkdir()
        elif target == "plan-directory":
            bad = tmp_path / "w.graph.plan"
            bad.mkdir()
        code, out = cli("construct", fx("double-edge.graph"), "--t", 0, "-o", out_path)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")

    @pytest.mark.parametrize("role", ["graph", "plan"])
    def test_non_utf8_file_is_domain_error(self, role, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b 1\n\xff\n")
        host = fx("double-edge.graph")
        if role == "graph":
            argv = ("tcore", bad, "--t", 0)
        else:
            argv = ("verify-witness", host, host, bad, "--t", 0)
        code, out = cli(*argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: not UTF-8 text")


class TestProcessLevel:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "fancore.cli", "corefan", fx("fig2-h4.graph")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "corefan 0"

    def test_usage_error_is_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "fancore.cli", "tcore", fx("c3.graph")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2

    def test_domain_error_is_exit_1(self, tmp_path):
        bad = tmp_path / "loop.graph"
        bad.write_text("a a 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "fancore.cli", "chi", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "loop" in result.stderr

    @staticmethod
    def long_path(tmp_path):
        """A path of 1,500 edges, deeper than the interpreter's default recursion limit of 1,000 frames."""
        path = tmp_path / "path.graph"
        path.write_text("".join(f"p{i} p{i + 1} 1\n" for i in range(1500)))
        return path

    def test_chi_on_a_long_path_needs_no_deep_recursion(self, tmp_path):
        path = self.long_path(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "fancore.cli", "chi", str(path), "--max-instances", "2000"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr[-300:]
        assert keyvals(result.stdout)["chi"] == "2"
        assignment = {}
        for line in block(result.stdout, "colouring").splitlines():
            u, v, copy, colour = line.split()
            assignment[(u, v, int(copy))] = int(colour)
        assert verify_colouring(EdgeColouring(parse(path.read_text()), 2, assignment))

    def test_exhaustive_bqueue_on_a_long_path_needs_no_deep_recursion(self, tmp_path):
        path = self.long_path(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "fancore.cli", "bqueue", str(path), "--exhaustive"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr[-300:]
        assert keyvals(result.stdout)["bqueue"] == "full"
        assert result.stdout == cli("bqueue", path)[1]

    def test_in_process_runs_match_separate_processes(self):
        # one process builds the argument parser once and reuses it, so no
        # run may leave anything behind for the next
        argvs = [
            ["tcore", fx("c3.graph")],
            ["corefan", fx("fig1-h.graph")],
            ["colour", fx("c5.graph"), "-k", "3"],
        ]
        separate = []
        for argv in argvs:
            result = subprocess.run([sys.executable, "-m", "fancore.cli", *argv], capture_output=True)
            separate.append((result.returncode, result.stdout))
        in_process = []
        for argv in argvs:
            out = io.StringIO()
            try:
                code = run(argv, out=out)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, out.getvalue().encode()))
        assert in_process == separate
        assert [code for code, _ in separate] == [2, 0, 0]


CAP_ARGUMENTS = [
    ("corefan", "--max-classes"),
    ("corefan", "--brute", "--max-subgraphs"),
    ("fan", "--max-subgraphs"),
    ("chi", "--max-instances"),
    ("bqueue", "--exhaustive", "--max-vertices"),
]


class TestCapArguments:
    @pytest.mark.parametrize("argv", CAP_ARGUMENTS)
    def test_negative_cap_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(argv[0], fx("c3.graph"), *argv[1:], -1)
        assert exc.value.code == 2
        assert "nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", CAP_ARGUMENTS)
    def test_cap_beyond_the_int_digit_limit_is_usage_error(self, argv, capsys):
        # more digits than int converts: the message is -k's and --t's, and
        # names no function of the module
        with pytest.raises(SystemExit) as exc:
            cli(argv[0], fx("c3.graph"), *argv[1:], "1" * 4400)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-1]}: invalid int value: '1111" in err
        assert "_nonnegative_int" not in err


class TestIntegerArguments:
    # -k and --t take integers as graph text writes them: ASCII digits with
    # an optional leading '-'; any other spelling int() reads is a usage error
    @pytest.mark.parametrize("value", ["\u0665", "1_0", "+5", " 5", "5.0"])
    @pytest.mark.parametrize("command", ["colour", "tcore", "hypothesis", "construct", "verify-witness"])
    def test_other_spellings_are_usage_errors(self, command, value, tmp_path, capsys):
        host = fx("fat-triangle-t1.graph")
        argv = {
            "colour": ("colour", host, "-k", value),
            "tcore": ("tcore", host, "--t", value),
            "hypothesis": ("hypothesis", host, "--t", value),
            "construct": ("construct", host, "-o", tmp_path / "w.graph", "--t", value),
            "verify-witness": ("verify-witness", host, host, host, "--t", value),
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli(*argv)
        assert exc.value.code == 2
        assert f"invalid int value: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "w.graph").exists()

    def test_ascii_digits_and_a_minus_sign_are_read(self, capsys):
        assert cli("colour", fx("fat-triangle-t1.graph"), "-k", "05") == cli("colour", fx("fat-triangle-t1.graph"), "-k", 5)
        assert cli("tcore", fx("c3.graph"), "--t", "-1")[0] == 1
        assert "nonnegative" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tcore", "fat-triangle-t1.graph", "--t", "1"),
            ("hypothesis", "fig2-h4.graph", "--t", "0"),
            ("bqueue", "cycle-pendant.graph"),
            ("corefan", "fig1-h.graph"),
            ("fan", "fat-triangle-t0.graph"),
            ("chi", "fat-triangle-t1.graph"),
            ("colour", "c5.graph"),
        ],
    )
    def test_byte_identical_reruns(self, argv):
        argv = list(argv)
        argv[1] = fx(argv[1])
        if argv[0] == "colour":
            argv += ["-k", "3"]
        first = cli(*argv)
        second = cli(*argv)
        assert first == second
