"""CLI behaviour: payload shape, re-verifiable blocks, exit codes, determinism."""

import io
import subprocess
import sys

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


class TestCapArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ("corefan", "--max-classes"),
            ("corefan", "--brute", "--max-subgraphs"),
            ("fan", "--max-subgraphs"),
            ("chi", "--max-instances"),
            ("bqueue", "--exhaustive", "--max-vertices"),
        ],
    )
    def test_negative_cap_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(argv[0], fx("c3.graph"), *argv[1:], -1)
        assert exc.value.code == 2
        assert "nonnegative integer" in capsys.readouterr().err


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
