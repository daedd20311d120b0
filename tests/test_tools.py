"""The repository's own tools, run as a user runs them."""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_lists_every_module_and_sums_them():
    package = ROOT / "src" / "fancore"
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(package)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = dict(line.split() for line in out.splitlines())
    counts = {name: int(value.replace(",", "")) for name, value in rows.items()}
    total = counts.pop("total")
    assert sorted(counts) == sorted(p.name for p in package.glob("*.py"))
    assert all(n > 0 for n in counts.values())
    assert total == sum(counts.values())


def test_unexecuted_lists_only_the_body_of_the_uncalled_function(tmp_path):
    package = tmp_path / "demo"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(
        '"""Two functions."""\n'
        "\n"
        "import math\n"
        "\n"
        "\n"
        "def area(r):\n"
        '    """Disc area."""\n'
        "    return math.pi * r * r\n"
        "\n"
        "\n"
        "def side(a):\n"
        "    if a < 0:\n"
        "        raise ValueError(a)\n"
        "    return math.sqrt(a)\n"
    )
    (tmp_path / "test_demo.py").write_text(
        "from demo.shapes import area\n\n\ndef test_area():\n    assert area(1) > 3\n"
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unexecuted.py"), str(package),
         "-q", "-p", "no:cacheprovider", str(tmp_path / "test_demo.py")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    listing = result.stdout[result.stdout.index("__init__.py:"):]
    assert listing == (
        "__init__.py: 0 statements never executed\n"
        "shapes.py: 3 statements never executed\n"
        "  12: if a < 0:\n"
        "  13: raise ValueError(a)\n"
        "  14: return math.sqrt(a)\n"
    )


def test_mutants_counts_killed_timed_out_and_survived_on_a_toy_package(tmp_path):
    # four sites, as the '|' of an annotation is none: the known-equivalent
    # '<' of multigraph.py is left out; the loop's '>' -> '>=' fails the
    # check, its '-=' -> '+=' never ends, and clamp's '>' -> '>=' is
    # equivalent, so it survives; the check runs in well under a second, so
    # the timeout is the 1-s floor
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "multigraph.py").write_text(
        "def order(iu: int | bool, iv: int) -> tuple[int, int]:\n"
        "    key = (iu, iv) if iu < iv else (iv, iu)\n"
        "    return key\n"
        "\n"
        "\n"
        "def clamp(x, hi):\n"
        "    return hi if x > hi else x\n"
        "\n"
        "\n"
        "def down(n, step):\n"
        "    while n > step:\n"
        "        n -= step\n"
        "    return n\n"
    )
    (tmp_path / "check.py").write_text(
        "from toy.multigraph import clamp, down, order\n"
        "assert order(2, 1) == (1, 2) and clamp(5, 3) == 3 and clamp(2, 3) == 2\n"
        "assert down(6, 3) == 3\n"
    )
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "--seed", "1", "--sample", "10", "toy",
         "--", sys.executable, "check.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert time.perf_counter() - start < 3
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[0] == "sites 3 in 1 modules (1 known equivalent left out); sampled 3 with seed 1"
    assert result.stdout.splitlines()[2:] == [
        "killed 1, timed out 1, survived 1",
        "survived multigraph.py:7 '>' -> '>=': return hi if x > hi else x",
        "timed out multigraph.py:12 '-=' -> '+=': n -= step",
    ]


def test_mutants_diff_keeps_only_the_sites_on_changed_lines(tmp_path):
    # the toy module is committed, then one line is rewritten and a function
    # added in the working tree: only the three sites on those lines run, all
    # of them without a --sample, and the unchanged '<' line's site is left
    # out; drop's '-' -> '+' still passes the check, so it survives
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    module = package / "shapes.py"
    module.write_text(
        "def below(x, hi):\n"
        "    return x < hi\n"
        "\n"
        "\n"
        "def twice(x):\n"
        "    return x + x\n"
    )
    (tmp_path / "check.py").write_text(
        "from toy import shapes\n"
        "assert shapes.below(1, 2) and not shapes.below(2, 2) and shapes.twice(3) == 6\n"
        "assert not hasattr(shapes, 'drop') or shapes.drop(3) > 1\n"
    )
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["add", "-A"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "toy"], cwd=tmp_path, check=True)
    module.write_text(module.read_text().replace("return x + x", "return 2 * x") + "\n\ndef drop(x):\n    return x - 1\n")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "--diff", "HEAD", "toy",
         "--", sys.executable, "check.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "sites 3 in 1 modules on lines changed since HEAD (0 known equivalent left out); sampled 3 with seed 2026"
    assert lines[2] == "killed 2, timed out 0, survived 1"
    assert lines[3:] == ["survived shapes.py:10 '-' -> '+': return x - 1"]


def test_mutants_diff_refuses_a_revision_git_does_not_know(tmp_path):
    (tmp_path / "toy").mkdir()
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "--diff", "no-such-rev", "toy"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "git diff no-such-rev failed" in result.stderr
