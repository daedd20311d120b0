"""The repository's own tools, run as a user runs them."""

import subprocess
import sys
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
