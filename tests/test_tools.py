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
