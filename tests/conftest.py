"""Suite set-up: fancore is imported from this checkout's src, by every process.

pyproject's pytest pythonpath puts src on this process's sys.path. The
suite's subprocesses (python -m fancore.cli, tools/*.py) get it first on
PYTHONPATH, so a bare 'python -m pytest' needs no install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
