"""Suite set-up: fancore is imported from this checkout's src, by every process.

pyproject's pytest pythonpath puts src on this process's sys.path. The
suite's subprocesses (python -m fancore.cli, tools/*.py) get it first on
PYTHONPATH, so a bare 'python -m pytest' needs no install.

Every test runs under a hang guard: one that runs past HANG_LIMIT_S ends
the whole run with every thread's stack on stderr, instead of leaving the
run to hang with no output. The limit is about ten times the slowest test.
A run under a trace function is not guarded.
"""

import faulthandler
import os
import sys
from pathlib import Path

import pytest

HANG_LIMIT_S = 60
STDERR = pytest.StashKey[int]()

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def pytest_configure(config):
    # pytest captures fd 2 while a test runs and would drop the dump when
    # the guard ends the process, so the guard writes to a copy of it taken
    # here, where capture is suspended
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def hang_guard(request):
    # a trace function (tools/unexecuted.py, coverage, a debugger) slows a
    # test by more than the limit allows for, so a traced run goes unguarded
    if sys.gettrace() is None:
        faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
