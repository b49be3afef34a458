import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pyproject's `pythonpath = ["src"]` reaches only this process; tests that
    # start `python -m insets` in a child process need the checkout there too.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, inherited]))


_LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    child = subprocess.Popen([sys.executable, *sys.argv[2:]], stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
print(status, usage.ru_maxrss)
"""


def _peak_rss(*args: str, stdout: object = os.devnull) -> tuple[int, int]:
    """Wait status and peak RSS (KiB) of ``python *args``, its stdout written
    to the file ``stdout``: ``peak_rss("-m", "insets", ...)`` or
    ``peak_rss("-c", code)``.

    The child is started from a fresh, small interpreter: Linux counts the
    peak RSS of the process that forks it into the child's own, so a child
    of the test process would report the test process's peak.
    """
    script = [sys.executable, "-c", _LAUNCHER, str(stdout), *args]
    result = subprocess.run(script, stdout=subprocess.PIPE, text=True, check=True)
    status, peak = map(int, result.stdout.split())
    return status, peak


@pytest.fixture
def peak_rss():
    return _peak_rss


def _run_insets(*args: str) -> subprocess.CompletedProcess:
    """``python -m insets *args`` in a child process, its exit status and its
    stdout and stderr bytes captured."""
    return subprocess.run([sys.executable, "-m", "insets", *args], capture_output=True)


@pytest.fixture
def run_insets():
    return _run_insets
