import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pyproject's `pythonpath = ["src"]` reaches only this process; tests that
    # start `python -m insets` in a child process need the checkout there too.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, inherited]))
