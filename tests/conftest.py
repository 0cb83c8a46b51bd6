"""Run the tests against the package in ``src/`` without installing it.

``src/`` goes on ``sys.path`` for the test process and on ``PYTHONPATH``
for the ``python -m convexreg`` subprocesses that the CLI tests start.
The ``pin_cores`` fixture sets the core count the midpoint check sees, and
so the number of chunk ranges it judges at the same time.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _inherited:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, *_inherited]))


@pytest.fixture()
def pin_cores(monkeypatch):
    """``pin_cores(n)`` makes the midpoint check see n usable cores for one test."""
    from convexreg import convexity

    def pin(count):
        monkeypatch.setattr(convexity, "_usable_cores", lambda: count)

    return pin
