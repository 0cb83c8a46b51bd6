"""Run the tests against the package in ``src/`` without installing it.

``src/`` goes on ``sys.path`` for the test process and on ``PYTHONPATH``
for the ``python -m convexreg`` subprocesses that the CLI tests start.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _inherited:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, *_inherited]))
