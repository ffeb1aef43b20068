"""Run the suite from a plain checkout: import qotlab from ./src, here and
in the `python -m qotlab.cli` subprocesses the CLI tests start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, _paths)])
