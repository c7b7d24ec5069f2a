"""The CLI tests start ``python -m diocurve.cli`` in child processes; give
them the package from ./src, as ``pythonpath`` in pyproject.toml gives it to
the test process, so the suite needs no PYTHONPATH set."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
