"""Child interpreters that tests start import the package from src/, as the
test process does through pyproject.toml's pytest `pythonpath`."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
