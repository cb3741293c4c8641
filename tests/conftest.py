"""Run the suite against the checkout's src/, child processes included.

pyproject.toml's ``pythonpath = ["src"]`` puts src/ on this process's
sys.path; the tests that start ``python -m rootneg.cli`` need it on the
children's PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
