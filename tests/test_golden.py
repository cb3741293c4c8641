"""Replay the golden CLI corpus: exact stdout bytes and exit codes.

Each ``tests/golden/<case>.json`` holds an ``argv`` list, the ``exit_code``
and the ``stdout`` text that ``rootneg.cli.run`` produced for it.  Any change
to a verdict, a witness, an ordering or the serialisation shows up here.
A new case is recorded by running its argv through ``run`` at a commit
whose output is trusted and storing the three fields.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from rootneg.cli import run

CASES = sorted((Path(__file__).parent / "golden").glob("*.json"))
# verify.json runs the whole property suite; its exit code and stdout bytes
# are checked in a fresh process by
# test_cli.py::test_each_command_loads_only_the_modules_it_runs, so it is
# not replayed a second time here.
REPLAYED = [p for p in CASES if p.stem != "verify"]


def test_corpus_is_present():
    assert len(CASES) >= 30


@pytest.mark.parametrize("path", REPLAYED, ids=[p.stem for p in REPLAYED])
def test_golden_case(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(case["argv"])
    assert code == case["exit_code"]
    assert out.getvalue() == case["stdout"]
