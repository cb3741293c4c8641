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


def test_corpus_is_present():
    assert len(CASES) >= 30


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden_case(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(case["argv"])
    assert code == case["exit_code"]
    assert out.getvalue() == case["stdout"]
