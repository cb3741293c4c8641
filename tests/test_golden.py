"""Replay the golden CLI corpus: exact stdout bytes and exit codes.

Each ``tests/golden/<case>.json`` holds an ``argv`` list, the ``exit_code``
and the ``stdout`` text that ``rootneg.cli.run`` produced for it.  Any change
to a verdict, a witness, an ordering or the serialisation shows up here.
A new case is recorded by running its argv through ``run`` at a commit
whose output is trusted and storing the three fields.

``tests/golden/demos/<demo>.txt`` holds the stdout of ``demos/<demo>.py``.
The demos print record fields and are the README's runnable walkthroughs.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

from rootneg.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
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


DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in (GOLDEN / "demos").glob("*.txt"))
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_stdout(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue() == (GOLDEN / "demos" / f"{path.stem}.txt").read_text(encoding="utf-8")
