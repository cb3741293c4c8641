"""Smoke test of the benchmark itself, at a reduced size.

    python3 perfbench/smoke.py

For every workload it runs a one-second run untraced and one traced, in this
process with MIN_OPS lowered to 1, prints each result line, and checks that
it names exactly the metrics and units listed in BENCHMARK.json, with no
failed op.  It also checks that streams depend on the seed and only on it,
and that the benchmark refuses to run without the source tree.  Exits 0
when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, Stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    run.MIN_OPS = 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workloads in BENCHMARK.json differ from workloads.py")

    for name, workload in WORKLOADS.items():
        first, again, other = Stream(workload, 1), Stream(workload, 1), Stream(workload, 2)
        rounds = [first.next_round() for _ in range(2)]
        if rounds != [again.next_round() for _ in range(2)]:
            problems.append(f"{name}: one seed gave two different streams")
        if rounds == [other.next_round() for _ in range(2)]:
            problems.append(f"{name}: two seeds gave the same stream")
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace)])
            try:
                result = json.loads(out.getvalue().strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{name} trace {trace}: no result line")
                continue
            print(f"{name} trace {trace}: {out.getvalue().strip().splitlines()[-1]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != {expected[trace]}")
            if code or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: failed ops")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "census",
             "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark still ran or printed a result")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
