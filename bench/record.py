"""Record before/after benchmark rows into one BENCH_<n>.json file.

Usage, from the repository root:

    python3 bench/record.py --out BENCH_18.json \
        --tree parent=/path/to/parent/checkout --tree change=. [--seed 11]

Each --tree is a label and a checkout holding src/ and perfbench/.  For
every tree the file gets:

- the median over RUNS runs of every end-to-end metric of every perfbench
  workload (``perfbench/run.py --trace 0`` for BENCHMARK.json's
  ``run_seconds``), with the runs themselves; the trees take turns run by
  run, so a slow drift of the machine hits both, and run r of two trees is
  one pair of a before/after comparison;
- fresh-process CLI rows for the commands in CLI_ROWS: the wall seconds
  and peak RSS of one ``python -m rootneg.cli`` process, each as the median
  over RUNS runs with the runs, taken in the same turns as the workloads;
- the commit of the checkout, when it is a git checkout (``-dirty`` when
  its files differ from that commit).

The Python version and platform are recorded once.  Only the standard
library is used; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: runs per tree and workload: the fewest pairs that a claimed gain needs
RUNS = 10

#: fresh-process rows: census commands, where the computation dominates, and
#: commands whose process time is mostly interpreter start and module imports
CLI_ROWS = (
    ("subsystems", "--type", "BC6"),
    ("subsystems", "--type", "B12"),
    ("nsigma", "--type", "E8"),
    ("build", "--type", "A2"),
    ("build", "--type", "E8"),
    ("snf", "--matrix", "2,1;0,2"),
    ("rank-one-bound", "--type", "A2"),
    ("rank-one-bound", "--type", "F4xB3xA2"),
    ("exponent", "--spherical", "1/2,0;1/3,1", "--mu", "5/2,2", "--rhoq", "1/2,1/3",
     "--nu", "0,1/2", "--n", "6"),
)


def _commit(tree: Path) -> str | None:
    """The checkout's commit, suffixed -dirty when its files differ from it."""
    result = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def _perfbench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The end-to-end metrics of one perfbench run, as name -> value."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in doc["metrics"].items()}
    row["failed"] = doc["failed"]
    return row


def _cli_run(tree: Path, argv: tuple[str, ...]) -> dict:
    """Exit code, wall time and peak RSS of one fresh CLI process; stdout is
    dropped."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rootneg.cli", *argv],
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return {"exit_code": os.waitstatus_to_exitcode(status),
            "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def _summary(rows: list[dict]) -> dict:
    """Per metric of the rows, the median and the runs."""
    return {name: {"median": statistics.median(row[name] for row in rows),
                   "runs": [row[name] for row in rows]}
            for name in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    trees = {}
    for item in args.tree:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    benchmark = json.loads(
        (next(iter(trees.values())) / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]

    runs: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in workloads} for label in trees}
    cli_runs: dict[str, list[list[dict]]] = {label: [[] for _ in CLI_ROWS] for label in trees}
    order = list(trees)
    for r in range(RUNS):
        turn = order if r % 2 == 0 else order[::-1]
        for workload in workloads:
            for label in turn:
                row = _perfbench(trees[label], workload, args.seed, seconds)
                runs[label][workload].append(row)
                print(f"run {r + 1}/{RUNS} {workload} {label}: {row}", file=sys.stderr)
        for i, cli_argv in enumerate(CLI_ROWS):
            for label in turn:
                row = _cli_run(trees[label], cli_argv)
                cli_runs[label][i].append(row)
                print(f"run {r + 1}/{RUNS} {' '.join(cli_argv)} {label}: {row}", file=sys.stderr)

    doc = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "runs": RUNS,
        "trees": {},
    }
    for label, tree in trees.items():
        perfbench = {workload: _summary(rows) for workload, rows in runs[label].items()}
        cli = [{"argv": list(cli_argv), **_summary(rows)}
               for cli_argv, rows in zip(CLI_ROWS, cli_runs[label])]
        doc["trees"][label] = {"commit": _commit(tree), "perfbench": perfbench, "cli": cli}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
