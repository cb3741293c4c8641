"""Closed-loop benchmark of the rootneg CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one op at a time; the next op starts when the previous one
has returned and its answer has been checked.  Only the op itself is timed,
and its time is corrected for the machine's speed (see speed.py).
Ops come in rounds of fixed composition (see workloads.py) and the run
stops after the first whole round that brings the timed total to S seconds
and the op count to MIN_OPS.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
rounds with traced ones, which put spans around rootneg's public functions,
until the untraced rounds reach S/2 seconds, and reports the per-layer
metrics plus the tracing overhead.  The last line of stdout is the JSON
result; a summary goes to stderr.  The program under test is the source
tree in src/; nothing is installed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from checks import Checker
from quantiles import harrell_davis
from speed import LOOP, spawn
from tracing import Totals, Tracer, layer_metrics, write_spans
from workloads import CACHE_DIR, WORKLOADS, Stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout: per-run temp dirs and span files
WORK = ROOT / ".bench_work"

#: least ops in the timed phase, so that ten lie beyond p90
MIN_OPS = 100
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 11
#: only ops faster than this are re-run for the determinism check
RERUN_MAX_S = 0.25
OP_TIMEOUT_S = 120


@dataclass
class Record:
    argv: tuple
    #: wall seconds inside the op
    seconds: float
    #: the same, corrected for the machine's speed
    corrected: float
    problem: Optional[str]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


SPAWN = spawn(ROOT, _child_env())


def _process_seconds(args: list[str]) -> float:
    """Speed-corrected seconds of one ``python ARGS`` process."""
    return SPAWN.time(lambda: subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S))


class InProcess:
    """Ops call rootneg.cli.run in this interpreter, stdout captured."""

    reference = LOOP

    def __init__(self, types: tuple[str, ...]):
        self.types = types
        self.cli = None
        self.nsigma_lookups = self.nsigma_hits = 0

    def setup(self) -> float:
        """Import rootneg afresh and build every type, several times."""
        sys.path.insert(0, str(SRC))

        def load():
            self.cli = importlib.import_module("rootneg.cli")
            build = sys.modules["rootneg.rootsys"].build_root_system
            for type_name in self.types:
                build(type_name)

        times = []
        for _ in range(SETUP_REPEATS):
            for name in [n for n in sys.modules if n == "rootneg" or n.startswith("rootneg.")]:
                del sys.modules[name]
            gc.collect()  # the dropped modules' garbage is not set-up work
            times.append(LOOP.time(load))
        return statistics.median(times)

    def call(self, argv: tuple, op_id: int) -> tuple[int, str, float]:
        out = io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        try:
            start = time.perf_counter()
            code = self.cli.run(list(argv))
            end = time.perf_counter()
        except Exception as exc:  # a traceback is a failed op, not a failed run
            end = time.perf_counter()
            code, out = -1, io.StringIO(repr(exc))
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), end - start

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Processes:
    """Each op is a fresh ``python -m rootneg.cli`` process, one at a time."""

    reference = SPAWN

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.dumps: list[dict] = []
        self.nsigma_lookups = self.nsigma_hits = 0
        self._traced = False

    def setup(self) -> float:
        """Median time of a process that only imports rootneg.cli."""
        times = [_process_seconds(["-c", "import rootneg.cli"]) for _ in range(SETUP_REPEATS)]
        return statistics.median(times)

    def trace(self, on: bool) -> None:
        """Switch ops to traced_cli.py, which records spans, or back.

        Traced and untraced ops keep separate nsigma caches, so both see the
        same misses.
        """
        self._traced = on

    @property
    def cache_dir(self) -> str:
        return str(self.workdir / ("cache-traced" if self._traced else "cache-plain"))

    def _cache_bytes(self) -> Optional[bytes]:
        try:
            return (Path(self.cache_dir) / "nsigma.json").read_bytes()
        except FileNotFoundError:
            return None

    def call(self, argv: tuple, op_id: int) -> tuple[int, str, float]:
        args = [self.cache_dir if a == CACHE_DIR else a for a in argv]
        uses_cache = CACHE_DIR in argv
        before = self._cache_bytes() if uses_cache else None
        spans_path = self.workdir / f"spans-{op_id}.json"
        if not self._traced:
            command = [sys.executable, "-m", "rootneg.cli", *args]
        else:
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        end = time.perf_counter()
        if uses_cache:
            self.nsigma_lookups += 1
            self.nsigma_hits += before is not None and before == self._cache_bytes()
        if self._traced and spans_path.exists():
            dump = json.loads(spans_path.read_text(encoding="utf-8"))
            dump["spans"] = [[op_id, *span[1:]] for span in dump["spans"]]
            self.dumps.append(dump)
            spans_path.unlink()
        return proc.returncode, proc.stdout, end - start

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def play(runner, argvs, checker: Checker, records: list[Record],
         tracer: Optional[Tracer] = None) -> float:
    """Run ops one after another; returns the wall seconds spent inside them.

    The runner's speed reference is timed before the first op and after each
    op, so every op lies between two reference times.
    """
    busy = 0.0
    reference = runner.reference
    before = reference.measure()
    for argv in argvs:
        if tracer is not None:
            tracer.op = len(records)
        code, out, dt = runner.call(argv, len(records))
        after = reference.measure()
        busy += dt
        records.append(Record(argv, dt, reference.correct(dt, before, after),
                              checker.check(argv, code, out)))
        before = after
    return busy


def timed_rounds(runner, stream: Stream, checker: Checker, seconds: float) -> list[Record]:
    """Whole rounds until the wall time inside ops reaches `seconds` and
    there are MIN_OPS ops."""
    records: list[Record] = []
    busy = 0.0
    while busy < seconds or len(records) < MIN_OPS:
        busy += play(runner, stream.next_round(), checker, records)
    return records


def rerun_check(runner, records: list[Record], checker: Checker) -> None:
    """Run the first cheap op of each (command, type) pair again.

    A repeat that prints other bytes fails the op.  Census ops repeat within
    the stream anyway; parameter ops differ from round to round, so this is
    where their determinism is checked.
    """
    firsts: dict[tuple, Record] = {}
    for r in records:
        if r.seconds <= RERUN_MAX_S:
            type_name = r.argv[r.argv.index("--type") + 1] if "--type" in r.argv else None
            firsts.setdefault((r.argv[0], type_name), r)
    for r in firsts.values():
        code, out, _ = runner.call(r.argv, len(records))
        problem = checker.check(r.argv, code, out)
        if problem and not r.problem:
            r.problem = f"on re-run: {problem}"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rootneg" / "cli.py").is_file():
        print(f"error: no rootneg source tree at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        runner = InProcess(workload.types) if workload.in_process else Processes(workdir)
        setup_s = runner.setup()
        if not workload.in_process:
            sys.path.insert(0, str(SRC))
        from rootneg.rootsys import build_root_system
        from rootneg.verification import fourier_motzkin_feasible

        checker = Checker(build_root_system, fourier_motzkin_feasible)
        stream = Stream(workload, args.seed)
        if args.trace:
            records, metrics = traced_run(runner, stream, checker, args.seconds, workload)
        else:
            records = timed_rounds(runner, stream, checker, args.seconds)
            peak_rss = runner.peak_rss_mb()
            latencies = [r.corrected for r in records]
            metrics = {
                "throughput_ops_s": _metric(len(latencies) / sum(latencies), "ops/s"),
                "latency_p50_ms": _metric(harrell_davis(latencies, 0.5) * 1000, "ms"),
                "latency_p90_ms": _metric(harrell_davis(latencies, 0.9) * 1000, "ms"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(peak_rss, "MB"),
            }
        rerun_check(runner, records, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if r.problem]
    print(f"{workload.name}: {len(records)} ops, {len(failures)} failed, "
          f"error_rate {len(failures) / len(records):.4f}", file=sys.stderr)
    for r in failures[:5]:
        print(f"  failed: {' '.join(r.argv)}: {r.problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def traced_run(runner, stream, checker, seconds, workload):
    """Untraced and traced rounds in turn: layer metrics and overhead.

    Each pass draws its own round from the stream, so neither replays ops
    whose results the other has just computed (and maybe cached); which pass
    goes first alternates.  Rounds hold the same slots, so the two passes do
    the same kinds of work, and alternating keeps slow drifts of the machine
    out of the overhead ratio.  The untraced rounds add up to seconds/2.
    """
    untraced: list[Record] = []
    traced: list[Record] = []
    busy_plain = 0.0
    tracer = Tracer() if workload.in_process else None
    missing: list[str] = []
    pairs = 0
    while busy_plain < seconds / 2:
        for traced_pass in (pairs % 2 == 1, pairs % 2 == 0):
            ops = stream.next_round()
            if not traced_pass:
                busy_plain += play(runner, ops, checker, untraced)
            elif tracer is not None:
                missing = tracer.install()
                play(runner, ops, checker, traced, tracer)
                tracer.uninstall()
            else:
                runner.trace(True)
                play(runner, ops, checker, traced)
                runner.trace(False)
        pairs += 1
    if missing:
        print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
    dumps = [tracer.dump()] if tracer is not None else runner.dumps
    totals = Totals()
    for dump in dumps:
        totals.add(dump)
    write_spans(WORK / f"spans-{workload.name}.jsonl", dumps)

    bare = statistics.median(_process_seconds(["-c", "pass"]) for _ in range(SETUP_REPEATS))
    imported = statistics.median(
        _process_seconds(["-c", "import rootneg.cli"]) for _ in range(SETUP_REPEATS))
    metrics = {name: _metric(v, u) for name, (v, u) in layer_metrics(totals).items()}
    plain_s = sum(r.corrected for r in untraced)
    traced_s = sum(r.corrected for r in traced)
    metrics.update({
        "cli.import_s": _metric(imported - bare, "s"),
        "cli.nsigma_cache.hit_ratio": _metric(
            runner.nsigma_hits / runner.nsigma_lookups if runner.nsigma_lookups else 0.0,
            "ratio"),
        "trace.ops": _metric(len(traced), "count"),
        "trace.untraced_throughput_ops_s": _metric(len(untraced) / plain_s, "ops/s"),
        "trace.traced_throughput_ops_s": _metric(len(traced) / traced_s, "ops/s"),
        "trace.overhead_ratio": _metric(traced_s / plain_s, "ratio"),
    })
    return untraced + traced, metrics


if __name__ == "__main__":
    sys.exit(main())
