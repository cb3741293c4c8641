"""Spans around calls into rootneg's public functions, recorded from outside.

``Tracer.install`` replaces each named function by a wrapper, in its defining
module and in every rootneg module that imported it by name, so the source
tree is not touched; ``uninstall`` puts the originals back.  A span is
(op id, name, start, end, parent index); spans stay in memory and are written
out when the run ends.  Self time is a span's duration minus the durations of
its direct children.

Every named function gets a span, hot leaves included: ``linalg.rref`` runs
for tens of microseconds per call and a span costs about one, which the
``trace.overhead_ratio`` metric shows.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import weyl_order

#: per-layer metric name -> unit, as BENCHMARK.json lists them
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                        .read_text(encoding="utf-8"))["per_layer"]
}
#: (module, function) of every span that a ``<module>.<function>.self_s`` or
#: ``.calls`` metric names
SPANNED = sorted({tuple(name.rsplit(".", 1)[0].split(".", 1)) for name in PER_LAYER
                  if name.endswith((".self_s", ".calls"))})


def _len_of(attr=None):
    return lambda args, result: len(getattr(result, attr) if attr else result)


#: work counts taken from a call's arguments or result: span name -> (note, fn)
NOTES = {
    "rootsys.weyl_group": (("elements", _len_of()),),
    "params.equivalence_class": (("members", _len_of("members")),),
    "params.c_lambda": (
        ("kept", _len_of()),
        ("scanned", lambda args, result: weyl_order(str(args[0].spec))),
    ),
    "simplex.maximize": (("tableau_cells", lambda args, result: len(args[1]) * len(args[0])),),
    "subsystems.full_rank_subsystems": (("classes", _len_of()),),
}


def _targets() -> list[tuple[str, str]]:
    """SPANNED, plus the library functions the CLI imported by name.

    The latter get spans so that cli.run's self time is the CLI's own
    parsing and serialisation.
    """
    targets = list(SPANNED)
    for value in vars(sys.modules["rootneg.cli"]).values():
        home = getattr(value, "__module__", None) or ""
        if callable(value) and not isinstance(value, type) and home.startswith("rootneg.") \
                and home != "rootneg.cli":
            key = (home.split(".", 1)[1], value.__name__)
            if key not in targets:
                targets.append(key)
    return targets


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, notes = self.spans, self._stack, NOTES.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)
            for note, value in notes:
                self.notes[f"{name}.{note}"] += value(args, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that do not exist."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n == "rootneg" or n.startswith("rootneg.")]
        for module, fname in _targets():
            original = getattr(sys.modules.get(f"rootneg.{module}"), fname, None)
            if original is None:
                missing.append(f"{module}.{fname}")
                continue
            replacement = self._wrap(f"{module}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._patched.append((mod, attr, original))
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "notes": dict(self.notes)}


class Totals:
    """Per-name calls and self seconds, and the notes, summed over dumps."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.notes: dict[str, int] = defaultdict(int)

    def add(self, dump: dict) -> None:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (_, name, start, end, _), inner in zip(spans, child_time):
            self.calls[name] += 1
            self.self_s[name] += end - start - inner
        for key, value in dump["notes"].items():
            self.notes[key] += value


def write_spans(path, dumps) -> None:
    """One JSON line per span: op id, name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as handle:
        for dump in dumps:
            for span in dump["spans"]:
                handle.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Totals) -> dict[str, tuple[float, str]]:
    """The per-layer metrics taken from spans, as (value, unit).

    Self times, call counts and notes are named in PER_LAYER; the two ratios
    are derived here.
    """
    notes = {f"{span}.{note}" for span, fns in NOTES.items() for note, _ in fns}
    out: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER.items():
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = (t.self_s[span], unit)
        elif kind == "calls":
            out[name] = (t.calls[span], unit)
        elif name in notes:
            out[name] = (t.notes[name], unit)
    out["params.c_lambda.hit_ratio"] = (
        _ratio(t.notes["params.c_lambda.kept"], t.notes["params.c_lambda.scanned"]),
        PER_LAYER["params.c_lambda.hit_ratio"])
    out["subsystems.closures_per_class"] = (
        _ratio(t.calls["subsystems.reflection_closure"],
               t.notes["subsystems.full_rank_subsystems.classes"]),
        PER_LAYER["subsystems.closures_per_class"])
    return out
