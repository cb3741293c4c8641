"""Seeded op streams for the three benchmark workloads.

An op is one CLI request: an argv list for ``rootneg.cli.run``.  A stream is
a sequence of rounds.  Every round holds the same slots, so every round costs
about the same, whatever the seed; the seed picks the order of the slots, the
parameters and the alternatives inside each slot.  That keeps run-to-run
spread small while a different seed still sends different requests.

Parameters start from fixed base values taken from the value sets of
``verification.parameter_grid`` (0, +-1/3, +-1/2, +-1, +-3/2; imaginary 0,
+-1/2).  The seed adds an integer to every coordinate and may negate the
whole parameter.  Neither changes which coroot pairings are integral, so the
move class keeps its size and an op keeps its cost, while its answer
(members, verdicts, witnesses) changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable

#: placeholder in nsigma argv, replaced by the run's fresh cache directory
CACHE_DIR = "<cache-dir>"

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    #: True: ops call rootneg.cli.run in this process; False: one fresh
    #: ``python -m rootneg.cli`` process per op
    in_process: bool
    #: root system types built during in-process set-up
    types: tuple[str, ...]
    #: draws one round of ops from the stream's generator
    draw_round: Callable[[random.Random], list[Argv]]


class Stream:
    """The seeded op stream of one workload: same seed, same rounds."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self._rng = random.Random(f"{workload.name}/{seed}")

    def next_round(self) -> list[Argv]:
        ops = self.workload.draw_round(self._rng)
        self._rng.shuffle(ops)
        return ops


def _shifted(rng: random.Random, base: tuple[str, str]) -> tuple[str, str]:
    """Base parameter plus a seeded integer shift, possibly negated."""
    sign = rng.choice((1, -1))
    re = [sign * (Q(x) + rng.randint(-2, 2)) for x in base[0].split(",")]
    im = [sign * Q(x) for x in base[1].split(",")]
    return ",".join(map(str, re)), ",".join(map(str, im))


def _param_op(rng, kind, type_name, base, *extra) -> Argv:
    re, im = _shifted(rng, base)
    return (kind, "--type", type_name, "--re", re, "--im", im) + extra


# ---------------------------------------------------------------------------
# session_queries: per-parameter queries on rank 2-4 types, in one process.

_RANK2 = {
    "A2": (("1/2,1/3", "0,0"), ("1,-1/2", "1/2,0")),
    "B2": (("1/2,1", "0,1/2"), ("1/3,1/2", "0,0")),
    "G2": (("1/3,1", "0,0"), ("1/2,1/2", "0,1/2")),
    "BC2": (("1/2,1", "0,0"), ("1/3,1/2", "1/2,0")),
}
_RANK3 = {
    "A3": (("1/2,1,1/3", "0,0,0"), ("1/3,1/2,1", "0,1/2,0")),
    "B3": (("1/2,1,1/3", "0,0,0"), ("1/3,1/2,1", "0,1/2,0")),
    "C3": (("1/2,1,1/3", "0,0,0"), ("1/3,1/2,1", "0,1/2,0")),
}
#: rank 4: bases with small move classes (4-16 members), so that one F4
#: class op (about 1 s, nearly all of it c_lambda scanning the 1152 Weyl
#: elements) stays the single heaviest op and the rest stay well below it.
_RANK4 = {
    "B2xG2": (("1/2,1,1/3,1", "0,0,0,0"), ("strict", "weak")),
    "D4": (("1,1/2,1,1", "0,0,0,0"), ("integral", "strict")),
    "B4": (("1,1,1,1/2", "0,0,0,0"), ("weak", "integral")),
    "F4": (("1/2,1,1/2,1", "0,0,0,0"), ("strict", "weak")),
}


def _session_round(rng: random.Random) -> list[Argv]:
    ops: list[Argv] = []
    for t, (b0, b1) in _RANK2.items():
        ops += [
            _param_op(rng, "class", t, b0, "--denominator", "1"),
            _param_op(rng, "class", t, b1, "--denominator", "2"),
            _param_op(rng, "gallery", t, b0),
            _param_op(rng, "edge", t, b1, "--denominator", "1"),
            _param_op(rng, "negativity", t, b0, "--mode", "strict"),
            _param_op(rng, "negativity", t, b1, "--mode", "weak"),
            _param_op(rng, "negativity", t, b0, "--mode", "integral"),
            _param_op(rng, "fundamental", t, b1, "--mode", "weak"),
        ]
    for t, (b0, b1) in _RANK3.items():
        ops += [
            _param_op(rng, "class", t, b0, "--denominator", "1"),
            _param_op(rng, "gallery", t, b1),
            _param_op(rng, "edge", t, b0, "--denominator", "2"),
            _param_op(rng, "negativity", t, b1, "--mode", "strict"),
            _param_op(rng, "negativity", t, b0, "--mode", "weak"),
            _param_op(rng, "negativity", t, b1, "--mode", "integral"),
            _param_op(rng, "fundamental", t, b0, "--mode", "strict"),
        ]
    for t, (base, (neg_mode, fund_mode)) in _RANK4.items():
        ops += [
            _param_op(rng, "class", t, base, "--denominator", "1"),
            _param_op(rng, "gallery", t, base),
            _param_op(rng, "edge", t, base, "--denominator", "1"),
            _param_op(rng, "negativity", t, base, "--mode", neg_mode),
            _param_op(rng, "fundamental", t, base, "--mode", fund_mode),
        ]
    return ops


SESSION_QUERIES = Workload(
    name="session_queries",
    in_process=True,
    types=tuple(_RANK2) + tuple(_RANK3) + tuple(_RANK4),
    draw_round=_session_round,
)


# ---------------------------------------------------------------------------
# census: full-rank subsystem censuses and n_sigma, in one process.

#: each slot is (command, alternatives, method); the seed picks one
#: alternative per slot and round.  Alternatives are dual types of equal cost.
_CENSUS_SLOTS = (
    # heavy: exact orbit-key path at rank 4, label path at rank 6
    ("subsystems", ("F4",), "bds"),
    ("nsigma", ("E6",), "bds"),
    # the band that holds p90: rank-4 B/C on the orbit-key path, ~0.5 s each
    ("subsystems", ("B4", "C4"), "bds"),
    ("subsystems", ("C4", "B4"), "bds"),
    ("nsigma", ("B4", "C4"), "bds"),
    ("nsigma", ("C4", "B4"), "bds"),
    # light: rank 2-5, products, and brute force against bds at rank <= 3
    *(
        (cmd, (t,), "bds")
        for cmd in ("subsystems", "nsigma")
        for t in ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "A5", "D5",
                  "A2xB2", "B2xG2")
    ),
    ("subsystems", ("B3",), "brute_force"),
    ("subsystems", ("C3",), "brute_force"),
    ("subsystems", ("A3",), "brute_force"),
    ("subsystems", ("G2",), "brute_force"),
    ("subsystems", ("B2",), "brute_force"),
    ("subsystems", ("A2xA1",), "brute_force"),
)


def _census_round(rng: random.Random) -> list[Argv]:
    ops: list[Argv] = []
    for cmd, alternatives, method in _CENSUS_SLOTS:
        argv: Argv = (cmd, "--type", rng.choice(alternatives))
        if method != "bds":
            argv += ("--method", method)
        ops.append(argv)
    return ops


CENSUS = Workload(
    name="census",
    in_process=True,
    types=tuple(sorted({t for _, alts, _ in _CENSUS_SLOTS for t in alts})),
    draw_round=_census_round,
)


# ---------------------------------------------------------------------------
# cold_cli: one fresh process per op.

_PRODUCT_FACTORS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4")


def _product(rng: random.Random) -> str:
    return "x".join(rng.choice(_PRODUCT_FACTORS) for _ in range(rng.randint(2, 3)))


def _int_matrix(rng: random.Random, rows: int, cols: int) -> str:
    return ";".join(
        ",".join(str(rng.randint(-9, 9)) for _ in range(cols)) for _ in range(rows)
    )


def _exponent_op(rng: random.Random, rank_z: int) -> Argv:
    # lower-triangular with nonzero diagonal: the spherical rows are
    # independent and the decomposition is always solvable
    rows = []
    for i in range(rank_z):
        row = [rng.randint(-3, 3) if j < i else 0 for j in range(rank_z)]
        row[i] = rng.choice((1, 2, 3))
        rows.append(",".join(map(str, row)))

    def vector() -> str:
        return ",".join(str(Q(rng.randint(-6, 6), rng.choice((1, 2, 3)))) for _ in range(rank_z))

    return ("exponent", "--spherical", ";".join(rows), "--mu", vector(),
            "--rhoq", vector(), "--nu", vector(), "--n", str(rng.choice((1, 2, 6))))


def _cold_round(rng: random.Random) -> list[Argv]:
    return [
        ("build", "--type", "B12"),
        ("build", "--type", "E8"),
        ("build", "--type", "D10"),
        ("build", "--type", rng.choice(("C8", "B8"))),
        ("build", "--type", "D8"),
        ("rank-one-bound", "--type", _product(rng)),
        ("rank-one-bound", "--type", _product(rng)),
        ("rank-one-bound", "--type", _product(rng)),
        ("snf", "--matrix", _int_matrix(rng, 3, 3)),
        ("snf", "--matrix", _int_matrix(rng, 4, 4)),
        ("snf", "--matrix", _int_matrix(rng, 4, 5)),
        ("snf", "--matrix", _int_matrix(rng, 5, 3)),
        _exponent_op(rng, 2),
        _exponent_op(rng, 3),
        _param_op(rng, "edge", "E6", ("1/2,1,1,1,1/3,1", "0,0,0,0,0,0")),
        _param_op(rng, "edge", rng.choice(("D7", "B7")), ("1/2,1,1,1,1,1/3,1", "0,0,0,0,0,0,0")),
        _param_op(rng, "edge", "E8", ("1/2,1,1,1,1,1/3,1,1", "0,0,0,0,0,0,0,0")),
        _param_op(rng, "negativity", "A2", _RANK2["A2"][0], "--mode", "strict"),
        _param_op(rng, "negativity", "B3", _RANK3["B3"][1], "--mode", "weak"),
        _param_op(rng, "negativity", "G2", _RANK2["G2"][0], "--mode", "integral"),
        _param_op(rng, "negativity", "C3", _RANK3["C3"][0], "--mode", "strict"),
        # fixed types: each misses the run's fresh cache once, then hits it
        ("nsigma", "--type", "D4", "--cache-dir", CACHE_DIR),
        ("nsigma", "--type", "B3", "--cache-dir", CACHE_DIR),
        ("nsigma", "--type", "A4", "--cache-dir", CACHE_DIR),
    ]


COLD_CLI = Workload(
    name="cold_cli",
    in_process=False,
    types=(),
    draw_round=_cold_round,
)

WORKLOADS = {w.name: w for w in (SESSION_QUERIES, CENSUS, COLD_CLI)}
