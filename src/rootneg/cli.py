"""JSON command line front end for the library.

Every subcommand prints exactly one JSON document to stdout.  Exit codes
carry plumbing only: 0 means the computation ran (verdicts, including
negative ones, live in the JSON), 2 means bad input, 3 means a library
invariant failed.  Output is deterministic: fixed key order, no floats,
byte-identical across reruns of the same invocation.

One table, ``_COMMANDS``, maps each subcommand to its handler, its help line
and its ordered argument groups: the type, the parameter (``--re``/``--im``),
the mode with its test subspace, the census method, the denominator, and the
command's own flags.  The parser, the set of flags whose values may start
with "-", the shared inputs (root system, parameter, checked integers, test
subspace, gallery guard) and the echoed ``type, re, im, mode, denominator``
prefix of each document all follow from that table.  Flags are matched by
their full spelling only.

Serialization conventions: rationals are "p/q" strings (integers print as
"p"); derived constants (group orders, lattice indices, bounds, divisor
chains) are decimal strings; roots, words, and integer matrices are JSON
integer arrays; Weyl group elements appear as 1-based reduced words.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction as Q
from typing import Callable, NamedTuple, Optional, Sequence

from .rootsys import (
    WEYL_ORDER_LIMIT,
    CapacityError,
    Parameter,
    RootSystem,
    build_root_system,
    rank_one_bound,
    weyl_order,
)

JsonDoc = dict


def _q_list(xs) -> list[str]:
    return [str(x) for x in xs]


def _q_rows(rows) -> list[list[str]]:
    return [_q_list(row) for row in rows]


def _parse_q_list(text: str, what: str) -> tuple[Q, ...]:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    for p in parts:
        # Fraction("1e999999999") would build 10**999999999 first, far beyond the
        # 4300 digits Python converts to a string by default
        exponent = p.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) >= 4300):
            raise ValueError(f"{what} entry {p!r} makes a number longer than 4300 digits, "
                             "Python's limit for converting an integer to a string")
    try:
        return tuple(Q(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {what} {text!r} as a list of rationals")


def _parse_q_matrix(text: str, what: str) -> tuple[tuple[Q, ...], ...]:
    text = text.strip()
    if not text:
        return ()
    rows = tuple(_parse_q_list(part, what) for part in text.split(";"))
    if not all(rows):
        raise ValueError(f"{what} {text!r} has a row with no entries")
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"ragged rows in {what} {text!r}")
    return rows


def _parse_int_matrix(text: str, what: str) -> list[list[int]]:
    rows = _parse_q_matrix(text, what)
    if not rows:
        raise ValueError(f"{what} must have at least one row")
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError(f"{what} must have integer entries")
    return [[int(x) for x in row] for row in rows]


def _positive(n: int, what: str) -> int:
    if n < 1:
        raise ValueError(f"{what} must be a positive integer")
    return n


def _parameter(rs: RootSystem, args: argparse.Namespace) -> Parameter:
    def coordinates(text: str, flag: str) -> tuple[Q, ...]:
        xs = _parse_q_list(text, flag)
        if len(xs) != rs.rank:
            raise ValueError(f"{flag} needs {rs.rank} coordinates for type {rs.spec}")
        return xs

    re = coordinates(args.re, "--re")
    im = (Q(0),) * rs.rank if args.im is None else coordinates(args.im, "--im")
    return Parameter(re, im)


def _subspace(rs: RootSystem, text: Optional[str]) -> Optional[SubspaceBasis]:
    from .params import SubspaceBasis

    if text is None:
        return None
    rows = _parse_q_matrix(text, "--subspace")
    if any(len(row) != rs.rank for row in rows):
        raise ValueError(f"--subspace vectors need {rs.rank} coordinates")
    return SubspaceBasis(rs.rank, rows)


def _check_chambers(rs: RootSystem, lam: Parameter) -> None:
    """Refuse lam when its gallery, which bounds its move class at every
    denominator, has more than WEYL_ORDER_LIMIT chambers; the count is at
    most |W|, so it is computed only when |W| is above the limit."""
    from .params import chamber_count

    if weyl_order(rs.spec) <= WEYL_ORDER_LIMIT:
        return
    count = chamber_count(rs, lam)
    if count > WEYL_ORDER_LIMIT:
        raise CapacityError(
            f"the gallery of this parameter in {rs.spec} has {count} chambers, "
            f"above the limit {WEYL_ORDER_LIMIT}"
        )


# ---------------------------------------------------------------------------
# Commands.  Each handler reads the namespace that run has filled in from the
# command's table row (rs, lam, basis and the checked or parsed flag values)
# and returns (document, exit_code); run puts the echoed prefix in front.
# A handler imports the library module it runs when it runs, so a process
# loads (and compiles) only what its command needs, beyond rootsys.

def _cmd_build(args) -> tuple[JsonDoc, int]:
    rs = args.rs
    doc = {
        "rank": rs.rank,
        "components": [f"{fam}{rank}" for fam, rank in rs.spec.components],
        "cartan": [list(row) for row in rs.cartan],
        "gram": _q_rows(rs.gram),
        "simple_roots": [list(b) for b in rs.simple_roots],
        "positive_root_count": len(rs.positive_roots),
        "positive_roots": [list(b) for b in rs.positive_roots],
        "weyl_order": str(weyl_order(rs.spec)),
        "dual_type": str(rs.spec.dual()),
    }
    return doc, 0


def _load_nsigma_cache(path: str) -> dict:
    """The cache file's entries; an unreadable file is a miss, noted on stderr."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cache = json.load(handle)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        print(f"rootneg: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
        return {}
    if not isinstance(cache, dict):
        print(f"rootneg: ignoring cache {path}: not a JSON object", file=sys.stderr)
        return {}
    return cache


def _is_nsigma_entry(entry) -> bool:
    """Whether a cache entry has the shape _cmd_nsigma writes."""
    rows = entry.get("subsystems") if isinstance(entry, dict) else None
    return isinstance(rows, list) and isinstance(entry.get("n_sigma"), str) and all(
        isinstance(r, dict) and set(r) == {"label", "n"}
        and all(isinstance(v, str) for v in r.values()) for r in rows
    )


def _store_nsigma_cache(path: str, cache: dict) -> None:
    """Write the cache to a temporary file, then move it over path in one step,
    so a reader never sees a partial file; a failed write is noted on stderr."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(cache, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        print(f"rootneg: could not write cache {path}: {exc}", file=sys.stderr)
        if os.path.exists(tmp):
            os.remove(tmp)


def _cmd_nsigma(args) -> tuple[JsonDoc, int]:
    key = f"{args.rs.spec}/{args.method}"
    path = os.path.join(args.cache_dir, "nsigma.json") if args.cache_dir else None
    cache = _load_nsigma_cache(path) if path else {}
    entry = cache.get(key)
    if entry is not None and not _is_nsigma_entry(entry):
        print(f"rootneg: ignoring malformed cache entry {key} in {path}", file=sys.stderr)
        entry = None
    if entry is None:
        from .subsystems import census

        classes = [(s.label, math.lcm(1, *d)) for s, d in census(args.rs, args.method)]
        entry = {
            "n_sigma": str(math.lcm(1, *(n for _, n in classes))),
            "subsystems": [{"label": label, "n": str(n)} for label, n in classes],
        }
        if path:
            cache[key] = entry
            _store_nsigma_cache(path, cache)
    return {"n_sigma": entry["n_sigma"], "subsystems": entry["subsystems"]}, 0


def _cmd_subsystems(args) -> tuple[JsonDoc, int]:
    from .subsystems import census

    out = [
        {
            "label": s.label,
            "n": str(math.lcm(1, *divisors)),
            "divisors": [str(d) for d in divisors],
            "size": len(s.roots),
            "roots": [list(b) for b in s.roots],
        }
        for s, divisors in census(args.rs, args.method)
    ]
    doc = {
        "method": args.method,
        "count": len(out),
        "subsystems": out,
    }
    return doc, 0


def _cmd_class(args) -> tuple[JsonDoc, int]:
    from .params import chamber_count, chamber_walk, edge

    walk = sorted(chamber_walk(args.rs, args.lam, args.denominator), key=lambda c: (c.re, c.im))
    # the gallery at denominator 1 has one chamber per coset of W(Sigma), and
    # at denominator 1 it is the walk itself
    count = len(walk) if args.denominator == 1 else chamber_count(args.rs, args.lam)
    e = edge(args.rs, args.lam, args.denominator)
    doc = {
        "members": [
            {"word": list(c.w_word), "re": [str(Q(x, c.d)) for x in c.re],
             "im": [str(Q(x, c.d)) for x in c.im]}
            for c in walk
        ],
        "gallery_size": count,
        "chamber_count": count,
        "edge_dim": e.dim,
        "edge_basis": _q_rows(e.vectors),
    }
    return doc, 0


def _cmd_gallery(args) -> tuple[JsonDoc, int]:
    from .params import chamber_walk

    gallery = chamber_walk(args.rs, args.lam)
    doc = {
        "size": len(gallery),
        "chambers": [list(c.u_word) for c in gallery],
    }
    return doc, 0


def _cmd_edge(args) -> tuple[JsonDoc, int]:
    from .params import edge

    e = edge(args.rs, args.lam, args.denominator)
    doc = {
        "dim": e.dim,
        "basis": _q_rows(e.vectors),
    }
    return doc, 0


def _cmd_negativity(args) -> tuple[JsonDoc, int]:
    from .negativity import check_class_negativity

    report = check_class_negativity(args.rs, args.lam, args.mode, args.basis, args.denominator)
    # the class report checks lam itself as the member with the empty word
    verdict = next(m.verdict for m in report.members if m.mu == args.lam)
    doc = {
        "feasible": verdict.feasible,
        "witness": _q_list(verdict.witness_omega)
        if verdict.witness_omega is not None
        else None,
        "span_basis": [list(b) for b in verdict.span_basis],
        "tight_generators": list(verdict.tight_generators),
        "class_ok": report.ok,
    }
    return doc, 0


def _cmd_fundamental(args) -> tuple[JsonDoc, int]:
    from .negativity import verify_fundamental_lemma

    report = verify_fundamental_lemma(args.rs, args.lam, args.mode, args.basis, args.denominator)
    containing = report.containing_member
    doc = {
        "vacuous": report.vacuous,
        "edge_dim": report.edge_basis.dim,
        "edge_basis": _q_rows(report.edge_basis.vectors),
        "containing_member_word": list(containing[0]) if containing is not None else None,
        "re_on_edge_zero": report.re_lambda_on_edge_zero,
        "im_on_edge_zero": report.im_lambda_on_edge_zero,
        "edge_trivial": report.edge_trivial,
        "parabolic_type": report.parabolic.label,
        "n_lattice": str(report.n_lattice),
        "integrality_ok": report.integrality_ok,
    }
    return doc, 0


def _cmd_exponent(args) -> tuple[JsonDoc, int]:
    from .exponent import certify_exponent

    rank_z = len(args.mu)
    edge_dims = rank_z - len(args.spherical)
    cert = certify_exponent(rank_z, args.spherical, edge_dims, args.mu, args.rhoq, args.nu, args.n)
    doc = {
        "rank_z": rank_z,
        "spherical_count": len(args.spherical),
        "edge_dims": edge_dims,
        "n": args.n,
        "solvable": cert.solvable,
        "coefficients": _q_list(cert.coefficients)
        if cert.coefficients is not None
        else None,
        "nu": _q_list(cert.nu),
        "lattice_ok": cert.lattice_ok,
        "ds1_ok": cert.ds1_ok,
        "ds2_ok": cert.ds2_ok,
    }
    return doc, 0


def _cmd_rank_one_bound(args) -> tuple[JsonDoc, int]:
    return {"bound": str(rank_one_bound(args.type))}, 0


def _cmd_snf(args) -> tuple[JsonDoc, int]:
    from .lattice import smith_normal_form

    res = smith_normal_form(args.matrix)
    doc = {
        "divisors": [str(d) for d in res.divisors],
        "u": [list(row) for row in res.u],
        "d": [list(row) for row in res.d],
        "v": [list(row) for row in res.v],
    }
    return doc, 0


def _cmd_verify(args) -> tuple[JsonDoc, int]:
    from .verification import run_all

    results = run_all()
    doc = {
        "ok": all(r.ok for r in results),
        "properties": [
            {
                "name": r.name,
                "ok": r.ok,
                "checked": r.checked,
                "failures": list(r.failures),
            }
            for r in results
        ],
    }
    return doc, 0 if doc["ok"] else 3


# ---------------------------------------------------------------------------
# The command table.

class _Flag(NamedTuple):
    name: str
    #: keywords for add_argument
    options: dict
    #: the value may start with "-" (a negative coordinate), so it is joined
    #: to "--flag=value" form before the parser sees it
    signed: bool = False
    #: (value, flag name) -> the checked or parsed value that the handler reads
    parse: Optional[Callable] = None


def _flag(name: str, signed: bool = False, parse: Optional[Callable] = None,
          **options) -> _Flag:
    return _Flag(name, options, signed, parse)


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], tuple[JsonDoc, int]]
    help: str
    groups: tuple = ()
    #: refuse a parameter whose gallery has more than WEYL_ORDER_LIMIT chambers
    walks: bool = False


# The groups below are shared; a command's own flags form its last group.
# rank-one-bound's --type is its own: optional, never built into a root
# system and never echoed.
_TYPE_HELP = 'type string such as "A2", "BC1", or "B3xA1"'
_N_OPTIONS = dict(parse=_positive, type=int, default=1,
                  help="integrality denominator N (default 1)")

_TYPE = (_flag("--type", required=True, help=_TYPE_HELP),)
_PARAMETER = (
    _flag("--re", signed=True, required=True, help="real coordinates, e.g. \"1/2,1/2\""),
    _flag("--im", signed=True, default=None, help="imaginary coordinates (default all 0)"),
)
_MODE = (
    _flag("--mode", required=True, choices=("strict", "weak", "integral")),
    _flag("--subspace", signed=True, default=None,
          help='test subspace basis rows, e.g. "1,0;0,1" (weak/integral only)'),
)
_METHOD = (
    _flag("--method", choices=("bds", "brute_force"), default="bds",
          help="enumeration method (default bds)"),
)
_DENOMINATOR = (_flag("--denominator", **_N_OPTIONS),)

_COMMANDS: dict[str, _Command] = {
    "build": _Command(_cmd_build, "summarize a root system", (_TYPE,)),
    "nsigma": _Command(
        _cmd_nsigma, "least common multiple of full-rank subsystem constants",
        (_TYPE, _METHOD, (_flag("--cache-dir", default=None,
                                help="directory for the constants cache"),)),
    ),
    "subsystems": _Command(
        _cmd_subsystems, "enumerate full-rank subsystems up to conjugacy", (_TYPE, _METHOD)
    ),
    "class": _Command(_cmd_class, "move-equivalence class of a parameter",
                      (_TYPE, _PARAMETER, _DENOMINATOR), walks=True),
    "gallery": _Command(_cmd_gallery, "gallery class of the fundamental chamber",
                        (_TYPE, _PARAMETER), walks=True),
    "edge": _Command(_cmd_edge, "common kernel of the integral coroots",
                     (_TYPE, _PARAMETER, _DENOMINATOR)),
    "negativity": _Command(_cmd_negativity, "negativity verdict for one parameter and its class",
                           (_TYPE, _PARAMETER, _MODE, _DENOMINATOR), walks=True),
    "fundamental": _Command(_cmd_fundamental, "edge and lattice consequences of class negativity",
                            (_TYPE, _PARAMETER, _MODE, _DENOMINATOR), walks=True),
    "exponent": _Command(_cmd_exponent, "certificate for a leading-exponent expansion", ((
        _flag("--spherical", signed=True, parse=_parse_q_matrix, required=True,
              help='independent vectors as matrix rows, e.g. "1,0;0,1" (may be empty)'),
        _flag("--mu", signed=True, parse=_parse_q_list, required=True, help="exponent vector"),
        _flag("--rhoq", signed=True, parse=_parse_q_list, required=True, help="shift vector"),
        _flag("--nu", signed=True, parse=_parse_q_list, required=True,
              help="twist vector (echoed)"),
        _flag("--n", **_N_OPTIONS),
    ),)),
    "rank-one-bound": _Command(_cmd_rank_one_bound, "denominator bound for rank-one factors",
                               ((_flag("--type", help=_TYPE_HELP),),)),
    "snf": _Command(_cmd_snf, "Smith normal form of an integer matrix", ((
        _flag("--matrix", signed=True, parse=_parse_int_matrix, required=True,
              help='integer matrix literal "a,b;c,d"'),
    ),)),
    "verify": _Command(_cmd_verify, "run the full property suite"),
}


def _flags(command: _Command) -> list[_Flag]:
    return [flag for group in command.groups for flag in group]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    parser = argparse.ArgumentParser(
        prog="rootneg",
        description="Exact root-system computations with JSON output.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[common], allow_abbrev=False)
        for flag in _flags(command):
            p.add_argument(flag.name, **flag.options)
    return parser


#: per command, its flag names -> whether the value may start with "-"
_COMMAND_FLAGS = {name: {"--pretty": False, **{flag.name: flag.signed for flag in _flags(command)}}
                  for name, command in _COMMANDS.items()}


def _join_value_flags(argv: Sequence[str]) -> list[str]:
    """argv with each signed flag of its command joined to its value as
    "--flag=value".  A flag given twice, in either spelling, is refused."""
    flags = _COMMAND_FLAGS.get(argv[0] if argv else "", {})
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if flags.get(tok) else None
        out.append(tok if value is None else f"{tok}={value}")
    given = [tok.partition("=")[0] for tok in out]
    for flag in flags:
        if given.count(flag) > 1:
            _build_parser().exit(2, f"error: {flag} is given twice\n")
    return out


def _shared_inputs(args: argparse.Namespace, command: _Command) -> JsonDoc:
    """Fill in what the command's groups declare, in the order their refusals
    are checked, and return the document's echoed prefix."""
    echo: JsonDoc = {}
    if _TYPE in command.groups:
        args.rs = build_root_system(args.type)
        echo["type"] = str(args.rs.spec)
    if _PARAMETER in command.groups:
        args.lam = _parameter(args.rs, args)
        echo.update(re=_q_list(args.lam.re), im=_q_list(args.lam.im))
    for flag in _flags(command):
        if flag.parse is not None:
            dest = flag.name[2:].replace("-", "_")
            setattr(args, dest, flag.parse(getattr(args, dest), flag.name))
    if _MODE in command.groups:
        args.basis = _subspace(args.rs, args.subspace)
        echo["mode"] = args.mode
    if _DENOMINATOR in command.groups:
        echo["denominator"] = args.denominator
    if command.walks:
        _check_chambers(args.rs, args.lam)
    return echo


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(_join_value_flags(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # argparse drops a value that is exactly "--" and stores an empty list
    bare = next((name for name, value in vars(args).items() if value == []), None)
    if bare is not None:
        print(f"error: --{bare.replace('_', '-')} needs a value other than '--'", file=sys.stderr)
        return 2
    command = _COMMANDS[args.command]
    try:
        echo = _shared_inputs(args, command)
        doc, code = command.handler(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    doc = {**echo, **doc}
    if args.pretty:
        text = json.dumps(doc, indent=2)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
