"""JSON command line front end for the library.

Every subcommand prints exactly one JSON document to stdout.  Exit codes
carry plumbing only: 0 means the computation ran (verdicts, including
negative ones, live in the JSON), 2 means bad input, 3 means a library
invariant failed.  Output is deterministic: fixed key order, no floats,
byte-identical across reruns of the same invocation.

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
from typing import Callable, Optional, Sequence

from .lattice import smith_normal_form
from .negativity import (
    certify_exponent,
    check_class_negativity,
    rank_one_bound,
    verify_fundamental_lemma,
)
from .params import (
    SubspaceBasis,
    chamber_count,
    chamber_walk,
    edge,
)
from .rootsys import (
    WEYL_ORDER_LIMIT,
    CapacityError,
    Parameter,
    RootSystem,
    build_root_system,
    dual,
    weyl_order,
)
from .subsystems import census
from .verification import run_all

JsonDoc = dict


def _q_list(xs) -> list[str]:
    return [str(x) for x in xs]


def _q_rows(rows) -> list[list[str]]:
    return [_q_list(row) for row in rows]


def _parse_q_list(text: str, what: str) -> tuple[Q, ...]:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
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
    out = []
    for row in rows:
        if any(x.denominator != 1 for x in row):
            raise ValueError(f"{what} must have integer entries")
        out.append([int(x) for x in row])
    return out


def _parameter(rs: RootSystem, args: argparse.Namespace) -> Parameter:
    re = _parse_q_list(args.re, "--re")
    if len(re) != rs.rank:
        raise ValueError(f"--re needs {rs.rank} coordinates for type {rs.spec}")
    if args.im is None:
        im = tuple(Q(0) for _ in range(rs.rank))
    else:
        im = _parse_q_list(args.im, "--im")
        if len(im) != rs.rank:
            raise ValueError(f"--im needs {rs.rank} coordinates for type {rs.spec}")
    return Parameter(re, im)


def _subspace(rs: RootSystem, text: Optional[str]) -> Optional[SubspaceBasis]:
    if text is None:
        return None
    rows = _parse_q_matrix(text, "--subspace")
    for row in rows:
        if len(row) != rs.rank:
            raise ValueError(f"--subspace vectors need {rs.rank} coordinates")
    return SubspaceBasis(rs.rank, rows)


def _denominator(args: argparse.Namespace) -> int:
    n = args.denominator
    if n < 1:
        raise ValueError("--denominator must be a positive integer")
    return n


def _check_chambers(rs: RootSystem, lam: Parameter) -> None:
    """Refuse lam when its gallery, which bounds its move class at every
    denominator, has more than WEYL_ORDER_LIMIT chambers; the count is at
    most |W|, so it is computed only when |W| is above the limit."""
    if weyl_order(rs.spec) <= WEYL_ORDER_LIMIT:
        return
    count = chamber_count(rs, lam)
    if count > WEYL_ORDER_LIMIT:
        raise CapacityError(
            f"the gallery of this parameter in {rs.spec} has {count} chambers, "
            f"above the limit {WEYL_ORDER_LIMIT}"
        )


# ---------------------------------------------------------------------------
# Commands.  Each returns (document, exit_code).

def _cmd_build(args) -> tuple[JsonDoc, int]:
    rs = build_root_system(args.type)
    doc = {
        "type": str(rs.spec),
        "rank": rs.rank,
        "components": [f"{fam}{rank}" for fam, rank in rs.spec.components],
        "cartan": [list(row) for row in rs.cartan],
        "gram": _q_rows(rs.gram),
        "simple_roots": [list(b) for b in rs.simple_roots],
        "positive_root_count": len(rs.positive_roots),
        "positive_roots": [list(b) for b in rs.positive_roots],
        "weyl_order": str(weyl_order(rs.spec)),
        "dual_type": str(dual(rs).spec),
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
    rs = build_root_system(args.type)
    type_name = str(rs.spec)
    key = f"{type_name}/{args.method}"
    entry = None
    cache = {}
    if args.cache_dir:
        path = os.path.join(args.cache_dir, "nsigma.json")
        cache = _load_nsigma_cache(path)
        entry = cache.get(key)
        if entry is not None and not _is_nsigma_entry(entry):
            print(f"rootneg: ignoring malformed cache entry {key} in {path}", file=sys.stderr)
            entry = None
    if entry is None:
        classes = [(s.label, math.lcm(1, *d)) for s, d in census(rs, args.method)]
        entry = {
            "n_sigma": str(math.lcm(1, *(n for _, n in classes))),
            "subsystems": [{"label": label, "n": str(n)} for label, n in classes],
        }
        if args.cache_dir:
            cache[key] = entry
            _store_nsigma_cache(path, cache)
    doc = {"type": type_name, "n_sigma": entry["n_sigma"], "subsystems": entry["subsystems"]}
    return doc, 0


def _cmd_subsystems(args) -> tuple[JsonDoc, int]:
    rs = build_root_system(args.type)
    out = [
        {
            "label": s.label,
            "n": str(math.lcm(1, *divisors)),
            "divisors": [str(d) for d in divisors],
            "size": len(s.roots),
            "roots": [list(b) for b in s.roots],
        }
        for s, divisors in census(rs, args.method)
    ]
    doc = {
        "type": str(rs.spec),
        "method": args.method,
        "count": len(out),
        "subsystems": out,
    }
    return doc, 0


def _cmd_class(args) -> tuple[JsonDoc, int]:
    rs = build_root_system(args.type)
    lam = _parameter(rs, args)
    n = _denominator(args)
    _check_chambers(rs, lam)
    walk = sorted(chamber_walk(rs, lam, n), key=lambda c: (c.re, c.im))
    # the gallery at denominator 1 has one chamber per coset of W(Sigma)
    count = chamber_count(rs, lam)
    e = edge(rs, lam, n)
    doc = {
        "type": str(rs.spec),
        "re": _q_list(lam.re),
        "im": _q_list(lam.im),
        "denominator": n,
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
    rs = build_root_system(args.type)
    lam = _parameter(rs, args)
    _check_chambers(rs, lam)
    gallery = chamber_walk(rs, lam)
    doc = {
        "type": str(rs.spec),
        "re": _q_list(lam.re),
        "im": _q_list(lam.im),
        "size": len(gallery),
        "chambers": [list(c.u_word) for c in gallery],
    }
    return doc, 0


def _cmd_edge(args) -> tuple[JsonDoc, int]:
    rs = build_root_system(args.type)
    lam = _parameter(rs, args)
    n = _denominator(args)
    e = edge(rs, lam, n)
    doc = {
        "type": str(rs.spec),
        "re": _q_list(lam.re),
        "im": _q_list(lam.im),
        "denominator": n,
        "dim": e.dim,
        "basis": _q_rows(e.vectors),
    }
    return doc, 0


def _cmd_negativity(args) -> tuple[JsonDoc, int]:
    rs = build_root_system(args.type)
    lam = _parameter(rs, args)
    n = _denominator(args)
    basis = _subspace(rs, args.subspace)
    _check_chambers(rs, lam)
    report = check_class_negativity(rs, lam, args.mode, basis, n)
    # the class report checks lam itself as the member with the empty word
    verdict = next(m.verdict for m in report.members if m.mu == lam)
    doc = {
        "type": str(rs.spec),
        "re": _q_list(lam.re),
        "im": _q_list(lam.im),
        "mode": args.mode,
        "denominator": n,
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
    rs = build_root_system(args.type)
    lam = _parameter(rs, args)
    n = _denominator(args)
    basis = _subspace(rs, args.subspace)
    _check_chambers(rs, lam)
    report = verify_fundamental_lemma(rs, lam, args.mode, basis, n)
    containing = report.containing_member
    doc = {
        "type": str(rs.spec),
        "re": _q_list(lam.re),
        "im": _q_list(lam.im),
        "mode": args.mode,
        "denominator": n,
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
    spherical = _parse_q_matrix(args.spherical, "--spherical")
    mu = _parse_q_list(args.mu, "--mu")
    rho_q = _parse_q_list(args.rhoq, "--rhoq")
    nu = _parse_q_list(args.nu, "--nu")
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    rank_z = len(mu)
    edge_dims = rank_z - len(spherical)
    cert = certify_exponent(rank_z, spherical, edge_dims, mu, rho_q, nu, args.n)
    doc = {
        "rank_z": rank_z,
        "spherical_count": len(spherical),
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
    matrix = _parse_int_matrix(args.matrix, "--matrix")
    res = smith_normal_form(matrix)
    doc = {
        "divisors": [str(d) for d in res.divisors],
        "u": [list(row) for row in res.u],
        "d": [list(row) for row in res.d],
        "v": [list(row) for row in res.v],
    }
    return doc, 0


def _cmd_verify(args) -> tuple[JsonDoc, int]:
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


_COMMANDS: dict[str, Callable[[argparse.Namespace], tuple[JsonDoc, int]]] = {
    "build": _cmd_build,
    "nsigma": _cmd_nsigma,
    "subsystems": _cmd_subsystems,
    "class": _cmd_class,
    "gallery": _cmd_gallery,
    "edge": _cmd_edge,
    "negativity": _cmd_negativity,
    "fundamental": _cmd_fundamental,
    "exponent": _cmd_exponent,
    "rank-one-bound": _cmd_rank_one_bound,
    "snf": _cmd_snf,
    "verify": _cmd_verify,
}


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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    def add_type(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument(
            "--type",
            required=required,
            help='type string such as "A2", "BC1", or "B3xA1"',
        )

    def add_parameter(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--re", required=True, help="real coordinates, e.g. \"1/2,1/2\""
        )
        p.add_argument(
            "--im", default=None, help="imaginary coordinates (default all 0)"
        )

    def add_denominator(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--denominator",
            type=int,
            default=1,
            help="integrality denominator N (default 1)",
        )

    p = command("build", "summarize a root system")
    add_type(p)

    p = command("nsigma", "least common multiple of full-rank subsystem constants")
    add_type(p)
    p.add_argument(
        "--method",
        choices=("bds", "brute_force"),
        default="bds",
        help="enumeration method (default bds)",
    )
    p.add_argument(
        "--cache-dir", default=None, help="directory for the constants cache"
    )

    p = command("subsystems", "enumerate full-rank subsystems up to conjugacy")
    add_type(p)
    p.add_argument(
        "--method",
        choices=("bds", "brute_force"),
        default="bds",
        help="enumeration method (default bds)",
    )

    p = command("class", "move-equivalence class of a parameter")
    add_type(p)
    add_parameter(p)
    add_denominator(p)

    p = command("gallery", "gallery class of the fundamental chamber")
    add_type(p)
    add_parameter(p)

    p = command("edge", "common kernel of the integral coroots")
    add_type(p)
    add_parameter(p)
    add_denominator(p)

    p = command("negativity", "negativity verdict for one parameter and its class")
    add_type(p)
    add_parameter(p)
    p.add_argument(
        "--mode", required=True, choices=("strict", "weak", "integral")
    )
    p.add_argument(
        "--subspace",
        default=None,
        help='test subspace basis rows, e.g. "1,0;0,1" (weak/integral only)',
    )
    add_denominator(p)

    p = command("fundamental", "edge and lattice consequences of class negativity")
    add_type(p)
    add_parameter(p)
    p.add_argument(
        "--mode", required=True, choices=("strict", "weak", "integral")
    )
    p.add_argument(
        "--subspace",
        default=None,
        help='test subspace basis rows (weak/integral only)',
    )
    add_denominator(p)

    p = command("exponent", "certificate for a leading-exponent expansion")
    p.add_argument(
        "--spherical",
        required=True,
        help='independent vectors as matrix rows, e.g. "1,0;0,1" (may be empty)',
    )
    p.add_argument("--mu", required=True, help="exponent vector")
    p.add_argument("--rhoq", required=True, help="shift vector")
    p.add_argument("--nu", required=True, help="twist vector (echoed)")
    p.add_argument(
        "--n", type=int, default=1, help="integrality denominator N (default 1)"
    )

    p = command("rank-one-bound", "denominator bound for rank-one factors")
    add_type(p, required=False)

    p = command("snf", "Smith normal form of an integer matrix")
    p.add_argument(
        "--matrix", required=True, help='integer matrix literal "a,b;c,d"'
    )

    command("verify", "run the full property suite")

    return parser


#: flags whose values may start with "-" (negative coordinates); they are
#: joined to "--flag=value" form so the parser never mistakes them for options
_VALUE_FLAGS = frozenset(
    ("--re", "--im", "--mu", "--rhoq", "--nu", "--subspace", "--spherical", "--matrix")
)


def _join_value_flags(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_value_flags(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # argparse drops a value that is exactly "--" and stores an empty list
    bare = next((name for name, value in vars(args).items() if value == []), None)
    if bare is not None:
        print(f"error: --{bare.replace('_', '-')} needs a value other than '--'", file=sys.stderr)
        return 2
    try:
        doc, code = _COMMANDS[args.command](args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
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
