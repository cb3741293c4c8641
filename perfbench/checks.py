"""Output checks for benchmark ops.

Each check recomputes a property of one command's JSON answer by a route
that does not go through the code that produced it: closed formulas, a
pinned table, exact replay of a certificate, or a second construction.  A
check returns None when the answer passes and a message when it does not.
Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction as Q
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# Closed formulas per simple type; a product type combines its components.


def components(type_name: str) -> list[tuple[str, int]]:
    return [(fam, int(n)) for fam, n in re.findall(r"([A-Z]+)(\d+)", type_name)]


def _positive_roots(fam: str, n: int) -> int:
    return {
        "A": n * (n + 1) // 2, "B": n * n, "C": n * n, "BC": n * n + n,
        "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6,
    }[fam]


def _weyl_order(fam: str, n: int) -> int:
    if fam == "A":
        return math.factorial(n + 1)
    if fam in ("B", "C", "BC"):
        return 2**n * math.factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(fam, n)]


def _cartan_det(fam: str, n: int) -> int:
    return {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n, "F": 1, "G": 1}[fam]


#: n_sigma per simple type, from the paper's census; a product takes the lcm
N_SIGMA = {"A": 1, "B": 2, "C": 2, "D": 2, "G2": 6, "F4": 12, "E6": 6}


def weyl_order(type_name: str) -> int:
    return math.prod(_weyl_order(f, n) for f, n in components(type_name))


def pinned_n_sigma(type_name: str) -> Optional[int]:
    values = []
    for fam, n in components(type_name):
        value = N_SIGMA.get(f"{fam}{n}", N_SIGMA.get(fam))
        if value is None:
            return None
        values.append(value)
    return math.lcm(*values)


# ---------------------------------------------------------------------------
# Exact linear algebra, kept apart from rootneg.linalg on purpose.


def _rank(rows: Sequence[Sequence]) -> int:
    work = [[Q(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col] / work[rank][col]
            if f:
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def _det(m: Sequence[Sequence]) -> Q:
    work = [[Q(x) for x in row] for row in m]
    n = len(work)
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            if f:
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def _solve(a: Sequence[Sequence], b: Sequence) -> list[Q]:
    """The unique solution x of a x = b for square invertible a."""
    n = len(a)
    work = [[Q(x) for x in row] + [Q(y)] for row, y in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n] for row in work]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _q_list(text: str) -> list[Q]:
    return [Q(x) for x in text.split(",")] if text.strip() else []


def _q_matrix(text: str) -> list[list[Q]]:
    return [_q_list(row) for row in text.split(";")] if text.strip() else []


def _flag(argv: Sequence[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# Root data used by the parameter checks.


class _Roots:
    """Gram matrix, Cartan matrix and positive roots of one type."""

    def __init__(self, rs):
        self.rank = rs.rank
        self.gram = [[Q(x) for x in row] for row in rs.gram]
        self.cartan = [list(row) for row in rs.cartan]
        self.positive = [tuple(b) for b in rs.positive_roots]

    def pairing(self, lam_re, lam_im, beta) -> tuple[Q, Q]:
        """lam on the coroot of beta: sum_j b_j (a_j,a_j)/(beta,beta) lam_j."""
        length = sum(
            beta[i] * self.gram[i][j] * beta[j]
            for i in range(self.rank) for j in range(self.rank)
        )
        coeffs = [b * self.gram[j][j] / length for j, b in enumerate(beta)]
        return (sum(c * x for c, x in zip(coeffs, lam_re)),
                sum(c * x for c, x in zip(coeffs, lam_im)))

    def integral_positive(self, lam_re, lam_im, denominator: int) -> list[tuple]:
        out = []
        for beta in self.positive:
            re_v, im_v = self.pairing(lam_re, lam_im, beta)
            if im_v == 0 and (denominator * re_v).denominator == 1:
                out.append(beta)
        return out


# ---------------------------------------------------------------------------


class Checker:
    """Checks every op's answer and that repeated ops answer identically.

    ``build_root_system`` supplies the root data (Gram and Cartan matrices,
    positive roots) for the parameter checks; ``fm_feasible`` is the
    Fourier-Motzkin oracle used to cross-check negativity verdicts.
    """

    def __init__(self, build_root_system, fm_feasible):
        self._build_rs = build_root_system
        self._fm = fm_feasible
        self._roots: dict[str, _Roots] = {}
        self._digests: dict[tuple, str] = {}
        self._listings: dict[tuple[str, str], list] = {}

    def _root_data(self, type_name: str) -> _Roots:
        if type_name not in self._roots:
            self._roots[type_name] = _Roots(self._build_rs(type_name))
        return self._roots[type_name]

    def check(self, argv: Sequence[str], code: int, stdout: str) -> Optional[str]:
        """None if the op answered correctly, else what went wrong."""
        if code != 0:
            return f"exit code {code}"
        key = tuple(argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            return "a repeat of this op printed different bytes"
        try:
            doc = json.loads(stdout)
            return getattr(self, "_" + argv[0].replace("-", "_"))(argv, doc)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            return f"malformed answer: {exc!r}"

    def _parameter(self, argv, doc):
        rd = self._root_data(doc["type"])
        lam_re, lam_im = _q_list(_flag(argv, "--re")), _q_list(_flag(argv, "--im"))
        if [Q(x) for x in doc["re"]] != lam_re or [Q(x) for x in doc["im"]] != lam_im:
            return rd, lam_re, lam_im, "answer echoes a different parameter"
        return rd, lam_re, lam_im, None

    def _class(self, argv, doc):
        if doc["chamber_count"] != doc["gallery_size"]:
            return (f"chamber cone has {doc['chamber_count']} chambers, "
                    f"gallery has {doc['gallery_size']}")
        if not any(m["word"] == [] and m["re"] == doc["re"] and m["im"] == doc["im"]
                   for m in doc["members"]):
            return "class does not contain its own parameter at the empty word"
        if doc["edge_dim"] != len(doc["edge_basis"]):
            return "edge_dim differs from the edge basis size"
        return None

    def _gallery(self, argv, doc):
        chambers = [tuple(w) for w in doc["chambers"]]
        if doc["size"] != len(chambers) or len(set(chambers)) != len(chambers):
            return "gallery size differs from its distinct chambers"
        if () not in chambers:
            return "gallery lacks the fundamental chamber"
        return None

    def _edge(self, argv, doc):
        rd, lam_re, lam_im, problem = self._parameter(argv, doc)
        if problem:
            return problem
        sigma = rd.integral_positive(lam_re, lam_im, doc["denominator"])
        basis = [[Q(x) for x in v] for v in doc["basis"]]
        if doc["dim"] != len(basis) or doc["dim"] != rd.rank - _rank(sigma):
            return f"edge dimension {doc['dim']} is not rank minus rank of the integral roots"
        for v in basis:
            if any(sum(b * x for b, x in zip(beta, v)) != 0 for beta in sigma):
                return "an edge vector is not killed by every integral root"
        return None

    def _negativity(self, argv, doc):
        rd, lam_re, lam_im, problem = self._parameter(argv, doc)
        if problem:
            return problem
        mode = doc["mode"]
        sigma = rd.integral_positive(lam_re, lam_im, doc["denominator"])
        basis = [tuple(b) for b in doc["span_basis"]]
        if not set(basis) <= set(sigma) or _rank(basis) != len(basis) or len(basis) != _rank(sigma):
            return "span basis is not a maximal independent set of integral roots"
        if doc["class_ok"] and not doc["feasible"]:
            return "class passes although its own parameter fails"
        re_c = _solve(rd.cartan, lam_re)
        if doc["feasible"]:
            y = [Q(x) for x in doc["witness"]]
            values = [re_c[i] - sum(y[k] * basis[k][i] for k in range(len(basis)))
                      for i in range(rd.rank)]
            if any(v > 0 for v in values) or (mode == "strict" and any(v == 0 for v in values)):
                return "witness violates a generator inequality"
            if [i for i, v in enumerate(values) if v == 0] != doc["tight_generators"]:
                return "tight generators do not match the witness"
        if mode == "integral" and any(lam_im):
            return "integral verdict feasible with a non-real parameter" if doc["feasible"] else None
        if rd.rank <= 3:
            rel = "<" if mode == "strict" else "<="
            rows = [([-Q(b[i]) for b in basis], rel, -re_c[i]) for i in range(rd.rank)]
            if self._fm(rows, len(basis)) != doc["feasible"]:
                return "verdict disagrees with Fourier-Motzkin elimination"
        return None

    def _fundamental(self, argv, doc):
        if doc["edge_dim"] != len(doc["edge_basis"]) or int(doc["n_lattice"]) < 1:
            return "malformed edge or lattice index"
        if doc["vacuous"]:
            return None
        if doc["mode"] == "strict" and not (doc["edge_trivial"] and doc["edge_dim"] == 0):
            return "strictly negative class without trivial edge"
        if doc["mode"] == "integral" and any(Q(x) for x in doc["im"]):
            return "integrally negative class with a non-real parameter"
        return None

    def _subsystems(self, argv, doc):
        pinned = pinned_n_sigma(doc["type"])
        if doc["count"] != len(doc["subsystems"]) or any(
            s["size"] != len(s["roots"]) for s in doc["subsystems"]
        ):
            return "class count or class sizes disagree with the listed roots"
        if math.lcm(*(int(s["n"]) for s in doc["subsystems"])) != pinned:
            return f"lcm of class constants is not the pinned n_sigma {pinned}"
        # methods may pick different (conjugate) representatives of a class,
        # so they are compared on the class invariants only
        listing = sorted((s["label"], s["n"], s["divisors"], s["size"]) for s in doc["subsystems"])
        self._listings[(doc["type"], doc["method"])] = listing
        other = self._listings.get(
            (doc["type"], "bds" if doc["method"] == "brute_force" else "brute_force")
        )
        if other is not None and other != listing:
            return "bds and brute force list different classes"
        return None

    def _nsigma(self, argv, doc):
        pinned = pinned_n_sigma(doc["type"])
        if int(doc["n_sigma"]) != pinned:
            return f"n_sigma {doc['n_sigma']} is not the pinned {pinned}"
        if math.lcm(*(int(s["n"]) for s in doc["subsystems"])) != pinned:
            return "n_sigma is not the lcm of its class constants"
        return None

    def _build(self, argv, doc):
        comps = components(_flag(argv, "--type"))
        if doc["rank"] != sum(n for _, n in comps):
            return "wrong rank"
        count = sum(_positive_roots(f, n) for f, n in comps)
        if doc["positive_root_count"] != count or len(doc["positive_roots"]) != count:
            return f"positive root count is not {count}"
        if int(doc["weyl_order"]) != weyl_order(_flag(argv, "--type")):
            return "Weyl order differs from the closed formula"
        return None

    def _rank_one_bound(self, argv, doc):
        d = math.prod(_cartan_det(f, n) for f, n in components(_flag(argv, "--type", "")))
        if int(doc["bound"]) != 18 * d * d:
            return f"bound is not 18 d^2 with d = {d}"
        return None

    def _snf(self, argv, doc):
        a = [[int(x) for x in row.split(",")] for row in _flag(argv, "--matrix").split(";")]
        u, d, v = doc["u"], doc["d"], doc["v"]
        if _mat_mul(_mat_mul(u, a), v) != d:
            return "U A V differs from D"
        if abs(_det(u)) != 1 or abs(_det(v)) != 1:
            return "a transform is not unimodular"
        diagonal = [d[i][i] for i in range(min(len(d), len(d[0])))]
        if any(d[i][j] for i in range(len(d)) for j in range(len(d[0])) if i != j):
            return "D is not diagonal"
        divisors = [int(x) for x in doc["divisors"]]
        if divisors != [x for x in diagonal if x] or any(x <= 0 for x in divisors):
            return "divisors differ from the positive diagonal of D"
        if any(b % a for a, b in zip(divisors, divisors[1:])):
            return "divisors do not form a divisibility chain"
        return None

    def _exponent(self, argv, doc):
        rows = _q_matrix(_flag(argv, "--spherical"))
        target = [m - r for m, r in zip(_q_list(_flag(argv, "--mu")), _q_list(_flag(argv, "--rhoq")))]
        n = int(_flag(argv, "--n", "1"))
        if not doc["solvable"]:
            return "square independent spherical rows must be solvable"
        c = [Q(x) for x in doc["coefficients"]]
        if [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(len(target))] != target:
            return "coefficients do not reproduce mu - rho_q"
        if doc["ds1_ok"] != all(x > 0 for x in c):
            return "ds1_ok disagrees with the coefficient signs"
        if doc["lattice_ok"] != all(x > 0 and (n * x).denominator == 1 for x in c):
            return "lattice_ok disagrees with the coefficients"
        return None
