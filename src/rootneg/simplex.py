"""Two-phase simplex on an integer tableau.

Solves max c.x subject to A x <= b, x >= 0 for rational data.  Every row of
A and b is multiplied by one common L, the least common multiple of their
denominators, and gets a unit slack (and, where b is negative, a unit
artificial) column.  That rescales the slacks and artificials uniformly and
leaves x unchanged, so every reduced cost keeps its sign and every ratio
test its order: the pivot sequence is the one of the rational tableau.

Pivots are fraction-free (Edmonds; Bareiss 1968).  The tableau T holds
integers over one common denominator D, the absolute value of the basis
determinant; pivoting on p = T[r][c] sets T[i][j] to
(T[i][j] p - T[i][c] T[r][j]) / D, an exact division, and then D to p.
The tableau is negated when p < 0, so D stays positive and every entry has
the sign of the rational entry it stands for.  Ratios are compared by
cross-multiplication, and a basic variable's value is rhs / D.

Bland's rule is used for both entering and leaving choices, so the method
terminates without any cycling safeguards beyond it.  Problem sizes here are
tiny (tens of rows); clarity wins over sparse cleverness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Literal, Optional, Sequence

Status = Literal["optimal", "infeasible", "unbounded"]


@dataclass(frozen=True)
class LPSolution:
    status: Status
    x: Optional[tuple[Q, ...]]
    objective: Optional[Q]


def _rational(x):
    return x if isinstance(x, (int, Q)) else Q(x)


def _integers(xs: list, scale: int) -> list[int]:
    """scale * x for each rational x, where scale clears every denominator."""
    return [x.numerator * (scale // x.denominator) for x in xs]


def maximize(
    c: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence
) -> LPSolution:
    """Maximize c.x over {x >= 0 : a_ub x <= b_ub}."""
    m = len(a_ub)
    n = len(c)
    for row in a_ub:
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
    if len(b_ub) != m:
        raise ValueError("right-hand side length does not match constraints")

    a = [[_rational(x) for x in row] for row in a_ub]
    b = [_rational(x) for x in b_ub]
    scale = math.lcm(*(x.denominator for row in a for x in row), *(x.denominator for x in b))

    # Tableau columns: n structural, m slacks, artificials appended as needed.
    rows: list[list[int]] = []
    rhs: list[int] = []
    basis: list[int] = []
    art_cols: list[int] = []
    total = n + m
    for i, b_i in enumerate(_integers(b, scale)):
        coeffs = _integers(a[i], scale) + [0] * m
        coeffs[n + i] = 1
        if b_i < 0:
            coeffs = [-x for x in coeffs]
            b_i = -b_i
            art = total
            total += 1
            for r in rows:
                r.append(0)
            coeffs.append(1)
            art_cols.append(art)
            basis.append(art)
        else:
            coeffs += [0] * len(art_cols)
            basis.append(n + i)
        rows.append(coeffs)
        rhs.append(b_i)
    for r in rows:
        r.extend([0] * (total - len(r)))

    banned: set[int] = set()
    d = 1  # the common denominator of the tableau

    def run(cost: list[int]) -> Status:
        nonlocal d
        while True:
            # d times each reduced cost, which has the same sign.
            dual = [(rows[i], cost[basis[i]]) for i in range(m) if cost[basis[i]]]
            entering = None
            for j in range(total):
                if j in banned:
                    continue
                if cost[j] * d - sum(y * row[j] for row, y in dual) > 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = None
            for i in range(m):
                a_ie = rows[i][entering]
                if a_ie > 0:
                    if leaving is None:
                        leaving = i
                        continue
                    # rhs[i] / a_ie against rhs[leaving] / a_le by cross-multiplying
                    left = rhs[i] * rows[leaving][entering]
                    right = rhs[leaving] * a_ie
                    if left < right or (left == right and basis[i] < basis[leaving]):
                        leaving = i
            if leaving is None:
                return "unbounded"
            d = _pivot(rows, rhs, basis, leaving, entering, d)

    if art_cols:
        cost1 = [0] * total
        for a_col in art_cols:
            cost1[a_col] = -1
        status = run(cost1)
        if status != "optimal":
            raise AssertionError("phase 1 cannot be unbounded")
        if sum(rhs[i] for i in range(m) if basis[i] in art_cols) > 0:
            return LPSolution("infeasible", None, None)
        # Pivot leftover zero-valued artificials out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                entering = next(
                    (j for j in range(n + m) if rows[i][j] != 0), None
                )
                if entering is not None:
                    d = _pivot(rows, rhs, basis, i, entering, d)
        banned.update(art_cols)

    c_q = [_rational(x) for x in c]
    cost2 = _integers(c_q, math.lcm(*(x.denominator for x in c_q))) + [0] * (total - n)
    status = run(cost2)
    if status == "unbounded":
        return LPSolution("unbounded", None, None)
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Q(rhs[i], d)
    value = sum(ci * xi for ci, xi in zip(c_q, x))
    return LPSolution("optimal", tuple(x), value)


def _pivot(
    rows: list[list[int]], rhs: list[int], basis: list[int], r: int, col: int, d: int
) -> int:
    """One fraction-free pivot on rows[r][col]; returns the new denominator."""
    p = rows[r][col]
    sign = -1 if p < 0 else 1
    row_r, rhs_r = rows[r], rhs[r]
    for i in range(len(rows)):
        if i == r:
            continue
        f = rows[i][col]
        if f:
            rows[i] = [sign * (x * p - f * y) // d for x, y in zip(rows[i], row_r)]
            rhs[i] = sign * (rhs[i] * p - f * rhs_r) // d
        else:
            rows[i] = [sign * x * p // d for x in rows[i]]
            rhs[i] = sign * rhs[i] * p // d
    if sign < 0:
        rows[r] = [-x for x in row_r]
        rhs[r] = -rhs_r
    basis[r] = col
    return sign * p


def feasible_mixed(
    rows: Sequence[tuple[Sequence, str, object]], nvars: int
) -> tuple[bool, Optional[tuple[Q, ...]]]:
    """Feasibility of a mixed strict/weak rational system in free variables.

    Each row is (coefficients, relation, bound) meaning coeffs.y REL bound
    with REL one of "<" or "<=".  Strictness is handled by maximizing a slack
    t capped at 1: the system is feasible over the reals iff the optimum
    exists and is positive (every strict row then holds with margin t).
    Returns (feasible, y) with y a rational witness.
    """
    # Variables: y split into positive/negative parts, then t.
    a_ub: list[list] = []
    b_ub: list = []
    for coeffs, rel, bound in rows:
        if rel not in ("<", "<="):
            raise ValueError(f"unknown relation {rel!r}")
        row = [_rational(x) for x in coeffs]
        if len(row) != nvars:
            raise ValueError("row length does not match variable count")
        a_ub.append(row + [-x for x in row] + [1 if rel == "<" else 0])
        b_ub.append(bound)
    a_ub.append([0] * (2 * nvars) + [1])
    b_ub.append(1)
    objective = [0] * (2 * nvars) + [1]
    sol = maximize(objective, a_ub, b_ub)
    if sol.status == "infeasible":
        return False, None
    if sol.status != "optimal":
        raise AssertionError("slack maximization cannot be unbounded")
    if sol.objective is None or sol.objective <= 0:
        return False, None
    assert sol.x is not None
    y = tuple(sol.x[k] - sol.x[nvars + k] for k in range(nvars))
    return True, y
