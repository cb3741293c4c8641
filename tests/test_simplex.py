from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from rootneg.simplex import LPSolution, feasible_mixed, maximize
from rootneg.verification import fourier_motzkin_feasible


def reference_maximize(c, a_ub, b_ub) -> LPSolution:
    """The two-phase Bland simplex on a Fraction tableau, kept as an oracle.

    Same construction as rootneg.simplex.maximize (unit slacks, artificials
    for negative right-hand sides, Bland's rule in both phases), but every
    entry is a Fraction and each pivot divides the pivot row through.
    """
    m, n = len(a_ub), len(c)
    rows, rhs, basis, art_cols = [], [], [], []
    total = n + m
    for i in range(m):
        coeffs = [Q(x) for x in a_ub[i]] + [Q(0)] * m
        coeffs[n + i] = Q(1)
        b_i = Q(b_ub[i])
        if b_i < 0:
            coeffs = [-x for x in coeffs]
            b_i = -b_i
            art = total
            total += 1
            for r in rows:
                r.append(Q(0))
            coeffs.append(Q(1))
            art_cols.append(art)
            basis.append(art)
        else:
            coeffs += [Q(0)] * len(art_cols)
            basis.append(n + i)
        rows.append(coeffs)
        rhs.append(b_i)
    for r in rows:
        r.extend([Q(0)] * (total - len(r)))
    banned = set()

    def pivot(r, col):
        inv = Q(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] *= inv
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                rhs[i] -= f * rhs[r]
        basis[r] = col

    def run(cost):
        while True:
            dual = [cost[basis[i]] for i in range(m)]
            entering = next(
                (j for j in range(total) if j not in banned
                 and cost[j] - sum(dual[i] * rows[i][j] for i in range(m)) > 0),
                None,
            )
            if entering is None:
                return "optimal"
            leaving, best = None, None
            for i in range(m):
                if rows[i][entering] > 0:
                    ratio = rhs[i] / rows[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best, leaving = ratio, i
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    if art_cols:
        cost1 = [Q(0)] * total
        for a in art_cols:
            cost1[a] = Q(-1)
        assert run(cost1) == "optimal"
        if sum(rhs[i] for i in range(m) if basis[i] in art_cols) > 0:
            return LPSolution("infeasible", None, None)
        for i in range(m):
            if basis[i] in art_cols:
                entering = next((j for j in range(n + m) if rows[i][j] != 0), None)
                if entering is not None:
                    pivot(i, entering)
        banned.update(art_cols)
    if run([Q(x) for x in c] + [Q(0)] * (total - n)) == "unbounded":
        return LPSolution("unbounded", None, None)
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
    return LPSolution("optimal", tuple(x), sum(Q(ci) * xi for ci, xi in zip(c, x)))


def _random_lp(rng: random.Random):
    """A small LP with rational entries, negative right-hand sides and ties.

    Entries come from a short list of values so that ratio ties and
    degenerate vertices are common; about a third of the right-hand sides
    are negative, which calls for phase one.
    """
    n = rng.randint(1, 5)
    m = rng.randint(0, 6)
    values = [Q(0), Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-3, 2), Q(2, 3), Q(5, 3)]

    def entry():
        return rng.choice(values) if rng.random() < 0.8 else Q(rng.randint(-6, 6), rng.randint(1, 5))

    c = [entry() for _ in range(n)]
    a_ub = [[entry() for _ in range(n)] for _ in range(m)]
    b_ub = [
        -abs(entry()) if rng.random() < 0.35 else (Q(0) if rng.random() < 0.3 else abs(entry()))
        for _ in range(m)
    ]
    return c, a_ub, b_ub


def test_maximize_matches_fraction_tableau():
    rng = random.Random(20261018)
    statuses = set()
    for _ in range(2000):
        c, a_ub, b_ub = _random_lp(rng)
        got = maximize(c, a_ub, b_ub)
        assert got == reference_maximize(c, a_ub, b_ub), (c, a_ub, b_ub)
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_maximize_accepts_ints_and_fractions_alike():
    ints = maximize([1, 1], [[1, 2], [3, 1]], [4, 6])
    fracs = maximize([Q(1), Q(1)], [[Q(1), Q(2)], [Q(3), Q(1)]], [Q(4), Q(6)])
    assert ints == fracs
    # scaling one side's denominators must not move the optimum
    halves = maximize([1, 1], [[Q(1, 2), 1], [Q(3, 2), Q(1, 2)]], [2, 3])
    assert halves == ints


def test_maximize_bounded_optimum():
    # max x + y with x + 2y <= 4, 3x + y <= 6: optimum at (8/5, 6/5)
    sol = maximize([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert sol.status == "optimal"
    assert sol.objective == Q(14, 5)
    assert sol.x == (Q(8, 5), Q(6, 5))


def test_maximize_degenerate_and_negative_rhs():
    # needs a phase-one artificial because of the negative right-hand side
    sol = maximize([0, -1], [[-1, -1], [1, 0]], [-2, 5])
    assert sol.status == "optimal"
    assert sol.x is not None
    x, y = sol.x
    assert x + y >= 2 and x <= 5 and sol.objective == -y


def test_maximize_unbounded():
    sol = maximize([1], [[-1]], [0])
    assert sol.status == "unbounded"
    assert sol.x is None


def test_maximize_infeasible():
    # x <= -1 contradicts x >= 0
    sol = maximize([1], [[1]], [-1])
    assert sol.status == "infeasible"


def test_maximize_zero_constraints():
    sol = maximize([-1, -2], [], [])
    assert sol.status == "optimal"
    assert sol.objective == 0
    assert sol.x == (Q(0), Q(0))


def test_maximize_validates_shapes():
    with pytest.raises(ValueError):
        maximize([1, 2], [[1]], [0])
    with pytest.raises(ValueError):
        maximize([1], [[1]], [0, 0])


def test_feasible_mixed_strict_versus_weak():
    # y < 0 together with -y < 1 is feasible; y < 0 with -y < 0 is not
    ok, y = feasible_mixed([((1,), "<", 0), ((-1,), "<", 1)], 1)
    assert ok and y is not None and -1 < y[0] < 0
    ok, y = feasible_mixed([((1,), "<", 0), ((-1,), "<", 0)], 1)
    assert not ok and y is None
    # the same pair weakly is feasible exactly at zero
    ok, y = feasible_mixed([((1,), "<=", 0), ((-1,), "<=", 0)], 1)
    assert ok and y == (Q(0),)


def test_feasible_mixed_boundary_point_rejected_for_strict():
    # x <= 1 and -x <= -1 pin x = 1, so a strict third row through 1 fails
    rows = [((1,), "<=", 1), ((-1,), "<=", -1), ((1,), "<", 1)]
    ok, _ = feasible_mixed(rows, 1)
    assert not ok


def test_feasible_mixed_free_variables():
    # witnesses may be negative: y < -3 alone must be satisfiable
    ok, y = feasible_mixed([((1,), "<", -3)], 1)
    assert ok and y is not None and y[0] < -3


def test_feasible_mixed_validates_rows():
    with pytest.raises(ValueError):
        feasible_mixed([((1, 2), "<", 0)], 1)
    with pytest.raises(ValueError):
        feasible_mixed([((1,), "<<", 0)], 1)


def test_feasible_mixed_witness_satisfies_rows():
    rng = random.Random(7)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = tuple(Q(rng.randint(-3, 3)) for _ in range(nvars))
            rel = "<" if rng.random() < 0.5 else "<="
            rows.append((coeffs, rel, Q(rng.randint(-4, 4), rng.randint(1, 2))))
        ok, y = feasible_mixed(rows, nvars)
        if not ok:
            continue
        assert y is not None
        for coeffs, rel, bound in rows:
            value = sum(c * v for c, v in zip(coeffs, y))
            assert value < bound if rel == "<" else value <= bound


def test_feasible_mixed_agrees_with_elimination():
    rng = random.Random(11)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = tuple(Q(rng.randint(-2, 2)) for _ in range(nvars))
            rel = "<" if rng.random() < 0.5 else "<="
            rows.append((coeffs, rel, Q(rng.randint(-3, 3))))
        ok, _ = feasible_mixed(rows, nvars)
        assert ok == fourier_motzkin_feasible(rows, nvars)
