from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest
from fraction_oracle import (
    fraction_det,
    fraction_inverse,
    fraction_nullspace,
    fraction_rank,
    fraction_rref,
    fraction_solve,
    mat_mul,
    mat_vec,
)

from rootneg import linalg
from rootneg.rootsys import build_root_system


def _rref(rows):
    """The back-substituted echelon of integer rows, each row divided by its
    pivot entry, and the pivot columns."""
    reduced = linalg.IntEchelon(rows).back_substituted()
    return (tuple(tuple(Q(x, row[p]) for x in row) for p, row in reduced),
            tuple(p for p, _ in reduced))


def _solve(a, b):
    """A x = b read off the kernel of [A | -b], each row scaled to integers:
    when the last column is free, its kernel vector is (x, 1) with every
    other free variable 0; otherwise there is no solution."""
    rows = [linalg.scaled_to_int(list(row) + [-Q(val)]) for row, val in zip(a, b)]
    ncols = len(a[0]) if a else 0
    return next((v[:-1] for v in linalg.kernel(rows, ncols + 1) if v[-1]), None)


def _scaled_inverse(m):
    """(d, d m^-1) for the least d that makes d m^-1 integral, from the
    oracle's inverse; None if m is singular."""
    inv = fraction_inverse(m)
    if inv is None:
        return None
    d = math.lcm(*(x.denominator for row in inv for x in row))
    return d, tuple(tuple(int(d * x) for x in row) for row in inv)


def test_rref_canonical_and_pivots():
    rows = [[2, 4], [1, 2], [0, 1]]
    assert linalg.IntEchelon(rows).back_substituted() == [(0, [1, 0]), (1, [0, 1])]
    assert _rref(rows) == fraction_rref(rows) == (((1, 0), (0, 1)), (0, 1))


def test_rref_drops_zero_rows():
    rows = [[1, 2], [2, 4]]
    assert linalg.IntEchelon(rows).back_substituted() == [(0, [1, 2])]
    assert _rref(rows) == fraction_rref(rows) == (((1, 2),), (0,))


def test_rank_and_span():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    assert linalg.int_rank(rows) == 2
    basis = [row for _, row in linalg.IntEchelon(rows).back_substituted()]
    assert len(basis) == 2
    assert linalg.int_rank(basis + [[2, 3, 5]]) == 2
    assert linalg.int_rank(basis + [[0, 0, 1]]) == 3
    echelon = linalg.IntEchelon([[1, 0, 1], [0, 1, 1]])
    assert echelon.contains([2, 3, 5])
    assert not echelon.contains([0, 0, 1])


def test_solve_exact_and_unsolvable():
    x = _solve([[1, 1], [1, -1]], [3, 1])
    assert x == (Q(2), Q(1))
    assert _solve([[1, 1], [2, 2]], [0, 1]) is None


def test_solve_underdetermined_zeroes_free_variables():
    a = [[1, 1, 1]]
    x = _solve(a, [5])
    assert x is not None
    assert mat_vec(a, x) == (Q(5),)
    assert x.count(Q(0)) == 2


def test_nullspace_dimensions():
    rows = [[1, 1, 0], [0, 0, 1]]
    null = linalg.kernel(rows, 3)
    assert len(null) == 1
    for v in null:
        assert mat_vec(rows, v) == (Q(0), Q(0))
    assert len(linalg.kernel((), 3)) == 3


def test_inverse_and_det():
    a = [[2, 1], [1, 1]]
    d, inv = linalg.inverse(a)
    assert (d, inv) == (1, ((1, -1), (-1, 2)))
    assert mat_mul(a, inv) == ((1, 0), (0, 1))
    assert linalg.inverse([[2, 0], [0, -3]]) == (6, ((3, 0), (0, -2)))
    assert linalg.det(a) == 1 and isinstance(linalg.det(a), int)
    assert linalg.det([[2, 4], [1, 2]]) == 0
    assert linalg.det([[0, 2], [3, 0]]) == -6
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[2, 4], [1, 2]])


def test_solve_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        b = mat_vec(a, x)
        sol = _solve(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b


def test_inverse_round_trip_random():
    rng = random.Random(11)
    found = 0
    while found < 50:
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if linalg.det(a) == 0:
            continue
        found += 1
        d, inv = linalg.inverse(a)
        assert d > 0
        assert mat_mul(inv, a) == tuple(tuple(d * int(i == j) for j in range(n)) for i in range(n))


def test_nullspace_orthogonal_to_rows_random():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        null = linalg.kernel(rows, n)
        assert len(null) == n - linalg.int_rank(rows)
        for v in null:
            assert all(x == 0 for x in mat_vec(rows, v))


def _inverse_or_none(m):
    try:
        return linalg.inverse(m)
    except ValueError as exc:
        assert "singular" in str(exc)
        return None


def _agrees_with_oracle(rows, ncols, b):
    """The integer routines on rows, each scaled to integers, against the
    Fraction oracle on the rows as given."""
    int_rows = [linalg.scaled_to_int(r) for r in rows]
    reduced, pivots = fraction_rref(rows)
    assert _rref(int_rows) == (reduced, pivots)
    assert linalg.int_rank(int_rows) == len(reduced)
    assert linalg.kernel(int_rows, ncols) == fraction_nullspace(rows, ncols)
    assert _solve(rows, b) == fraction_solve(rows, b)
    if len(rows) == ncols:
        assert linalg.det(int_rows) == fraction_det(int_rows)
        assert _inverse_or_none(int_rows) == _scaled_inverse(int_rows)


def _random_system(rng):
    """A rational system with empty, zero-row, rank-deficient and singular
    cases mixed in."""
    ncols = rng.randint(1, 4)
    nrows = rng.choice([0, ncols, ncols, rng.randint(1, 5)])
    values = (0, 0, 0, 1, -1, 2, -3, Q(1, 2), Q(-2, 3), Q(5, 4), Q(7, 6))
    rows = [[Q(rng.choice(values)) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])] if i != j else [Q(0)] * ncols
    if rows and rng.random() < 0.15:
        rows[rng.randrange(nrows)] = [Q(0)] * ncols
    if rng.random() < 0.5 or not rows:
        b = [Q(rng.choice(values)) for _ in rows]
    else:
        # a consistent right-hand side
        x = [Q(rng.choice(values)) for _ in range(ncols)]
        b = [sum((a * y for a, y in zip(row, x)), Q(0)) for row in rows]
    return rows, ncols, b


def test_kernel_matches_fraction_oracle_on_random_systems():
    rng = random.Random("fraction-free kernel")
    kinds = {"empty": 0, "zero_row": 0, "deficient": 0, "singular": 0, "square": 0}
    for _ in range(5000):
        rows, ncols, b = _random_system(rng)
        _agrees_with_oracle(rows, ncols, b)
        rank = fraction_rank(rows)
        kinds["empty"] += not rows
        kinds["zero_row"] += any(not any(r) for r in rows)
        kinds["deficient"] += rank < min(len(rows), ncols)
        kinds["square"] += len(rows) == ncols
        kinds["singular"] += len(rows) == ncols and rank < ncols
    assert min(kinds.values()) >= 200, kinds


CARTAN_TYPES = (
    [f"{fam}{n}" for fam in ("A", "B", "C", "BC") for n in range(1, 9)]
    + [f"D{n}" for n in range(2, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", CARTAN_TYPES)
def test_kernel_matches_fraction_oracle_on_cartan_matrices(name):
    rs = build_root_system(name)
    cartan = [list(row) for row in rs.cartan]
    n = len(cartan)
    _agrees_with_oracle(cartan, n, [1] * n)
    _agrees_with_oracle([list(col) for col in zip(*cartan)], n, list(range(n)))
    assert linalg.det(cartan) > 0
    assert (rs._cartan_inv_den, rs._cartan_inv) == _scaled_inverse(cartan)
