from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from rootneg import linalg
from rootneg.rootsys import build_root_system


def test_rref_canonical_and_pivots():
    rows = linalg.mat([[2, 4], [1, 2], [0, 1]])
    reduced, pivots = linalg.rref(rows)
    assert reduced == linalg.mat([[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_rref_drops_zero_rows():
    rows = linalg.mat([[1, 2], [2, 4]])
    reduced, pivots = linalg.rref(rows)
    assert reduced == linalg.mat([[1, 2]])
    assert pivots == (0,)


def test_rank_and_span():
    rows = linalg.mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert linalg.rank(rows) == 2
    basis, _ = linalg.rref(rows)
    assert len(basis) == 2
    assert linalg.rank(basis + (linalg.vec([2, 3, 5]),)) == 2
    assert linalg.rank(basis + (linalg.vec([0, 0, 1]),)) == 3
    echelon = linalg.IntEchelon([[1, 0, 1], [0, 1, 1]])
    assert echelon.contains([2, 3, 5])
    assert not echelon.contains([0, 0, 1])


def test_solve_exact_and_unsolvable():
    a = linalg.mat([[1, 1], [1, -1]])
    x = linalg.solve(a, linalg.vec([3, 1]))
    assert x == (Q(2), Q(1))
    assert linalg.solve(linalg.mat([[1, 1], [2, 2]]), linalg.vec([0, 1])) is None


def test_solve_underdetermined_zeroes_free_variables():
    a = linalg.mat([[1, 1, 1]])
    x = linalg.solve(a, linalg.vec([5]))
    assert x is not None
    assert linalg.mat_vec(a, x) == (Q(5),)
    assert x.count(Q(0)) == 2


def test_nullspace_dimensions():
    rows = linalg.mat([[1, 1, 0], [0, 0, 1]])
    null = linalg.nullspace(rows)
    assert len(null) == 1
    for v in null:
        assert linalg.mat_vec(rows, v) == (Q(0), Q(0))
    assert len(linalg.nullspace((), ncols=3)) == 3


def test_inverse_and_det():
    a = linalg.mat([[2, 1], [1, 1]])
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    assert linalg.det(a) == Q(1)
    assert linalg.det(linalg.mat([[2, 4], [1, 2]])) == Q(0)


def test_solve_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = linalg.mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        x = linalg.vec([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
        b = linalg.mat_vec(a, x)
        sol = linalg.solve(a, b)
        assert sol is not None
        assert linalg.mat_vec(a, sol) == b


def test_inverse_round_trip_random():
    rng = random.Random(11)
    found = 0
    while found < 50:
        n = rng.randint(1, 4)
        a = linalg.mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if linalg.det(a) == 0:
            continue
        found += 1
        assert linalg.mat_mul(linalg.inverse(a), a) == linalg.identity(n)


def test_nullspace_orthogonal_to_rows_random():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = linalg.mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        null = linalg.nullspace(rows)
        assert len(null) == n - linalg.rank(rows)
        for v in null:
            assert all(x == 0 for x in linalg.mat_vec(rows, v))


# ---------------------------------------------------------------------------
# Oracle: Fraction Gauss-Jordan elimination, the rational kernel that the
# integer echelon replaced, and the routines it backed.

def fraction_rref(rows):
    """Reduced row echelon form (zero rows dropped) and the pivot columns."""
    work = [list(linalg.vec(r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Q(1) / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def fraction_det(m):
    n = len(m)
    work = [list(linalg.vec(row)) for row in m]
    result = Q(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        inv = Q(1) / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def _fraction_solve(a, b):
    ncols = len(a[0]) if a else 0
    reduced, pivots = fraction_rref([list(row) + [val] for row, val in zip(a, b)])
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def _fraction_nullspace(reduced, pivots, ncols):
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def _fraction_inverse(m):
    n = len(m)
    reduced, pivots = fraction_rref(
        [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    )
    if pivots != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def _inverse_or_none(m):
    try:
        return linalg.inverse(m)
    except ValueError as exc:
        assert "singular" in str(exc)
        return None


def _agrees_with_oracle(rows, ncols, b):
    reduced, pivots = fraction_rref(rows)
    assert linalg.rref(rows) == (reduced, pivots)
    assert linalg.rank(rows) == len(reduced)
    assert linalg.nullspace(rows, ncols) == _fraction_nullspace(reduced, pivots, ncols)
    assert linalg.solve(rows, b) == _fraction_solve(rows, b)
    if len(rows) == ncols:
        assert linalg.det(rows) == fraction_det(rows)
        assert _inverse_or_none(rows) == _fraction_inverse(rows)


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
        rank = len(fraction_rref(rows)[0])
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
    cartan = [list(row) for row in build_root_system(name).cartan]
    n = len(cartan)
    _agrees_with_oracle(cartan, n, [1] * n)
    _agrees_with_oracle([list(col) for col in zip(*cartan)], n, list(range(n)))
    assert linalg.det(cartan) > 0
