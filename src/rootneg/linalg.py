"""Exact linear algebra over the rationals.

All routines work on tuples of :class:`fractions.Fraction` (or ints, which are
promoted), except :class:`IntEchelon`, which keeps integer rows for span and
rank questions about integer vectors.  Nothing here ever touches floating
point; every answer is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Iterable, Optional, Sequence

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(Q(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (Q(0),) * n


def identity(n: int) -> Mat:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def dot(x: Sequence, y: Sequence) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((Q(a) * Q(b) for a, b in zip(x, y)), Q(0))


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def rref(rows: Iterable[Iterable]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns.

    Zero rows are dropped, so the result's rows are a canonical basis of the
    row space.
    """
    work = [list(vec(r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
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


def rank(rows: Iterable[Iterable]) -> int:
    return len(rref(rows)[0])


def span_basis(rows: Iterable[Iterable]) -> Mat:
    """Canonical (RREF) basis of the span of the given vectors."""
    return rref(rows)[0]


def in_span(basis: Mat, x: Vec) -> bool:
    """Whether x lies in the span of the rows of an RREF basis."""
    if not basis:
        return all(a == 0 for a in x)
    combined, _ = rref(list(basis) + [vec(x)])
    return len(combined) == len(basis)


def solve(a_rows: Iterable[Iterable], b: Iterable) -> Optional[Vec]:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    When the solution space is positive-dimensional the free variables are set
    to zero, which makes the answer deterministic.
    """
    a = mat(a_rows)
    rhs = vec(b)
    if len(a) != len(rhs):
        raise ValueError("dimension mismatch")
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [val] for row, val in zip(a, rhs)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Q(0)] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)


class IntEchelon:
    """A row echelon of integer vectors, grown one vector at a time.

    Each kept row is stored with its pivot column and divided by the gcd of
    its entries; a vector is reduced by fraction-free steps, so it reduces to
    zero exactly when it lies in the rational span of the kept rows.
    """

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        self.rows: list[tuple[int, list[int]]] = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: Iterable[int]) -> list[int]:
        v = list(v)
        for p, row in self.rows:
            f = v[p]
            if f:
                v = [x * row[p] - f * y for x, y in zip(v, row)]
        return v

    def contains(self, v: Iterable[int]) -> bool:
        return not any(self.reduce(v))

    def add(self, v: Iterable[int]) -> bool:
        """Keep v's reduction as a new row unless it is zero; whether it was kept."""
        v = self.reduce(v)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        g = math.gcd(*v)
        self.rows.append((p, [x // g for x in v]))
        return True


def int_rank(rows: Iterable[Iterable[int]]) -> int:
    return len(IntEchelon(rows))


def nullspace(rows: Iterable[Iterable], ncols: Optional[int] = None) -> Mat:
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    a = mat(rows)
    if ncols is None:
        if not a:
            raise ValueError("ncols required for an empty system")
        ncols = len(a[0])
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def inverse(m: Mat) -> Mat:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    reduced, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def det(m: Mat) -> Q:
    n = len(m)
    work = [list(vec(row)) for row in m]
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
