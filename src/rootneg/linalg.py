"""Exact linear algebra over the rationals.

There is one elimination, :class:`IntEchelon`: fraction-free row reduction
of integer vectors (Bareiss 1968, *Math. Comp.* 22), each kept row divided by
the gcd of its entries.  The rational routines (rref, solve, nullspace,
inverse, rank, det) scale each row to integers first, which leaves its span
unchanged, and divide only when they read off the answer.  The small helpers
(vec, dot, mat_vec, ...) work on tuples of :class:`fractions.Fraction` (ints
are promoted).  Nothing here ever touches floating point; every answer is
exact.
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


def scaled_to_int(xs: Iterable) -> list[int]:
    """The rational vector xs times the lcm of its entries' denominators."""
    qs = [x if isinstance(x, (int, Q)) else Q(x) for x in xs]
    scale = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (scale // q.denominator) for q in qs]


def _clear(v: list[int], rows: Iterable[tuple[int, list[int]]]) -> list[int]:
    """v times a nonzero integer minus a combination of the rows, zero at
    every row's pivot; each row must be zero at the pivots of those before it."""
    for p, row in rows:
        f = v[p]
        if f:
            v = [x * row[p] - f * y for x, y in zip(v, row)]
    return v


class IntEchelon:
    """A row echelon of integer vectors, grown one vector at a time.

    Each kept row is stored with its pivot column and divided by the gcd of
    its entries; a vector is reduced by fraction-free steps, so it reduces to
    zero exactly when it lies in the rational span of the kept rows.  A kept
    row is zero at the pivots of the rows kept before it.
    """

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        self.rows: list[tuple[int, list[int]]] = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def contains(self, v: Iterable[int]) -> bool:
        return not any(_clear(list(v), self.rows))

    def add(self, v: Iterable[int]) -> bool:
        """Keep v's reduction as a new row unless it is zero; whether it was kept."""
        v = _clear(list(v), self.rows)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        g = math.gcd(*v)
        self.rows.append((p, [x // g for x in v]))
        return True

    def back_substituted(self) -> list[tuple[int, list[int]]]:
        """The kept rows, sorted by pivot and each cleared at every other
        row's pivot: row k is a nonzero multiple of row k of the reduced row
        echelon form.  Rows are cleared from the last kept back to the first,
        each against the finished rows after it."""
        done: list[tuple[int, list[int]]] = []
        for p, row in reversed(self.rows):
            row = _clear(row, done)
            g = math.gcd(*row)
            done.append((p, [x // g for x in row]))
        return sorted(done)


def int_rank(rows: Iterable[Iterable[int]]) -> int:
    return len(IntEchelon(rows))


def rank(rows: Iterable[Iterable]) -> int:
    return int_rank(scaled_to_int(r) for r in rows)


def rref(rows: Iterable[Iterable]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns.

    Zero rows are dropped, so the result's rows are a canonical basis of the
    row space.  Each row is divided by its pivot entry only here, after the
    integer elimination.
    """
    reduced = IntEchelon(scaled_to_int(r) for r in rows).back_substituted()
    return (
        tuple(tuple(Q(x, row[p]) for x in row) for p, row in reduced),
        tuple(p for p, _ in reduced),
    )


def solve(a_rows: Iterable[Iterable], b: Iterable) -> Optional[Vec]:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    When the solution space is positive-dimensional the free variables are set
    to zero, which makes the answer deterministic.
    """
    a = [tuple(row) for row in a_rows]
    rhs = tuple(b)
    if len(a) != len(rhs):
        raise ValueError("dimension mismatch")
    ncols = len(a[0]) if a else 0
    reduced, pivots = rref(row + (val,) for row, val in zip(a, rhs))
    if pivots and pivots[-1] == ncols:
        return None
    x = [Q(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def nullspace(rows: Iterable[Iterable], ncols: Optional[int] = None) -> Mat:
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    a = [tuple(row) for row in rows]
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


def _with_identity(m: Mat) -> list[tuple]:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return [tuple(row) + tuple(int(i == j) for j in range(n)) for i, row in enumerate(m)]


def inverse(m: Mat) -> Mat:
    n = len(m)
    reduced, pivots = rref(_with_identity(m))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def det(m: Mat) -> Q:
    """Determinant, from the integer echelon of the rows of [m | I].

    Kept row k is c_k times row k of [m | I] plus a combination of earlier
    rows, so its identity half reads c_k at column n + k, and its m half is
    zero at the pivots of the rows before it.  det m is then the product of
    the pivot entries, signed by the order of the pivot columns, over the
    product of the c_k; it is 0 when a pivot falls in the identity half.
    """
    n = len(m)
    rows = IntEchelon(scaled_to_int(row) for row in _with_identity(m)).rows
    pivots = [p for p, _ in rows]
    if any(p >= n for p in pivots):
        return Q(0)
    num = den = 1
    for k, (p, row) in enumerate(rows):
        num *= row[p]
        den *= row[n + k]
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return Q(-num if inversions % 2 else num, den)
