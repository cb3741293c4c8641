"""Exact linear algebra on integer rows.

There is one elimination, :class:`IntEchelon`: fraction-free row reduction
of integer vectors (Bareiss 1968, *Math. Comp.* 22), each kept row divided by
the gcd of its entries.  Its three readings take integer rows: the kernel
basis, the determinant and the inverse over one common denominator.  A caller
with rational rows scales each row to integers first (:func:`scaled_to_int`),
which leaves rank and kernel unchanged.  Only the kernel basis is read off as
:class:`fractions.Fraction`; vec and dot work on such vectors (ints are
promoted).  Nothing here ever touches floating point; every answer is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Iterable, Sequence

Vec = tuple[Q, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(Q(x) for x in xs)


def dot(x: Sequence, y: Sequence) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((Q(a) * Q(b) for a, b in zip(x, y)), Q(0))


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


def kernel(rows: Iterable[Iterable[int]], ncols: int) -> tuple[Vec, ...]:
    """Canonical basis of {x : A x = 0}, one vector per free column: the
    vector of free column f reads 1 at f and 0 at every other free column."""
    reduced = IntEchelon(rows).back_substituted()
    pivots = {p for p, _ in reduced}
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for p, row in reduced:
            v[p] = Q(-row[f], row[p])
        basis.append(tuple(v))
    return tuple(basis)


def _with_identity(m: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant, from the integer echelon of the rows of [m | I].

    Kept row k is c_k times row k of [m | I] plus a combination of earlier
    rows, so its identity half reads c_k at column n + k, and its m half is
    zero at the pivots of the rows before it.  det m is then the product of
    the pivot entries, signed by the order of the pivot columns, over the
    product of the c_k, an exact division; it is 0 when a pivot falls in the
    identity half.
    """
    n = len(m)
    rows = IntEchelon(_with_identity(m)).rows
    pivots = [p for p, _ in rows]
    if any(p >= n for p in pivots):
        return 0
    num = den = 1
    for k, (p, row) in enumerate(rows):
        num *= row[p]
        den *= row[n + k]
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return (-num if inversions % 2 else num) // den


def inverse(m: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d m^-1) for the least d > 0 that makes d m^-1 integral.

    Row k of the back-substituted [m | I] is p_k (e_k | row k of m^-1) with
    no common factor, so |p_k| is the lcm of that row's denominators and d
    is the lcm of the p_k.
    """
    n = len(m)
    reduced = IntEchelon(_with_identity(m)).back_substituted()
    if [p for p, _ in reduced] != list(range(n)):
        raise ValueError("matrix is singular")
    d = math.lcm(*(row[p] for p, row in reduced))
    return d, tuple(tuple(x * (d // row[p]) for x in row[n:]) for p, row in reduced)
