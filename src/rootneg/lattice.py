"""Integer lattice computations: Smith and Hermite normal forms, quotients.

A lattice is stored by a basis matrix whose rows span it inside an ambient
integer (or rational) coordinate space.  Quotient invariants are the
elementary divisors d_1 | d_2 | ... of the inclusion of one lattice into
another of the same rank.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence


class SNFResult(NamedTuple):
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries of D (the divisor chain)."""
        out = []
        for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)):
            if self.d[i][i] != 0:
                out.append(self.d[i][i])
        return tuple(out)


def _ident(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form over the integers, with the transform matrices.

    Returns (U, D, V) with U*A*V = D, U and V unimodular, and the nonzero
    diagonal of D a chain d_1 | d_2 | ... of positive integers followed by
    zeros.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]
    for row in d:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = _ident(m)
    v = _ident(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # Find a nonzero pivot in the remaining block.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0:
                    if pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # Clear row and column t; restart whenever a remainder shrinks the pivot.
        while True:
            if d[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q, r = divmod(d[i][t], d[t][t])
                    add_row(t, i, -q)
                    if r:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q, r = divmod(d[t][j], d[t][t])
                    add_col(t, j, -q)
                    if r:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            break
        t += 1
    # Enforce the divisibility chain d_i | d_{i+1}.
    t = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a_i, a_j = d[i][i], d[i + 1][i + 1]
            if a_j % a_i if a_i else a_j:
                # Fold entry i+1 into row i and redo the 2x2 block.
                add_col(i + 1, i, 1)
                while True:
                    if d[i][i] < 0:
                        negate_row(i)
                    if d[i + 1][i] != 0:
                        q, r = divmod(d[i + 1][i], d[i][i])
                        add_row(i, i + 1, -q)
                        if r:
                            swap_rows(i, i + 1)
                            continue
                    if d[i][i + 1] != 0:
                        q, r = divmod(d[i][i + 1], d[i][i])
                        add_col(i, i + 1, -q)
                        if r:
                            swap_cols(i, i + 1)
                            continue
                    break
                if d[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return SNFResult(
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in v),
    )


def hermite_row_basis(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row basis (row-style Hermite normal form) of an integer span.

    Zero rows are dropped; pivots are positive and entries above each pivot
    are reduced to the range [0, pivot).
    """
    work = [list(map(int, r)) for r in rows]
    if not work:
        return ()
    n = len(work[0])
    basis: list[list[int]] = []
    r = 0
    col = 0
    while col < n and r < len(work):
        # Euclid on column `col` across rows r..end.
        while True:
            nz = [i for i in range(r, len(work)) if work[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(work[i][col]))
            work[r], work[i_min] = work[i_min], work[r]
            if work[r][col] < 0:
                work[r] = [-x for x in work[r]]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[r][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if work[r][col] != 0:
            r += 1
        col += 1
    work = [row for row in work[:r] if any(row)]
    # Reduce entries above pivots.
    for i in reversed(range(len(work))):
        p = next(j for j in range(n) if work[i][j] != 0)
        for k in range(i):
            q = work[k][p] // work[i][p]
            if q:
                work[k] = [x - q * y for x, y in zip(work[k], work[i])]
    return tuple(tuple(row) for row in work)


def quotient_divisors(
    sub: Iterable[Sequence], sup: Iterable[Sequence]
) -> tuple[int, ...]:
    """Elementary divisors of (lattice spanned by `sup`) / (by `sub`).

    Both arguments are generator lists (not necessarily bases) with int or
    Fraction entries; both spans are scaled once by one common denominator,
    which leaves the quotient unchanged.  The sub-span must lie inside the
    sup-span and have the same rank.
    """
    sub_rows = [list(row) for row in sub]
    sup_rows = [list(row) for row in sup]
    if not sup_rows:
        raise ValueError("empty generating set for the ambient lattice")
    scale = math.lcm(*(x.denominator for row in sub_rows + sup_rows for x in row))

    def scaled_basis(rows):
        return hermite_row_basis(
            [x.numerator * (scale // x.denominator) for x in row] for row in rows
        )

    sup_basis = scaled_basis(sup_rows)
    sub_basis = scaled_basis(sub_rows)
    if len(sub_basis) != len(sup_basis):
        raise ValueError(
            f"rank mismatch: sub has rank {len(sub_basis)}, sup {len(sup_basis)}"
        )
    if not sup_basis:
        return ()
    # Coordinates of each sub basis vector over the sup basis, by substitution
    # down the Hermite rows: row i is the only one left with a nonzero entry
    # at its pivot, so its coefficient is that entry over the pivot.
    pivots = [next(j for j, x in enumerate(row) if x) for row in sup_basis]
    coeff: list[list[int]] = []
    for v in sub_basis:
        v = list(v)
        row_coeffs = []
        for p, row in zip(pivots, sup_basis):
            c, r = divmod(v[p], row[p])
            if r:
                raise ValueError("sub-lattice is not contained in the lattice")
            if c:
                v = [x - c * y for x, y in zip(v, row)]
            row_coeffs.append(c)
        if any(v):
            raise ValueError("sub-lattice is not contained in the lattice")
        coeff.append(row_coeffs)
    divisors = smith_normal_form(coeff).divisors
    if len(divisors) != len(sup_basis):
        raise ValueError("sub-lattice has lower rank than the lattice")
    return divisors

