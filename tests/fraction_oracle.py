"""Fraction Gauss-Jordan elimination: the test oracle for rootneg.linalg.

rootneg.linalg works on integer rows with one fraction-free elimination.
These routines are the rational kernel it replaced, written independently of
it: every entry is a Fraction, rows are divided by their pivots as they go,
and nothing is shared with the library.  Tests compare the library's kernel,
det and inverse, and its callers, against them.
"""

from __future__ import annotations

from fractions import Fraction as Q


def mat_vec(m, x):
    return tuple(sum((Q(a) * Q(b) for a, b in zip(row, x)), Q(0)) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(mat_vec(cols, row) for row in a)


def fraction_rref(rows):
    """Reduced row echelon form (zero rows dropped) and the pivot columns."""
    work = [[Q(x) for x in r] for r in rows]
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


def fraction_rank(rows):
    return len(fraction_rref(rows)[0])


def fraction_det(m):
    n = len(m)
    work = [[Q(x) for x in row] for row in m]
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


def fraction_solve(a, b):
    """One solution x of A x = b with every free variable 0, or None."""
    a = [list(row) for row in a]
    ncols = len(a[0]) if a else 0
    reduced, pivots = fraction_rref([row + [val] for row, val in zip(a, b)])
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def fraction_nullspace(rows, ncols):
    """Basis of {x : A x = 0}, one vector per free column."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def fraction_inverse(m):
    """The inverse of a square matrix, or None if it is singular."""
    n = len(m)
    reduced, pivots = fraction_rref(
        [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    )
    if pivots != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)
