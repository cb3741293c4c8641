from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest
from fraction_oracle import fraction_det, mat_mul

from rootneg.lattice import (
    hermite_row_basis,
    quotient_divisors,
    smith_normal_form,
)


def _check_snf(a):
    res = smith_normal_form(a)
    assert mat_mul(mat_mul(res.u, a), res.v) == res.d
    assert abs(fraction_det(res.u)) == 1
    assert abs(fraction_det(res.v)) == 1
    divisors = res.divisors
    assert all(x > 0 for x in divisors)
    for i in range(len(divisors) - 1):
        assert divisors[i + 1] % divisors[i] == 0
    m, n = len(a), len(a[0])
    assert all(
        res.d[i][j] == 0 for i in range(m) for j in range(n) if i != j
    )
    return res


def test_snf_known_values():
    assert _check_snf([[2, 1], [0, 2]]).divisors == (1, 4)
    assert _check_snf([[2, 0], [0, 3]]).divisors == (1, 6)
    assert _check_snf([[1, 0], [0, 1]]).divisors == (1, 1)
    assert _check_snf([[6]]).divisors == (6,)
    assert _check_snf([[0, 0], [0, 0]]).divisors == ()
    assert _check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]).divisors == (2, 2, 156)


def test_snf_rectangular():
    assert _check_snf([[2, 4, 6]]).divisors == (2,)
    assert _check_snf([[2], [4], [6]]).divisors == (2,)
    assert _check_snf([[1, 2], [3, 4], [5, 6]]).divisors == (1, 2)


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_snf_random_soundness():
    rng = random.Random(20260817)
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        _check_snf(a)


def test_hermite_row_basis_canonical():
    basis = hermite_row_basis([[2, 4], [1, 3]])
    assert basis == ((1, 1), (0, 2))
    # generator order must not matter
    assert hermite_row_basis([[1, 3], [2, 4]]) == basis
    # adding spanned rows must not matter
    assert hermite_row_basis([[2, 4], [1, 3], [3, 7], [0, 0]]) == basis


def test_hermite_pivots_positive_and_reduced():
    basis = hermite_row_basis([[-3, 0, 1], [0, -2, 4]])
    for i, row in enumerate(basis):
        p = next(j for j in range(len(row)) if row[j] != 0)
        assert row[p] > 0
        for k in range(i):
            assert 0 <= basis[k][p] < row[p]


def test_lattice_from_generators():
    basis = hermite_row_basis([[2, 0], [0, 2], [1, 1]])
    assert len(basis) == 2
    assert basis == ((1, 1), (0, 2))


def test_quotient_divisors_known():
    assert quotient_divisors([[2, 0], [0, 2]], [[1, 0], [0, 1]]) == (2, 2)
    assert quotient_divisors([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == (1, 1)
    assert quotient_divisors([[2, 0], [0, 3]], [[1, 0], [0, 1]]) == (1, 6)
    assert math.prod(quotient_divisors([[2, 0], [0, 2]], [[1, 0], [0, 1]])) == 4


def test_quotient_divisors_rational_scaling_invariance():
    sub = [[Q(1), Q(0)], [Q(0), Q(1)]]
    sup = [[Q(1, 2), Q(0)], [Q(0), Q(1, 2)]]
    assert quotient_divisors(sub, sup) == (2, 2)
    # same quotient after scaling both spans by 3
    sub3 = [[3 * x for x in row] for row in sub]
    sup3 = [[3 * x for x in row] for row in sup]
    assert quotient_divisors(sub3, sup3) == (2, 2)


def test_quotient_divisors_requires_containment():
    with pytest.raises(ValueError):
        quotient_divisors([[1, 0], [0, Q(1, 2)]], [[1, 0], [0, 1]])
    # equal rank, but a different span
    with pytest.raises(ValueError):
        quotient_divisors([[1, 1]], [[1, 0]])
    with pytest.raises(ValueError):
        quotient_divisors([[1, 0, 1], [0, 2, 0]], [[1, 0, 0], [0, 1, 0]])


def test_quotient_divisors_requires_equal_rank():
    with pytest.raises(ValueError):
        quotient_divisors([[2, 0]], [[1, 0], [0, 1]])


def test_quotient_divisors_matches_index_random():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 3)
        while True:
            mult = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det = fraction_det(mult)
            if det != 0:
                break
        sup = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if fraction_det(sup) == 0:
            continue
        sub = [
            [sum(mult[i][k] * sup[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        divisors = quotient_divisors(sub, sup)
        product = 1
        for x in divisors:
            product *= x
        assert product == abs(det)
        # the coordinates of sub over the basis sup are the rows of mult
        assert divisors == smith_normal_form(mult).divisors
        halves = [[Q(x, 2) for x in row] for row in sub + sup]
        assert quotient_divisors(halves[:n], halves[n:]) == divisors
