from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from fraction_oracle import fraction_inverse, mat_vec

from rootneg.rootsys import (
    CapacityError,
    Parameter,
    RootSystemSpec,
    WeylElement,
    act,
    build_root_system,
    check_enumerable,
    dual,
    identity_weyl,
    pairing,
    parameter_from_root_coords,
    rho,
    root_coords_of,
    weyl_group,
    weyl_order,
)


def weyl_length(rs, w):
    """Number of indivisible positive roots that w sends to negative roots:
    the reference for every (length, images) order of Weyl elements."""
    return sum(
        1 for beta in rs.positive_roots
        if rs.table.half[rs.table.index[beta]] is None and sum(w.apply_root(beta)) < 0
    )


def compose(u, v):
    """u applied after v, image by image: the reference product of W."""
    return WeylElement(tuple(u.apply_root(img) for img in v.images))


def reflection_in(rs, alpha):
    """The reflection in the wall of alpha, by its images of the simple roots."""
    return WeylElement(tuple(rs.reflect(alpha, a) for a in rs.simple_roots))


def descent_word(rs, w):
    """Right descents peeled off w, first to last (0-based indices): the
    peel oracle for the words that chamber_walk carries.

    Each step takes the least i with w(alpha_i) negative and replaces w by
    w s_i, until w is the identity; for the word (a, b, ..., z) this gives
    w = s_z ... s_b s_a, a reduced expression.
    """
    word = []
    while True:
        i = next((i for i, img in enumerate(w.images) if sum(img) < 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        w = w.times_simple(rs, i)


def reduced_word(rs, w):
    """The reduced word for w (1-based) that the CLI prints: the descent
    word reversed, so that w = s_a ... s_z for the word (a, ..., z)."""
    return tuple(i + 1 for i in reversed(descent_word(rs, w)))


def from_word(rs, word):
    """s_a ... s_z for the 1-based word (a, ..., z)."""
    w = identity_weyl(rs)
    for i in word:
        w = w.times_simple(rs, i - 1)
    return w


def inverse(rs, w):
    """w^{-1} = s_a s_b ... for the descent word (a, b, ...) of w."""
    inv = identity_weyl(rs)
    for i in descent_word(rs, w):
        inv = inv.times_simple(rs, i)
    return inv


def act_by_inverse(rs, v, lam):
    """The parameter w lam for w = v^{-1}: (w lam)_j = lam(v(alpha_j)-coroot)."""
    return Parameter(*zip(*(pairing(rs, lam, b) for b in v.images)))


def minus_rho(rs):
    """-rho, at which every root is integral."""
    r = rho(rs)
    return Parameter(tuple(-x for x in r.re), tuple(-x for x in r.im))


# (type, positive root count, Weyl order)
STRUCTURE_TABLE = [
    ("A1", 1, 2),
    ("A2", 3, 6),
    ("A3", 6, 24),
    ("B2", 4, 8),
    ("B3", 9, 48),
    ("C3", 9, 48),
    ("D4", 12, 192),
    ("G2", 6, 12),
    ("F4", 24, 1152),
    ("E6", 36, 51840),
    ("BC1", 2, 2),
    ("BC2", 6, 8),
    ("BC3", 12, 48),
    ("A1xA1", 2, 4),
    ("B2xG2", 10, 96),
]


@pytest.mark.parametrize("name,n_pos,order", STRUCTURE_TABLE)
def test_structure_table(name, n_pos, order):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == n_pos
    assert weyl_order(rs.spec) == order
    assert len(rs.roots) == 2 * n_pos


def test_spec_parsing_and_canonical_order():
    spec = RootSystemSpec.parse("g2xB3")
    assert str(spec) == "B3xG2"
    assert spec.rank == 5
    assert RootSystemSpec.parse("BC2").components == (("BC", 2),)


@pytest.mark.parametrize("bad", ["A0", "D1", "E9", "E5", "F3", "G1", "Z9", "B", "2A"])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        build_root_system(bad)


def test_cartan_matrices_frozen():
    assert build_root_system("A2").cartan == ((2, -1), (-1, 2))
    assert build_root_system("B2").cartan == ((2, -1), (-2, 2))
    assert build_root_system("G2").cartan == ((2, -1), (-3, 2))
    assert build_root_system("BC2").cartan == ((2, -1), (-2, 2))
    assert build_root_system("C3").cartan == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )


def test_positive_roots_frozen_small_types():
    assert build_root_system("A2").positive_roots == ((0, 1), (1, 0), (1, 1))
    assert build_root_system("B2").positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))
    assert build_root_system("G2").positive_roots == (
        (0, 1),
        (1, 0),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 3),
    )
    assert build_root_system("BC1").positive_roots == ((1,), (2,))


def test_non_reduced_divisibility():
    rs = build_root_system("BC2")
    alpha2 = (0, 1)
    assert rs.double_of(alpha2) == (0, 2)
    half, index = rs.table.half, rs.table.index
    assert half[index[(0, 2)]] == index[alpha2]
    assert half[index[alpha2]] is None
    # every doubled root has half the coroot of its half
    assert rs.coroot_coweight_coords((0, 2)) == tuple(
        x // 2 for x in rs.coroot_coweight_coords((0, 1))
    )


def test_length_classes():
    rs = build_root_system("B2")
    assert rs.length_sq((0, 1)) == Q(2)
    assert rs.length_sq((1, 0)) == Q(4)
    bc = build_root_system("BC1")
    assert bc.length_sq((1,)) == Q(1)
    assert bc.length_sq((2,)) == Q(4)


def test_reflection_preserves_roots():
    rng = random.Random(3)
    for name in ("A2", "B2", "G2", "BC2", "D4"):
        rs = build_root_system(name)
        for _ in range(50):
            alpha = rng.choice(rs.roots)
            beta = rng.choice(rs.roots)
            image = rs.reflect(alpha, beta)
            assert rs.contains(image)
            assert rs.reflect(alpha, image) == beta


TABLE_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "D4", "D5",
    "E6", "E7", "E8", "F4", "G2", "BC1", "BC2", "BC3", "BC4", "BC5", "BC6", "B2xG2",
]


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_root_table_matches_reflect(name):
    # the conjugation-built rows against the vector reflection of every pair
    rs = build_root_system(name)
    table = rs.table
    n = len(rs.roots)
    assert table.index == {b: k for k, b in enumerate(rs.roots)}
    for a, alpha in enumerate(rs.roots):
        row = table.refl[a]
        assert row == tuple(table.index[rs.reflect(alpha, beta)] for beta in rs.roots)
        assert sorted(row) == list(range(n))
        assert all(row[row[b]] == b for b in range(n))
        # root N-1-a is -alpha, and it reflects as alpha does
        assert rs.roots[n - 1 - a] == tuple(-x for x in alpha)
        assert table.refl[n - 1 - a] == row
        assert (sum(alpha) > 0) == (a >= n // 2)
        dbl = rs.double_of(alpha)
        assert table.double[a] == (None if dbl is None else table.index[dbl])
        if dbl is not None:
            assert table.refl[table.double[a]] == row
            assert table.half[table.double[a]] == a
    assert sum(d is not None for d in table.double) == sum(h is not None for h in table.half)


def _gram_tables(rs):
    """Squared lengths and coroots in coweight coordinates, each read off a
    Gram product for every root, negatives included: the loop RootSystem ran
    before it filled in the negative roots by negation."""
    len_sq, coweight = {}, {}
    for beta in rs.roots:
        gb = [sum(g * b for g, b in zip(row, beta)) for row in rs.gram]
        ls = sum(x * b for x, b in zip(gb, beta))
        len_sq[beta] = ls
        pairs = [divmod(2 * x, ls) for x in gb]
        assert not any(rem for _, rem in pairs)
        coweight[beta] = tuple(val for val, _ in pairs)
    return len_sq, coweight


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_per_root_tables_match_the_gram_matrix(name):
    rs = build_root_system(name)
    len_sq, coweight = _gram_tables(rs)
    assert rs._len_sq == len_sq
    assert rs._coweight == coweight


def test_pairing_frozen_values():
    rs = build_root_system("B2")
    lam = Parameter.of([Q(1, 2), Q(1, 2)])
    assert pairing(rs, lam, (0, 1)) == (Q(1, 2), Q(0))
    assert pairing(rs, lam, (1, 1)) == (Q(3, 2), Q(0))
    assert pairing(rs, lam, (1, 2)) == (Q(1), Q(0))


def test_pairing_on_simple_coroots_reads_off_coordinates():
    rng = random.Random(5)
    for name in ("A3", "G2", "BC2"):
        rs = build_root_system(name)
        for _ in range(20):
            lam = Parameter(
                tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rs.rank)),
                tuple(Q(rng.randint(-2, 2), 2) for _ in range(rs.rank)),
            )
            for i in range(rs.rank):
                alpha = rs.simple_roots[i]
                assert pairing(rs, lam, alpha) == (lam.re[i], lam.im[i])


def test_rho_pairs_to_one_on_simple_coroots():
    for name in ("A2", "B3", "G2", "D4"):
        rs = build_root_system(name)
        r = rho(rs)
        for alpha in rs.simple_roots:
            assert pairing(rs, r, alpha) == (Q(1), Q(0))


def test_rho_of_bc1_counts_the_doubled_root():
    rs = build_root_system("BC1")
    assert rho(rs).re == (Q(3),)


def test_root_coords_round_trip():
    rs = build_root_system("G2")
    lam = Parameter.of([Q(1, 3), Q(-1, 2)], [Q(0), Q(1, 2)])
    re_c, im_c = root_coords_of(rs, lam)
    assert parameter_from_root_coords(rs, re_c, im_c) == lam


def test_dual_family_swap():
    assert str(dual(build_root_system("B3")).spec) == "C3"
    assert str(dual(build_root_system("C3")).spec) == "B3"
    assert str(dual(build_root_system("B3xA2")).spec) == "A2xC3"
    for name in ("A2", "D4", "G2", "F4", "BC2"):
        assert str(dual(build_root_system(name)).spec) == name


def test_weyl_group_b2_frozen():
    rs = build_root_system("B2")
    group = weyl_group(rs)
    assert len(group) == 8
    assert sorted(weyl_length(rs, w) for w in group) == [0, 1, 1, 2, 2, 3, 3, 4]
    longest = group[-1]
    assert all(longest.apply_root(b) == tuple(-x for x in b) for b in rs.positive_roots)


def test_weyl_group_capacity_guard():
    with pytest.raises(CapacityError):
        weyl_group(build_root_system("E8"))


def test_simple_reflection_images():
    rs = build_root_system("G2")
    s0 = identity_weyl(rs).times_simple(rs, 0)
    assert s0.apply_root((1, 0)) == (-1, 0)
    assert s0.apply_root((0, 1)) == (1, 1)
    assert s0 == reflection_in(rs, rs.simple_roots[0])
    assert s0.times_simple(rs, 0) == identity_weyl(rs)
    assert compose(s0, s0) == identity_weyl(rs)


def test_weyl_action_is_a_group_action():
    rng = random.Random(9)
    for name in ("A2", "B2", "BC2"):
        rs = build_root_system(name)
        group = weyl_group(rs)
        for _ in range(30):
            u = rng.choice(group)
            v = rng.choice(group)
            lam = Parameter(
                tuple(Q(rng.randint(-3, 3), 2) for _ in range(rs.rank)),
                tuple(Q(rng.randint(-3, 3), 3) for _ in range(rs.rank)),
            )
            assert act(rs, compose(u, v), lam) == act(rs, u, act(rs, v, lam))
            beta = rng.choice(rs.roots)
            assert compose(u, v).apply_root(beta) == u.apply_root(v.apply_root(beta))


def test_weyl_inverse():
    rs = build_root_system("B2")
    for w in weyl_group(rs):
        assert compose(w, inverse(rs, w)) == identity_weyl(rs)
        assert compose(inverse(rs, w), w) == identity_weyl(rs)


def test_act_compatible_with_pairing():
    rs = build_root_system("B2")
    rng = random.Random(17)
    group = weyl_group(rs)
    for _ in range(25):
        w = rng.choice(group)
        lam = Parameter(
            tuple(Q(rng.randint(-3, 3), 2) for _ in range(2)),
            tuple(Q(rng.randint(-2, 2)) for _ in range(2)),
        )
        for beta in rs.roots:
            assert pairing(rs, act(rs, w, lam), w.apply_root(beta)) == pairing(
                rs, lam, beta
            )


def test_parameter_helpers():
    lam = Parameter.of([1, Q(1, 2)])
    assert lam.im == (Q(0), Q(0))
    assert lam.is_real()
    mixed = Parameter.of([0, 0], [1, 0])
    assert not mixed.is_real()


def test_identity_weyl():
    rs = build_root_system("A3")
    e = identity_weyl(rs)
    assert e.images == rs.simple_roots
    assert weyl_length(rs, e) == 0


# ---------------------------------------------------------------------------
# Oracles: the integer kernels against Fraction constructions written here.

ORACLE_TYPES = ("BC3", "G2", "B2xG2", "F4")


def _oracle_pairing(rs, lam, beta):
    """lam on the coroot sum_j b_j (a_j, a_j)/(beta, beta) a_j-coroot, in Fractions."""
    gram = [[Q(x) for x in row] for row in rs.gram]
    n = rs.rank
    length = sum(beta[i] * gram[i][j] * beta[j] for i in range(n) for j in range(n))
    coeffs = [b * gram[j][j] / length for j, b in enumerate(beta)]
    return (sum((c * x for c, x in zip(coeffs, lam.re)), Q(0)),
            sum((c * x for c, x in zip(coeffs, lam.im)), Q(0)))


def _oracle_act(rs, w, lam):
    """Parameter -> root coordinates -> images of w -> Cartan matrix, in Fractions."""
    n = rs.rank
    parts = []
    for values in root_coords_of(rs, lam):
        moved = [sum((values[j] * w.images[j][k] for j in range(n)), Q(0)) for k in range(n)]
        parts.append(tuple(sum(rs.cartan[i][k] * moved[k] for k in range(n)) for i in range(n)))
    return Parameter(*parts)


def _seeded_parameter(rng, rank):
    return Parameter(
        tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank)),
        tuple(Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rank)),
    )


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_pairing_matches_fraction_oracle_on_every_root(name):
    rs = build_root_system(name)
    rng = random.Random(f"pairing/{name}")
    for _ in range(5):
        lam = _seeded_parameter(rng, rs.rank)
        for beta in rs.roots:
            assert pairing(rs, lam, beta) == _oracle_pairing(rs, lam, beta)


def test_bc_doubled_roots_have_half_coroot_coefficients():
    rs = build_root_system("BC3")
    lam = Parameter.of([0, 0, 1])
    # the coroot of 2 alpha_3 is half the coroot of alpha_3
    assert pairing(rs, lam, (0, 0, 2)) == (Q(1, 2), Q(0))


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_act_matches_fraction_oracle(name):
    rs = build_root_system(name)
    rng = random.Random(f"act/{name}")
    lam = _seeded_parameter(rng, rs.rank)
    for w in weyl_group(rs):
        assert act(rs, w, lam) == _oracle_act(rs, w, lam)
    # and on the reflection in every root
    for alpha in rs.roots:
        s_alpha = reflection_in(rs, alpha)
        assert act(rs, s_alpha, lam) == _oracle_act(rs, s_alpha, lam)


def _closure_by_composition(rs):
    """W as the closure of the identity under composition with simple reflections."""
    gens = [reflection_in(rs, alpha) for alpha in rs.simple_roots]
    seen = {identity_weyl(rs)}
    frontier = set(seen)
    while frontier:
        frontier = {compose(g, w) for w in frontier for g in gens} - seen
        seen |= frontier
    return seen


RANK_LE_4 = (
    "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C1", "C2", "C3", "C4",
    "BC1", "BC2", "BC3", "BC4", "D2", "D3", "D4", "G2", "F4",
    "A1xA1", "A1xBC2", "B2xG2", "A2xA2",
)


@pytest.mark.parametrize("name", RANK_LE_4)
def test_weyl_group_order_is_length_then_images(name):
    rs = build_root_system(name)
    expected = sorted(_closure_by_composition(rs), key=lambda w: (weyl_length(rs, w), w.images))
    assert list(weyl_group(rs)) == expected


def test_integer_inverse_on_all_of_f4():
    rs = build_root_system("F4")
    for w in weyl_group(rs):
        inv = inverse(rs, w)
        assert compose(w, inv) == identity_weyl(rs)
        assert compose(inv, w) == identity_weyl(rs)
        assert weyl_length(rs, inv) == weyl_length(rs, w)


def test_check_enumerable_is_the_weyl_group_guard():
    message = "Weyl group of E7 has order 2903040, above the enumeration limit 1000000"
    rs = build_root_system("E7")
    with pytest.raises(CapacityError, match=message):
        check_enumerable(rs)
    with pytest.raises(CapacityError, match=message):
        weyl_group(rs)
    assert check_enumerable(build_root_system("F4")) == 1152


@pytest.mark.parametrize("name", ORACLE_TYPES + ("A3", "D4", "E6"))
def test_root_coords_of_matches_fraction_inverse(name):
    rs = build_root_system(name)
    inv = fraction_inverse(rs.cartan)
    rng = random.Random(f"root_coords/{name}")
    for _ in range(10):
        lam = _seeded_parameter(rng, rs.rank)
        assert root_coords_of(rs, lam) == (
            mat_vec(inv, lam.re),
            mat_vec(inv, lam.im),
        )
    with pytest.raises(ValueError):
        root_coords_of(rs, Parameter.of([1] * (rs.rank + 1)))


def test_act_by_inverse_is_act_of_the_inverse():
    rs = build_root_system("B3")
    rng = random.Random("act_by_inverse")
    lam = _seeded_parameter(rng, rs.rank)
    for w in weyl_group(rs):
        assert act_by_inverse(rs, inverse(rs, w), lam) == act(rs, w, lam)
    with pytest.raises(ValueError):
        act_by_inverse(rs, identity_weyl(rs), Parameter.of([1, 1]))
