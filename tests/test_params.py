from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest

from rootneg import linalg
from rootneg.params import (
    SubspaceBasis,
    chamber_count,
    chamber_walk,
    edge,
    equivalence_class,
    evaluate_on_coweight,
    full_space,
    gallery_class,
    integral_roots,
    value_in_fraction_of_z,
)
from rootneg.rootsys import (
    Parameter,
    WeylElement,
    act,
    build_root_system,
    identity_weyl,
    pairing,
    weyl_group,
)
from rootneg.subsystems import subsystem_label
from rootneg.verification import c_lambda
from test_linalg import fraction_rref
from test_rootsys import (
    act_by_inverse,
    compose,
    from_word,
    inverse,
    minus_rho,
    reduced_word,
    reflection_in,
    weyl_length,
)


def test_value_in_fraction_of_z():
    assert value_in_fraction_of_z(Q(3), Q(0), 1)
    assert not value_in_fraction_of_z(Q(1, 2), Q(0), 1)
    assert value_in_fraction_of_z(Q(1, 2), Q(0), 2)
    assert value_in_fraction_of_z(Q(-5, 3), Q(0), 3)
    # a nonzero imaginary part always disqualifies
    assert not value_in_fraction_of_z(Q(1), Q(1, 2), 1)
    assert not value_in_fraction_of_z(Q(0), Q(1), 4)


def test_integral_roots_a2_half_half():
    rs = build_root_system("A2")
    lam = Parameter.of([Q(1, 2), Q(1, 2)])
    assert integral_roots(rs, lam, 1) == ((-1, -1), (1, 1))
    assert subsystem_label(rs, integral_roots(rs, lam)) == "A1"


def test_integral_roots_bc1_depends_on_denominator():
    rs = build_root_system("BC1")
    lam = Parameter.of([Q(1, 2)])
    assert pairing(rs, lam, (2,)) == (Q(1, 4), Q(0))
    assert integral_roots(rs, lam, 1) == ()
    assert integral_roots(rs, lam, 2) == ((-1,), (1,))
    assert integral_roots(rs, lam, 4) == ((-2,), (-1,), (1,), (2,))


def test_integral_roots_at_minus_rho_is_everything():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        lam = minus_rho(rs)
        assert integral_roots(rs, lam, 1) == rs.roots
    # BC1 the doubled root pairs to a half-integer at -rho, so it only
    # joins once denominator 2 is allowed
    rs = build_root_system("BC1")
    lam = minus_rho(rs)
    assert integral_roots(rs, lam, 1) == ((-1,), (1,))
    assert integral_roots(rs, lam, 2) == rs.roots


def test_equivalence_class_a2_contract_case():
    rs = build_root_system("A2")
    lam = Parameter.of([Q(1, 2), Q(1, 2)])
    cls = equivalence_class(rs, lam, 1)
    assert cls.base == lam
    got = {(m.re, m.im) for m in cls.parameters}
    assert got == {
        ((Q(1, 2), Q(1, 2)), (Q(0), Q(0))),
        ((Q(-1, 2), Q(1)), (Q(0), Q(0))),
        ((Q(1), Q(-1, 2)), (Q(0), Q(0))),
    }
    for word, mu in cls.members:
        assert act(rs, from_word(rs, word), lam) == mu


def test_equivalence_class_fully_integral_is_singleton():
    rs = build_root_system("G2")
    lam = minus_rho(rs)
    cls = equivalence_class(rs, lam, 1)
    assert len(cls.members) == 1
    assert cls.parameters == (lam,)


def test_equivalence_class_generic_is_full_orbit():
    rs = build_root_system("G2")
    lam = Parameter.of([Q(1, 5), Q(1, 7)])
    assert integral_roots(rs, lam, 1) == ()
    cls = equivalence_class(rs, lam, 1)
    assert len(cls.members) == 12


def test_complex_convention_versus_real_part_only():
    rs = build_root_system("A1")
    lam = Parameter.of([1], [Q(1, 2)])
    # the pairing is 1 + i/2: not integral, so the move is allowed
    assert len(equivalence_class(rs, lam, 1).members) == 2
    # the real part alone pairs to 1, so without the imaginary part the move is blocked
    assert len(equivalence_class(rs, Parameter.of([1]), 1).members) == 1


def test_gallery_class_sizes():
    rs = build_root_system("A2")
    assert len(gallery_class(rs, Parameter.of([Q(1, 2), Q(1, 2)]))) == 3
    assert len(gallery_class(rs, minus_rho(rs))) == 1
    g2 = build_root_system("G2")
    assert len(gallery_class(g2, Parameter.of([Q(1, 5), Q(1, 7)]))) == 12


def test_gallery_b2_frozen_case():
    rs = build_root_system("B2")
    lam = Parameter.of([Q(1, 2), Q(1)])
    assert integral_roots(rs, lam, 1) == ((-1, -1), (0, -1), (0, 1), (1, 1))
    gallery = gallery_class(rs, lam)
    assert [reduced_word(rs, w) for w in gallery] == [(), (1,)]
    cls = equivalence_class(rs, lam, 1)
    assert {m.re for m in cls.parameters} == {
        (Q(1, 2), Q(1)),
        (Q(-1, 2), Q(2)),
    }


def test_c_lambda_equals_gallery_on_samples():
    """The cone, the gallery and the coset index |W : W(Sigma)| agree."""
    rng = random.Random(23)
    for name in (
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
        "F4", "G2", "BC1", "BC2", "BC3", "BC4", "B2xG2",
    ):
        rs = build_root_system(name)
        for k in range(40 if rs.rank < 4 else 12):
            # every other sample is real, so that it has integral roots
            lam = Parameter(
                tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rs.rank)),
                tuple(Q(rng.randint(-1, 1), 2) if k % 2 else Q(0) for _ in range(rs.rank)),
            )
            cone = c_lambda(rs, lam)
            gallery = gallery_class(rs, lam)
            assert cone == gallery, (name, lam)
            assert chamber_count(rs, lam) == len(cone) == len(gallery), (name, lam)


def test_edge_frozen_cases():
    rs = build_root_system("A2")
    lam = Parameter.of([Q(1, 2), Q(1, 2)])
    e = edge(rs, lam, 1)
    assert e.dim == 1
    assert e.vectors == ((Q(-1), Q(1)),)
    # the edge pairs to zero with the one integral positive root
    assert evaluate_on_coweight(rs, Parameter.of([1, 1]), e.vectors[0]) == (Q(0), Q(0))
    assert edge(rs, minus_rho(rs)).dim == 0
    assert edge(rs, Parameter.of([Q(1, 5), Q(1, 7)])).dim == 2


def _act_coweight(rs, w, x):
    """w(X) in coweight coordinates: coordinate j is the value of the j-th
    simple root on w(X), which equals the value of w^{-1}(alpha_j) on X."""
    return tuple(linalg.dot(img, x) for img in inverse(rs, w).images)


def test_edge_is_weyl_equivariant():
    rs = build_root_system("B2")
    lam = Parameter.of([Q(1, 2), Q(1)])
    base = edge(rs, lam, 1)
    for w in weyl_group(rs):
        moved = edge(rs, act(rs, w, lam), 1)
        assert moved.dim == base.dim
        for v in base.vectors:
            assert moved.contains(_act_coweight(rs, w, v))


def test_subspace_basis_validation():
    with pytest.raises(ValueError):
        SubspaceBasis(2, ((Q(1), Q(0)), (Q(2), Q(0))))  # dependent rows
    with pytest.raises(ValueError):
        SubspaceBasis(2, ((Q(1),),))  # wrong length
    basis = SubspaceBasis(2, ((Q(1), Q(0)),))
    assert basis.contains((Q(3), Q(0)))
    assert not basis.contains((Q(0), Q(1)))
    assert full_space(build_root_system("B2")).dim == 2


def test_reduced_word_round_trip():
    rs = build_root_system("B2")
    for w in weyl_group(rs):
        word = reduced_word(rs, w)
        assert len(word) == weyl_length(rs, w)
        assert from_word(rs, word) == w


def test_move_class_respects_integral_walls():
    # no member of a class may cross a wall whose pairing is integral
    rng = random.Random(31)
    for name in ("A2", "B2", "BC1"):
        rs = build_root_system(name)
        for _ in range(25):
            lam = Parameter(
                tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rs.rank)),
                tuple(Q(0) for _ in range(rs.rank)),
            )
            cls = equivalence_class(rs, lam, 1)
            members = set(cls.parameters)
            for mu in members:
                for i, alpha in enumerate(rs.simple_roots):
                    re, im = pairing(rs, mu, alpha)
                    if not value_in_fraction_of_z(re, im, 1):
                        flipped = act(rs, identity_weyl(rs).times_simple(rs, i), mu)
                        assert flipped in members


def breadth_first_class(rs, lam, denominator):
    """The move class by breadth-first search over parameters, each member
    with the first witness found: frontiers in parameter order, moves in
    simple-root order, and a move at i turns the witness w into s_i w."""
    gens = [reflection_in(rs, alpha) for alpha in rs.simple_roots]
    members = {lam: identity_weyl(rs)}
    frontier = [lam]
    while frontier:
        frontier.sort(key=lambda p: (p.re, p.im))
        nxt = []
        for mu in frontier:
            w_mu = members[mu]
            for i, alpha in enumerate(rs.simple_roots):
                if value_in_fraction_of_z(*pairing(rs, mu, alpha), denominator):
                    continue
                nu = act_by_inverse(rs, gens[i], mu)
                if nu not in members:
                    members[nu] = WeylElement(tuple(rs.reflect(alpha, img) for img in w_mu.images))
                    nxt.append(nu)
        frontier = nxt
    return [(members[mu].images, mu) for mu in sorted(members, key=lambda p: (p.re, p.im))]


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "BC1", "BC2", "BC3", "B2xG2",
])
def test_equivalence_class_matches_breadth_first_search(name):
    """Members, witnesses and their order equal the search over parameters."""
    rs = build_root_system(name)
    rng = random.Random(f"move_class/{name}")
    for k in range(3 if rs.rank == 4 else 6):
        lam = Parameter(
            tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(rs.rank)),
            tuple(Q(rng.randint(-1, 1), 2) if k % 3 == 2 else Q(0) for _ in range(rs.rank)),
        )
        for denominator in (1, 2, 3, 6):
            cls = equivalence_class(rs, lam, denominator)
            got = [(from_word(rs, word).images, mu) for word, mu in cls.members]
            assert got == breadth_first_class(rs, lam, denominator), (name, lam, denominator)


def reference_gallery(rs, lam, denominator):
    """Chambers reached from C across walls of roots outside the integral
    root set, level by level in (length, images) order."""
    sigma = frozenset(integral_roots(rs, lam, denominator))
    level = [identity_weyl(rs)]
    seen = {level[0]}
    out = []
    while level:
        out.extend(level)
        nxt = []
        for u in level:
            for i in range(rs.rank):
                v = u.times_simple(rs, i)
                if u.images[i] not in sigma and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        level = sorted(nxt)
    return out


WALK_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "BC1", "BC2", "BC3", "B2xG2",
]


@pytest.mark.parametrize("name", WALK_TYPES)
def test_chamber_walk_records(name):
    """Each chamber carries the word of its inverse and the member it moves
    lam to."""
    rs = build_root_system(name)
    rng = random.Random(f"chamber_walk/{name}")
    for k in range(3 if rs.rank == 4 else 6):
        lam = Parameter(
            tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(rs.rank)),
            tuple(Q(rng.randint(-1, 1), 2) if k % 3 == 2 else Q(0) for _ in range(rs.rank)),
        )
        for denominator in (1, 2, 3, 6):
            walk = chamber_walk(rs, lam, denominator)
            assert [c.u for c in walk] == reference_gallery(rs, lam, denominator)
            for c in walk:
                w = from_word(rs, c.w_word)
                assert compose(c.u, w) == identity_weyl(rs), (name, lam, c.u)
                assert c.d == lam._scaled[0]
                assert c.mu == act_by_inverse(rs, c.u, lam), (name, lam, c.u)
                assert c.mu == act(rs, w, lam), (name, lam, c.u)


@pytest.mark.parametrize("name", WALK_TYPES + ["D5"])
def test_chamber_walk_words_match_the_peel(name):
    """The words the walk carries are the peeled words of w = u^{-1} and of u."""
    rs = build_root_system(name)
    rng = random.Random(f"chamber_words/{name}")
    for k in range(3 if rs.rank >= 4 else 6):
        lam = Parameter(
            tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 6, 7)))
                  for _ in range(rs.rank)),
            tuple(Q(rng.randint(-1, 1), 2) if k % 3 == 2 else Q(0) for _ in range(rs.rank)),
        )
        for denominator in (1, 2, 3, 6):
            for c in chamber_walk(rs, lam, denominator):
                assert c.w_word == reduced_word(rs, inverse(rs, c.u)), (name, lam, c.u)
                assert c.u_word == reduced_word(rs, c.u), (name, lam, c.u)


def test_chamber_walk_validates_inputs():
    rs = build_root_system("B2")
    with pytest.raises(ValueError):
        chamber_walk(rs, Parameter.of([1, 1]), 0)
    with pytest.raises(ValueError):
        chamber_walk(rs, Parameter.of([1, 1, 1]))


def _interior_point_cone(rs, lam):
    """C_lambda by signs at w(rho-coroot), with the chamber side read through
    the Gram form: rho-coroot is sum over positive beta of beta / (beta, beta),
    here scaled by the lcm of the (beta, beta) to integers."""
    n = rs.rank

    def form(x, y):
        return sum(x[i] * rs.gram[i][j] * y[j] for i in range(n) for j in range(n))

    lengths = {beta: form(beta, beta) for beta in rs.positive_roots}
    scale = math.lcm(*lengths.values())
    sigma_pos = [b for b in integral_roots(rs, lam, 1) if sum(b) > 0]
    kept = []
    for w in weyl_group(rs):
        point = [0] * n
        for beta, length in lengths.items():
            point = [p + scale // length * x for p, x in zip(point, w.apply_root(beta))]
        values = [form(alpha, point) for alpha in sigma_pos]
        assert all(v != 0 for v in values)
        if all(v > 0 for v in values):
            kept.append(w)
    return sorted(kept, key=lambda w: (weyl_length(rs, w), w.images))


@pytest.mark.parametrize("name", ["B3", "BC3", "D4", "F4"])
def test_c_lambda_matches_interior_point_oracle(name):
    rs = build_root_system(name)
    rng = random.Random(f"c_lambda/{name}")
    for _ in range(2 if name == "F4" else 4):
        lam = Parameter(
            tuple(Q(rng.randint(-4, 4), rng.choice((1, 2, 2, 3))) for _ in range(rs.rank)),
            tuple(Q(0) for _ in range(rs.rank)),
        )
        assert list(c_lambda(rs, lam)) == _interior_point_cone(rs, lam)


@pytest.mark.parametrize("name", ["BC3", "G2", "F4", "B2xG2"])
@pytest.mark.parametrize("denominator", [1, 2, 3])
def test_integral_roots_match_pairing_oracle(name, denominator):
    rs = build_root_system(name)
    rng = random.Random(f"integral_roots/{name}/{denominator}")
    for k in range(12):
        re = tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(rs.rank))
        # half of the parameters are real, the rest have a sparse imaginary part
        im = tuple(
            Q(0) if k % 2 == 0 or rng.random() < 0.6 else Q(rng.randint(-2, 2), rng.randint(1, 3))
            for _ in range(rs.rank)
        )
        lam = Parameter(re, im)
        expected = tuple(sorted(
            beta for beta in rs.roots
            if value_in_fraction_of_z(*pairing(rs, lam, beta), denominator)
        ))
        assert integral_roots(rs, lam, denominator) == expected


def test_integral_roots_validate_inputs():
    rs = build_root_system("B2")
    with pytest.raises(ValueError):
        integral_roots(rs, Parameter.of([1, 1]), 0)
    with pytest.raises(ValueError):
        integral_roots(rs, Parameter.of([1, 1, 1]), 1)


def test_subspace_contains_matches_in_span():
    rng = random.Random("subspace_contains")
    values = (Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3))
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [tuple(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(0, n))]
        vectors = fraction_rref(rows)[0] if rng.random() < 0.3 else tuple(
            r for i, r in enumerate(rows)
            if len(fraction_rref(rows[: i + 1])[0]) > len(fraction_rref(rows[:i])[0])
        )
        sub = SubspaceBasis(n, vectors)
        for _ in range(4):
            if vectors and rng.random() < 0.5:
                coeffs = [rng.choice(values) for _ in vectors]
                x = tuple(sum((c * v[j] for c, v in zip(coeffs, vectors)), Q(0)) for j in range(n))
            else:
                x = tuple(rng.choice(values) for _ in range(n))
            in_span = len(fraction_rref(vectors + (x,))[0]) == len(vectors)
            assert sub.contains(x) == in_span
    with pytest.raises(ValueError):
        SubspaceBasis(2, ((Q(1), Q(0)),)).contains((Q(1),))
