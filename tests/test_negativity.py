from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest
from fraction_oracle import (
    fraction_inverse,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
)

from rootneg import linalg, negativity, params, rootsys
from rootneg.exponent import certify_exponent
from rootneg.negativity import (
    NegativityQuery,
    check_class_negativity,
    check_negativity,
    integral_class_constant,
    span_basis_of_integral_roots,
    verify_fundamental_lemma,
)
from rootneg.lattice import hermite_row_basis, quotient_divisors
from rootneg.params import SubspaceBasis, edge, full_space, gallery_class, integral_roots
from rootneg.rootsys import Parameter, build_root_system, rank_one_bound
from rootneg.subsystems import parabolic_closure
from test_linalg import fraction_det
from test_rootsys import minus_rho


def test_query_validation():
    lam = Parameter.of([Q(0)])
    with pytest.raises(ValueError):
        NegativityQuery(lam, "loose")
    with pytest.raises(ValueError):
        NegativityQuery(lam, "strict", SubspaceBasis(1, ()))
    with pytest.raises(ValueError):
        NegativityQuery(lam, "weak", denominator=0)


def test_strict_rank_one_contract_cases():
    rs = build_root_system("A1")
    v = check_negativity(rs, NegativityQuery(Parameter.of([-1]), "strict"))
    assert v.feasible
    assert v.span_basis == ((1,),)
    assert v.witness_omega == (Q(1, 2),)
    # a non-integral parameter has no integral roots, so nothing can be
    # subtracted and the positive real part stands in the way
    v = check_negativity(rs, NegativityQuery(Parameter.of([Q(1, 2)]), "strict"))
    assert not v.feasible
    assert v.witness_omega is None and v.span_basis == ()


def test_weak_at_zero_is_tight_everywhere():
    rs = build_root_system("A2")
    v = check_negativity(rs, NegativityQuery(Parameter.of([0, 0]), "weak", full_space(rs)))
    assert v.feasible
    assert v.witness_omega == (Q(0), Q(0))
    assert v.tight_generators == (0, 1)


def test_strict_member_verdict_ignores_overall_sign():
    # strict feasibility is about the parameter modulo the cone of positive
    # integral roots, so +rho passes with a large witness
    rs = build_root_system("A2")
    v = check_negativity(rs, NegativityQuery(Parameter.of([1, 1]), "strict"))
    assert v.feasible and v.witness_omega == (Q(2), Q(2))
    v = check_negativity(rs, NegativityQuery(Parameter.of([-1, 0]), "strict"))
    assert v.feasible and v.witness_omega == (Q(2, 3), Q(1, 3))


def test_imaginary_part_blocks_integral_mode():
    rs = build_root_system("A2")
    lam = Parameter((Q(-1), Q(-1)), (Q(1, 2), Q(0)))
    assert not check_negativity(
        rs, NegativityQuery(lam, "integral", full_space(rs))
    ).feasible
    assert check_negativity(
        rs, NegativityQuery(lam, "weak", full_space(rs))
    ).feasible


def test_weak_on_proper_subspace():
    rs = build_root_system("A2")
    sub = SubspaceBasis(2, ((Q(1), Q(1)),))
    v = check_negativity(rs, NegativityQuery(Parameter.of([-1, -1]), "weak", sub))
    assert v.feasible and v.tight_generators == ()


def test_class_negativity_strict_needs_every_member():
    rs = build_root_system("A2")
    rep = check_class_negativity(rs, Parameter.of([Q(1, 2), Q(1, 2)]), "strict")
    assert not rep.ok
    by_re = {m.mu.re: m.verdict.feasible for m in rep.members}
    assert by_re == {
        (Q(1, 2), Q(1, 2)): True,
        (Q(-1, 2), Q(1)): False,
        (Q(1), Q(-1, 2)): False,
    }
    rep = check_class_negativity(rs, Parameter.of([-1, -1]), "strict")
    assert rep.ok and len(rep.members) == 1


def test_class_negativity_subspace_mapping_must_cover():
    rs = build_root_system("A2")
    lam = Parameter.of([Q(1, 2), Q(1, 2)])
    with pytest.raises(ValueError):
        check_class_negativity(rs, lam, "weak", {lam: full_space(rs)})
    with pytest.raises(ValueError):
        check_class_negativity(rs, lam, "strict", full_space(rs))


def weight_lattice_basis(rs, sigma):
    """Oracle: (span basis S of the integral roots, basis of the dual lattice
    of their coroots inside their span, in coordinates over S), by inverting
    the Fraction Gram matrix of S against a Hermite basis of the coroots."""
    s_basis = span_basis_of_integral_roots(rs, sigma)
    if not s_basis:
        return (), ()
    coroot_basis = hermite_row_basis(rs.coroot_coweight_coords(b) for b in sigma if sum(b) > 0)
    g = [[linalg.dot(s, m) for m in coroot_basis] for s in s_basis]
    return s_basis, fraction_inverse(g)


def closure_lattice_index_oracle(rs, sigma, closure):
    """Oracle for negativity._closure_lattice_index: each positive closure
    root solved over S, then the quotient of the weight lattice by them."""
    s_basis, weight_basis = weight_lattice_basis(rs, sigma)
    if not s_basis:
        return 1
    cols = list(zip(*s_basis))
    root_gens = []
    for gamma in closure.roots:
        if sum(gamma) <= 0:
            continue
        sol = fraction_solve(cols, gamma)
        assert sol is not None, "parabolic closure left the span of its roots"
        root_gens.append(sol)
    return math.prod(quotient_divisors(root_gens, weight_basis))


def _lattice_cases(name, count):
    """(rs, lam) pairs: -rho, 0 and count seeded parameters with entries in
    small halves, thirds and sixths, every third one with imaginary entries
    drawn from 0 and 1/2."""
    rs = build_root_system(name)
    rng = random.Random(name)
    entries = [Q(k, d) for d in (1, 2, 3, 6) for k in range(-7, 8)]
    lams = [minus_rho(rs), Parameter.of([0] * rs.rank)]
    for i in range(count):
        im = [rng.choice([0, 0, Q(1, 2)]) for _ in range(rs.rank)] if i % 3 == 2 else None
        re = [rng.choice(entries) for _ in range(rs.rank)]
        lams.append(Parameter.of(re, im))
    return rs, lams


_LATTICE_TYPES = [("A2", 8), ("B2", 8), ("G2", 8), ("BC1", 6), ("BC2", 10), ("BC3", 10),
                  ("C3", 6), ("D4", 6), ("F4", 6), ("B2xG2", 6), ("BC2xA1", 6), ("E7", 3)]


@pytest.mark.parametrize("name, count", _LATTICE_TYPES, ids=[t for t, _ in _LATTICE_TYPES])
def test_closure_lattice_index_matches_the_weight_lattice_oracle(name, count):
    # the helper alone, never the walk: E7 parameters can have 10^5 chambers
    rs, lams = _lattice_cases(name, count)
    for lam in lams:
        for n in (1, 2, 3, 6):
            sigma = integral_roots(rs, lam, n)
            sigma_pos = [b for b in sigma if sum(b) > 0]
            closure = parabolic_closure(rs, sigma_pos)
            expected = closure_lattice_index_oracle(rs, sigma, closure)
            assert negativity._closure_lattice_index(rs, sigma_pos, closure) == expected, (lam, n)
            # the old strict-mode test: a trivial edge and full-rank coroots
            coroots = linalg.int_rank(rs.coroot_coweight_coords(b) for b in sigma_pos)
            old_trivial = not fraction_nullspace(sigma_pos, rs.rank) and coroots == rs.rank
            assert (edge(rs, lam, n).dim == 0) == old_trivial, (lam, n)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "BC2", "BC3", "B2xG2"])
def test_fundamental_report_matches_the_old_lattice_and_edge_checks(name):
    rs, lams = _lattice_cases(name, 3)
    for lam in lams:
        for n in (1, 2, 3, 6):
            report = verify_fundamental_lemma(rs, lam, "strict", denominator=n)
            sigma = integral_roots(rs, lam, n)
            sigma_pos = [b for b in sigma if sum(b) > 0]
            expected = closure_lattice_index_oracle(rs, sigma, parabolic_closure(rs, sigma_pos))
            assert report.n_lattice == expected, (lam, n)
            assert report.integrality_ok == all(
                (expected * rootsys.pairing(rs, lam, beta)[0]).denominator == 1
                for beta in rs.positive_roots
            ), (lam, n)
            coroots = linalg.int_rank(rs.coroot_coweight_coords(b) for b in sigma_pos)
            nullspace = fraction_nullspace(sigma_pos, rs.rank)
            assert report.edge_trivial == (not nullspace and coroots == rs.rank), (lam, n)
            assert report.edge_basis.vectors == nullspace, (lam, n)


def test_span_basis_and_weight_lattice():
    rs = build_root_system("A2")
    sigma = integral_roots(rs, Parameter.of([Q(1, 2), Q(1, 2)]), 1)
    assert span_basis_of_integral_roots(rs, sigma) == ((1, 1),)
    s_basis, weights = weight_lattice_basis(rs, sigma)
    assert s_basis == ((1, 1),) and weights == ((Q(1, 2),),)
    # every weight vector pairs integrally with every positive integral coroot
    for name in ("A2", "B2", "G2", "BC1"):
        sys_ = build_root_system(name)
        lam = minus_rho(sys_)
        sig = integral_roots(sys_, lam, 2)
        s_b, w_b = weight_lattice_basis(sys_, sig)
        for w in w_b:
            for beta in sig:
                if sum(beta) <= 0:
                    continue
                coweight = sys_.coroot_coweight_coords(beta)
                value = sum(
                    c * sum(Q(s_i) * cw for s_i, cw in zip(s, coweight))
                    for c, s in zip(w, s_b)
                )
                assert value.denominator == 1


def test_fundamental_lemma_rank_one():
    rs = build_root_system("A1")
    rep = verify_fundamental_lemma(rs, Parameter.of([-1]), "strict")
    assert not rep.vacuous
    assert rep.n_lattice == 2 and rep.integrality_ok
    assert rep.edge_trivial and rep.edge_basis.dim == 0
    assert rep.parabolic.label == "A1"
    assert rep.containing_member is not None
    assert rep.re_lambda_on_edge_zero
    assert rep.im_lambda_on_edge_zero is None


def test_fundamental_lemma_a2():
    rs = build_root_system("A2")
    rep = verify_fundamental_lemma(rs, Parameter.of([-1, -1]), "strict")
    assert not rep.vacuous
    assert rep.n_lattice == 3 and rep.integrality_ok and rep.edge_trivial
    assert rep.parabolic.label == "A2"


def test_fundamental_lemma_partial_integrality():
    rs = build_root_system("A2")
    rep = verify_fundamental_lemma(rs, Parameter.of([Q(1, 2), Q(1, 2)]), "weak")
    assert not rep.vacuous
    assert rep.edge_basis.dim == 1
    assert rep.edge_basis.vectors == ((Q(-1), Q(1)),)
    assert rep.parabolic.label == "A1"
    assert rep.n_lattice == 2 and rep.integrality_ok
    assert rep.edge_trivial is None and rep.im_lambda_on_edge_zero is None
    assert rep.re_lambda_on_edge_zero  # (1/2,1/2) pairs to zero with (-1,1)


def test_fundamental_lemma_denominator_two_non_reduced():
    rs = build_root_system("BC1")
    rep = verify_fundamental_lemma(rs, Parameter.of([Q(-1, 2)]), "strict", denominator=2)
    assert not rep.vacuous and rep.edge_trivial
    assert rep.parabolic.label == "BC1" and rep.n_lattice == 2
    # the doubled coroot pairs to -1/4, outside (1/2)Z, so the flag is honest
    assert not rep.integrality_ok


def test_integral_class_constant():
    a2 = build_root_system("A2")
    assert integral_class_constant(a2, Parameter.of([-1, -1])) == 1
    b2 = build_root_system("B2")
    assert integral_class_constant(b2, Parameter.of([Q(1, 2), Q(1)])) == 2
    with pytest.raises(ValueError):
        integral_class_constant(b2, Parameter.of([Q(1, 2), Q(1, 2)]))


def test_certify_exponent_basic():
    cert = certify_exponent(1, ((1,),), 0, (1,), (0,), (0,))
    assert cert.solvable and cert.coefficients == (Q(1),)
    assert cert.lattice_ok and cert.ds1_ok and cert.ds2_ok
    cert = certify_exponent(1, ((1,),), 0, (Q(1, 2),), (0,), (0,), denominator=2)
    assert cert.lattice_ok
    cert = certify_exponent(1, ((1,),), 0, (Q(1, 2),), (0,), (0,), denominator=1)
    assert cert.solvable and not cert.lattice_ok and cert.ds1_ok


def test_certify_exponent_edge_and_solvability():
    # one spherical functional in a two-dimensional space: the difference
    # must lie on its line for solvability
    cert = certify_exponent(2, ((1, 0),), 1, (1, 1), (0, 0), (0, 0))
    assert not cert.solvable and cert.coefficients is None
    assert not cert.ds1_ok and not cert.lattice_ok and not cert.ds2_ok
    cert = certify_exponent(2, ((1, 0),), 1, (1, 0), (0, 0), (0, 0))
    assert cert.solvable and cert.coefficients == (Q(1),)
    assert cert.ds1_ok and cert.ds2_ok
    # nu is carried through unchanged
    assert certify_exponent(2, ((1, 0),), 1, (1, 0), (0, 0), (0, Q(1, 3))).nu == (
        Q(0),
        Q(1, 3),
    )


def test_certify_exponent_empty_spherical_set():
    cert = certify_exponent(1, (), 1, (0,), (0,), (0,))
    assert cert.solvable and cert.coefficients == ()
    assert cert.lattice_ok and cert.ds1_ok and cert.ds2_ok
    cert = certify_exponent(1, (), 1, (1,), (0,), (0,))
    assert not cert.solvable and not cert.ds2_ok


def test_certify_exponent_validation():
    with pytest.raises(ValueError):
        certify_exponent(0, (), 0, (), (), ())
    with pytest.raises(ValueError):
        certify_exponent(2, ((1, 0), (2, 0)), 0, (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        certify_exponent(2, ((1, 0),), 0, (0, 0), (0, 0), (0, 0))  # edge_dims wrong
    with pytest.raises(ValueError):
        certify_exponent(2, ((1,),), 1, (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        certify_exponent(1, (), 1, (0, 0), (0,), (0,))
    with pytest.raises(ValueError):
        certify_exponent(1, (), 1, (0,), (0,), (0,), denominator=0)


def _exponent_oracle(rank_z, spherical, mu, rho_q, nu, denominator):
    """certify_exponent's fields from a Fraction solve and nullspace, or
    None when the spherical rows are dependent."""
    if fraction_rank(spherical) != len(spherical):
        return None
    target = [Q(a) - Q(b) for a, b in zip(mu, rho_q)]
    if spherical:
        coeffs = fraction_solve(list(zip(*spherical)), target)
    else:
        coeffs = None if any(target) else ()
    solvable = coeffs is not None
    edge_basis = fraction_nullspace(spherical, rank_z)
    return {
        "solvable": solvable,
        "coefficients": coeffs,
        "nu": tuple(Q(x) for x in nu),
        "lattice_ok": solvable and all(c > 0 and (denominator * c).denominator == 1
                                       for c in coeffs),
        "ds1_ok": solvable and all(c > 0 for c in coeffs),
        "ds2_ok": all(sum(t * v for t, v in zip(target, b)) == 0 for b in edge_basis),
    }


def test_certify_exponent_matches_fraction_oracle():
    rng = random.Random("exponent oracle")
    values = (0, 0, 1, -1, 2, -3, Q(1, 2), Q(-2, 3), Q(5, 4))
    kinds = {"empty": 0, "dependent": 0, "unsolvable": 0, "solvable": 0}
    for _ in range(3000):
        rank_z = rng.randint(1, 4)
        k = rng.randint(0, rank_z)
        spherical = [[rng.choice(values) for _ in range(rank_z)] for _ in range(k)]
        if k > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(k), 2)
            spherical[i] = [Q(rng.choice((1, -2, 3)), rng.choice((1, 2))) * x for x in spherical[j]]
        rho_q = [rng.choice(values) for _ in range(rank_z)]
        if rng.random() < 0.5:
            # a real part in rho_q plus the span of the spherical rows
            cs = [rng.choice(values) for _ in spherical]
            mu = [r + sum((c * Q(s[j]) for c, s in zip(cs, spherical)), Q(0))
                  for j, r in enumerate(rho_q)]
        else:
            mu = [rng.choice(values) for _ in range(rank_z)]
        nu = [rng.choice(values) for _ in range(rank_z)]
        denominator = rng.randint(1, 6)
        expected = _exponent_oracle(rank_z, spherical, mu, rho_q, nu, denominator)
        args = (rank_z, tuple(map(tuple, spherical)), rank_z - k, tuple(mu), tuple(rho_q),
                tuple(nu), denominator)
        kinds["empty"] += not spherical
        if expected is None:
            kinds["dependent"] += 1
            with pytest.raises(ValueError, match="linearly dependent"):
                certify_exponent(*args)
            continue
        kinds["solvable" if expected["solvable"] else "unsolvable"] += 1
        cert = certify_exponent(*args)
        for field, value in expected.items():
            assert getattr(cert, field) == value, (field, args)
    assert min(kinds.values()) >= 200, kinds


def test_rank_one_bound_values():
    assert rank_one_bound() == 18
    assert rank_one_bound(None) == 18
    assert rank_one_bound("  ") == 18
    assert rank_one_bound("A1") == 72
    assert rank_one_bound("A2") == 162
    assert rank_one_bound("B2") == 72
    assert rank_one_bound("G2") == 18
    assert rank_one_bound("A1xA1") == 288


@pytest.mark.parametrize("name", ["A7", "B5", "C6", "BC4", "D8", "E7", "F4xG2", "A3xBC2xD5"])
def test_rank_one_bound_is_the_full_cartan_determinant(name):
    assert rank_one_bound(name) == 18 * fraction_det(build_root_system(name).cartan) ** 2


def test_rank_one_bound_builds_no_roots(monkeypatch):
    def refuse(spec):
        raise AssertionError(f"built the roots of {spec}")

    monkeypatch.setattr(rootsys, "build_root_system", refuse)
    monkeypatch.setattr(rootsys.RootSystem, "__init__", refuse)
    assert rank_one_bound("A2xB3xG2") == 648
    assert rank_one_bound("A120") == 18 * 121**2
    assert rank_one_bound("BC200xD100") == 18 * 8**2


def test_witness_actually_certifies():
    # replay every returned witness against the defining inequalities
    rng = random.Random(5)
    for name in ("A2", "B2", "BC1"):
        rs = build_root_system(name)
        for _ in range(30):
            lam = Parameter(
                tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rs.rank)),
                tuple(Q(0) for _ in range(rs.rank)),
            )
            v = check_negativity(rs, NegativityQuery(lam, "strict"))
            if not v.feasible:
                continue
            # solve cartan . c = re(lam) for the root coordinates of lam,
            # then check (lam - omega)(fundamental coweight i) = c_i - omega_i < 0
            cols = [[Q(rs.cartan[i][j]) for j in range(rs.rank)] for i in range(rs.rank)]
            re_root = fraction_solve(cols, lam.re)
            assert re_root is not None
            for i in range(rs.rank):
                omega_i = sum(
                    c * Q(beta[i]) for c, beta in zip(v.witness_omega, v.span_basis)
                )
                assert re_root[i] - omega_i < 0


def _rank_span_basis(sigma):
    """The first maximal independent subset, by rank growth (the definition)."""
    basis = []
    for beta in sigma:
        if sum(beta) > 0 and fraction_rank(basis + [beta]) > len(basis):
            basis.append(beta)
    return tuple(basis)


@pytest.mark.parametrize("name", ["A3", "BC3", "G2", "D4", "F4", "B2xG2", "C3xA1"])
def test_span_basis_matches_rank_definition(name):
    rs = build_root_system(name)
    rng = random.Random(f"span_basis/{name}")
    for _ in range(20):
        lam = Parameter.of([Q(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rs.rank)])
        sigma = integral_roots(rs, lam, rng.choice((1, 2)))
        assert span_basis_of_integral_roots(rs, sigma) == _rank_span_basis(sigma)
        # arbitrary root orders too, not only the sorted integral sets
        shuffled = list(rs.roots)
        rng.shuffle(shuffled)
        subset = tuple(shuffled[: rng.randint(0, len(shuffled))])
        assert span_basis_of_integral_roots(rs, subset) == _rank_span_basis(subset)


def test_class_and_lemma_read_words_off_the_walk():
    # a one-dimensional edge and a subspace that no gallery member satisfies,
    # so the lemma's search reads every chamber of the walk; witness words
    # come off the walk, and no library module peels a descent word
    for module in (rootsys, params):
        assert not hasattr(module, "descent_word")
        assert not hasattr(module, "reduced_word")
    rs = build_root_system("F4")
    lam = Parameter.of([Q(1, 2), Q(1, 3), 1, -1])
    sub = SubspaceBasis(4, ((0, 0, 1, 0),))
    size = len(gallery_class(rs, lam))
    assert size > 1
    assert len(check_class_negativity(rs, lam, "weak", sub).members) == size
    report = verify_fundamental_lemma(rs, lam, "weak", sub)
    assert report.containing_member is None and report.edge_basis.dim == 1
