"""Acceptance gate: one test per numbered shipping criterion.

Each test asserts the exact expected values and, where the contract pins a
runtime budget, the elapsed wall time.  Nothing here is statistical: sweeps
either pass on 100% of their grid or the test fails with the first
counterexample in the assertion message.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction as Q

from rootneg.exponent import certify_exponent
from rootneg.negativity import verify_fundamental_lemma
from rootneg.rootsys import build_root_system, rank_one_bound
from rootneg.subsystems import full_rank_subsystems, n_of_subsystem, n_sigma
from rootneg.verification import (
    check_chamber_gallery_agreement,
    check_dual_involution,
    check_integral_consequences,
    check_integral_roots_equivariance,
    check_move_class_matches_gallery,
    check_snf_soundness,
    check_strict_consequences,
    check_strict_scale_covariance,
    parameter_grid,
)
from test_rootsys import minus_rho


def test_criterion_01_type_a_constant_is_one():
    start = time.monotonic()
    values = {n: n_sigma(build_root_system(f"A{n}")) for n in range(1, 7)}
    elapsed = time.monotonic() - start
    assert values == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    assert elapsed < 30


def test_criterion_02_enumeration_agrees_with_oracle():
    start = time.monotonic()
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1"):
        rs = build_root_system(name)
        fast = full_rank_subsystems(rs, method="bds")
        slow = full_rank_subsystems(rs, method="brute_force")
        key = lambda s: (s.label, n_of_subsystem(rs, set(s.roots)))
        assert sorted(map(key, fast)) == sorted(map(key, slow)), name
    assert time.monotonic() - start < 120


def test_criterion_03_chamber_cone_equals_gallery():
    for name in ("A2", "B2", "G2", "BC1"):
        assert len(parameter_grid(build_root_system(name))) >= 200
    start = time.monotonic()
    result = check_chamber_gallery_agreement()
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:3]
    assert elapsed < 60


def test_criterion_04_move_class_matches_orbit_criterion():
    start = time.monotonic()
    result = check_move_class_matches_gallery()
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:3]
    assert elapsed < 60


def test_criterion_05_strict_classes_have_trivial_edge_and_denominators():
    start = time.monotonic()
    result = check_strict_consequences()
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:3]
    assert elapsed < 120


def test_criterion_06_integral_classes_are_real_and_vanish_on_edge():
    result = check_integral_consequences()
    assert result.ok, result.failures[:3]


def test_criterion_07_snf_soundness_on_seeded_matrices():
    start = time.monotonic()
    result = check_snf_soundness(cases=1000)
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:3]
    assert result.checked == 1000
    assert elapsed < 30


def test_criterion_08_lattice_index_table():
    expected = {
        "A1": 2, "A2": 3, "A3": 4, "A4": 5,
        "B2": 2, "B3": 2, "C2": 2, "C3": 2,
        "D4": 4, "G2": 1,
    }
    for name, index in expected.items():
        rs = build_root_system(name)
        report = verify_fundamental_lemma(rs, minus_rho(rs), "strict")
        assert report.n_lattice == index, name
        assert report.integrality_ok, name


def test_criterion_09_rank_one_denominator_bounds():
    assert rank_one_bound() == 18
    assert rank_one_bound("A1") == 72
    assert rank_one_bound("A2") == 162
    assert rank_one_bound("B2") == 72


def test_criterion_10_exponent_certificate_truth_table():
    # (rank_z, spherical, edge_dims, mu, rho_q, nu, n) ->
    # (solvable, lattice_ok, ds1_ok, ds2_ok), coefficients
    h = Q(1, 2)
    t = Q(1, 3)
    cases = [
        # one functional spanning the whole line
        ((1, ((1,),), 0, (1,), (0,), (0,), 1), (True, True, True, True), (Q(1),)),
        ((1, ((1,),), 0, (h,), (0,), (0,), 1), (True, False, True, True), (h,)),
        ((1, ((1,),), 0, (h,), (0,), (0,), 2), (True, True, True, True), (h,)),
        ((1, ((1,),), 0, (0,), (0,), (0,), 1), (True, False, False, True), (Q(0),)),
        ((1, ((1,),), 0, (-1,), (0,), (0,), 1), (True, False, False, True), (Q(-1),)),
        ((1, ((1,),), 0, (t,), (0,), (0,), 2), (True, False, True, True), (t,)),
        # one functional inside a plane, so a genuine edge remains
        ((2, ((1, 0),), 1, (1, 0), (0, 0), (0, 0), 1), (True, True, True, True), (Q(1),)),
        ((2, ((1, 0),), 1, (1, 1), (0, 0), (0, 0), 1), (False, False, False, False), None),
        ((2, ((1, 0),), 1, (h, 0), (0, 0), (0, 0), 1), (True, False, True, True), (h,)),
        ((2, ((1, 0),), 1, (0, 0), (0, 0), (0, 0), 1), (True, False, False, True), (Q(0),)),
        ((2, ((1, 0),), 1, (3, 0), (1, 0), (0, 0), 1), (True, True, True, True), (Q(2),)),
        ((2, ((1, 0),), 1, (1, 1), (0, 1), (0, h), 1), (True, True, True, True), (Q(1),)),
        ((2, ((1, 0),), 1, (1, 0), (0, 1), (0, 0), 1), (False, False, False, False), None),
        # two independent functionals, simplicial cone with trivial edge
        ((2, ((1, 0), (0, 1)), 0, (1, 2), (0, 0), (0, 0), 1), (True, True, True, True), (Q(1), Q(2))),
        ((2, ((1, 0), (0, 1)), 0, (1, -1), (0, 0), (0, 0), 1), (True, False, False, True), (Q(1), Q(-1))),
        ((2, ((1, 0), (0, 1)), 0, (t, 2 * t), (0, 0), (0, 0), 3), (True, True, True, True), (t, 2 * t)),
        ((2, ((1, 0), (0, 1)), 0, (t, h), (0, 0), (0, 0), 6), (True, True, True, True), (t, h)),
        ((2, ((1, 0), (0, 1)), 0, (t, h), (0, 0), (0, 0), 2), (True, False, True, True), (t, h)),
        # no functionals at all: only the zero difference is expressible
        ((1, (), 1, (0,), (0,), (0,), 1), (True, True, True, True), ()),
        ((1, (), 1, (1,), (0,), (0,), 1), (False, False, False, False), None),
    ]
    assert len(cases) == 20
    for args, flags, coefficients in cases:
        rank_z, spherical, edge_dims, mu, rho_q, nu, n = args
        cert = certify_exponent(
            rank_z, spherical, edge_dims, mu, rho_q, nu, denominator=n
        )
        got = (cert.solvable, cert.lattice_ok, cert.ds1_ok, cert.ds2_ok)
        assert got == flags, args
        assert cert.coefficients == coefficients, args
        assert cert.nu == tuple(Q(x) for x in nu)


def test_criterion_11_metamorphic_suites_and_determinism():
    for result in (
        check_integral_roots_equivariance(),
        check_dual_involution(),
        check_strict_scale_covariance(),
    ):
        assert result.ok, (result.name, result.failures[:3])
    for argv in (
        ["nsigma", "--type", "G2"],
        ["class", "--type", "B2", "--re", "1/2,1", "--im", "0,1/2"],
        ["negativity", "--type", "A2", "--re", "-1,-1", "--mode", "strict"],
    ):
        cmd = [sys.executable, "-m", "rootneg.cli", *argv]
        runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
