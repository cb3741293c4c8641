"""Property sweeps over parameter grids, shared by the test suite and the
``verify`` CLI command.

Each check walks a deterministic grid of parameters (or matrices) and
returns a PropertyResult naming every failure.  An independent
Fourier-Motzkin eliminator double-checks the simplex on low-rank systems.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Optional, Sequence

from . import linalg
from .lattice import smith_normal_form
from .negativity import (
    NegativityQuery,
    check_class_negativity,
    check_negativity,
    integral_class_constant,
    span_basis_of_integral_roots,
    verify_fundamental_lemma,
)
from .params import (
    chamber_count,
    equivalence_class,
    edge,
    evaluate_on_coweight,
    gallery_class,
    integral_roots,
    value_in_fraction_of_z,
)
from .rootsys import (
    Parameter,
    RootSystem,
    WeylElement,
    act,
    build_root_system,
    dual,
    identity_weyl,
    pairing,
    parameter_from_root_coords,
    root_coords_of,
    weyl_group,
)
from .subsystems import census

#: real coordinate values of the standard rank-2 grid
REAL_GRID = (Q(0), Q(1, 3), Q(-1, 3), Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(3, 2), Q(-3, 2))
#: imaginary coordinate values of the standard rank-2 grid
IMAG_GRID = (Q(0), Q(1, 2), Q(-1, 2))

#: rank-1 types get a denser sweep so each type still sees 200+ parameters
DENSE_REAL_GRID = tuple(Q(k, 12) for k in range(-24, 25))
DENSE_IMAG_GRID = (Q(0), Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(3, 2), Q(-3, 2))

GRID_SEED = 20260817


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def parameter_grid(rs: RootSystem) -> tuple[Parameter, ...]:
    """The deterministic parameter grid for one type.

    Rank 1: dense rational sweep.  Rank 2: the standard grid, full product
    over coordinates.  Rank 3 and above: a fixed-seed random sample.
    """
    if rs.rank == 1:
        return tuple(
            Parameter((re,), (im,))
            for re in DENSE_REAL_GRID
            for im in DENSE_IMAG_GRID
        )
    if rs.rank == 2:
        coords = tuple(itertools.product(REAL_GRID, IMAG_GRID))
        return tuple(
            Parameter((r1, r2), (i1, i2))
            for (r1, i1), (r2, i2) in itertools.product(coords, coords)
        )
    rng = random.Random(GRID_SEED)
    out = []
    for _ in range(120):
        re = tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(rs.rank))
        im = tuple(Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(rs.rank))
        out.append(Parameter(re, im))
    return tuple(out)


def _sweep(
    name: str,
    types: Sequence[str],
    check: Callable[[RootSystem, Parameter], Optional[str]],
) -> PropertyResult:
    checked = 0
    failures = []
    for type_name in types:
        rs = build_root_system(type_name)
        for lam in parameter_grid(rs):
            checked += 1
            message = check(rs, lam)
            if message is not None:
                failures.append(f"{type_name} {_param_str(lam)}: {message}")
    return PropertyResult(name, checked, tuple(failures))


def _param_str(lam: Parameter) -> str:
    re = ",".join(str(x) for x in lam.re)
    im = ",".join(str(x) for x in lam.im)
    return f"re=({re}) im=({im})"


# ---------------------------------------------------------------------------
# Chamber and move-class agreement

def c_lambda(rs: RootSystem, lam: Parameter) -> tuple[WeylElement, ...]:
    """Chambers w(C) inside {X : alpha(X) >= 0 for all positive integral alpha},
    by a scan of W in its (length, images) order: the chamber oracle.

    On w(C), alpha takes the signs that w^{-1}(alpha) takes on C, and a root
    is positive on C exactly when it is a positive root.  So w(C) lies in the
    cone exactly when w^{-1} maps every positive integral root to a positive
    root, that is when w sends no positive root to a negative integral root.
    """
    sigma_neg = frozenset(b for b in integral_roots(rs, lam, 1) if sum(b) < 0)
    out = []
    for w in weyl_group(rs):
        images = [w.apply_root(beta) for beta in rs.positive_roots]
        if not all(map(rs.contains, images)):
            raise AssertionError("a Weyl element sent a root off the root system")
        if sigma_neg.isdisjoint(images):
            out.append(w)
    return tuple(out)


def check_chamber_gallery_agreement(
    types: Sequence[str] = ("A2", "B2", "G2", "BC1"),
) -> PropertyResult:
    """The chamber cone of the integral roots equals the gallery closure, and
    the gallery has chamber_count chambers."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        cone = set(c_lambda(rs, lam))
        gallery = gallery_class(rs, lam)
        if cone != set(gallery):
            return f"cone has {len(cone)} chambers, gallery {len(gallery)}"
        if len(gallery) != chamber_count(rs, lam):
            return f"gallery has {len(gallery)} chambers, chamber_count {chamber_count(rs, lam)}"
        return None

    return _sweep("chamber_cone_equals_gallery", types, check)


def move_class(rs: RootSystem, lam: Parameter, denominator: int = 1) -> frozenset[Parameter]:
    """Parameters reachable from lam by admissible moves, by a breadth-first
    search over parameters: the move-class oracle.  The move mu -> s_i(mu) is
    admissible when mu's alpha_i-coroot pairing is not in (1/denominator)Z."""
    gens = [identity_weyl(rs).times_simple(rs, i) for i in range(rs.rank)]
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i, s_i in enumerate(gens):
                if value_in_fraction_of_z(*pairing(rs, mu, rs.simple_roots[i]), denominator):
                    continue
                nu = act(rs, s_i, mu)
                if nu not in seen:
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return frozenset(seen)


def check_move_class_matches_gallery(
    types: Sequence[str] = ("A2", "B2", "G2", "BC1"),
) -> PropertyResult:
    """Move-class members, read off the gallery, are exactly the parameters
    the move search reaches."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        members = set(equivalence_class(rs, lam, 1).parameters)
        reached = move_class(rs, lam, 1)
        if members != reached:
            return f"{len(members)} move-class members vs {len(reached)} reached by moves"
        return None

    return _sweep("move_class_equals_gallery_orbit", types, check)


def check_witnesses_consistent(
    types: Sequence[str] = ("A2", "B2", "G2", "BC1"),
) -> PropertyResult:
    """Every (word, mu) member of a move class satisfies mu = w(lam), w the
    product of the simple reflections of the printed word."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        for word, mu in equivalence_class(rs, lam, 1).members:
            w = identity_weyl(rs)
            for i in word:
                w = w.times_simple(rs, i - 1)
            if act(rs, w, lam) != mu:
                return "witness word does not map the base to its member"
        return None

    return _sweep("move_class_witnesses", types, check)


# ---------------------------------------------------------------------------
# Negativity consequences

def check_strict_consequences(
    types: Sequence[str] = ("A1", "A2", "B2", "G2"),
) -> PropertyResult:
    """Strictly negative classes have trivial edge and bounded denominators.

    For every grid parameter whose whole class passes the strict predicate:
    the edge is zero, the integral coroots have full rank, and every coroot
    pairing is real with denominator dividing the subsystem constant of the
    integral root set.
    """

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        # screen first: a vacuous report would do edge and lattice work for nothing
        if not check_class_negativity(rs, lam, "strict").ok:
            return None
        report = verify_fundamental_lemma(rs, lam, "strict")
        if not report.edge_trivial:
            return "strictly negative class without trivial edge"
        constant = integral_class_constant(rs, lam)
        for beta in rs.positive_roots:
            re, im = pairing(rs, lam, beta)
            if im != 0:
                return "strictly negative class with non-real pairing"
            if (constant * re).denominator != 1:
                return (
                    f"pairing {re} at {beta} outside (1/{constant})Z"
                )
        return None

    return _sweep("strict_implies_trivial_edge_and_integrality", types, check)


def check_integral_consequences(
    types: Sequence[str] = ("A1", "A2", "B2", "G2"),
) -> PropertyResult:
    """Integrally negative classes (default subspaces) are real, zero on edge."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        if not check_class_negativity(rs, lam, "integral").ok:
            return None
        if not lam.is_real():
            return "integrally negative class with nonzero imaginary part"
        e = edge(rs, lam)
        for v in e.vectors:
            re, im = evaluate_on_coweight(rs, lam, v)
            if re != 0 or im != 0:
                return "parameter does not vanish on its edge"
        return None

    return _sweep("integral_implies_real_and_edge_vanishing", types, check)


def check_type_a_rigidity(
    types: Sequence[str] = ("A1", "A2", "A3"),
) -> PropertyResult:
    """In type A, strictly negative classes are singletons with integer pairings."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        if not check_class_negativity(rs, lam, "strict").ok:
            return None
        cls = equivalence_class(rs, lam, 1)
        if len(cls.members) != 1:
            return "strictly negative type-A class is not a singleton"
        for beta in rs.positive_roots:
            re, im = pairing(rs, lam, beta)
            if im != 0 or re.denominator != 1:
                return "strictly negative type-A pairing is not an integer"
        return None

    return _sweep("type_a_strict_rigidity", types, check)


def check_strict_scale_covariance(
    types: Sequence[str] = ("A1", "A2", "B2", "G2", "BC1"),
) -> PropertyResult:
    """Shifting by a sum of integral roots preserves the strict verdict."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        sigma = integral_roots(rs, lam, 1)
        basis = span_basis_of_integral_roots(rs, sigma)
        if not basis:
            return None
        shift = [0] * rs.rank
        for beta in basis:
            for j, b in enumerate(beta):
                shift[j] += b
        omega0 = parameter_from_root_coords(rs, shift, [0] * rs.rank)
        shifted = Parameter(
            tuple(a + b for a, b in zip(lam.re, omega0.re)), lam.im
        )
        if integral_roots(rs, shifted, 1) != sigma:
            return "root shift changed the integral root set"
        before = check_negativity(rs, NegativityQuery(lam, "strict")).feasible
        after = check_negativity(rs, NegativityQuery(shifted, "strict")).feasible
        if before != after:
            return f"strict verdict changed under root shift ({before} -> {after})"
        return None

    return _sweep("strict_scale_covariance", types, check)


# ---------------------------------------------------------------------------
# Simplex cross-checks

def fourier_motzkin_feasible(
    rows: Sequence[tuple[Sequence[Q], str, Q]], nvars: int
) -> bool:
    """Exact feasibility of a mixed strict/weak linear system over the reals.

    Classic variable elimination: combining an upper and a lower bound on the
    eliminated variable yields a row that is strict when either parent is.
    Exponential in general; used only as an oracle in low dimension.
    """
    work = [([Q(x) for x in coeffs], rel, Q(bound)) for coeffs, rel, bound in rows]
    for var in range(nvars):
        uppers, lowers, rest = [], [], []
        for coeffs, rel, bound in work:
            c = coeffs[var]
            if c > 0:
                uppers.append((coeffs, rel, bound))
            elif c < 0:
                lowers.append((coeffs, rel, bound))
            else:
                rest.append((coeffs, rel, bound))
        new_rows = rest
        for uc, urel, ub in uppers:
            for lc, lrel, lb in lowers:
                scale_u = Q(1) / uc[var]
                scale_l = Q(1) / -lc[var]
                coeffs = [
                    scale_u * u + scale_l * lv for u, lv in zip(uc, lc)
                ]
                bound = scale_u * ub + scale_l * lb
                rel = "<" if ("<" in (urel, lrel)) else "<="
                new_rows.append((coeffs, rel, bound))
        work = new_rows
    for coeffs, rel, bound in work:
        if rel == "<" and not bound > 0:
            return False
        if rel == "<=" and not bound >= 0:
            return False
    return True


def _strict_rows(rs: RootSystem, lam: Parameter):
    sigma = integral_roots(rs, lam, 1)
    basis = span_basis_of_integral_roots(rs, sigma)
    re_c, _ = root_coords_of(rs, lam)
    rows = [
        ([-Q(beta[i]) for beta in basis], "<", -re_c[i]) for i in range(rs.rank)
    ]
    return rows, basis, re_c


def check_simplex_against_elimination(
    types: Sequence[str] = ("A1", "A2", "B2", "G2", "BC1"),
) -> PropertyResult:
    """Strict verdicts agree with independent Fourier-Motzkin elimination."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        rows, basis, _ = _strict_rows(rs, lam)
        simplex_verdict = check_negativity(rs, NegativityQuery(lam, "strict")).feasible
        fm_verdict = fourier_motzkin_feasible(rows, len(basis))
        if simplex_verdict != fm_verdict:
            return f"simplex says {simplex_verdict}, elimination says {fm_verdict}"
        return None

    return _sweep("strict_feasibility_matches_elimination", types, check)


def _witness_values(rs: RootSystem, lam: Parameter, verdict) -> list[Q]:
    """Re(lam) - omega at each fundamental coweight, for a feasible verdict."""
    re_c, _ = root_coords_of(rs, lam)
    omega = tuple(zip(verdict.witness_omega, verdict.span_basis))
    return [re_c[i] - sum(y * beta[i] for y, beta in omega) for i in range(rs.rank)]


def check_witness_point_sampling(
    types: Sequence[str] = ("A1", "A2", "B2", "G2"),
    points_per_case: int = 5,
    min_total_points: int = 1000,
) -> PropertyResult:
    """Feasible strict witnesses stay negative at random chamber points."""
    rng = random.Random(GRID_SEED + 1)
    sampled = 0
    checked = 0
    failures = []
    for type_name in types:
        rs = build_root_system(type_name)
        for lam in parameter_grid(rs):
            verdict = check_negativity(rs, NegativityQuery(lam, "strict"))
            if not verdict.feasible:
                continue
            checked += 1
            generator_values = _witness_values(rs, lam, verdict)
            for _ in range(points_per_case):
                weights = [Q(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rs.rank)]
                if all(w == 0 for w in weights):
                    weights[rng.randrange(rs.rank)] = Q(1)
                total = sum(w * v for w, v in zip(weights, generator_values))
                sampled += 1
                if not total < 0:
                    failures.append(
                        f"{type_name} {_param_str(lam)}: witness not negative at {weights}"
                    )
                    break
    if sampled < min_total_points:
        # Top up on a fixed feasible instance so the sample size is honest.
        rs = build_root_system("A2")
        lam = Parameter.of([-1, -1])
        verdict = check_negativity(rs, NegativityQuery(lam, "strict"))
        assert verdict.feasible and verdict.witness_omega is not None
        values = _witness_values(rs, lam, verdict)
        while sampled < min_total_points:
            weights = [Q(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rs.rank)]
            if all(w == 0 for w in weights):
                weights[0] = Q(1)
            total = sum(w * v for w, v in zip(weights, values))
            sampled += 1
            if not total < 0:
                failures.append("A2 re=(-1,-1): witness not negative at sampled point")
                break
    return PropertyResult("strict_witness_point_sampling", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Structural and metamorphic checks

def check_integral_roots_equivariance(
    types: Sequence[str] = ("A2", "B2", "G2", "BC1", "BC2"),
    per_type: int = 40,
) -> PropertyResult:
    """integral_roots(w lam) = w(integral_roots(lam)) for all Weyl w."""
    checked = 0
    failures = []
    for type_name in types:
        rs = build_root_system(type_name)
        w_all = weyl_group(rs)
        for lam in parameter_grid(rs)[:per_type]:
            sigma = integral_roots(rs, lam, 1)
            for w in w_all:
                checked += 1
                moved = tuple(sorted(w.apply_root(b) for b in sigma))
                direct = integral_roots(rs, act(rs, w, lam), 1)
                if moved != direct:
                    failures.append(f"{type_name} {_param_str(lam)}: equivariance fails")
                    break
    return PropertyResult("integral_roots_equivariance", checked, tuple(failures))


def check_dual_involution(
    types: Sequence[str] = ("A2", "B2", "C3", "G2", "F4", "BC2", "D4", "B3xA1"),
) -> PropertyResult:
    """dual is an involution and swaps the B and C families."""
    checked = 0
    failures = []
    for type_name in types:
        rs = build_root_system(type_name)
        checked += 1
        double = dual(dual(rs))
        if double.spec != rs.spec:
            failures.append(f"{type_name}: dual applied twice gives {double.spec}")
        d = dual(rs)
        if len(d.positive_roots) != len(rs.positive_roots):
            failures.append(f"{type_name}: dual changed the number of roots")
    return PropertyResult("dual_involution", checked, tuple(failures))


def check_edge_depends_only_on_integral_roots(
    types: Sequence[str] = ("A2", "B2", "BC1"),
) -> PropertyResult:
    """Parameters with equal integral root sets get identical edge bases."""
    checked = 0
    failures = []
    for type_name in types:
        rs = build_root_system(type_name)
        by_sigma: dict[tuple, tuple] = {}
        for lam in parameter_grid(rs):
            checked += 1
            sigma = integral_roots(rs, lam, 1)
            basis = edge(rs, lam).vectors
            if sigma in by_sigma and by_sigma[sigma] != basis:
                failures.append(f"{type_name}: edge depends on more than the root set")
                break
            by_sigma[sigma] = basis
    return PropertyResult("edge_function_of_integral_roots", checked, tuple(failures))


def check_denominator_monotonicity(
    types: Sequence[str] = ("A2", "B2", "G2", "BC1"),
    denominators: Sequence[int] = (1, 2, 3, 6),
) -> PropertyResult:
    """integral_roots grows (weakly) with the denominator."""

    def check(rs: RootSystem, lam: Parameter) -> Optional[str]:
        base = set(integral_roots(rs, lam, 1))
        for n in denominators:
            bigger = set(integral_roots(rs, lam, n))
            if not base <= bigger:
                return f"integral roots at denominator {n} lost members"
        return None

    return _sweep("integral_roots_monotone_in_denominator", types, check)


def check_bds_against_brute_force(
    types: Sequence[str] = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "BC1", "BC2"),
) -> PropertyResult:
    """Both enumerations give the same (label, constant) multiset."""
    checked = 0
    failures = []
    for type_name in types:
        rs = build_root_system(type_name)
        checked += 1
        # a divisor chain's lcm is its last divisor
        by_method = {method: sorted((s.label, d[-1]) for s, d in census(rs, method))
                     for method in ("bds", "brute_force")}
        if by_method["bds"] != by_method["brute_force"]:
            failures.append(
                f"{type_name}: bds {by_method['bds']} vs brute force {by_method['brute_force']}"
            )
    return PropertyResult("bds_matches_brute_force", checked, tuple(failures))


def _int_mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def check_snf_soundness(cases: int = 1000, seed: int = GRID_SEED) -> PropertyResult:
    """U A V = D with unimodular transforms and a divisor chain, at random."""
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(a)
        if _int_mat_mul(_int_mat_mul(res.u, a), res.v) != res.d:
            failures.append(f"case {case}: U A V != D for {a}")
            continue
        if abs(linalg.det(res.u)) != 1 or abs(linalg.det(res.v)) != 1:
            failures.append(f"case {case}: transform not unimodular for {a}")
            continue
        divisors = res.divisors
        if any(x <= 0 for x in divisors) or any(
            divisors[i + 1] % divisors[i] for i in range(len(divisors) - 1)
        ):
            failures.append(f"case {case}: bad divisor chain {divisors} for {a}")
            continue
        off_diag = any(
            res.d[i][j] != 0
            for i in range(m)
            for j in range(n)
            if i != j
        )
        if off_diag:
            failures.append(f"case {case}: D not diagonal for {a}")
    return PropertyResult("snf_soundness", cases, tuple(failures))


ALL_CHECKS: tuple[Callable[[], PropertyResult], ...] = (
    check_chamber_gallery_agreement,
    check_move_class_matches_gallery,
    check_witnesses_consistent,
    check_strict_consequences,
    check_integral_consequences,
    check_type_a_rigidity,
    check_strict_scale_covariance,
    check_simplex_against_elimination,
    check_witness_point_sampling,
    check_integral_roots_equivariance,
    check_dual_involution,
    check_edge_depends_only_on_integral_roots,
    check_denominator_monotonicity,
    check_bds_against_brute_force,
    check_snf_soundness,
)


def run_all() -> tuple[PropertyResult, ...]:
    return tuple(check() for check in ALL_CHECKS)
