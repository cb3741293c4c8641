"""Negativity certificates for parameters, by exact cone feasibility.

The three predicates ask for a correction vector omega in the real span of
the integral root set such that Re(lam) - omega is nonpositive (weak,
integral) or strictly negative (strict) on the dominant chamber, with
equality allowed only along a designated subspace a_lambda of the chamber
side.  On the simplicial chamber the conditions reduce to finitely many
exact rational inequalities at the fundamental coweights, decided by the
simplex, which works on a fraction-free integer tableau.

a_lambda is always an explicit input; passing None selects the documented
default (the whole chamber side), under which the strict clauses of the weak
and integral modes are vacuous.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import TYPE_CHECKING, Literal, NamedTuple, Optional

from . import linalg
from .linalg import Vec
from .params import (
    Chamber,
    SubspaceBasis,
    chamber_walk,
    edge,
    full_space,
    integral_roots,
)
from .rootsys import (
    Parameter,
    Root,
    RootSystem,
    root_coords_of,
)
from .simplex import feasible_mixed

if TYPE_CHECKING:  # subsystems and lattice load only in the functions that call them
    from .subsystems import Subsystem

Mode = Literal["weak", "integral", "strict"]

# Built with | rather than typing.Union: typing caches its subscriptions, and
# that cache would keep these classes (and through them this module's
# globals) alive after the package is dropped from sys.modules.
SubspaceAssignment = SubspaceBasis | Mapping[Parameter, SubspaceBasis] | None


class NegativityQuery:
    def __init__(self, lam: Parameter, mode: Mode, a_lambda: Optional[SubspaceBasis] = None,
                 denominator: int = 1) -> None:
        if mode not in ("weak", "integral", "strict"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "strict" and a_lambda is not None:
            raise ValueError("strict mode takes no subspace")
        if denominator < 1:
            raise ValueError("denominator must be a positive integer")
        self.lam, self.mode, self.a_lambda, self.denominator = lam, mode, a_lambda, denominator

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NegativityQuery) and (
            (self.lam, self.mode, self.a_lambda, self.denominator)
            == (other.lam, other.mode, other.a_lambda, other.denominator))

    def __hash__(self) -> int:
        return hash((self.lam, self.mode, self.a_lambda, self.denominator))


class NegativityVerdict(NamedTuple):
    """Outcome of one feasibility check.

    witness_omega holds rational coefficients over span_basis (a maximal
    independent subset of the positive integral roots, in root order);
    tight_generators are the indices i where Re(lam) - omega vanishes at the
    i-th fundamental coweight.
    """

    feasible: bool
    witness_omega: Optional[Vec]
    tight_generators: tuple[int, ...]
    span_basis: tuple[Root, ...]


class MemberVerdict(NamedTuple):
    word: tuple[int, ...]
    mu: Parameter
    verdict: NegativityVerdict


class ClassNegativityReport(NamedTuple):
    ok: bool
    members: tuple[MemberVerdict, ...]


class FundamentalLemmaReport(NamedTuple):
    """Edge and lattice data attached to a parameter's negativity class.

    vacuous is set when the class fails the requested negativity mode; the
    remaining fields are still computed.  n_lattice is the index of the root
    lattice of the parabolic closure inside the weight lattice of the
    integral root set (the dual lattice of its coroots within their span):
    the |det| of the matrix of pairings between a Z-basis of the closure's
    roots and one of the integral coroots.
    """

    vacuous: bool
    edge_basis: SubspaceBasis
    containing_member: Optional[tuple[tuple[int, ...], SubspaceBasis]]
    re_lambda_on_edge_zero: bool
    parabolic: Subsystem
    n_lattice: int
    integrality_ok: bool
    im_lambda_on_edge_zero: Optional[bool]
    edge_trivial: Optional[bool]


def span_basis_of_integral_roots(
    rs: RootSystem, sigma: tuple[Root, ...]
) -> tuple[Root, ...]:
    """First maximal independent subset of the positive integral roots.

    One integer echelon grows with the basis: a root joins when it does not
    reduce to zero against the rows kept so far.
    """
    basis: list[Root] = []
    echelon = linalg.IntEchelon()
    for beta in sigma:
        if sum(beta) > 0 and echelon.add(beta):
            basis.append(beta)
            if len(basis) == rs.rank:
                break
    return tuple(basis)


def check_negativity(rs: RootSystem, q: NegativityQuery) -> NegativityVerdict:
    """Decide one negativity predicate and return an exact witness.

    Strict mode: exists omega in the span of the integral roots with
    (Re lam - omega) < 0 at every fundamental coweight.  Weak/integral
    modes: <= 0 at every fundamental coweight, strictly at those outside
    a_lambda; the tight generators of a feasible witness then automatically
    span a face inside a_lambda.  Integral mode first requires the imaginary
    part of lam to vanish on a_lambda.
    """
    if q.lam.rank != rs.rank:
        raise ValueError("parameter rank does not match root system rank")
    sigma = integral_roots(rs, q.lam, q.denominator)
    basis = span_basis_of_integral_roots(rs, sigma)
    a_lambda = q.a_lambda if q.a_lambda is not None else (
        None if q.mode == "strict" else full_space(rs)
    )
    if a_lambda is not None and a_lambda.ambient_dim != rs.rank:
        raise ValueError("subspace ambient dimension does not match the system")

    re_c, im_c = root_coords_of(rs, q.lam)
    if q.mode == "integral":
        assert a_lambda is not None
        if any(linalg.dot(im_c, v) for v in a_lambda.vectors):
            return NegativityVerdict(False, None, (), basis)

    rows = []
    for i in range(rs.rank):
        coeffs = [-beta[i] for beta in basis]
        if q.mode == "strict":
            rel = "<"
        else:
            assert a_lambda is not None
            coweight = tuple(1 if j == i else 0 for j in range(rs.rank))
            rel = "<=" if a_lambda.contains(coweight) else "<"
        rows.append((coeffs, rel, -re_c[i]))
    ok, y = feasible_mixed(rows, len(basis))
    if not ok:
        return NegativityVerdict(False, None, (), basis)
    assert y is not None
    # Re lam - omega at each fundamental coweight, times a common denominator.
    scale = math.lcm(*(x.denominator for x in y + re_c))
    y_int = [x.numerator * (scale // x.denominator) for x in y]
    tight = []
    for i in range(rs.rank):
        value = re_c[i].numerator * (scale // re_c[i].denominator) - sum(
            yk * beta[i] for yk, beta in zip(y_int, basis)
        )
        if value == 0:
            tight.append(i)
        elif value > 0:
            raise AssertionError("witness violates a generator inequality")
    return NegativityVerdict(True, y, tuple(tight), basis)


def _subspace_for(
    subspaces: SubspaceBasis | Mapping[Parameter, SubspaceBasis], mu: Parameter
) -> SubspaceBasis:
    if isinstance(subspaces, SubspaceBasis):
        return subspaces
    if mu not in subspaces:
        raise ValueError(f"no subspace assigned to class member {mu}")
    return subspaces[mu]


def check_class_negativity(
    rs: RootSystem,
    lam: Parameter,
    mode: Mode,
    subspaces: SubspaceAssignment = None,
    denominator: int = 1,
) -> ClassNegativityReport:
    """Run check_negativity over every member of the equivalence class, in
    chamber_walk order (lam first).

    subspaces assigns a_mu to each member: None means the documented default
    (the full chamber side) for every member, a single SubspaceBasis is used
    uniformly, and a mapping must cover every member parameter.  Strict mode
    takes no subspaces.
    """
    subspaces = _assignment(rs, mode, subspaces)
    return _class_negativity(rs, chamber_walk(rs, lam, denominator), mode, subspaces, denominator)


def _assignment(rs: RootSystem, mode: Mode, subspaces: SubspaceAssignment) -> SubspaceAssignment:
    """subspaces with None read as the full chamber side; strict mode takes none."""
    if mode == "strict" and subspaces is not None:
        raise ValueError("strict mode takes no subspace assignment")
    return full_space(rs) if subspaces is None else subspaces


def _class_negativity(rs: RootSystem, walk: tuple[Chamber, ...], mode: Mode,
                      subspaces: SubspaceAssignment, denominator: int) -> ClassNegativityReport:
    """check_class_negativity on a walk at denominator, members in walk order."""
    members = []
    for c in walk:
        mu = c.mu
        a_mu = None if mode == "strict" else _subspace_for(subspaces, mu)
        verdict = check_negativity(rs, NegativityQuery(mu, mode, a_mu, denominator))
        members.append(MemberVerdict(c.w_word, mu, verdict))
    return ClassNegativityReport(all(m.verdict.feasible for m in members), tuple(members))


def _closure_lattice_index(
    rs: RootSystem, sigma_pos: list[Root], closure: Subsystem
) -> int:
    """Index of the closure's root lattice in the dual of the coroot lattice
    of sigma_pos within their span: |det| of the pairings between Z-bases
    of the two (Cassels, An Introduction to the Geometry of Numbers, ch. I)."""
    from .lattice import hermite_row_basis

    coroots = hermite_row_basis(rs.coroot_coweight_coords(b) for b in sigma_pos)
    roots = hermite_row_basis(g for g in closure.roots if sum(g) > 0)
    if len(roots) != len(coroots):
        raise AssertionError("parabolic closure left the span of its roots")
    if not roots:
        return 1
    return abs(linalg.det([[sum(x * y for x, y in zip(g, c)) for c in coroots]
                           for g in roots]))


def verify_fundamental_lemma(
    rs: RootSystem,
    lam: Parameter,
    mode: Mode,
    subspaces: SubspaceAssignment = None,
    denominator: int = 1,
) -> FundamentalLemmaReport:
    """Edge/lattice consequences of class negativity, checked on one input.

    Verifies, for the given parameter: some gallery member w has the edge
    inside w^{-1}(a_{w lam}); the real part of lam vanishes on the edge; the
    lattice index bound makes every real coroot pairing a multiple of
    1/n_lattice.  Integral mode additionally tests the imaginary part on the
    edge; strict mode tests that the edge is trivial and the integral
    coroots have full rank.  If class negativity fails for the requested
    mode the report is marked vacuous (and the checks are still reported).
    At denominator 1 the class and the containing-member search read one walk.
    """
    from .subsystems import parabolic_closure

    subspaces = _assignment(rs, mode, subspaces)
    walk = chamber_walk(rs, lam, denominator)
    gallery = walk if denominator == 1 else chamber_walk(rs, lam)
    vacuous = not _class_negativity(rs, walk, mode, subspaces, denominator).ok

    sigma_pos = [b for b in integral_roots(rs, lam, denominator) if sum(b) > 0]
    edge_basis = edge(rs, lam, denominator)

    containing: Optional[tuple[tuple[int, ...], SubspaceBasis]] = None
    edge_ints = [linalg.scaled_to_int(v) for v in edge_basis.vectors]
    for c in gallery:
        # w(X)_j = (u alpha_j)(X) for w = u^{-1}, read off u's images.
        a_mu = _subspace_for(subspaces, c.mu)
        if all(
            a_mu.contains(tuple(sum(x * y for x, y in zip(img, v)) for img in c.u.images))
            for v in edge_ints
        ):
            containing = (c.w_word, a_mu)
            break

    re_c, im_c = root_coords_of(rs, lam)
    re_zero = all(linalg.dot(re_c, v) == 0 for v in edge_basis.vectors)

    closure = parabolic_closure(rs, sigma_pos)
    n_lattice = _closure_lattice_index(rs, sigma_pos, closure)
    re_lam = Parameter(lam.re, (0,) * rs.rank)
    integrality_ok = len(integral_roots(rs, re_lam, n_lattice)) == len(rs.roots)

    im_zero: Optional[bool] = None
    if mode == "integral":
        im_zero = all(linalg.dot(im_c, v) == 0 for v in edge_basis.vectors)

    # no edge means full root rank, which the coroots 2G beta / (beta, beta) share
    edge_trivial = edge_basis.dim == 0 if mode == "strict" else None

    return FundamentalLemmaReport(
        vacuous=vacuous,
        edge_basis=edge_basis,
        containing_member=containing,
        re_lambda_on_edge_zero=re_zero,
        parabolic=closure,
        n_lattice=n_lattice,
        integrality_ok=integrality_ok,
        im_lambda_on_edge_zero=im_zero,
        edge_trivial=edge_trivial,
    )


def integral_class_constant(rs: RootSystem, lam: Parameter, denominator: int = 1) -> int:
    """The subsystem constant of the integral roots, which are reflection-closed:
    <lam, (s_a b)^v> = <lam, b^v> - <a, b^v> <lam, a^v>.

    Requires the integral root set to have full rank (as it does whenever the
    strict predicate holds for the class).
    """
    from .subsystems import n_of_subsystem

    return n_of_subsystem(rs, integral_roots(rs, lam, denominator))
