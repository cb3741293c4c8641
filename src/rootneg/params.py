"""Integrality data of a parameter: integral roots, move classes,
chamber galleries, and the edge subspace.  A gallery holds one chamber per
coset of W(Sigma), Sigma the integral roots, so chamber_count is the index
|W : W(Sigma)| and no element of W is enumerated.

Throughout, "the pairing is in (1/N)Z" means: the imaginary part vanishes and
N times the real part is an integer.  This is the only reading under which
the integral root set spans a real subspace, which later negativity checks
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from . import linalg
from .linalg import Vec
from .rootsys import (
    Parameter,
    Root,
    RootSystem,
    WeylElement,
    act_by_inverse,
    descent_word,
    identity_weyl,
    pairing,
    root_coords_of,
    simple_reflection,
    weyl_order,
)
from .subsystems import subsystem_spec


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of the chamber side, spanned by rows in coweight coordinates.

    The rows, scaled to integers, go into one integer echelon on
    construction; membership reduces a vector against it.
    """

    ambient_dim: int
    vectors: tuple[Vec, ...]

    def __post_init__(self) -> None:
        vecs = tuple(linalg.vec(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        for v in vecs:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector length does not match ambient dimension")
        echelon = linalg.IntEchelon(linalg.scaled_to_int(v) for v in vecs)
        if len(echelon) != len(vecs):
            raise ValueError("subspace basis vectors are linearly dependent")
        object.__setattr__(self, "_echelon", echelon)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, x: Vec) -> bool:
        x = linalg.scaled_to_int(x)
        if len(x) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return self._echelon.contains(x)


def full_space(rs: RootSystem) -> SubspaceBasis:
    return SubspaceBasis(rs.rank, tuple(linalg.identity(rs.rank)))


@dataclass(frozen=True)
class ParameterClass:
    """All parameters reachable from base by admissible reflection moves.

    members are (w, mu) pairs with mu = w(base), each w a first witness in
    breadth-first order; base itself appears with w = identity.
    """

    members: tuple[tuple[WeylElement, Parameter], ...]
    base: Parameter
    denominator: int

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        return tuple(mu for _, mu in self.members)


def value_in_fraction_of_z(re: Q, im: Q, denominator: int = 1) -> bool:
    """Whether re + i*im lies in (1/denominator)Z."""
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    return im == 0 and (denominator * re).denominator == 1


def integral_roots(rs: RootSystem, lam: Parameter, denominator: int = 1) -> tuple[Root, ...]:
    """Roots whose coroot pairing with lam lies in (1/denominator)Z, sorted.

    The test is value_in_fraction_of_z on the pairing, done on the integer
    sums of rootsys.pairing: the pairing is re_sum / (d (beta, beta)) plus
    i im_sum / (d (beta, beta)), d the common denominator of lam.
    """
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    if lam.rank != rs.rank:
        raise ValueError("parameter rank does not match root system rank")
    d, re, im = lam._scaled
    diag = [rs.gram[j][j] for j in range(rs.rank)]
    out = []
    for beta in rs.positive_roots:
        coeffs = [b * g for b, g in zip(beta, diag)]
        if sum(c * x for c, x in zip(coeffs, im)):
            continue
        re_sum = sum(c * x for c, x in zip(coeffs, re))
        if denominator * re_sum % (d * rs.length_sq(beta)) == 0:
            out.append(beta)
            out.append(tuple(-b for b in beta))
    return tuple(sorted(out))


def equivalence_class(rs: RootSystem, lam: Parameter, denominator: int = 1) -> ParameterClass:
    """Breadth-first closure of lam under admissible simple-reflection moves.

    A move at the i-th simple root is admissible for mu when mu's pairing
    with that coroot is NOT in (1/denominator)Z; the reflected parameter is
    then equivalent to mu.  Any nonzero imaginary part makes the pairing
    non-integral.
    """
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    ident = identity_weyl(rs)
    members: dict[Parameter, WeylElement] = {lam: ident}
    frontier = [lam]
    while frontier:
        frontier.sort(key=_parameter_sort_key)
        nxt = []
        for mu in frontier:
            w_mu = members[mu]
            for i in range(rs.rank):
                re, im = pairing(rs, mu, rs.simple_roots[i])
                if value_in_fraction_of_z(re, im, denominator):
                    continue
                # s_i is its own inverse
                nu = act_by_inverse(rs, gens[i], mu)
                if nu not in members:
                    members[nu] = gens[i].compose(w_mu)
                    nxt.append(nu)
        frontier = nxt
    ordered = tuple(
        (members[mu], mu) for mu in sorted(members, key=_parameter_sort_key)
    )
    return ParameterClass(ordered, lam, denominator)


def _parameter_sort_key(p: Parameter) -> tuple:
    return (p.re, p.im)


def gallery_class(rs: RootSystem, lam: Parameter) -> tuple[WeylElement, ...]:
    """Chambers u(C) reachable from C crossing only walls of non-integral
    roots, as the elements u ordered by (length, images).

    Stepping from u(C) to u s_i(C) crosses the wall of u(alpha_i); the step
    is allowed iff that (indivisible) root is outside the integral root set.
    Breadth-first level k is the chambers of length k, since a minimal
    gallery between two chambers of the cone crosses none of its walls.
    """
    sigma = frozenset(integral_roots(rs, lam, 1))
    level = [identity_weyl(rs)]
    seen = {level[0].images}
    out: list[WeylElement] = []
    while level:
        out.extend(level)
        nxt = []
        for u in level:
            for i in range(rs.rank):
                if u.images[i] in sigma:
                    continue
                v = u.times_simple(rs, i)
                if v.images not in seen:
                    seen.add(v.images)
                    nxt.append(v)
        level = sorted(nxt)
    return tuple(out)


def chamber_count(rs: RootSystem, lam: Parameter) -> int:
    """Number of chambers in the gallery of lam, |W| / |W(Sigma)| for Sigma
    the integral roots at denominator 1: the gallery fills the cone C_lambda,
    which holds one chamber per coset of W(Sigma) (Humphreys, Reflection
    Groups and Coxeter Groups §1.10; Dyer 1990, J. Algebra 135).
    """
    spec = subsystem_spec(rs, integral_roots(rs, lam, 1))
    return weyl_order(rs.spec) // (weyl_order(spec) if spec is not None else 1)


def edge(rs: RootSystem, lam: Parameter, denominator: int = 1) -> SubspaceBasis:
    """Common kernel of the integral roots, as a canonical subspace basis."""
    sigma_pos = [b for b in integral_roots(rs, lam, denominator) if sum(b) > 0]
    rows = [linalg.vec(b) for b in sigma_pos]
    basis = linalg.nullspace(rows, ncols=rs.rank)
    return SubspaceBasis(rs.rank, basis)


def evaluate_on_coweight(rs: RootSystem, lam: Parameter, x: Vec) -> tuple[Q, Q]:
    """Value of lam at a chamber-side point, as (real, imaginary) parts."""
    re_c, im_c = root_coords_of(rs, lam)
    xv = linalg.vec(x)
    return linalg.dot(re_c, xv), linalg.dot(im_c, xv)


def reduced_word(rs: RootSystem, w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w (1-based simple reflection indices)."""
    return tuple(i + 1 for i in reversed(descent_word(rs, w)))
