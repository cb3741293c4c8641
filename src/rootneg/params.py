"""Integrality data of a parameter: integral roots, move classes,
chamber galleries, and the edge subspace.  A gallery holds one chamber per
coset of W(Sigma), Sigma the integral roots, so chamber_count is the index
|W : W(Sigma)| and no element of W is enumerated.  A move class is read off
the gallery at the same denominator, one member per chamber: one integer walk
carries each chamber u(C), the member mu = w(lam) of its witness w = u^{-1},
and the 1-based reduced words of w and u that the CLI prints; its step test
reads mu's own coordinate, and no search runs over parameters.

Throughout, "the pairing is in (1/N)Z" means: the imaginary part vanishes and
N times the real part is an integer.  This is the only reading under which
the integral root set spans a real subspace, which later negativity checks
rely on.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import NamedTuple

from . import linalg
from .linalg import Vec
from .rootsys import (
    Parameter,
    Root,
    RootSystem,
    WeylElement,
    identity_weyl,
    root_coords_of,
    weyl_order,
)
from .subsystems import subsystem_spec


class SubspaceBasis:
    """A subspace of the chamber side, spanned by rows in coweight coordinates.

    The rows, scaled to integers, go into one integer echelon on
    construction; membership reduces a vector against it.
    """

    def __init__(self, ambient_dim: int, vectors: tuple[Vec, ...]) -> None:
        self.ambient_dim = ambient_dim
        self.vectors: tuple[Vec, ...] = tuple(linalg.vec(v) for v in vectors)
        for v in self.vectors:
            if len(v) != ambient_dim:
                raise ValueError("basis vector length does not match ambient dimension")
        self._echelon = linalg.IntEchelon(linalg.scaled_to_int(v) for v in self.vectors)
        if len(self._echelon) != len(self.vectors):
            raise ValueError("subspace basis vectors are linearly dependent")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubspaceBasis) and (
            (self.ambient_dim, self.vectors) == (other.ambient_dim, other.vectors))

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vectors))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, x: Vec) -> bool:
        x = linalg.scaled_to_int(x)
        if len(x) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return self._echelon.contains(x)


def full_space(rs: RootSystem) -> SubspaceBasis:
    n = rs.rank
    return SubspaceBasis(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


class ParameterClass(NamedTuple):
    """All parameters reachable from base by admissible reflection moves.

    members are (word, mu) pairs with mu = w(base), sorted by mu; word is
    Chamber.w_word of the unique witness w whose inverse lies in
    gallery_class(base, denominator), and base itself appears with word ().
    """

    members: tuple[tuple[tuple[int, ...], Parameter], ...]
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


def _check_inputs(rs: RootSystem, lam: Parameter, denominator: int) -> None:
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    if lam.rank != rs.rank:
        raise ValueError("parameter rank does not match root system rank")


def integral_roots(rs: RootSystem, lam: Parameter, denominator: int = 1) -> tuple[Root, ...]:
    """Roots whose coroot pairing with lam lies in (1/denominator)Z, sorted.

    The test is value_in_fraction_of_z on the pairing, done on the integer
    sums of rootsys.pairing: the pairing is re_sum / (d (beta, beta)) plus
    i im_sum / (d (beta, beta)), d the common denominator of lam.
    """
    _check_inputs(rs, lam, denominator)
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


class Chamber(NamedTuple):
    """A chamber u(C) of chamber_walk, the member mu = w(lam) of its witness
    w = u^{-1} as d Re(mu) and d Im(mu), d the common denominator of lam, and
    reduced words of w and u: 1-based, (a, ..., z) meaning s_a ... s_z, each
    the least of its element's reduced words when read from the right."""

    u: WeylElement
    w_word: tuple[int, ...]
    u_word: tuple[int, ...]
    d: int
    re: tuple[int, ...]
    im: tuple[int, ...]

    @property
    def mu(self) -> Parameter:
        d = self.d
        return Parameter(tuple(Q(x, d) for x in self.re), tuple(Q(x, d) for x in self.im))


def chamber_walk(rs: RootSystem, lam: Parameter, denominator: int = 1) -> tuple[Chamber, ...]:
    """Chambers u(C) reachable from C crossing only walls of roots outside
    integral_roots(rs, lam, denominator), ordered by (length, images of u).

    The step from u(C) to u s_i(C) crosses the wall of u(alpha_i), on whose
    coroot lam takes the value mu_i; it is allowed iff mu_i is outside
    (1/denominator)Z.  It sets mu to s_i(mu), whose j-th entry is
    mu_j - cartan[j][i] mu_i.  Breadth-first level k is the chambers of
    length k: a minimal gallery inside the cone crosses none of its walls,
    so every right descent i of v = u s_i is such a step into v(C), and v's
    words are the least, read from the right (Björner and Brenti,
    Combinatorics of Coxeter Groups, ch. 3), of the parents' u_word + (i),
    which the least i wins, and of (i) + the parents' w_word.
    """
    _check_inputs(rs, lam, denominator)
    d, re, im = lam._scaled
    columns = tuple(zip(*rs.cartan))
    level = [Chamber(identity_weyl(rs), (), (), d, re, im)]
    out: list[Chamber] = []
    while level:
        out.extend(level)
        nxt: dict[tuple[Root, ...], Chamber] = {}
        # s_i before s_(i+1), so the first step into a chamber gives its
        # u_word; a step with u(alpha_i) < 0 goes back down a level
        for i, col in enumerate(columns):
            for c in level:
                re_i, im_i = c.re[i], c.im[i]
                if not im_i and denominator * re_i % d == 0 or sum(c.u.images[i]) < 0:
                    continue
                u = c.u.times_simple(rs, i)
                w_word = (i + 1,) + c.w_word
                old = nxt.get(u.images)
                if old is None:
                    nxt[u.images] = Chamber(u, w_word, c.u_word + (i + 1,), d,
                                            tuple(x - a * re_i for x, a in zip(c.re, col)),
                                            tuple(x - a * im_i for x, a in zip(c.im, col)))
                elif w_word[::-1] < old.w_word[::-1]:
                    nxt[u.images] = old._replace(w_word=w_word)
        level = [nxt[images] for images in sorted(nxt)]
    return tuple(out)


def equivalence_class(rs: RootSystem, lam: Parameter, denominator: int = 1) -> ParameterClass:
    """Parameters reachable from lam by admissible simple-reflection moves.

    The move s_i from mu = w(lam) is admissible iff mu_i is outside
    (1/denominator)Z, so it is the chamber_walk step from u = w^{-1} to u s_i.
    The stabiliser of lam is generated by reflections in roots that pair to 0
    (Steinberg), all integral, so each chamber gives its own member.
    """
    walk = sorted(chamber_walk(rs, lam, denominator), key=lambda c: (c.re, c.im))
    return ParameterClass(tuple((c.w_word, c.mu) for c in walk), lam, denominator)


def gallery_class(rs: RootSystem, lam: Parameter, denominator: int = 1) -> tuple[WeylElement, ...]:
    """The elements u of chamber_walk, in (length, images) order."""
    return tuple(c.u for c in chamber_walk(rs, lam, denominator))


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
    return SubspaceBasis(rs.rank, linalg.kernel(sigma_pos, rs.rank))


def evaluate_on_coweight(rs: RootSystem, lam: Parameter, x: Vec) -> tuple[Q, Q]:
    """Value of lam at a chamber-side point, as (real, imaginary) parts."""
    re_c, im_c = root_coords_of(rs, lam)
    xv = linalg.vec(x)
    return linalg.dot(re_c, xv), linalg.dot(im_c, xv)
