"""Subsystems of a root system and their lattice constants.

Two closure notions appear here.  A *reflection-closed* subset is stable
under negation and under the reflections of its own members; this is the
notion used when enumerating full-rank subsystems, so that (for example) the
short A1xA1 inside B2 is found.  :func:`is_root_subsystem` checks the
stricter notion that additionally demands closure under root sums, which is
what :func:`parabolic_closure` produces.

The constant attached to a full-rank subsystem S is the exponent of the
finite quotient (coroot lattice of the ambient system) / (coroot lattice of
S), i.e. the lcm of its elementary divisors.  The constant of the whole
system is the lcm over all conjugacy classes of full-rank subsystems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from . import linalg
from .lattice import quotient_divisors
from .rootsys import (
    CapacityError,
    Root,
    RootSystem,
    RootSystemSpec,
    WeylElement,
    weyl_group,
)

RootSet = frozenset[Root]

#: brute-force enumeration walks all sign-pair subsets; cap the exponent.
BRUTE_FORCE_MAX_RANK = 3

#: conjugacy classes are exact (full Weyl orbit) up to this ambient rank;
#: above it, classes are keyed by (label, divisor chain), which can in
#: principle merge non-conjugate classes that share both.
EXACT_CONJUGACY_MAX_RANK = 4


@dataclass(frozen=True)
class Subsystem:
    """A subsystem presented by its sorted root list and a type label."""

    roots: tuple[Root, ...]
    label: str

    @property
    def rank(self) -> int:
        return linalg.rank(self.roots) if self.roots else 0


# ---------------------------------------------------------------------------
# Closures and membership

def reflection_closure(rs: RootSystem, seed: Iterable[Root]) -> RootSet:
    """Smallest subset containing seed, stable under negation and under the
    reflections of its own members."""
    current: set[Root] = set()
    queue = [tuple(r) for r in seed]
    for r in queue:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    while queue:
        beta = queue.pop()
        if beta in current:
            continue
        neg = tuple(-b for b in beta)
        for new in (beta, neg):
            if new not in current:
                current.add(new)
                queue.append(new)
        for alpha in list(current):
            img = rs.reflect(alpha, beta)
            if img not in current:
                queue.append(img)
            img = rs.reflect(beta, alpha)
            if img not in current:
                queue.append(img)
    return frozenset(current)


def is_root_subsystem(rs: RootSystem, roots: Iterable[Root]) -> bool:
    """Whether the set is a root system in its span, closed under root sums.

    Checks, for the given subset S of the ambient roots: S = -S, S is stable
    under reflections of its members, and whenever a sum of two members (the
    two may coincide) is an ambient root it already lies in S.
    """
    s = frozenset(tuple(r) for r in roots)
    for r in s:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    for beta in s:
        if tuple(-b for b in beta) not in s:
            return False
    for alpha in s:
        for beta in s:
            if rs.reflect(alpha, beta) not in s:
                return False
            total = tuple(a + b for a, b in zip(alpha, beta))
            if total in rs._root_set and total not in s:
                return False
    return True


def parabolic_closure(rs: RootSystem, roots: Iterable[Root]) -> Subsystem:
    """All ambient roots in the rational span of the given roots."""
    seed = [tuple(r) for r in roots]
    for r in seed:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    basis = linalg.span_basis(seed)
    members = tuple(
        sorted(r for r in rs.roots if linalg.in_span(basis, linalg.vec(r)))
    )
    return Subsystem(members, subsystem_label(rs, members))


def component_split(rs: RootSystem, roots: Iterable[Root]) -> tuple[RootSet, ...]:
    """Connected components under non-orthogonality, sorted for determinism."""
    items = sorted(set(tuple(r) for r in roots))
    index = {r: i for i, r in enumerate(items)}
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            if rs.root_pairing(items[j], a) != 0:
                ri, rj = find(i), find(index[items[j]])
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, set[Root]] = {}
    for i, r in enumerate(items):
        groups.setdefault(find(i), set()).add(r)
    return tuple(
        sorted((frozenset(g) for g in groups.values()), key=lambda s: sorted(s))
    )


# ---------------------------------------------------------------------------
# Component classification

def _classify_component(rs: RootSystem, comp: RootSet) -> tuple[str, int]:
    """(family, rank) of one irreducible component, canonicalized.

    Isomorphic presentations collapse: rank-1 components are A1, rank-2
    two-length components are B2, simply-laced rank-3 components are A3.
    """
    roots = sorted(comp)
    r = linalg.rank(roots)
    count = len(roots)
    if any(rs.double_of(beta) in comp for beta in comp):
        expected = 2 * r * (r + 1)
        if count != expected:
            raise AssertionError(f"bad non-reduced component of size {count}, rank {r}")
        return ("BC", r)
    lengths = sorted(set(rs.length_sq(beta) for beta in comp))
    if len(lengths) == 1:
        if count == r * (r + 1):
            return ("A", r)
        if count == 2 * r * (r - 1):
            return ("D", r)
        if (r, count) in ((6, 72), (7, 126), (8, 240)):
            return ("E", r)
        raise AssertionError(f"unrecognized simply-laced component: rank {r}, {count} roots")
    if len(lengths) != 2:
        raise AssertionError(f"component with {len(lengths)} root lengths")
    ratio = lengths[1] / lengths[0]
    short = sum(1 for beta in comp if rs.length_sq(beta) == lengths[0])
    long_ = count - short
    if ratio == 3:
        if (r, count) != (2, 12):
            raise AssertionError("unrecognized triple-bond component")
        return ("G", 2)
    if ratio != 2:
        raise AssertionError(f"unexpected length ratio {ratio}")
    if r == 2:
        return ("B", 2)
    if (short, long_) == (24, 24) and r == 4:
        return ("F", 4)
    if short == 2 * r and long_ == 2 * r * (r - 1):
        return ("B", r)
    if short == 2 * r * (r - 1) and long_ == 2 * r:
        return ("C", r)
    raise AssertionError(f"unrecognized two-length component: rank {r}, {short}+{long_}")


def subsystem_spec(rs: RootSystem, roots: Iterable[Root]) -> Optional[RootSystemSpec]:
    """Canonical product type of a subsystem, or None when it is empty."""
    items = frozenset(tuple(r) for r in roots)
    if not items:
        return None
    comps = component_split(rs, items)
    return RootSystemSpec(tuple(_classify_component(rs, c) for c in comps))


def subsystem_label(rs: RootSystem, roots: Iterable[Root]) -> str:
    spec = subsystem_spec(rs, roots)
    return str(spec) if spec is not None else "empty"


# ---------------------------------------------------------------------------
# Affine node data (both for the system itself and for bds children)

@dataclass(frozen=True)
class AffineComponent:
    """Extended node set of one irreducible component.

    marks[i] is the coefficient of simple_nodes[i] in the highest root; the
    trailing mark, for the added lowest-root node, is 1.
    """

    simple_nodes: tuple[Root, ...]
    affine_node: Root
    marks: tuple[int, ...]
    bonds: tuple[tuple[int, int, int, int], ...]

    @property
    def nodes(self) -> tuple[Root, ...]:
        return self.simple_nodes + (self.affine_node,)


@dataclass(frozen=True)
class AffineDiagram:
    components: tuple[AffineComponent, ...]


Side = Literal["root", "coroot"]


def _side_coords(rs: RootSystem, beta: Root, side: Side) -> tuple[int, ...]:
    if side == "root":
        return tuple(beta)
    return rs.coroot_coweight_coords(beta)


def _indivisible_part(rs: RootSystem, comp: RootSet, side: Side) -> RootSet:
    if side == "root":
        return frozenset(b for b in comp if rs.half_of(b) not in comp)
    return frozenset(b for b in comp if rs.double_of(b) not in comp)


def _simple_system(rs: RootSystem, reduced: RootSet, side: Side) -> tuple[Root, ...]:
    """Simple roots of a reduced component w.r.t. the ambient positivity."""
    pos = sorted(b for b in reduced if sum(b) > 0)
    vecs = {_side_coords(rs, b, side): b for b in pos}
    simple = []
    for b in pos:
        target = _side_coords(rs, b, side)
        if not any(
            tuple(t - v for t, v in zip(target, other)) in vecs
            for other in vecs
            if other != target
        ):
            simple.append(b)
    return tuple(simple)


def _heights(
    rs: RootSystem, reduced: RootSet, simple: tuple[Root, ...], side: Side
) -> dict[Root, int]:
    cols = [linalg.vec(_side_coords(rs, s, side)) for s in simple]
    mat_t = list(zip(*cols))
    out = {}
    for b in sorted(reduced):
        if sum(b) < 0:
            continue
        sol = linalg.solve(mat_t, linalg.vec(_side_coords(rs, b, side)))
        if sol is None:
            raise AssertionError("component root outside its simple span")
        coeffs = []
        for x in sol:
            if x.denominator != 1 or x < 0:
                raise AssertionError("non-integral or negative simple coefficient")
            coeffs.append(int(x))
        out[b] = sum(coeffs)
    return out


def _component_affine(
    rs: RootSystem, comp: RootSet, side: Side
) -> tuple[tuple[Root, ...], Root, tuple[int, ...]]:
    """(simple nodes, highest root, marks) of one component on one side."""
    reduced = _indivisible_part(rs, comp, side)
    simple = _simple_system(rs, reduced, side)
    heights = _heights(rs, reduced, simple, side)
    top = max(heights, key=lambda b: (heights[b], b))
    ties = [b for b, h in heights.items() if h == heights[top]]
    if len(ties) != 1:
        raise AssertionError("highest root is not unique; component not irreducible?")
    cols = [linalg.vec(_side_coords(rs, s, side)) for s in simple]
    sol = linalg.solve(list(zip(*cols)), linalg.vec(_side_coords(rs, top, side)))
    marks = tuple(int(x) for x in sol)
    return simple, top, marks


def affine_diagram(rs: RootSystem, roots: Optional[Iterable[Root]] = None) -> AffineDiagram:
    """Extended (lowest-root) diagram of a subsystem, one entry per component.

    With no subset given, describes the whole system.  Non-reduced components
    contribute the diagram of their indivisible part.
    """
    items = frozenset(tuple(r) for r in roots) if roots is not None else frozenset(rs.roots)
    for r in items:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    comps = component_split(rs, items)
    out = []
    for comp in comps:
        simple, top, marks = _component_affine(rs, comp, "root")
        lowest = tuple(-t for t in top)
        nodes = simple + (lowest,)
        bonds = []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                a_ij = rs.root_pairing(nodes[j], nodes[i])
                a_ji = rs.root_pairing(nodes[i], nodes[j])
                if a_ij != 0:
                    bonds.append((i, j, a_ij, a_ji))
        out.append(AffineComponent(simple, lowest, marks + (1,), tuple(bonds)))
    return AffineDiagram(tuple(out))


# ---------------------------------------------------------------------------
# Full-rank subsystem enumeration

def _saturate(rs: RootSystem, s: RootSet) -> RootSet:
    """Adjoin ambient doubles and halves of members, then re-close."""
    extra = set()
    for beta in s:
        dbl = rs.double_of(beta)
        if dbl is not None:
            extra.add(dbl)
        half = rs.half_of(beta)
        if half is not None:
            extra.add(half)
    if not extra - set(s):
        return s
    return reflection_closure(rs, set(s) | extra)


def _children(rs: RootSystem, s: RootSet) -> set[RootSet]:
    """One step of extended-diagram node removal, on both lattice sides."""
    out: set[RootSet] = set()
    comps = component_split(rs, s)
    for ci, comp in enumerate(comps):
        rest: set[Root] = set()
        for cj, other in enumerate(comps):
            if cj != ci:
                rest |= other
        for side in ("root", "coroot"):
            simple, top, _marks = _component_affine(rs, comp, side)
            nodes = simple + (tuple(-t for t in top),)
            for drop in range(len(nodes)):
                kept = [nodes[k] for k in range(len(nodes)) if k != drop]
                child = reflection_closure(rs, rest | set(kept))
                out.add(child)
                out.add(_saturate(rs, child))
    out.discard(s)
    return out


def _orbit_key(rs: RootSystem, w_all: tuple[WeylElement, ...], s: RootSet) -> tuple:
    best = None
    for w in w_all:
        image = tuple(sorted(w.apply_root(b) for b in s))
        if best is None or image < best:
            best = image
    return best


def _class_divisors(rs: RootSystem, s: RootSet) -> tuple[int, ...]:
    sub = [rs.coroot_coweight_coords(b) for b in sorted(s) if sum(b) > 0]
    sup = [rs.coroot_coweight_coords(b) for b in rs.positive_roots]
    return quotient_divisors(sub, sup)


def full_rank_subsystems(
    rs: RootSystem, method: Literal["bds", "brute_force"] = "bds"
) -> tuple[Subsystem, ...]:
    """Conjugacy classes of full-rank reflection-closed subsystems.

    method="bds": iterated removal of nodes from extended diagrams, applied
    on both the root and the coroot side, with divisible/indivisible
    companions adjoined at every step; this reaches classes (such as the
    short A1xA1 inside B2) that one-sided removal misses.

    method="brute_force": direct scan over all sign-symmetric subsets of the
    roots; exponential, so it is refused above rank BRUTE_FORCE_MAX_RANK.

    Up to ambient rank EXACT_CONJUGACY_MAX_RANK classes are separated by
    their full Weyl orbits; above that, by (label, divisor chain), which is
    cheaper but could in principle merge distinct classes.
    """
    if method == "brute_force":
        candidates = _brute_force_sets(rs)
    elif method == "bds":
        candidates = None
    else:
        raise ValueError(f"unknown method {method!r}")

    exact = rs.rank <= EXACT_CONJUGACY_MAX_RANK
    w_all = weyl_group(rs) if exact else ()

    reps: dict[tuple, RootSet] = {}

    def class_key(s: RootSet) -> tuple:
        if exact:
            return _orbit_key(rs, w_all, s)
        return (subsystem_label(rs, s), _class_divisors(rs, s))

    if candidates is not None:
        for s in sorted(candidates, key=lambda c: sorted(c)):
            key = class_key(s)
            if key not in reps or sorted(s) < sorted(reps[key]):
                reps[key] = s
    else:
        full = frozenset(rs.roots)
        queue = [full]
        seen_keys = set()
        while queue:
            queue.sort(key=lambda c: sorted(c))
            s = queue.pop(0)
            key = class_key(s)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            reps[key] = min([s, reps[key]], key=sorted) if key in reps else s
            for child in _children(rs, s):
                if linalg.rank(sorted(child)) != rs.rank:
                    raise AssertionError("child subsystem lost full rank")
                queue.append(child)

    out = []
    for s in reps.values():
        roots = tuple(sorted(s))
        out.append(Subsystem(roots, subsystem_label(rs, roots)))
    return tuple(sorted(out, key=lambda sub: (sub.label, sub.roots)))


def _brute_force_sets(rs: RootSystem) -> set[RootSet]:
    if rs.rank > BRUTE_FORCE_MAX_RANK:
        raise CapacityError(
            f"brute-force subsystem scan is limited to rank "
            f"{BRUTE_FORCE_MAX_RANK}; {rs.spec} has rank {rs.rank}"
        )
    pos = rs.positive_roots
    n = len(pos)
    found: set[RootSet] = set()
    for mask in range(1, 1 << n):
        sel = [pos[i] for i in range(n) if mask >> i & 1]
        s = frozenset(sel) | frozenset(tuple(-b for b in r) for r in sel)
        if linalg.rank(sel) != rs.rank:
            continue
        if all(rs.reflect(a, b) in s for a in s for b in s):
            found.add(s)
    return found


# ---------------------------------------------------------------------------
# Lattice constants

def n_of_subsystem(rs: RootSystem, roots: Iterable[Root]) -> int:
    """Exponent of (ambient coroot lattice) / (subsystem coroot lattice).

    The subsystem must have full rank; its coroots then span a finite-index
    sublattice and the constant is the lcm of the elementary divisors.
    """
    items = sorted(set(tuple(r) for r in roots))
    for r in items:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    if linalg.rank(items) != rs.rank:
        raise ValueError("subsystem does not have full rank")
    divisors = _class_divisors(rs, frozenset(items))
    return math.lcm(*divisors) if divisors else 1


def n_sigma(rs: RootSystem, method: Literal["bds", "brute_force"] = "bds") -> int:
    """lcm of n_of_subsystem over all full-rank subsystem classes."""
    values = [n_of_subsystem(rs, sub.roots) for sub in full_rank_subsystems(rs, method)]
    return math.lcm(*values) if values else 1
