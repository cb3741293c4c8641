"""Subsystems of a root system and their lattice constants.

Two closure notions appear here.  A *reflection-closed* subset is stable
under negation and under the reflections of its own members; this is the
notion used when enumerating full-rank subsystems, so that (for example) the
short A1xA1 inside B2 is found.  :func:`parabolic_closure` produces the
stricter notion that additionally demands closure under root sums.

Full-rank subsystems are listed up to W-conjugacy, exactly at every rank
and without enumerating W: a subsystem's class is keyed by the dominant
W-conjugate of 2ρ_S (the sum of its positive roots) together with the least
image of its simple system under the small parabolic subgroup that fixes
that dominant vector (Bourbaki, Lie Groups and Lie Algebras VI §1.10).

The constant attached to a full-rank subsystem S is the exponent of the
finite quotient (coroot lattice of the ambient system) / (coroot lattice of
S), i.e. the lcm of its elementary divisors.  The constant of the whole
system is the lcm over all conjugacy classes of full-rank subsystems.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Literal, Optional

from . import linalg
from .lattice import quotient_divisors
from .rootsys import (
    CapacityError,
    Root,
    RootSystem,
    RootSystemSpec,
)

RootSet = frozenset[Root]

#: brute-force enumeration walks all sign-pair subsets; cap the exponent.
BRUTE_FORCE_MAX_RANK = 3


@dataclass(frozen=True)
class Subsystem:
    """A subsystem presented by its sorted root list and a type label."""

    roots: tuple[Root, ...]
    label: str

    @property
    def rank(self) -> int:
        return linalg.int_rank(self.roots)


# ---------------------------------------------------------------------------
# Closures and membership

def reflection_closure(rs: RootSystem, seed: Iterable[Root]) -> RootSet:
    """Smallest subset containing seed, stable under negation and under the
    reflections of its own members.

    That set is the orbit of seed under the group generated by the
    reflections of seed's members (s_{w alpha} = w s_alpha w^{-1}), and a
    member already in the orbit adds no new generator; so each orbit element
    is reflected only in the generators, not in every other element.
    """
    seed = [tuple(r) for r in seed]
    for r in seed:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    current: set[Root] = set()
    gens: list[Root] = []
    for alpha in seed:
        if alpha in current:
            continue
        gens.append(alpha)
        # old members still owe their image under the new generator
        stack = [rs.reflect(alpha, beta) for beta in current]
        stack.append(alpha)
        while stack:
            beta = stack.pop()
            if beta not in current:
                current.add(beta)
                stack.extend(rs.reflect(g, beta) for g in gens)
    return frozenset(current)


def parabolic_closure(rs: RootSystem, roots: Iterable[Root]) -> Subsystem:
    """All ambient roots in the rational span of the given roots."""
    seed = [tuple(r) for r in roots]
    for r in seed:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    span = linalg.IntEchelon(seed)
    members = tuple(r for r in rs.roots if span.contains(r))
    return Subsystem(members, subsystem_label(rs, members))


def component_split(rs: RootSystem, roots: Iterable[Root]) -> tuple[RootSet, ...]:
    """Connected components under non-orthogonality, sorted for determinism.

    Components span orthogonal subspaces, so a root meets a group exactly
    when it pairs with one of the at most rank roots spanning the groups, and
    one echelon of those roots tells whether it extends their spans.
    """
    echelon = linalg.IntEchelon()
    # each group: (the roots that span it, its members)
    groups: list[tuple[list[Root], set[Root]]] = []
    for r in set(tuple(r) for r in roots):
        span, members, rest = [], {r}, []
        for g in groups:
            if any(rs.root_pairing(r, b) for b in g[0]):
                span += g[0]
                members |= g[1]
            else:
                rest.append(g)
        if echelon.add(r):
            span.append(r)
        groups = rest + [(span, members)]
    return tuple(sorted((frozenset(m) for _, m in groups), key=sorted))


# ---------------------------------------------------------------------------
# Component classification

def _classify_component(rs: RootSystem, comp: RootSet) -> tuple[str, int]:
    """(family, rank) of one irreducible component, canonicalized.

    Isomorphic presentations collapse: rank-1 components are A1, rank-2
    two-length components are B2, simply-laced rank-3 components are A3.
    """
    r = linalg.int_rank(comp)
    count = len(comp)
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
# Affine node data (for bds children)

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
    """Simple roots of a reduced component w.r.t. the ambient positivity.

    In order of increasing height on the chosen side, a positive root is
    simple unless it is a simple root found before it plus a positive root.
    """
    pos = [b for b in reduced if sum(b) > 0]
    if side == "root":
        height = sum
    else:
        # the coroot of b is sum_j b_j (a_j, a_j)/(b, b) times simple coroot j
        def height(b: Root) -> Q:
            return Q(sum(x * d for x, d in zip(b, rs._diag)), rs.length_sq(b))

    vecs = {_side_coords(rs, b, side) for b in pos}
    simple: list[Root] = []
    for b in sorted(pos, key=height):
        target = _side_coords(rs, b, side)
        if not any(
            tuple(t - v for t, v in zip(target, _side_coords(rs, a, side))) in vecs
            for a in simple
        ):
            simple.append(b)
    return tuple(sorted(simple))


def _component_affine(
    rs: RootSystem, comp: RootSet, side: Side
) -> tuple[tuple[Root, ...], Root, tuple[int, ...]]:
    """(simple nodes, highest root, marks) of one component on one side."""
    reduced = _indivisible_part(rs, comp, side)
    simple = _simple_system(rs, reduced, side)
    rows = [_side_coords(rs, s, side) for s in simple]
    # heights, scaled by one positive integer: h is 1 on every simple root
    h = linalg.solve(rows, [1] * len(simple))
    scale = math.lcm(*(x.denominator for x in h))
    h = [int(x * scale) for x in h]
    heights = {
        b: sum(x * y for x, y in zip(h, _side_coords(rs, b, side)))
        for b in reduced
        if sum(b) > 0
    }
    top = max(heights, key=lambda b: (heights[b], b))
    ties = [b for b, v in heights.items() if v == heights[top]]
    if len(ties) != 1:
        raise AssertionError("highest root is not unique; component not irreducible?")
    sol = linalg.solve(list(zip(*rows)), _side_coords(rs, top, side))
    if sol is None or any(x.denominator != 1 or x <= 0 for x in sol):
        raise AssertionError("highest root is not a positive integral simple combination")
    marks = tuple(int(x) for x in sol)
    return simple, top, marks


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


def _conjugacy_key(rs: RootSystem, s: RootSet) -> tuple:
    """A complete invariant of the W-conjugacy class of a subsystem S.

    P = S ∩ Φ⁺ is a positive system of S, and 2ρ_P = sum(P) is W-equivariant
    in P: conjugate subsystems have W-conjugate 2ρ's, since the positive
    systems of one subsystem form a single W_S-orbit.  Simple reflections
    move 2ρ_P to its dominant W-conjugate (Bourbaki VI §1.10), carrying P
    along; two subsystems that reach the same dominant vector then differ by
    an element of its stabiliser, the parabolic W_J with J = {i :
    <dom, alpha_i-coroot> = 0}.  A second equivariant vector, v2 = the sum
    over components c of S of |P∩c| 2ρ_{P∩c}, made W_J-dominant the same way,
    shrinks J to J2 = {i in J : <v2, alpha_i-coroot> = 0} before the
    W_{J2}-orbit of P is searched.  P is represented by its sorted simple
    roots, each flagged by whether its double lies in S (so non-reduced
    components stay distinct); the key is the least representative in the
    orbit.  No step enumerates W.
    """
    pos = [b for b in s if sum(b) > 0]
    simple = list(_simple_system(rs, _indivisible_part(rs, s, "root"), "root"))
    flags = [rs.double_of(a) in s for a in simple]

    # a positive root lies in the component of every simple root it is not
    # orthogonal to; components are joined over the simple roots
    parent = list(range(len(simple)))

    def find(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    for a in range(len(simple)):
        for b in range(a + 1, len(simple)):
            if rs.root_pairing(simple[b], simple[a]):
                parent[find(a)] = find(b)
    comps = [
        find(next(k for k, a in enumerate(simple) if rs.root_pairing(beta, a)))
        for beta in pos
    ]
    size = Counter(comps)
    dom = tuple(sum(col) for col in zip(*pos))
    v2 = tuple(sum(size[c] * beta[j] for c, beta in zip(comps, pos)) for j in range(rs.rank))

    simples = rs.simple_roots

    def to_dominant(v: Root, indices, carried: list[Root]) -> Root:
        """Reflect v by simple reflections s_i, i in indices, until it pairs
        non-negatively with those coroots; carried gets the same reflections."""
        while True:
            i = next((i for i in indices if rs.root_pairing(v, simples[i]) < 0), None)
            if i is None:
                return v
            v = rs.reflect(simples[i], v)
            carried[:] = [rs.reflect(simples[i], x) for x in carried]

    carried = simple + [v2]
    dom = to_dominant(dom, range(rs.rank), carried)
    simple, v2 = carried[:-1], carried[-1]
    # W_J fixes dom, so moving v2 within W_J leaves dom dominant
    j1 = [i for i in range(rs.rank) if rs.root_pairing(dom, simples[i]) == 0]
    v2 = to_dominant(v2, j1, simple)
    j2 = [i for i in j1 if rs.root_pairing(v2, simples[i]) == 0]

    start = tuple(sorted(zip(simple, flags)))
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for i in j2:
                img = tuple(sorted((rs.reflect(simples[i], a), f) for a, f in node))
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return dom, min(orbit)


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

    Classes are separated exactly at every rank by a canonical form
    computed without enumerating W (dominant 2ρ_S plus a small parabolic
    orbit; see _conjugacy_key).  Each class is represented by the least
    sorted root list among the candidates met (brute force) or by the first
    one reached in the sorted walk (bds).
    """
    if method == "brute_force":
        candidates = _brute_force_sets(rs)
    elif method == "bds":
        candidates = None
    else:
        raise ValueError(f"unknown method {method!r}")

    reps: dict[tuple, tuple[Root, ...]] = {}
    if candidates is not None:
        for roots in sorted(tuple(sorted(c)) for c in candidates):
            reps.setdefault(_conjugacy_key(rs, frozenset(roots)), roots)
    else:
        # a child reached from several parents is queued (and keyed) once
        queued = {frozenset(rs.roots)}
        queue = [(rs.roots, frozenset(rs.roots))]
        while queue:
            queue.sort()
            roots, s = queue.pop(0)
            key = _conjugacy_key(rs, s)
            if key in reps:
                continue
            reps[key] = roots
            for child in _children(rs, s) - queued:
                if linalg.int_rank(child) != rs.rank:
                    raise AssertionError("child subsystem lost full rank")
                queued.add(child)
                queue.append((tuple(sorted(child)), child))

    out = [Subsystem(roots, subsystem_label(rs, roots)) for roots in reps.values()]
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
        if linalg.int_rank(sel) != rs.rank:
            continue
        if all(rs.reflect(a, b) in s for a in s for b in s):
            found.add(s)
    return found


# ---------------------------------------------------------------------------
# Lattice constants

def class_divisors(rs: RootSystem, roots: Iterable[Root]) -> tuple[int, ...]:
    """Elementary divisors of (ambient coroot lattice) / (subsystem coroot
    lattice), from one Smith normal form.

    The subsystem must have full rank; its coroots then span a finite-index
    sublattice.
    """
    items = sorted(set(tuple(r) for r in roots))
    for r in items:
        if r not in rs._root_set:
            raise ValueError(f"{r} is not a root")
    if linalg.int_rank(items) != rs.rank:
        raise ValueError("subsystem does not have full rank")
    sub = [rs.coroot_coweight_coords(b) for b in items if sum(b) > 0]
    sup = [rs.coroot_coweight_coords(b) for b in rs.positive_roots]
    return quotient_divisors(sub, sup)


def n_of_subsystem(rs: RootSystem, roots: Iterable[Root]) -> int:
    """Exponent of (ambient coroot lattice) / (subsystem coroot lattice):
    the lcm of :func:`class_divisors`."""
    return math.lcm(1, *class_divisors(rs, roots))


def census(
    rs: RootSystem, method: Literal["bds", "brute_force"] = "bds"
) -> tuple[tuple[Subsystem, tuple[int, ...]], ...]:
    """Every full-rank subsystem class with its divisor chain."""
    return tuple((s, class_divisors(rs, s.roots)) for s in full_rank_subsystems(rs, method))


def n_sigma(rs: RootSystem, method: Literal["bds", "brute_force"] = "bds") -> int:
    """lcm of the class constants n over all full-rank subsystem classes."""
    return math.lcm(1, *(d for _, divisors in census(rs, method) for d in divisors))
