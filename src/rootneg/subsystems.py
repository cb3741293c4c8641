"""Subsystems of a root system and their lattice constants.

Two closure notions appear here.  A *reflection-closed* subset is stable
under negation and under the reflections of its own members; this is the
notion used when enumerating full-rank subsystems, so that (for example) the
short A1xA1 inside B2 is found.  :func:`parabolic_closure` produces the
stricter notion that additionally demands closure under root sums.

The census holds subsets as frozensets of root numbers and reads closures,
components, keys, labels and divisors off rows of ``rs.table.refl``; sorted
numbers sort as the roots do, so it visits, keys and picks representatives in
the vectors' order.  subsystem_spec and parabolic_closure stay on vectors for
the commands that never build the table.

Each candidate the census meets carries one record, its components with their
simple roots (_components), found once with a single scan for simple roots.
The key, the children and the label of a kept representative all read that
record, and so does its divisor chain, through the simple roots that its
Subsystem carries; the coroot-side simple roots follow from the root-side
ones (_coroot_simple) instead of a second scan.

Full-rank subsystems are listed up to W-conjugacy, exactly at every rank
and without enumerating W: a subsystem's class is keyed by the dominant
W-conjugate of 2ρ_S (the sum of its positive roots) together with the least
image of its simple system under the small parabolic subgroup that fixes
that dominant vector (Bourbaki, Lie Groups and Lie Algebras VI §1.10).  The
key holds 2ρ_S in weight coordinates, its values on the simple coroots, so a
simple reflection costs one column of the Cartan matrix.

The constant attached to a full-rank subsystem S is the exponent of the
finite quotient (coroot lattice of the ambient system) / (coroot lattice of
S), i.e. the lcm of its elementary divisors.  The constant of the whole
system is the lcm over all conjugacy classes of full-rank subsystems.
"""

from __future__ import annotations

import bisect
import math
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
#: a subset of the roots as numbers in rs.roots order (see RootSystem.table)
IndexSet = frozenset[int]
#: (simple roots, members) of each irreducible component of a
#: reflection-closed set: the census's record of a candidate
Components = list[tuple[tuple[int, ...], IndexSet]]

#: brute-force enumeration walks all sign-pair subsets; cap the exponent.
BRUTE_FORCE_MAX_RANK = 3


class Subsystem:
    """A subsystem presented by its sorted root list and a type label.

    A census class also carries its simple roots on the coroot side, whose
    coroots are its simple coroots, as the census found them; they follow
    from the roots, so they take no part in comparisons, and
    parabolic_closure leaves them empty.
    """

    def __init__(self, roots: tuple[Root, ...], label: str,
                 coroot_simple: tuple[Root, ...] = ()) -> None:
        self.roots, self.label, self.coroot_simple = roots, label, coroot_simple

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subsystem) and (
            (self.roots, self.label) == (other.roots, other.label))

    def __hash__(self) -> int:
        return hash((self.roots, self.label))


# ---------------------------------------------------------------------------
# Closures and membership

def reflection_closure(rs: RootSystem, seed: Iterable[int]) -> IndexSet:
    """Smallest set of root numbers containing seed, stable under negation
    and under the reflections of its own members.

    That set is the orbit of seed under the group generated by the
    reflections of seed's members (s_{w alpha} = w s_alpha w^{-1}), and a
    member already in the orbit adds no new generator; so each orbit element
    is reflected only in the generators, not in every other element.
    """
    refl = rs.table.refl
    current: set[int] = set()
    gens: list[tuple[int, ...]] = []
    for alpha in seed:
        if alpha in current:
            continue
        row = refl[alpha]
        gens.append(row)
        # old members still owe their image under the new generator
        stack = [row[beta] for beta in current]
        stack.append(alpha)
        while stack:
            beta = stack.pop()
            if beta not in current:
                current.add(beta)
                stack.extend(g[beta] for g in gens)
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


def component_split(rs: RootSystem, roots: Iterable[Root]) -> tuple[tuple[RootSet, int], ...]:
    """Connected components under non-orthogonality with their ranks, sorted
    for determinism.

    Components span orthogonal subspaces, so a root meets a group exactly
    when it pairs with one of the at most rank roots spanning the groups, and
    one echelon of those roots tells whether it extends their spans.
    """
    echelon = linalg.IntEchelon()
    # each group: (a basis of its span, as long as its rank; its members)
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
    return tuple(sorted(((frozenset(m), len(s)) for s, m in groups), key=lambda g: sorted(g[0])))


# ---------------------------------------------------------------------------
# Component classification

def _classify_component(rs: RootSystem, comp: RootSet, r: int) -> tuple[str, int]:
    """(family, rank) of one irreducible component of rank r, canonicalized.

    Isomorphic presentations collapse: rank-1 components are A1, rank-2
    two-length components are B2, simply-laced rank-3 components are A3.
    """
    count = len(comp)
    if any(rs.double_of(beta) in comp for beta in comp):
        if count != 2 * r * (r + 1):
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
    return RootSystemSpec(tuple(_classify_component(rs, *c) for c in component_split(rs, items)))


def subsystem_label(rs: RootSystem, roots: Iterable[Root]) -> str:
    spec = subsystem_spec(rs, roots)
    return str(spec) if spec is not None else "empty"


def _label(rs: RootSystem, comps: Components) -> str:
    """subsystem_label of a reflection-closed set, from its components."""
    return str(RootSystemSpec(tuple(
        _classify_component(rs, {rs.roots[b] for b in members}, len(simple))
        for simple, members in comps)))


# ---------------------------------------------------------------------------
# Affine node data (for bds children)

Side = Literal["root", "coroot"]


def _side_coords(rs: RootSystem, beta: Root, side: Side) -> tuple[int, ...]:
    if side == "root":
        return tuple(beta)
    return rs.coroot_coweight_coords(beta)


def _indivisible_part(rs: RootSystem, comp: IndexSet, side: Side) -> IndexSet:
    partner = rs.table.half if side == "root" else rs.table.double
    return frozenset(b for b in comp if partner[b] not in comp)


def _simple_system(rs: RootSystem, reduced: IndexSet) -> tuple[int, ...]:
    """Simple roots of a reduced reflection-closed set: its positive members
    whose reflection keeps its other positive members positive (Humphreys
    §10.2); their coroots are the simple coroots."""
    first_positive = len(rs.roots) // 2
    refl = rs.table.refl
    pos = sorted(b for b in reduced if b >= first_positive)
    return tuple(a for a in pos if all(refl[a][b] >= first_positive for b in pos if b != a))


def _components(rs: RootSystem, s: IndexSet) -> Components:
    """(simple roots, members) of each irreducible component of a
    reflection-closed set.  A simple root joins the groups of the simple roots
    it is not orthogonal to (refl[a][b] != b).  A member, a nonzero vector in
    its component's span, joins the group of the first simple root it moves."""
    refl = rs.table.refl
    groups: list[tuple[list[int], list[int]]] = []
    for a in _simple_system(rs, _indivisible_part(rs, s, "root")):
        joined = [g for g in groups if any(refl[a][b] != b for b in g[0])]
        groups = [g for g in groups if g not in joined]
        groups.append(([a, *(b for g in joined for b in g[0])], []))
    rows = [(refl[a], members) for simple, members in groups for a in simple]
    for beta in s:
        next(members for row, members in rows if row[beta] != beta).append(beta)
    return [(tuple(simple), frozenset(members)) for simple, members in groups]


def _coroot_simple(rs: RootSystem, s: IndexSet, simple: Iterable[int]) -> tuple[int, ...]:
    """The simple roots of s on the coroot side, from those on the root side.

    The coroot of 2 beta is half that of beta, so on a BC component the short
    simple root gives way to its double; every other simple root stays.
    """
    double = rs.table.double
    return tuple(double[a] if double[a] in s else a for a in simple)


def _component_affine(
    rs: RootSystem, comp: IndexSet, simple: tuple[int, ...], side: Side
) -> tuple[int, tuple[int, ...]]:
    """(highest root, marks) of one component on one side, given its simple
    roots on that side; the marks follow their order.

    Adding simple roots to a simple root while the sum stays a root ends at
    the highest root (Bourbaki VI §1.8), and counts its coefficients.
    """
    number = {_side_coords(rs, rs.roots[b], side): b for b in _indivisible_part(rs, comp, side)}
    steps = [_side_coords(rs, rs.roots[a], side) for a in simple]
    top, marks, k = steps[0], [1] + [0] * (len(simple) - 1), 0
    while k < len(steps):
        up = tuple(x + y for x, y in zip(top, steps[k]))
        if up in number:
            top, marks[k], k = up, marks[k] + 1, 0
        else:
            k += 1
    return number[top], tuple(marks)


# ---------------------------------------------------------------------------
# Full-rank subsystem enumeration

def _saturate(rs: RootSystem, s: IndexSet) -> IndexSet:
    """Adjoin ambient doubles and halves of members, then re-close."""
    table = rs.table
    extra = ({table.double[b] for b in s} | {table.half[b] for b in s}) - {None}
    return s if extra <= s else reflection_closure(rs, s | extra)


def _children(rs: RootSystem, s: IndexSet, comps: Components) -> set[IndexSet]:
    """One step of extended-diagram node removal, on both lattice sides, from
    the components of s.

    The components of s span orthogonal subspaces, so closing the kept nodes
    of one component and adjoining the others is the closure of their union.
    """
    out: set[IndexSet] = set()
    for simple, comp in comps:
        rest = s - comp
        for side, side_simple in (("root", simple), ("coroot", _coroot_simple(rs, comp, simple))):
            top, _marks = _component_affine(rs, comp, side_simple, side)
            nodes = side_simple + (len(rs.roots) - 1 - top,)
            for drop in range(len(nodes)):
                child = rest | reflection_closure(rs, nodes[:drop] + nodes[drop + 1:])
                out |= {child, _saturate(rs, child)}
    out.discard(s)
    return out


def _conjugacy_key(rs: RootSystem, s: IndexSet, comps: Components) -> tuple:
    """A complete invariant of the W-conjugacy class of a subsystem S, from
    its components.

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
    roots on the coroot side (_coroot_simple), the least representative in
    the orbit being the key.  They fix the part of S without halves in S, and
    2ρ_P then tells which of its components S extends to type BC, since the
    halves S adds are the long roots of whole components, whose sums lie in
    orthogonal subspaces.  No step enumerates W.

    Roots move by table rows.  dom and v2 are not roots; they are held in
    weight coordinates, their values on the simple coroots, so s_i subtracts
    coordinate i times column i of the Cartan matrix, and a vector is
    dominant on indices where none of its coordinates is negative.
    """
    roots, table, cartan = rs.roots, rs.table, rs.cartan
    simple = list(_coroot_simple(rs, s, (a for sim, _ in comps for a in sim)))
    if len(simple) != rs.rank:
        raise AssertionError("subsystem lost full rank")

    dom, v2 = [0] * rs.rank, [0] * rs.rank
    for _, members in comps:
        pos = [roots[b] for b in members if b >= len(roots) // 2]
        two_rho = [sum(col) for col in zip(*pos)]
        dom = [x + y for x, y in zip(dom, two_rho)]
        v2 = [x + len(pos) * y for x, y in zip(v2, two_rho)]
    dom, v2 = ([sum(c * x for c, x in zip(row, v)) for row in cartan] for v in (dom, v2))

    columns = list(zip(*cartan))
    simple_rows = [table.refl[table.index[a]] for a in rs.simple_roots]

    def to_dominant(v: list[int], indices, carried: list[list[int]]) -> None:
        """Reflect v by s_i, i in indices, until none of its coordinates
        there is negative, and carried and the simple roots along with it."""
        while True:
            i = next((i for i in indices if v[i] < 0), None)
            if i is None:
                return
            for x in (v, *carried):
                x[:] = [y - x[i] * c for y, c in zip(x, columns[i])]
            simple[:] = [simple_rows[i][a] for a in simple]

    to_dominant(dom, range(rs.rank), [v2])
    # W_J fixes dom, so moving v2 within W_J leaves dom dominant
    j1 = [i for i in range(rs.rank) if dom[i] == 0]
    to_dominant(v2, j1, [])
    j2 = [i for i in j1 if v2[i] == 0]

    start = tuple(sorted(simple))
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for i in j2:
                row = simple_rows[i]
                img = tuple(sorted(row[a] for a in node))
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(dom), min(orbit)


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
    if method not in ("bds", "brute_force"):
        raise ValueError(f"unknown method {method!r}")
    roots = rs.roots
    reps: dict[tuple, tuple[tuple[int, ...], Components]] = {}
    # the queue stays sorted, so both methods pop the least member tuple first;
    # bds queues (and keys) a child reached from several parents once
    if method == "brute_force":
        queue = sorted((tuple(sorted(s)), s) for s in _brute_force_sets(rs))
    else:
        queue = [(tuple(range(len(roots))), frozenset(range(len(roots))))]
    queued = {s for _, s in queue}
    while queue:
        members, s = queue.pop(0)
        comps = _components(rs, s)
        key = _conjugacy_key(rs, s, comps)
        if key in reps:
            continue
        reps[key] = members, comps
        if method == "bds":
            # the key refuses a child that lost full rank
            for child in _children(rs, s, comps) - queued:
                queued.add(child)
                bisect.insort(queue, (tuple(sorted(child)), child))

    out = [Subsystem(tuple(roots[b] for b in members), _label(rs, comps),
                     tuple(roots[a] for simple, comp in comps
                           for a in _coroot_simple(rs, comp, simple)))
           for members, comps in reps.values()]
    return tuple(sorted(out, key=lambda sub: (sub.label, sub.roots)))


def _brute_force_sets(rs: RootSystem) -> set[IndexSet]:
    if rs.rank > BRUTE_FORCE_MAX_RANK:
        raise CapacityError(
            f"brute-force subsystem scan is limited to rank "
            f"{BRUTE_FORCE_MAX_RANK}; {rs.spec} has rank {rs.rank}"
        )
    roots, refl = rs.roots, rs.table.refl
    n = len(roots)
    pos = range(n // 2, n)
    found: set[IndexSet] = set()
    for mask in range(1, 1 << len(pos)):
        sel = [pos[i] for i in range(len(pos)) if mask >> i & 1]
        s = frozenset(sel) | frozenset(n - 1 - b for b in sel)
        if all(refl[a][b] in s for a in s for b in s) \
                and linalg.int_rank(roots[b] for b in sel) == rs.rank:
            found.add(s)
    return found


# ---------------------------------------------------------------------------
# Lattice constants

def _ambient_basis(rs: RootSystem) -> list[tuple[int, ...]]:
    """Coweight rows of the simple coroots of rs, a basis of its coroot
    lattice; on a BC component the short simple root gives way to its double."""
    return [rs.coroot_coweight_coords(rs.double_of(b) or b) for b in rs.simple_roots]


def class_divisors(rs: RootSystem, roots: Iterable[Root]) -> tuple[int, ...]:
    """Elementary divisors of (ambient coroot lattice) / (subsystem coroot
    lattice), from one Smith normal form of the simple coroots.

    The subsystem must be reflection-closed and have full rank; its coroots
    then span a finite-index sublattice.  Anything else is refused with a
    ValueError.
    """
    index = rs.table.index
    items = [tuple(r) for r in roots]
    for r in items:
        if r not in index:
            raise ValueError(f"{r} is not a root")
    s = frozenset(index[r] for r in items)
    if reflection_closure(rs, s) != s:
        raise ValueError("subsystem is not reflection-closed")
    simple = _coroot_simple(rs, s, _simple_system(rs, _indivisible_part(rs, s, "root")))
    return quotient_divisors([rs.coroot_coweight_coords(rs.roots[a]) for a in simple],
                             _ambient_basis(rs))


def n_of_subsystem(rs: RootSystem, roots: Iterable[Root]) -> int:
    """Exponent of (ambient coroot lattice) / (subsystem coroot lattice):
    the lcm of :func:`class_divisors`."""
    return math.lcm(1, *class_divisors(rs, roots))


def census(
    rs: RootSystem, method: Literal["bds", "brute_force"] = "bds"
) -> tuple[tuple[Subsystem, tuple[int, ...]], ...]:
    """Every full-rank subsystem class with its divisor chain, read off the
    simple coroots that the census found for it."""
    ambient = _ambient_basis(rs)
    return tuple((s, quotient_divisors(map(rs.coroot_coweight_coords, s.coroot_simple), ambient))
                 for s in full_rank_subsystems(rs, method))


def n_sigma(rs: RootSystem, method: Literal["bds", "brute_force"] = "bds") -> int:
    """lcm of the class constants n over all full-rank subsystem classes."""
    return math.lcm(1, *(d for _, divisors in census(rs, method) for d in divisors))
