from __future__ import annotations

import functools
import itertools
import random
import sys
from fractions import Fraction as Q

import pytest
from fraction_oracle import fraction_solve

from rootneg import linalg, subsystems
from rootneg.lattice import quotient_divisors
from rootneg.params import integral_roots
from rootneg.rootsys import Parameter, RootSystem, build_root_system, identity_weyl, weyl_group
from rootneg.subsystems import (
    BRUTE_FORCE_MAX_RANK,
    _brute_force_sets,
    _children,
    _component_affine,
    _components,
    _conjugacy_key,
    _coroot_simple,
    _indivisible_part,
    _label,
    _side_coords,
    census,
    class_divisors,
    component_split,
    full_rank_subsystems,
    n_of_subsystem,
    n_sigma,
    parabolic_closure,
    reflection_closure,
    subsystem_label,
)


def _long_a1xa1(rs):
    # the two long roots of B2 and their negatives
    return {(1, 0), (-1, 0), (1, 2), (-1, -2)}


def _short_a1xa1(rs):
    return {(0, 1), (0, -1), (1, 1), (-1, -1)}


def _numbers(rs, roots):
    return frozenset(rs.table.index[tuple(b)] for b in roots)


def _vectors(rs, numbers):
    return frozenset(rs.roots[b] for b in numbers)


def _closure(rs, roots):
    """reflection_closure on root vectors, through the root numbering."""
    return _vectors(rs, reflection_closure(rs, _numbers(rs, roots)))


def test_reflection_closure_generates_b2():
    rs = build_root_system("B2")
    closed = _closure(rs, [(0, 1), (1, 0)])
    assert closed == set(rs.roots)


def test_reflection_closure_of_orthogonal_pair_stays_small():
    rs = build_root_system("B2")
    assert _closure(rs, [(1, 0), (1, 2)]) == _long_a1xa1(rs)


def _is_root_subsystem(rs, roots):
    """Whether the set is stable under negation, under the reflections of its
    members, and under sums of two members that are ambient roots."""
    s = frozenset(roots)
    return all(
        tuple(-b for b in beta) in s
        and all(
            rs.reflect(alpha, beta) in s
            and (tuple(map(sum, zip(alpha, beta))) not in rs._root_set
                 or tuple(map(sum, zip(alpha, beta))) in s)
            for alpha in s
        )
        for beta in s
    )


def test_is_root_subsystem():
    a2 = build_root_system("A2")
    assert _is_root_subsystem(a2, {(1, 1), (-1, -1)})
    # fails sum closure: alpha1 + alpha2 is a root outside the set
    assert not _is_root_subsystem(a2, {(1, 0), (-1, 0), (0, 1), (0, -1)})
    g2 = build_root_system("G2")
    short_roots = {b for b in g2.roots if g2.length_sq(b) == 2}
    assert not _is_root_subsystem(g2, short_roots)

    rs = build_root_system("B2")
    assert _is_root_subsystem(rs, _long_a1xa1(rs))
    # two short roots sum to a long root outside the set, though the set is
    # reflection-closed: the census finds it, parabolic closure never makes it
    assert not _is_root_subsystem(rs, _short_a1xa1(rs))
    assert _closure(rs, _short_a1xa1(rs)) == _short_a1xa1(rs)
    assert _is_root_subsystem(rs, set(rs.roots))
    assert not _is_root_subsystem(rs, {(1, 0)})  # missing the negative
    assert not _is_root_subsystem(rs, {(1, 0), (-1, 0), (0, 1)})

    # parabolic closures are closed under root sums
    for name in ("A3", "B3", "C3", "BC2", "G2", "B2xG2"):
        rs = build_root_system(name)
        for seed in itertools.combinations(rs.positive_roots, 2):
            assert _is_root_subsystem(rs, parabolic_closure(rs, seed).roots), (name, seed)


def test_parabolic_closure_fills_the_span():
    rs = build_root_system("B2")
    # the long A1xA1 spans everything, so its parabolic closure is all of B2
    closure = parabolic_closure(rs, _long_a1xa1(rs))
    assert set(closure.roots) == set(rs.roots)
    assert closure.label == "B2"
    single = parabolic_closure(rs, [(1, 0)])
    assert set(single.roots) == {(1, 0), (-1, 0)}
    assert single.label == "A1"


def test_component_split():
    rs = build_root_system("B2")
    comps = [c for c, _rank in component_split(rs, _long_a1xa1(rs))]
    assert sorted(sorted(c) for c in comps) == [
        [(-1, -2), (1, 2)],
        [(-1, 0), (1, 0)],
    ]
    assert len(component_split(rs, set(rs.roots))) == 1


def _union_find_split(rs, roots):
    """Components by union-find over every pair of roots, each with its rank
    by an echelon: the O(|S|^2) oracle."""
    items = sorted(set(tuple(r) for r in roots))
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            if rs.root_pairing(items[j], a) != 0:
                parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(items):
        groups.setdefault(find(i), set()).add(r)
    return tuple(sorted(((frozenset(g), linalg.int_rank(g)) for g in groups.values()),
                        key=lambda c: sorted(c[0])))


@pytest.mark.parametrize(
    "name",
    ["A1", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "BC1", "BC2", "BC3",
     "A1xA1", "A2xB2", "B2xG2", "D5", "E6"],
)
def test_component_split_matches_union_find(name):
    rs = build_root_system(name)
    rng = random.Random(f"component_split/{name}")
    subsets = [set(rs.roots), set()]
    for _ in range(20):
        # arbitrary subsets, not closed under anything
        p = rng.choice((0.1, 0.3, 0.6))
        subsets.append({r for r in rs.roots if rng.random() < p})
        # reflection-closed subsystems
        seed = rng.sample(rs.roots, min(len(rs.roots), rng.randint(1, 3)))
        subsets.append(_closure(rs, seed))
        # integral root sets of rational parameters
        lam = Parameter.of([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rs.rank)])
        subsets.append(integral_roots(rs, lam, rng.choice((1, 2))))
    for subset in subsets:
        assert component_split(rs, subset) == _union_find_split(rs, subset), subset


@pytest.mark.parametrize(
    "name,subset,label",
    [
        ("B2", {(1, 0), (-1, 0)}, "A1"),
        ("B2", {(1, 0), (-1, 0), (1, 2), (-1, -2)}, "A1xA1"),
        ("G2", {(1, 0), (-1, 0), (1, 2), (-1, -2)}, "A1xA1"),
        ("BC1", {(1,), (-1,), (2,), (-2,)}, "BC1"),
        ("BC1", {(2,), (-2,)}, "A1"),
        ("BC2", {(1, 1), (-1, -1), (2, 2), (-2, -2), (0, 1), (0, -1)}, "A1xBC1"),
        ("A3", set(build_root_system("A3").roots), "A3"),
        ("B2", set(), "empty"),
    ],
)
def test_subsystem_label(name, subset, label):
    rs = build_root_system(name)
    assert subsystem_label(rs, subset) == label


def test_g2_length_class_subsystems():
    rs = build_root_system("G2")
    long_roots = {b for b in rs.roots if rs.length_sq(b) == 6}
    short_roots = {b for b in rs.roots if rs.length_sq(b) == 2}
    assert subsystem_label(rs, long_roots) == "A2"
    assert subsystem_label(rs, short_roots) == "A2"
    # long coroots are the short coroots of the dual, which span everything
    assert n_of_subsystem(rs, long_roots) == 1
    assert n_of_subsystem(rs, short_roots) == 3


def _side_simple(rs, comp, side):
    """The sorted simple roots of one component on one side."""
    [(simple, _members)] = _components(rs, comp)
    return tuple(sorted(simple if side == "root" else _coroot_simple(rs, comp, simple)))


def _affine(rs, roots, side):
    """_component_affine on root vectors, through the root numbering."""
    comp = _numbers(rs, roots)
    simple = _side_simple(rs, comp, side)
    top, marks = _component_affine(rs, comp, simple, side)
    return tuple(rs.roots[b] for b in simple), rs.roots[top], marks


def test_affine_diagram_marks():
    rs = build_root_system("G2")
    simple, top, marks = _affine(rs, rs.roots, "root")
    assert simple == ((0, 1), (1, 0))
    assert top == (2, 3)
    assert marks == (3, 2)

    rs = build_root_system("B2")
    simple, top, marks = _affine(rs, rs.roots, "root")
    assert top == (1, 2)
    assert marks == (2, 1)
    # on the coroot side: the coroot of the short root (1, 1) is the highest
    # (of type C2), 2 alpha_1-coroot + alpha_2-coroot
    simple, top, marks = _affine(rs, rs.roots, "coroot")
    assert simple == ((0, 1), (1, 0))
    assert top == (1, 1)
    assert marks == (1, 2)


def _simple_by_heights(rs, reduced, side):
    """Oracle: in order of increasing height on the side, a positive root is
    simple unless it is a simple root found before it plus a positive root."""
    roots = rs.roots
    coords = {b: _side_coords(rs, roots[b], side) for b in reduced if sum(roots[b]) > 0}
    if side == "root":
        def height(b):
            return sum(roots[b])
    else:
        # the coroot of b is sum_j b_j (a_j, a_j)/(b, b) times simple coroot j
        def height(b):
            return Q(sum(x * rs.gram[j][j] for j, x in enumerate(roots[b])),
                     rs.length_sq(roots[b]))
    vecs = set(coords.values())
    simple = []
    for b in sorted(coords, key=height):
        if not any(tuple(t - v for t, v in zip(coords[b], coords[a])) in vecs for a in simple):
            simple.append(b)
    return tuple(sorted(simple))


def _affine_by_solving(rs, comp, side):
    """Oracle: simple roots by heights, the highest root as the positive root
    of greatest height, and its marks by solving for its coefficients."""
    roots = rs.roots
    reduced = _indivisible_part(rs, comp, side)
    simple = _simple_by_heights(rs, reduced, side)
    rows = [_side_coords(rs, roots[a], side) for a in simple]
    h = fraction_solve(rows, [1] * len(simple))
    heights = {
        b: sum(x * y for x, y in zip(h, _side_coords(rs, roots[b], side)))
        for b in reduced if b >= len(roots) // 2
    }
    top = max(heights, key=heights.get)
    assert [b for b, v in heights.items() if v == heights[top]] == [top]
    sol = fraction_solve(list(zip(*rows)), _side_coords(rs, roots[top], side))
    assert all(x.denominator == 1 and x > 0 for x in sol)
    return simple, top, tuple(int(x) for x in sol)


@pytest.mark.parametrize("name", ["B3", "C4", "F4", "G2", "BC3", "D5", "E6", "A2xB2", "G2xG2xA1"])
def test_affine_climb_matches_solving(name):
    # every component of every subsystem the bds walk reaches, on both sides
    rs = build_root_system(name)
    seen = 0
    for s in _bds_candidates(rs):
        for comp, _rank in component_split(rs, _vectors(rs, s)):
            for side in ("root", "coroot"):
                comp_numbers = _numbers(rs, comp)
                expected = _affine_by_solving(rs, comp_numbers, side)
                simple = _side_simple(rs, comp_numbers, side)
                assert (simple, *_component_affine(rs, comp_numbers, simple, side)) == expected
                seen += 1
    assert seen > 2 * rs.rank


def test_affine_diagram_splits_products():
    rs = build_root_system("A1xA1")
    comps = component_split(rs, rs.roots)
    assert len(comps) == 2
    assert [_affine(rs, c, "root")[2] for c, _rank in comps] == [(1,), (1,)]


def test_bds_keys_each_candidate_once(monkeypatch):
    keyed = []
    original = subsystems._conjugacy_key

    def counting_key(rs, s, comps):
        keyed.append(s)
        return original(rs, s, comps)

    monkeypatch.setattr(subsystems, "_conjugacy_key", counting_key)
    assert len(full_rank_subsystems(build_root_system("BC3"))) == 26
    assert len(keyed) == len(set(keyed)) == 43


def test_bds_finds_the_components_of_each_candidate_once(monkeypatch):
    # the key, the children and the label of a candidate share one record,
    # and the coroot side's simple roots come from the root side's
    calls = {"_components": 0, "_simple_system": 0}
    for name in calls:
        original = getattr(subsystems, name)

        def counting(rs, s, name=name, original=original):
            calls[name] += 1
            return original(rs, s)

        monkeypatch.setattr(subsystems, name, counting)
    assert len(full_rank_subsystems(build_root_system("BC3"))) == 26
    assert calls == {"_components": 43, "_simple_system": 43}


#: the census functions that reflect and pair roots through the root table
_TABLE_CODE = {
    "census", "full_rank_subsystems", "_children", "_saturate", "reflection_closure",
    "_brute_force_sets", "_conjugacy_key", "_components", "_label", "_component_affine",
    "_simple_system", "_indivisible_part", "class_divisors", "_ambient_basis", "_coroot_simple",
}


def _refuse_in_table_code(monkeypatch, name):
    """Make RootSystem.<name> raise when the census code above calls it
    (directly or from one of its comprehensions); other callers, such as
    component_split and subsystem_spec, keep the vector method."""
    original = getattr(RootSystem, name)

    def guarded(rs, *args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        # nested helpers count as their enclosing function (co_qualname is 3.11+)
        caller = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)
        if (frame.f_globals["__name__"] == subsystems.__name__
                and caller.split(".")[0] in _TABLE_CODE):
            raise AssertionError(f"RootSystem.{name} called in {caller}")
        return original(rs, *args)

    monkeypatch.setattr(RootSystem, name, guarded)


@pytest.mark.parametrize("name,methods", [
    ("F4", ("bds",)), ("BC3", ("bds", "brute_force")), ("G2xG2xA1", ("bds",)),
])
def test_census_reflects_by_table_rows(monkeypatch, name, methods):
    rs = build_root_system(name)
    expected = {method: full_rank_subsystems(rs, method) for method in methods}
    chains = {method: census(rs, method) for method in methods}
    _refuse_in_table_code(monkeypatch, "reflect")
    _refuse_in_table_code(monkeypatch, "root_pairing")
    for method in methods:
        assert full_rank_subsystems(rs, method) == expected[method]
        assert census(rs, method) == chains[method]
        assert [class_divisors(rs, s.roots) for s in expected[method]] \
            == [d for _, d in chains[method]]


CLASS_TABLES = {
    "A1": [("A1", 1)],
    "A2": [("A2", 1)],
    "B2": [("A1xA1", 1), ("A1xA1", 2), ("B2", 1)],
    "G2": [("A1xA1", 2), ("A2", 1), ("A2", 3), ("G2", 1)],
    "BC1": [("A1", 1), ("A1", 2), ("BC1", 1)],
    "D4": [("A1xA1xA1xA1", 2), ("D4", 1)],
    "BC2": [
        ("A1xA1", 1),
        ("A1xA1", 2),
        ("A1xA1", 2),
        ("A1xA1", 2),
        ("A1xBC1", 1),
        ("A1xBC1", 2),
        ("B2", 1),
        ("B2", 2),
        ("BC1xBC1", 1),
        ("BC2", 1),
    ],
}


@pytest.mark.parametrize("name", sorted(CLASS_TABLES))
def test_full_rank_subsystem_tables(name):
    rs = build_root_system(name)
    classes = full_rank_subsystems(rs, "bds")
    table = sorted((s.label, n_of_subsystem(rs, s.roots)) for s in classes)
    assert table == sorted(CLASS_TABLES[name])


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "BC1", "BC2"])
def test_bds_equals_brute_force(name):
    rs = build_root_system(name)
    via_bds = sorted(
        (s.label, n_of_subsystem(rs, s.roots))
        for s in full_rank_subsystems(rs, "bds")
    )
    via_brute = sorted(
        (s.label, n_of_subsystem(rs, s.roots))
        for s in full_rank_subsystems(rs, "brute_force")
    )
    assert via_bds == via_brute


def test_full_rank_subsystems_all_have_full_rank():
    rs = build_root_system("B2")
    for s in full_rank_subsystems(rs, "bds"):
        assert linalg.int_rank(s.roots) == rs.rank


def test_n_of_subsystem_values():
    rs = build_root_system("B2")
    assert n_of_subsystem(rs, set(rs.roots)) == 1
    # long-root coroots already span the full coroot lattice
    assert n_of_subsystem(rs, _long_a1xa1(rs)) == 1
    # short-root coroots land in an index-2 sublattice, divisors (1, 2)
    assert n_of_subsystem(rs, _short_a1xa1(rs)) == 2


def test_n_of_subsystem_rejects_partial_rank():
    rs = build_root_system("B2")
    with pytest.raises(ValueError):
        n_of_subsystem(rs, {(1, 0), (-1, 0)})


@pytest.mark.parametrize("roots", [
    # full rank, but the simple roots alone close to all of B2
    {(1, 0), (-1, 0), (0, 1), (0, -1)},
    # one pair of roots short of closed
    {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)},
    # the positive roots without their negatives
    {(1, 0), (0, 1), (1, 1), (1, 2)},
])
def test_n_of_subsystem_rejects_sets_that_are_not_reflection_closed(roots):
    # the chain is read off a simple system, which only a closed set has
    rs = build_root_system("B2")
    with pytest.raises(ValueError, match="not reflection-closed"):
        n_of_subsystem(rs, roots)
    with pytest.raises(ValueError, match="not a root"):
        class_divisors(rs, roots | {(2, 1)})


N_SIGMA_TABLE = {
    "A1": 1,
    "A2": 1,
    "A3": 1,
    "B2": 2,
    "B3": 2,
    "C3": 2,
    "D4": 2,
    "G2": 6,
    "F4": 12,
    "BC1": 2,
    "BC2": 2,
    "A1xA1": 1,
    "B2xA1": 2,
}


@pytest.mark.parametrize("name", sorted(N_SIGMA_TABLE))
def test_n_sigma_table(name):
    rs = build_root_system(name)
    assert n_sigma(rs) == N_SIGMA_TABLE[name]


def test_unknown_method_rejected():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        full_rank_subsystems(rs, "guess")


def test_brute_force_refused_above_rank_three():
    from rootneg.rootsys import CapacityError

    rs = build_root_system("D4")
    with pytest.raises(CapacityError):
        full_rank_subsystems(rs, "brute_force")


def test_parabolic_closure_idempotent_and_monotone():
    rs = build_root_system("B3")
    small = {(1, 0, 0)}
    large = {(1, 0, 0), (0, 1, 0)}
    c_small = set(parabolic_closure(rs, small).roots)
    c_large = set(parabolic_closure(rs, large).roots)
    assert c_small <= c_large
    assert set(parabolic_closure(rs, c_small).roots) == c_small
    assert set(parabolic_closure(rs, c_large).roots) == c_large


@pytest.mark.parametrize("name", ["B2", "G2", "BC2", "B3"])
def test_n_sigma_divisible_by_each_class_constant(name):
    rs = build_root_system(name)
    total = n_sigma(rs)
    for s in full_rank_subsystems(rs, "bds"):
        assert total % n_of_subsystem(rs, s.roots) == 0


@pytest.mark.parametrize("name", ["B2", "G2", "BC1", "BC2", "C3"])
def test_scaled_coroots_land_in_subsystem_coroot_lattice(name):
    rs = build_root_system(name)
    for s in full_rank_subsystems(rs, "bds"):
        n = n_of_subsystem(rs, s.roots)
        columns = [rs.coroot_coweight_coords(b) for b in sorted(s.roots)]
        for alpha in rs.roots:
            target = [n * x for x in rs.coroot_coweight_coords(alpha)]
            sol = fraction_solve(list(zip(*columns)), target)
            assert sol is not None
            assert all(x.denominator == 1 for x in sol), (
                f"{name}: {n}*coroot of {alpha} outside the coroot span of {s.label}"
            )


# ---------------------------------------------------------------------------
# Conjugacy classes against a full Weyl-orbit oracle


@functools.lru_cache(maxsize=None)
def _weyl_permutations(name):
    """Roots numbered in sorted order, and every w in W as a permutation."""
    rs = build_root_system(name)
    index = {b: k for k, b in enumerate(rs.roots)}
    return index, tuple(
        tuple(index[w.apply_root(b)] for b in rs.roots) for w in weyl_group(rs)
    )


def _orbit_key(rs, s):
    """Oracle: the least sorted image of the root set s over every element
    of W.

    Sorted index tuples compare as the sorted root lists they number.
    """
    index, perms = _weyl_permutations(str(rs.spec))
    members = [index[b] for b in s]
    return min(tuple(sorted(perm[k] for k in members)) for perm in perms)


def _bds_candidates(rs):
    """Every subsystem (as root numbers) the bds walk can reach from the
    whole system."""
    full = frozenset(range(len(rs.roots)))
    seen = {full}
    stack = [full]
    while stack:
        s = stack.pop()
        for child in _children(rs, s, _components(rs, s)):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def _partition(sets, key):
    blocks = {}
    for s in sets:
        blocks.setdefault(key(s), set()).add(s)
    return {frozenset(b) for b in blocks.values()}


ORACLE_TYPES = [
    "A1", "A2", "A3", "B2", "B3", "C3", "G2", "BC1", "BC2", "BC3", "A1xA1",
    "B2xA1", "D4", "B4", "C4", "F4", "A2xB2", "B2xG2", "D5", "B5",
]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_conjugacy_key_partitions_like_the_weyl_orbit(name):
    rs = build_root_system(name)
    reached = _bds_candidates(rs)
    if rs.rank <= BRUTE_FORCE_MAX_RANK:
        # every reflection-closed full-rank subset, so every conjugate
        sets = reached | _brute_force_sets(rs)
    else:
        # images under the simple reflections, so that most classes hold
        # several distinct sets
        gens = [identity_weyl(rs).times_simple(rs, i) for i in range(rs.rank)]
        sets = reached | {
            _numbers(rs, (w.apply_root(b) for b in _vectors(rs, s))) for s in reached for w in gens
        }
    oracle = _partition(sets, lambda s: _orbit_key(rs, _vectors(rs, s)))
    assert _partition(sets, lambda s: _conjugacy_key(rs, s, _components(rs, s))) == oracle
    assert len(full_rank_subsystems(rs, "bds")) == len({b for b in oracle if b & reached})


def _factor_census(spec_text):
    """Oracle census of one factor: each class as its full-W orbit key."""
    rs = build_root_system(spec_text)
    return {_orbit_key(rs, s.roots) for s in full_rank_subsystems(rs, "bds")}


@pytest.mark.parametrize("name", ["G2xG2xA1", "B2xG2xA1"])
def test_product_census_is_the_product_of_factor_censuses(name):
    rs = build_root_system(name)
    factors = []
    for family, rank, offset in rs.blocks:
        factor = build_root_system(f"{family}{rank}")
        factors.append((factor, offset, rank))
    seen = []
    for sub in full_rank_subsystems(rs, "bds"):
        key = []
        for factor, offset, rank in factors:
            part = {b[offset:offset + rank] for b in sub.roots if any(b[offset:offset + rank])}
            key.append(_orbit_key(factor, part))
        seen.append(tuple(key))
    expected = set(itertools.product(
        *(_factor_census(f"{family}{rank}") for family, rank, _ in rs.blocks)
    ))
    assert len(seen) == len(set(seen))
    assert set(seen) == expected


def test_g2xg2xa1_census_keeps_the_two_mixed_classes_apart():
    # (G2, A2) and (A2, G2) share the label A1xA2xG2 and the divisor chain,
    # but W acts factor by factor, so no Weyl element swaps the two factors
    rs = build_root_system("G2xG2xA1")
    classes = full_rank_subsystems(rs)
    assert len(classes) == 16
    assert [s.label for s in classes].count("A1xA2xG2") == 4
    assert n_sigma(rs) == 6


# Oshima 2006 (arXiv:math/0611904), Dynkin 1952: the full-rank subsystems of E8
E8_CLASSES = [
    ("A1xA1xA1xA1xA1xA1xA1xA1", 2), ("A1xA1xA1xA1xD4", 2), ("A1xA1xA3xA3", 4),
    ("A1xA1xD6", 2), ("A1xA2xA5", 6), ("A1xA7", 4), ("A1xE7", 2),
    ("A2xA2xA2xA2", 3), ("A2xE6", 3), ("A3xD5", 4), ("A4xA4", 5), ("A8", 3),
    ("D4xD4", 2), ("D8", 2), ("E8", 1),
]


def test_e8_census_is_exact_without_enumerating_w():
    # |W(E8)| is far above the Weyl enumeration limit, so this census cannot
    # be using weyl_group
    rs = build_root_system("E8")
    table = [(s.label, n_of_subsystem(rs, s.roots)) for s in full_rank_subsystems(rs)]
    assert table == E8_CLASSES
    assert n_sigma(rs) == 60


@pytest.mark.parametrize("name", ["B2", "G2", "BC2", "F4"])
def test_census_pairs_each_class_with_its_divisors(name):
    rs = build_root_system(name)
    pairs = census(rs)
    assert [s for s, _ in pairs] == list(full_rank_subsystems(rs))
    for s, divisors in pairs:
        assert divisors == class_divisors(rs, s.roots)
        assert len(divisors) == rs.rank
        assert n_of_subsystem(rs, s.roots) == max(divisors)


@pytest.mark.parametrize("name", ["BC3", "F4", "B2xG2", "G2xG2xA1", "D5", "E6"])
def test_row_components_match_component_split(name):
    # components, ranks and labels from table rows against the vector split
    rs = build_root_system(name)
    for s in _bds_candidates(rs):
        rows = sorted(((_vectors(rs, members), len(simple))
                       for simple, members in _components(rs, s)), key=lambda c: sorted(c[0]))
        assert tuple(rows) == component_split(rs, _vectors(rs, s))
        assert all(rank == linalg.int_rank(comp) for comp, rank in rows)
        assert _label(rs, _components(rs, s)) == subsystem_label(rs, _vectors(rs, s))


def _divisors_by_all_coroots(rs, roots):
    """Oracle: the divisor chain from Hermite bases of every positive coroot
    of the subsystem and of the ambient system."""
    items = sorted(set(roots))
    assert linalg.int_rank(items) == rs.rank
    sub = [rs.coroot_coweight_coords(b) for b in items if sum(b) > 0]
    sup = [rs.coroot_coweight_coords(b) for b in rs.positive_roots]
    return quotient_divisors(sub, sup)


@pytest.mark.parametrize("name", ["B2", "G2", "BC2", "BC3", "B2xG2", "F4", "D5", "E6", "E7",
                                  "BC5", "C6", "G2xG2xA1"])
def test_simple_coroot_divisors_match_all_coroots(name):
    rs = build_root_system(name)
    for s, divisors in census(rs):
        assert divisors == _divisors_by_all_coroots(rs, s.roots), s.label


def _block_partition_count(n, block_types):
    """Coefficient of x^n in prod_k (1 - x^k)^(-c(k)), c(k) = block_types(k):
    the multisets of typed blocks whose sizes sum to n."""
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(block_types(k)):
            for m in range(k, n + 1):
                counts[m] += counts[m - k]
    return counts[n]


#: block types of each size in a classical full-rank subsystem, up to W:
#: B_n: B_k or D_k (k >= 2); C_n: C_k or D_k; D_n: D_k (k >= 2);
#: BC_n: BC_k, B_k or C_k, or D_k (k >= 2)
_BLOCK_TYPES = {
    "B": lambda k: 1 if k == 1 else 2,
    "C": lambda k: 1 if k == 1 else 2,
    "D": lambda k: 0 if k == 1 else 1,
    "BC": lambda k: 3 if k == 1 else 4,
}


@pytest.mark.parametrize("name", ["B4", "B5", "B6", "C4", "C5", "C6", "D4", "D5", "D6",
                                  "BC4", "BC5"])
def test_classical_class_counts_match_block_partitions(name):
    # Borel and de Siebenthal; Dynkin: up to W a full-rank subsystem of a
    # classical type is a partition of the coordinates into typed blocks
    rs = build_root_system(name)
    family = name.rstrip("0123456789")
    expected = _block_partition_count(rs.rank, _BLOCK_TYPES[family])
    assert len(full_rank_subsystems(rs)) == expected
