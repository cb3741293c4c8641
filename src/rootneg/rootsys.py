"""Finite root systems, reduced and non-reduced, in exact arithmetic.

Roots are integer coordinate tuples over the simple roots; the Gram and
Cartan matrices are integer.  Weyl group elements are stored by their images
of the simple roots, so multiplying by a simple reflection on the right and
acting on roots is integer row arithmetic; every walk over W (the group
itself, a chamber gallery) is a chain of such steps, and the gallery reads
its elements' reduced words off those chains instead of peeling them.  Parameters are complex
rational values on the simple coroots (coordinates over the fundamental
weights); w acts on one through its coordinates over the simple roots, which
w moves as it moves any vector of the root span.

``RootSystem.table`` holds each reflection as a permutation of the root
numbers (as in CHEVIE/GAP: Geck, Hiss, Lübeck, Malle, Pfeiffer 1996); only the
subsystem census and the checks that close root sets build it, on first use.

Scaling convention: in every reduced irreducible component the short roots
have squared length 2; in a non-reduced component the shortest roots have
squared length 1 (so their doubles have squared length 4).
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Union

from . import linalg
from .linalg import Vec

Root = tuple[int, ...]

#: Hard ceiling on Weyl group enumeration (E6 is under it, E7 and E8 are
#: not) and on the chamber gallery of a parameter the CLI walks.
WEYL_ORDER_LIMIT = 10**6

_FAMILIES = ("A", "B", "BC", "C", "D", "E", "F", "G")
#: the families whose dual is the other one; every other family is self-dual
_DUAL_FAMILY = {"B": "C", "C": "B"}


class CapacityError(Exception):
    """Raised when a request exceeds a documented enumeration bound."""


class RootSystemSpec:
    """A product of irreducible types, e.g. ``A2``, ``G2``, ``B3xA1``.

    Component order is canonicalized (family letter, then rank), so two specs
    naming the same product compare equal.
    """

    def __init__(self, components: tuple[tuple[str, int], ...]) -> None:
        if not components:
            raise ValueError("spec needs at least one component")
        for family, rank in components:
            _check_component(family, rank)
        self.components: tuple[tuple[str, int], ...] = tuple(sorted(components))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystemSpec) and self.components == other.components

    def __hash__(self) -> int:
        # the one-field tuple a frozen dataclass hashed, so set orders stay put
        return hash((self.components,))

    @classmethod
    def parse(cls, text: str) -> "RootSystemSpec":
        parts = text.strip().split("x")
        comps = []
        for part in parts:
            part = part.strip()
            head = "".join(ch for ch in part if ch.isalpha())
            tail = part[len(head):]
            if not head or not tail or not tail.isdigit():
                raise ValueError(f"cannot parse component {part!r}")
            comps.append((head.upper(), int(tail)))
        return cls(tuple(comps))

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.components)

    def dual(self) -> "RootSystemSpec":
        """The spec of the dual root system: B and C trade places."""
        return RootSystemSpec(tuple((_DUAL_FAMILY.get(f, f), r) for f, r in self.components))

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.components)


def _check_component(family: str, rank: int) -> None:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {_FAMILIES})")
    low_high = {
        "A": (1, None), "B": (1, None), "C": (1, None), "BC": (1, None),
        "D": (2, None), "E": (6, 8), "F": (4, 4), "G": (2, 2),
    }[family]
    low, high = low_high
    if rank < low or (high is not None and rank > high):
        raise ValueError(f"rank {rank} out of range for family {family}")


def _chain_gram(diag: list[int], off: dict[tuple[int, int], int]) -> list[list[int]]:
    n = len(diag)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = diag[i]
    for (i, j), v in off.items():
        g[i][j] = v
        g[j][i] = v
    return g


def _component_gram(family: str, n: int) -> list[list[int]]:
    """Gram matrix of the simple roots of one irreducible component."""
    if family == "A":
        return _chain_gram([2] * n, {(i, i + 1): -1 for i in range(n - 1)})
    if family == "B":
        if n == 1:
            return _chain_gram([2], {})
        return _chain_gram([4] * (n - 1) + [2], {(i, i + 1): -2 for i in range(n - 1)})
    if family == "C":
        if n == 1:
            return _chain_gram([2], {})
        off = {(i, i + 1): -1 for i in range(n - 2)}
        off[(n - 2, n - 1)] = -2
        return _chain_gram([2] * (n - 1) + [4], off)
    if family == "BC":
        return _chain_gram([2] * (n - 1) + [1], {(i, i + 1): -1 for i in range(n - 1)})
    if family == "D":
        if n == 2:
            return _chain_gram([2, 2], {})
        off = {(i, i + 1): -1 for i in range(n - 2)}
        off[(n - 3, n - 1)] = -1
        return _chain_gram([2] * n, off)
    if family == "E":
        off = {(0, 2): -1, (1, 3): -1}
        off.update({(i, i + 1): -1 for i in range(2, n - 1)})
        return _chain_gram([2] * n, off)
    if family == "F":
        return _chain_gram([4, 4, 2, 2], {(0, 1): -2, (1, 2): -2, (2, 3): -1})
    if family == "G":
        return _chain_gram([6, 2], {(0, 1): -3})
    raise ValueError(f"unknown family {family!r}")


def _cartan_from_gram(gram) -> list[list[int]]:
    n = len(gram)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a[i][j], rem = divmod(2 * gram[i][j], gram[i][i])
            if rem:
                raise ValueError("gram matrix is not crystallographic")
    return a


def rank_one_bound(m_type: Union[RootSystemSpec, str, None] = None) -> int:
    """Denominator bound 18 d^2, d the determinant of the Cartan matrix.

    The Cartan matrix is block diagonal, so d is the product of the
    components' integer Cartan determinants; no roots are built.  The empty
    type (no roots at all) gives d = 1, so the bound 18.
    """
    if m_type is None or (isinstance(m_type, str) and not m_type.strip()):
        return 18
    spec = RootSystemSpec.parse(m_type) if isinstance(m_type, str) else m_type
    d = math.prod(linalg.det(_cartan_from_gram(_component_gram(family, rank)))
                  for family, rank in spec.components)
    if d <= 0:
        raise AssertionError("Cartan determinant must be positive")
    return 18 * d ** 2


def _gram_times(gram, beta: Root) -> list[int]:
    """The Gram matrix times beta: entry i is (alpha_i, beta)."""
    return [sum(g * b for g, b in zip(row, beta) if b) for row in gram]


def _positive_roots_from_cartan(cartan: list[list[int]]) -> list[Root]:
    """All positive roots of a reduced system, grown height by height.

    A candidate beta + alpha_i is a root exactly when the alpha_i-string
    through beta extends past beta, i.e. when (number of steps down) minus
    <beta, alpha_i-coroot> is positive.
    """
    n = len(cartan)
    found: set[Root] = set()
    level: list[Root] = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        found.add(e)
        level.append(e)
    while level:
        nxt: list[Root] = []
        for beta in level:
            for i in range(n):
                q = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) in found:
                        q += 1
                    else:
                        break
                pair = sum(cartan[i][j] * beta[j] for j in range(n))
                if q - pair > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in found:
                        found.add(cand)
                        nxt.append(cand)
        level = nxt
    return sorted(found, key=lambda r: (sum(r), r))


class RootTable(NamedTuple):
    """The roots numbered 0..N-1 in sorted order (so sorted number tuples sort
    as the roots do, root N-1-a is -beta_a and the positive roots are
    N/2..N-1), and W acting on the numbers: ``refl[a][b]`` numbers s_a(beta_b).
    ``double[a]`` numbers 2 beta_a and ``half[a]`` beta_a / 2, or they are None.
    """

    index: dict[Root, int]
    refl: tuple[tuple[int, ...], ...]
    double: tuple[Union[int, None], ...]
    half: tuple[Union[int, None], ...]


class RootSystem:
    """An immutable root system built from a :class:`RootSystemSpec`.

    Use :func:`build_root_system`; instances are cached per spec.
    """

    def __init__(self, spec: RootSystemSpec):
        self.spec = spec
        self.rank = spec.rank
        grams: list[list[list[int]]] = []
        positives: list[Root] = []
        offset = 0
        blocks: list[tuple[str, int, int]] = []
        for family, crank in spec.components:
            g = _component_gram(family, crank)
            base_cartan = _cartan_from_gram(g)
            comp_pos = _positive_roots_from_cartan(base_cartan)
            if family == "BC":
                doubled = []
                for beta in comp_pos:
                    if sum(x * b for x, b in zip(_gram_times(g, beta), beta)) == 1:
                        doubled.append(tuple(2 * b for b in beta))
                comp_pos = comp_pos + doubled
            for beta in comp_pos:
                positives.append(
                    tuple([0] * offset + list(beta) + [0] * (self.rank - offset - crank))
                )
            grams.append(g)
            blocks.append((family, crank, offset))
            offset += crank
        self.blocks = tuple(blocks)
        self.gram: tuple[tuple[int, ...], ...] = _block_diag(grams, self.rank)
        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in _cartan_from_gram(self.gram)
        )
        # The inverse Cartan matrix as integers over one common denominator.
        self._cartan_inv_den, self._cartan_inv = linalg.inverse(self.cartan)
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        self.positive_roots: tuple[Root, ...] = tuple(
            sorted(positives, key=lambda r: (sum(r), r))
        )
        self.roots: tuple[Root, ...] = tuple(
            sorted(
                list(self.positive_roots)
                + [tuple(-b for b in r) for r in self.positive_roots]
            )
        )
        self._root_set = frozenset(self.roots)
        self._len_sq: dict[Root, int] = {}
        self._coweight: dict[Root, tuple[int, ...]] = {}
        for beta in self.positive_roots:
            gb = _gram_times(self.gram, beta)
            ls = sum(x * b for x, b in zip(gb, beta))
            # alpha_i(beta-coroot) = 2 (alpha_i, beta) / (beta, beta); always integral.
            coweight = [divmod(2 * x, ls) for x in gb]
            if any(rem for _, rem in coweight):
                raise ValueError("non-integral coroot pairing")
            # -beta has beta's length and the negated coroot
            neg = tuple(-b for b in beta)
            self._len_sq[beta] = self._len_sq[neg] = ls
            self._coweight[beta] = tuple(val for val, _ in coweight)
            self._coweight[neg] = tuple(-val for val, _ in coweight)
        self._diag = tuple(self.gram[j][j] for j in range(self.rank))

    def __repr__(self) -> str:
        return f"RootSystem({self.spec})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def contains(self, beta: Root) -> bool:
        return tuple(beta) in self._root_set

    def double_of(self, beta: Root) -> Union[Root, None]:
        dbl = tuple(2 * b for b in beta)
        return dbl if dbl in self._root_set else None

    def length_sq(self, beta: Root) -> int:
        return self._len_sq[tuple(beta)]

    def coroot_coweight_coords(self, beta: Root) -> tuple[int, ...]:
        """The coroot of beta as values of the simple roots on it."""
        return self._coweight[tuple(beta)]

    def root_pairing(self, gamma: Root, beta: Root) -> int:
        """gamma evaluated on the coroot of beta (a Cartan integer)."""
        cw = self._coweight[tuple(beta)]
        return sum(g * c for g, c in zip(gamma, cw))

    def reflect(self, alpha: Root, beta: Root) -> Root:
        """Image of beta under the reflection in the wall of alpha."""
        k = self.root_pairing(beta, alpha)
        return tuple(b - k * a for b, a in zip(beta, alpha))

    @cached_property
    def table(self) -> RootTable:
        """The root table, built on first use.  Simple rows reflect every root;
        another positive beta takes a simple alpha with <beta, alpha-coroot> > 0,
        so gamma = s_alpha beta is lower and s_beta = s_alpha s_gamma s_alpha.
        The roots -beta and 2 beta share beta's row."""
        roots, n = self.roots, len(self.roots)
        index = {b: k for k, b in enumerate(roots)}
        double = tuple(index.get(self.double_of(b)) for b in roots)
        halves = {d: k for k, d in enumerate(double) if d is not None}
        half = tuple(halves.get(k) for k in range(n))
        refl: list = [None] * n
        for beta in self.positive_roots:  # by height
            k = index[beta]
            if half[k] is not None:
                row = refl[half[k]]
            elif sum(beta) == 1:
                row = tuple(index[self.reflect(beta, b)] for b in roots)
            else:
                alpha = next(a for a in self.simple_roots if self.root_pairing(beta, a) > 0)
                s, g = refl[index[alpha]], refl[index[self.reflect(alpha, beta)]]
                row = tuple(s[g[x]] for x in s)
            refl[k] = refl[n - 1 - k] = row
        return RootTable(index, tuple(refl), double, half)


_build_cache: dict[str, RootSystem] = {}


def build_root_system(spec: Union[RootSystemSpec, str]) -> RootSystem:
    if isinstance(spec, str):
        spec = RootSystemSpec.parse(spec)
    key = str(spec)
    if key not in _build_cache:
        _build_cache[key] = RootSystem(spec)
    return _build_cache[key]


def _block_diag(blocks: list[list[list[int]]], n: int) -> tuple[tuple[int, ...], ...]:
    g = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        m = len(b)
        for i in range(m):
            for j in range(m):
                g[offset + i][offset + j] = b[i][j]
        offset += m
    return tuple(tuple(row) for row in g)


def dual(rs: RootSystem) -> RootSystem:
    """The root system whose roots are the coroots of this one."""
    return build_root_system(rs.spec.dual())


# ---------------------------------------------------------------------------
# Parameters (complex rational functionals on the span of the coroots)

class Parameter:
    """Values on the simple coroots: entry i is re[i] + im[i] * sqrt(-1)."""

    def __init__(self, re: Iterable, im: Iterable) -> None:
        self.re: tuple[Q, ...] = tuple(Q(x) for x in re)
        self.im: tuple[Q, ...] = tuple(Q(x) for x in im)
        if len(self.re) != len(self.im):
            raise ValueError("re and im must have equal length")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Parameter) and (self.re, self.im) == (other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Parameter(re={self.re!r}, im={self.im!r})"

    @classmethod
    def of(cls, re: Iterable, im: Iterable = ()) -> "Parameter":
        re_t = tuple(Q(x) for x in re)
        im_t = tuple(Q(x) for x in im) if im else (Q(0),) * len(re_t)
        return cls(re_t, im_t)

    @property
    def rank(self) -> int:
        return len(self.re)

    def is_real(self) -> bool:
        return all(x == 0 for x in self.im)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(d, d * re, d * im) for the least common denominator d of the entries."""
        d = math.lcm(*(x.denominator for x in self.re + self.im))
        return (d, tuple(x.numerator * (d // x.denominator) for x in self.re),
                tuple(x.numerator * (d // x.denominator) for x in self.im))


def pairing(rs: RootSystem, lam: Parameter, beta: Root) -> tuple[Q, Q]:
    """lam evaluated on the coroot of beta, as (real, imaginary) parts.

    The coroot of beta is the combination sum_j b_j (a_j, a_j)/(beta, beta)
    of simple coroots, so the value is that combination of lam's entries.
    """
    if lam.rank != rs.rank:
        raise ValueError("parameter rank does not match root system rank")
    d, re, im = lam._scaled
    d *= rs._len_sq[tuple(beta)]
    coeffs = [b * g for b, g in zip(beta, rs._diag)]
    return (Q(sum(c * x for c, x in zip(coeffs, re)), d),
            Q(sum(c * x for c, x in zip(coeffs, im)), d))


def root_coords_of(rs: RootSystem, lam: Parameter) -> tuple[Vec, Vec]:
    """Coordinates of lam over the simple roots (real and imaginary parts)."""
    d, re, im = _scaled_root_coords(rs, lam)
    return tuple(Q(x, d) for x in re), tuple(Q(x, d) for x in im)


def _scaled_root_coords(rs: RootSystem, lam: Parameter) -> tuple[int, Root, Root]:
    """d and d times root_coords_of(lam): the integer inverse Cartan matrix
    times lam's scaled entries, d the product of the two denominators."""
    if lam.rank != rs.rank:
        raise ValueError("dimension mismatch")
    d, re, im = lam._scaled
    return (d * rs._cartan_inv_den,
            tuple(sum(a * x for a, x in zip(row, re)) for row in rs._cartan_inv),
            tuple(sum(a * x for a, x in zip(row, im)) for row in rs._cartan_inv))


def parameter_from_root_coords(rs: RootSystem, re_c: Vec, im_c: Vec) -> Parameter:
    """The parameter with root coordinates re_c + i im_c: the integer Cartan
    matrix times each part."""
    return Parameter(tuple(linalg.dot(row, re_c) for row in rs.cartan),
                     tuple(linalg.dot(row, im_c) for row in rs.cartan))


def rho(rs: RootSystem) -> Parameter:
    """Half the sum of the positive roots, as a Parameter."""
    total = [0] * rs.rank
    for beta in rs.positive_roots:
        for j, b in enumerate(beta):
            total[j] += b
    return parameter_from_root_coords(rs, [Q(t, 2) for t in total], [0] * rs.rank)


# ---------------------------------------------------------------------------
# Weyl group

class WeylElement(NamedTuple):
    """A Weyl group element, stored by its images of the simple roots."""

    images: tuple[Root, ...]

    def apply_root(self, beta: Root) -> Root:
        out = [0] * len(self.images[0])
        for j, b in enumerate(beta):
            if b:
                img = self.images[j]
                for k in range(len(out)):
                    out[k] += b * img[k]
        return tuple(out)

    def times_simple(self, rs: RootSystem, i: int) -> "WeylElement":
        """self s_i: image j drops <alpha_j, alpha_i-coroot> times image i."""
        img_i = self.images[i]
        return WeylElement(tuple(
            tuple(x - c * y for x, y in zip(img, img_i)) if c else img
            for img, c in zip(self.images, rs.cartan[i])
        ))


def identity_weyl(rs: RootSystem) -> WeylElement:
    return WeylElement(rs.simple_roots)


@lru_cache(maxsize=None)
def _component_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C", "BC"):
        return 2**rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if family == "F":
        return 1152
    if family == "G":
        return 12
    raise ValueError(f"unknown family {family!r}")


def weyl_order(spec: RootSystemSpec) -> int:
    order = 1
    for family, rank in spec.components:
        order *= _component_order(family, rank)
    return order


def check_enumerable(rs: RootSystem) -> int:
    """The order of W, or CapacityError if it is above WEYL_ORDER_LIMIT."""
    order = weyl_order(rs.spec)
    if order > WEYL_ORDER_LIMIT:
        raise CapacityError(
            f"Weyl group of {rs.spec} has order {order}, "
            f"above the enumeration limit {WEYL_ORDER_LIMIT}"
        )
    return order


def weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, sorted by (length, images).

    Breadth-first from the identity by right multiplication with simple
    reflections, so level k holds exactly the elements of length k; each
    level is sorted by images.  Refuses to enumerate groups larger than
    WEYL_ORDER_LIMIT elements.
    """
    order = check_enumerable(rs)
    level = [identity_weyl(rs)]
    seen = {level[0].images}
    out: list[WeylElement] = []
    while level:
        out.extend(level)
        nxt = []
        for w in level:
            for i in range(rs.rank):
                prod = w.times_simple(rs, i)
                if prod.images not in seen:
                    seen.add(prod.images)
                    nxt.append(prod)
        level = sorted(nxt)
    if len(out) != order:
        raise AssertionError(
            f"enumerated {len(out)} elements of W({rs.spec}), expected {order}"
        )
    return tuple(out)


def act(rs: RootSystem, w: WeylElement, x: Union[Root, Parameter]):
    """Apply a Weyl element to a root or to a Parameter, which moves as its
    coordinates over the simple roots do (in integers over one denominator)."""
    if isinstance(x, Parameter):
        d, re, im = _scaled_root_coords(rs, x)
        moved = (w.apply_root(re), w.apply_root(im))
        return Parameter(*(tuple(Q(sum(a * y for a, y in zip(row, v)), d) for row in rs.cartan)
                           for v in moved))
    return w.apply_root(tuple(x))
