"""Walk one parameter through the core constructions.

Builds a rank-2 system, picks a half-integral parameter, and prints the
integral roots, the equivalence class with the reduced words of its Weyl
witnesses, the chamber gallery with the words its walk carries, and the edge
subspace.  Everything stays in exact rationals.

Run:  python3 demos/walk_a_parameter.py
"""

from fractions import Fraction as Q

from rootneg.params import (
    chamber_walk,
    edge,
    equivalence_class,
    integral_roots,
)
from rootneg.rootsys import Parameter, build_root_system, pairing

def fmt(vec):
    return "(" + ", ".join(str(x) for x in vec) + ")"


rs = build_root_system("B2")
lam = Parameter.of([Q(1, 2), Q(1)])

print(f"system {rs.spec}, rank {rs.rank}")
print(f"positive roots: {list(rs.positive_roots)}")
print(f"parameter re={fmt(lam.re)} im={fmt(lam.im)}")
print()

print("pairings against positive coroots:")
for beta in rs.positive_roots:
    re, im = pairing(rs, lam, beta)
    tag = "integral" if im == 0 and re.denominator == 1 else ""
    print(f"  {beta}: {re}{f' + {im}i' if im else ''}  {tag}")
print()

sigma = integral_roots(rs, lam, 1)
print(f"integral roots: {list(sigma)}")
print()

cls = equivalence_class(rs, lam, 1)
print(f"equivalence class has {len(cls.members)} members:")
for word, mu in cls.members:
    print(f"  word {list(word)!r:10} -> re={fmt(mu.re)}")
print()

# each chamber u(C) carries the words of u and of its witness w = u^{-1}
gallery = chamber_walk(rs, lam)
print(f"gallery has {len(gallery)} chambers:")
for c in gallery:
    print(f"  chamber of word {list(c.u_word)!r:10} witness word {list(c.w_word)}")
print()

e = edge(rs, lam, 1)
print(f"edge dimension {e.dim}; basis {list(e.vectors)}")
