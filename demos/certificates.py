"""Negativity verdicts, edge/lattice reports, and exponent certificates.

Shows the three certificate layers on worked inputs: a strict negativity
check with its rational witness, the edge/lattice report for a class, and a
synthetic exponent decomposition over a simplicial cone.

Run:  python3 demos/certificates.py
"""

from fractions import Fraction as Q

from rootneg.exponent import certify_exponent
from rootneg.negativity import (
    NegativityQuery,
    check_class_negativity,
    check_negativity,
    verify_fundamental_lemma,
)
from rootneg.rootsys import Parameter, build_root_system, rank_one_bound

rs = build_root_system("A2")

for coords in ((-1, -1), (Q(1, 2), Q(1, 2)), (1, 1)):
    lam = Parameter.of(coords)
    verdict = check_negativity(rs, NegativityQuery(lam, "strict"))
    row = f"lambda = {coords}: feasible={verdict.feasible}"
    if verdict.feasible:
        row += f", witness {verdict.witness_omega} over {verdict.span_basis}"
    print(row)
    report = check_class_negativity(rs, lam, "strict")
    print(f"  whole class of {len(report.members)}: ok={report.ok}")
print()

report = verify_fundamental_lemma(rs, Parameter.of((-1, -1)), "strict")
print("edge/lattice report at minus rho:")
print(f"  edge trivial: {report.edge_trivial}")
print(f"  parabolic closure: {report.parabolic.label}")
print(f"  lattice index: {report.n_lattice}")
print(f"  pairings all in (1/{report.n_lattice})Z: {report.integrality_ok}")
print()

cert = certify_exponent(
    rank_z=2,
    spherical=((1, 0), (0, 1)),
    edge_dims=0,
    mu=(Q(1, 3), Q(1, 2)),
    rho_q=(0, 0),
    nu=(0, 0),
    denominator=6,
)
print("exponent certificate for mu = (1/3, 1/2), denominator 6:")
print(f"  coefficients: {cert.coefficients}")
print(f"  lattice_ok={cert.lattice_ok} ds1_ok={cert.ds1_ok} ds2_ok={cert.ds2_ok}")
print()

for name in (None, "A1", "A2", "B2"):
    label = name if name else "empty"
    print(f"rank-one denominator bound for {label}: {rank_one_bound(name)}")
