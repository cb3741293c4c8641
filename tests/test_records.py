"""Value semantics of the result records, against frozen-dataclass oracles.

Each record is checked against a frozen dataclass built here with the same
fields: equal values compare equal, and the hash is the oracle's, which keeps
set and dict iteration orders (and with them every printed answer) as they
were.  The records that validate their input still refuse bad values when
they are constructed.
"""

from __future__ import annotations

import random
from dataclasses import field, make_dataclass
from fractions import Fraction as Q

import pytest

from rootneg.exponent import ExponentCertificate, certify_exponent
from rootneg.lattice import SNFResult, smith_normal_form
from rootneg.negativity import (
    ClassNegativityReport,
    FundamentalLemmaReport,
    MemberVerdict,
    NegativityQuery,
    NegativityVerdict,
    check_class_negativity,
    check_negativity,
    verify_fundamental_lemma,
)
from rootneg.params import ParameterClass, SubspaceBasis, equivalence_class
from rootneg.rootsys import (
    Parameter,
    RootSystemSpec,
    WeylElement,
    build_root_system,
    weyl_group,
)
from rootneg.simplex import LPSolution, maximize
from rootneg.subsystems import Subsystem, census
from rootneg.verification import PropertyResult

A2 = build_root_system("A2")
B2 = build_root_system("B2")
MINUS_RHO = Parameter.of((-1, -1))


def _oracle(record, fields):
    """An instance of the frozen dataclass with the given fields, holding
    record's values."""
    names = [f if isinstance(f, str) else f[0] for f in fields]
    cls = make_dataclass(type(record).__name__, fields, frozen=True)
    return cls(*(getattr(record, name) for name in names))


#: class, its fields as the dataclass declared them, and a maker that builds
#: a fresh record from the same inputs on every call
RECORDS = {
    "WeylElement": (WeylElement, ["images"], lambda: weyl_group(B2)[5]),
    "ExponentCertificate": (
        ExponentCertificate,
        ["solvable", "coefficients", "nu", "lattice_ok", "ds1_ok", "ds2_ok"],
        lambda: certify_exponent(2, ((1, 0), (0, 1)), 0, (Q(1, 3), Q(1, 2)), (0, 0), (0, 0), 6),
    ),
    "SNFResult": (SNFResult, ["u", "d", "v"], lambda: smith_normal_form([[2, 1], [0, 2]])),
    "LPSolution": (LPSolution, ["status", "x", "objective"],
                   lambda: maximize([1, 1], [[1, 2], [3, 1]], [4, 6])),
    "NegativityVerdict": (
        NegativityVerdict, ["feasible", "witness_omega", "tight_generators", "span_basis"],
        lambda: check_negativity(A2, NegativityQuery(MINUS_RHO, "strict")),
    ),
    "MemberVerdict": (MemberVerdict, ["word", "mu", "verdict"],
                      lambda: check_class_negativity(A2, MINUS_RHO, "strict").members[0]),
    "ClassNegativityReport": (ClassNegativityReport, ["ok", "members"],
                              lambda: check_class_negativity(B2, Parameter.of((Q(1, 2), 1)),
                                                             "weak")),
    "FundamentalLemmaReport": (
        FundamentalLemmaReport,
        ["vacuous", "edge_basis", "containing_member", "re_lambda_on_edge_zero", "parabolic",
         "n_lattice", "integrality_ok", "im_lambda_on_edge_zero", "edge_trivial"],
        lambda: verify_fundamental_lemma(A2, MINUS_RHO, "strict"),
    ),
    "ParameterClass": (ParameterClass, ["members", "base", "denominator"],
                       lambda: equivalence_class(B2, Parameter.of((Q(1, 2), 1)), 1)),
    "PropertyResult": (PropertyResult, ["name", "checked", "failures"],
                       lambda: PropertyResult("grid", 3, ("A2: fails",))),
    "Parameter": (Parameter, ["re", "im"], lambda: Parameter((1, Q(1, 2)), (0, Q(-1, 3)))),
    "RootSystemSpec": (RootSystemSpec, ["components"],
                       lambda: RootSystemSpec((("B", 3), ("A", 1)))),
    "SubspaceBasis": (SubspaceBasis, ["ambient_dim", "vectors"],
                      lambda: SubspaceBasis(3, ((1, 0, 0), (0, Q(1, 2), 1)))),
    "NegativityQuery": (
        NegativityQuery, ["lam", "mode", "a_lambda", "denominator"],
        lambda: NegativityQuery(MINUS_RHO, "weak", SubspaceBasis(2, ((1, 0),)), 2),
    ),
    "Subsystem": (
        Subsystem, ["roots", "label", ("coroot_simple", tuple, field(default=(), compare=False))],
        lambda: census(B2)[0][0],
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_equal_and_hash_as_the_dataclass_did(name):
    cls, fields, make = RECORDS[name]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_oracle(a, fields))
    assert len({a, b}) == 1


def test_weyl_elements_order_as_the_dataclass_did():
    elements = list(weyl_group(B2))
    random.Random(5).shuffle(elements)
    oracle = make_dataclass("WeylElement", ["images"], frozen=True, order=True)
    oracles = [oracle(w.images) for w in elements]
    by_record = sorted(range(len(elements)), key=elements.__getitem__)
    by_oracle = sorted(range(len(oracles)), key=oracles.__getitem__)
    assert by_record == by_oracle
    assert min(elements) == elements[by_oracle[0]]


def test_parameter_normalises_to_fractions():
    lam = Parameter((1, 2), (0, 0))
    assert lam.re == (Q(1), Q(2)) and lam.im == (Q(0), Q(0))
    assert all(type(x) is Q for x in lam.re + lam.im)
    assert lam == Parameter((Q(1), Q(2)), (Q(0), Q(0))) == Parameter.of([1, 2])
    assert lam != Parameter((1, 2), (0, 1))
    assert repr(Parameter((1,), (0,))) == "Parameter(re=(Fraction(1, 1),), im=(Fraction(0, 1),))"
    with pytest.raises(ValueError, match="equal length"):
        Parameter((1, 2), (0,))


def test_spec_canonicalises_and_refuses_bad_components():
    spec = RootSystemSpec.parse("A1xB3")
    assert spec.components == (("A", 1), ("B", 3))
    assert spec == RootSystemSpec((("B", 3), ("A", 1))) and str(spec) == "A1xB3"
    assert spec != RootSystemSpec.parse("A1xC3")
    with pytest.raises(ValueError, match="unknown family"):
        RootSystemSpec((("Z", 2),))
    with pytest.raises(ValueError, match="at least one component"):
        RootSystemSpec(())


def test_subspace_basis_refuses_dependent_vectors():
    with pytest.raises(ValueError, match="linearly dependent"):
        SubspaceBasis(2, ((1, 0), (Q(2), 0)))
    with pytest.raises(ValueError, match="ambient dimension"):
        SubspaceBasis(2, ((1, 0, 0),))
    basis = SubspaceBasis(2, ((1, 0),))
    assert basis.vectors == ((Q(1), Q(0)),) and basis.contains((3, 0))
    assert basis != SubspaceBasis(2, ((0, 1),))


def test_subsystem_equality_ignores_coroot_simple():
    found = census(B2)[0][0]
    assert found.coroot_simple
    plain = Subsystem(found.roots, found.label)
    assert plain.coroot_simple == ()
    assert plain == found and hash(plain) == hash(found)
    assert plain != Subsystem(found.roots, found.label + "'")


def test_negativity_query_refuses_bad_input_when_constructed():
    with pytest.raises(ValueError, match="unknown mode"):
        NegativityQuery(MINUS_RHO, "bogus")
    with pytest.raises(ValueError, match="takes no subspace"):
        NegativityQuery(MINUS_RHO, "strict", SubspaceBasis(2, ((1, 0),)))
    with pytest.raises(ValueError, match="positive integer"):
        NegativityQuery(MINUS_RHO, "weak", denominator=0)
    query = NegativityQuery(MINUS_RHO, "weak")
    assert (query.a_lambda, query.denominator) == (None, 1)
    assert query != NegativityQuery(MINUS_RHO, "integral")
