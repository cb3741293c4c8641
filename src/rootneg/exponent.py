"""Exponent certificates over an opaque coordinate space.

The exponent, the shift and the spherical functionals arrive as plain
rational vectors and no root system is involved, so the certificate needs
only linalg.  Rank and kernel do not see row scales, so each row is scaled
to integers on its own, and both the edge and the coefficients are read off
integer kernels.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg


class ExponentCertificate(NamedTuple):
    """Decomposition mu = rho_q + sum(c_alpha alpha) + i nu, with flags.

    solvable: the real difference lies in the span of the spherical roots
    (coefficients are then unique by independence).  lattice_ok: every
    coefficient is a positive multiple of 1/denominator.  ds1_ok: strict
    negativity of the difference on the compression cone away from its edge,
    equivalent to all coefficients positive.  ds2_ok: the difference
    vanishes on the edge of the compression cone.
    """

    solvable: bool
    coefficients: linalg.Vec | None
    nu: linalg.Vec
    lattice_ok: bool
    ds1_ok: bool
    ds2_ok: bool


def certify_exponent(
    rank_z: int,
    spherical: tuple[linalg.Vec, ...],
    edge_dims: int,
    mu: linalg.Vec,
    rho_q: linalg.Vec,
    nu: linalg.Vec,
    denominator: int = 1,
) -> ExponentCertificate:
    """Certify an exponent decomposition over the compression cone.

    spherical lists linearly independent functionals (the cone is then
    simplicial); edge_dims must equal rank_z minus their number and is
    validated as an input-consistency check.  The real part of the exponent
    is mu with the imaginary direction nu carried through unchanged.
    """
    if rank_z < 1:
        raise ValueError("rank_z must be positive")
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    s_rows = [linalg.vec(v) for v in spherical]
    for v in s_rows:
        if len(v) != rank_z:
            raise ValueError("spherical root length does not match rank_z")
    mu_v, rho_v, nu_v = linalg.vec(mu), linalg.vec(rho_q), linalg.vec(nu)
    for v in (mu_v, rho_v, nu_v):
        if len(v) != rank_z:
            raise ValueError("vector length does not match rank_z")
    s_ints = [linalg.scaled_to_int(v) for v in s_rows]
    if linalg.int_rank(s_ints) != len(s_ints):
        raise ValueError("spherical roots are linearly dependent")
    if edge_dims != rank_z - len(s_rows):
        raise ValueError(
            f"edge_dims must be rank_z - |S| = {rank_z - len(s_rows)}, got {edge_dims}"
        )
    target = tuple(a - b for a, b in zip(mu_v, rho_v))
    # Row j is (s_1[j], ..., s_k[j], -target[j]).  The s_k are independent,
    # so only the last column can be free: the kernel is (c, 1) when
    # target = sum(c_k s_k) and empty when no such c exists.
    augmented = [linalg.scaled_to_int(row) for row in zip(*s_rows, (-t for t in target))]
    solution = linalg.kernel(augmented, len(s_rows) + 1)
    coeffs = solution[0][:-1] if solution else None
    solvable = coeffs is not None
    edge_basis = linalg.kernel(s_ints, rank_z)
    ds2_ok = all(linalg.dot(target, v) == 0 for v in edge_basis)
    ds1_ok = solvable and all(c > 0 for c in coeffs)
    lattice_ok = solvable and all(
        c > 0 and (denominator * c).denominator == 1 for c in coeffs
    )
    return ExponentCertificate(solvable, coeffs, nu_v, lattice_ok, ds1_ok, ds2_ok)
