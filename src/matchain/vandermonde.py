"""Products of generalized Vandermonde matrices at the unit-root base point.

A generalized Vandermonde matrix of type s follows the convention of
families.vand: entry (p, q) is x_q^(s+p-1), so row p holds the nodes to
the power s+p-1.  For a type list (s_1, ..., s_n) the chain of pairs

    (vandermonde-t(s_i) factor B_i) * (fixed unit-root factor A_i of type s_i)

is checked at one point, the nodes w^1 .. w^n of every B_i: the verdict is
the rank of dominance.jacobian there, and it is the one certificate.  That
Jacobian is column-permuted block diagonal with n blocks M_p, closed-form
geometric sums (the tests check it against them).  When the types are
pairwise distinct modulo n, each block's determinant works out to
(V/n) (sum s_i + n(n-1)/2), V the nonzero Vandermonde determinant of the
nodes w^(-s_i), so the rank is n^2 exactly when sum s_i is not -n(n-1)/2
(a zero sum ranks fully).  Repeated residues make no such reduction, and
the rank there may be full or not: s = (-4, -2) at n = 2 ranks 4 of 4,
and s = (0, 0) ranks 2.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import dominance, families as fam
from .dominance import DEFAULT_RANK_TOL, DominanceReport, numerical_rank
from .errors import ParameterRangeError


def unit_root(n: int) -> complex:
    """Primitive n-th root of unity exp(2 pi i / n)."""
    return cmath.exp(2j * cmath.pi / fam.require_int("n", n, 1))


def unit_root_factor(n: int, s_i: int) -> np.ndarray:
    """The fixed factor A_i with entries w^{-q(p-1+s_i)}, w = exp(2 pi i/n).

    Column q is the node w^{-q} raised to the powers s_i .. s_i+n-1, so the
    factor is itself a generalized Vandermonde matrix of type s_i."""
    return fam.vand(n, s_i, unit_root(n) ** -np.arange(1, n + 1))


def vandermonde_dominance(n: int, s) -> DominanceReport:
    """Jacobian rank of the chain B_1 A_1 ... B_n A_n at the unit-root point
    for the type list s, taken at DEFAULT_RANK_TOL.  B_i is the member of
    FamilySpec("vandermonde-t", n, s=s_i) at the nodes w^1 .. w^n, so
    B_i A_i = n I, and it moves in that family's frame there; A_i =
    unit_root_factor(n, s_i) is fixed (a slot with an empty frame).  Each
    FamilySpec checks n and its type."""
    specs = [fam.FamilySpec(fam.VANDERMONDE_T, n, s=si) for si in s]
    if len(specs) != n:
        raise ParameterRangeError(f"need exactly {n} types, got {len(specs)}")
    n = int(n)
    nodes = unit_root(n) ** np.arange(1, n + 1)
    factors, frames = [], []
    for spec in specs:
        factors += [fam.parameterize(spec, nodes), unit_root_factor(n, spec.s)]
        frames += [fam.tangent_basis(spec, nodes), np.empty((0, n, n), dtype=complex)]
    return DominanceReport(
        problem={"n": n, "r": 2 * n, "families": [f"vandermonde-pair({spec.s})" for spec in specs],
                 "target": "full"},
        ranks=[numerical_rank(dominance.jacobian(factors, frames))],
        target_dim=n * n,
        tolerance=DEFAULT_RANK_TOL,
        seed=0,
    )
