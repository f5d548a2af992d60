"""Products of generalized Vandermonde matrices at the unit-root base point.

A generalized Vandermonde matrix of type s has entries x_q^(s+p-1).  For a
type list (s_1, ..., s_n) the chain of pairs

    (transpose factor of type s_i) * (fixed unit-root factor of type s_i)

is checked at one point: the verdict is the rank of dominance.jacobian at
the unit-root base point.  That Jacobian is column-permuted block diagonal
with n blocks M_p, closed-form geometric sums (the tests check it against
them).  When the types are pairwise distinct modulo n, each block's
determinant works out to (V/n) (sum s_i + n(n-1)/2), V the nonzero
Vandermonde determinant of the nodes w^(-s_i), so the rank is n^2 exactly
when sum s_i is not -n(n-1)/2.  Repeated residues make no such
reduction, and the rank there may be full or not.  The report flags the
paper's two conditions (distinct residues, a nonzero sum) beside the
rank, and neither decides it: s = (-1, -2, 0) at n = 3 meets both and
ranks 6 of 9, and s = (-4, -2) at n = 2 repeats a residue and ranks 4
of 4.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dominance import DEFAULT_RANK_TOL, DominanceReport, jacobian, numerical_rank
from .errors import ParameterRangeError
from .families import VANDERMONDE_T, FamilySpec, is_integer, tangent_basis, vand


@dataclass(frozen=True)
class VandTypeList:
    """A size n together with the types (s_1, ..., s_n) of the factors.

    Validity has the paper's two independent parts: the types must be
    pairwise distinct modulo n (so the unit-root nodes w^{-s_j} are
    distinct) and their sum must be nonzero.  Neither decides the rank at
    the unit-root point (see the module docstring).
    """

    n: int
    s: tuple

    def __post_init__(self):
        if not all(is_integer(v) for v in (self.n, *self.s)):
            raise ParameterRangeError(f"size n={self.n!r} and types {self.s!r} must be integers")
        if self.n < 1:
            raise ParameterRangeError(f"matrix size n={self.n} must be positive")
        if len(self.s) != self.n:
            raise ParameterRangeError(f"need exactly {self.n} types, got {len(self.s)}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))

    @property
    def distinct_mod_n(self) -> bool:
        residues = {s % self.n for s in self.s}
        return len(residues) == self.n

    @property
    def nonzero_sum(self) -> bool:
        return sum(self.s) != 0

    @property
    def is_valid(self) -> bool:
        return self.distinct_mod_n and self.nonzero_sum


def unit_root(n: int) -> complex:
    """Primitive n-th root of unity exp(2 pi i / n)."""
    if n < 1:
        raise ParameterRangeError(f"n={n} must be positive")
    return cmath.exp(2j * cmath.pi / n)


def unit_root_factor(n: int, s_i: int) -> np.ndarray:
    """The fixed factor A_i with entries w^{-q(p-1+s_i)}, w = exp(2 pi i/n).

    Column q is the node w^{-q} raised to the powers s_i .. s_i+n-1, so the
    factor is itself a generalized Vandermonde matrix of type s_i."""
    return vand(n, s_i, unit_root(n) ** -np.arange(1, n + 1))


def unit_root_inverse_pair(n: int, s_i: int) -> np.ndarray:
    """The transposed-Vandermonde partner B_i with entries w^{p(q-1+s_i)};
    B_i @ unit_root_factor(n, s_i) equals n * I."""
    return vand(n, s_i, unit_root(n) ** np.arange(1, n + 1)).T


def vandermonde_dominance(n: int, s) -> DominanceReport:
    """Jacobian rank of the chain B_1 A_1 ... B_n A_n at the unit-root point
    for the type list s: B_i = unit_root_inverse_pair(n, s_i) moves in the
    vandermonde-t(s_i) family, and A_i = unit_root_factor(n, s_i) is fixed
    (a slot with an empty frame).  The rank is taken at DEFAULT_RANK_TOL.

    The validity flags of VandTypeList travel in the report rather than
    being raised, and the rank is whatever the Jacobian gives; the module
    docstring says when the two disagree."""
    types = VandTypeList(n=n, s=tuple(s))
    n = types.n
    nodes = unit_root(n) ** np.arange(1, n + 1)  # the nodes of every B_i
    factors, frames = [], []
    for si in types.s:
        factors += [unit_root_inverse_pair(n, si), unit_root_factor(n, si)]
        frames += [tangent_basis(FamilySpec(VANDERMONDE_T, n, s=si), nodes),
                   np.empty((0, n, n), dtype=complex)]
    rank = numerical_rank(jacobian(factors, frames))
    summary = {
        "n": n,
        "r": 2 * n,
        "families": [f"vandermonde-pair({si})" for si in types.s],
        "target": "full",
        "types_distinct_mod_n": types.distinct_mod_n,
        "types_nonzero_sum": types.nonzero_sum,
    }
    return DominanceReport(
        problem=summary,
        ranks=[rank],
        target_dim=n * n,
        tolerance=DEFAULT_RANK_TOL,
        seed=0,
    )
