"""LU without pivoting, and the companion factorization read off it.

A companion matrix here has ones on the subdiagonal, zeros elsewhere, and a
free last column.  A = C_1 * ... * C_n is solved column by column: the q-th
column of A yields n linear equations for the n coefficients of C_q, of which
the first q-1 form a square subsystem (the leading (q-1) x (q-1) block of A)
and the rest are direct read-offs.  Every subsystem is read off one
factorization A = L U without pivoting, so the procedure is rational in the
entries of A and needs no iteration.  A pivot vanishes when its modulus is
at most tol * ||A||_F, a rule that scaling A leaves unchanged.  When pivot j
(0-based) is the first to vanish, the subsystem of column j + 2 has the zero
row j of U on the left, so it is consistent exactly when U[j, j+1] vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonGenericMatrixError, ParameterRangeError

STATUS_UNIQUE = "unique"
STATUS_NO_SOLUTION = "no-solution"
STATUS_NON_UNIQUE = "non-unique"

PIVOT_TOL = 1e-10


def companion_matrix(c) -> np.ndarray:
    """Build the n x n companion matrix with last column c.

    Entry (p+1, p) is 1 for p = 1 .. n-1, column n equals c, and every other
    entry is zero.  For n = 1 the matrix is just [[c_1]].  A float64 c gives
    a float64 matrix, any other a complex one.
    """
    c = np.asarray(c)
    c = np.asarray(c, dtype=float if c.dtype == np.float64 else complex)
    if c.ndim != 1 or c.size == 0:
        raise ParameterRangeError("companion coefficients must be a nonempty vector")
    n = c.size
    C = np.eye(n, k=-1, dtype=c.dtype)
    C[:, n - 1] = c
    return C


def as_target(T) -> np.ndarray:
    """T as a complex matrix, checked to be square, nonempty and of finite
    Frobenius norm, the one norm every pivot test scales by."""
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] == 0:
        raise ParameterRangeError("target must be a square matrix")
    # a non-finite entry makes the norm non-finite too; so does an overflow,
    # against which no pivot could be tested
    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(T)):
            raise ParameterRangeError("target must have a finite Frobenius norm")
    return T


def _eliminate(A: np.ndarray, tol: float):
    """Doolittle elimination without pivoting, A = L U with unit-diagonal L,
    stopped at the first pivot of modulus at most tol * ||A||_F: L, U and
    that pivot's 0-based index j (rows 0 .. j of U are final), or n."""
    n = A.shape[0]
    U = A.copy()
    L = np.eye(n, dtype=complex)
    floor = tol * float(np.linalg.norm(A))
    for j in range(n):
        if abs(U[j, j]) <= floor:
            return L, U, j
        mult = U[j + 1:, j] / U[j, j]
        L[j + 1:, j] = mult
        U[j + 1:, j:] -= np.outer(mult, U[j, j:])
        U[j + 1:, j] = 0.0
    return L, U, n


def lu_nopivot(A):
    """Doolittle elimination without pivoting: A = L U with unit-diagonal L.

    Raises NonGenericMatrixError when a pivot is at most PIVOT_TOL times
    ||A||_F (a vanishing leading principal minor)."""
    L, U, j = _eliminate(as_target(A), PIVOT_TOL)
    if j < U.shape[0] - 1:
        raise NonGenericMatrixError(
            f"pivot {j + 1} vanishes; elimination without pivoting breaks down")
    if j < U.shape[0]:
        raise NonGenericMatrixError("trailing pivot vanishes; the matrix is not generic")
    return L, U


@dataclass
class CompanionResult:
    """Outcome of decompose_companion.

    status is one of "unique", "no-solution", "non-unique".  coefficients,
    set only for "unique", lists the last columns c_1 .. c_n of the factors
    C_1 .. C_n; failed_column records the 1-based column q at which a
    singular subsystem stopped the solve.
    """

    status: str
    coefficients: list | None = None
    failed_column: int | None = None


def decompose_companion(A, pivot_tol: float = PIVOT_TOL) -> CompanionResult:
    """Solve A = C_1 * ... * C_n for companion matrices C_q.

    Column q of A is C_1 ... C_(q-1) c_q, c_q the last column of C_q, and
    the columns of C_1 ... C_(q-1) are e_q .. e_n, then columns 1 .. q-1 of
    A.  With k = q - 1 and A = L U, rows p < q give U_k g = U[:k, k] for the
    k trailing coefficients g, and rows p >= q read off the rest: c_q =
    [u_kk L[k:, k] ; g].  With V the matrix U with its trailing pivot, which
    enters no leading block, set to 1, V^-1 V = I gives g = -(V^-1
    diag(V))[:k, k]: one solve for every column.

    The solve is unique exactly when the first n-1 pivots pass.  Else the
    first singular subsystem is "non-unique" when consistent (see the module
    docstring) and "no-solution" when not.
    """
    if not 0 <= pivot_tol < 1:
        raise ParameterRangeError(f"pivot tolerance must lie in [0, 1), got {pivot_tol}")
    A = as_target(A)
    n = A.shape[0]
    L, U, j = _eliminate(A, pivot_tol)
    if j < n - 1:
        consistent = abs(U[j, j + 1]) <= pivot_tol * float(np.linalg.norm(A))
        return CompanionResult(status=STATUS_NON_UNIQUE if consistent else STATUS_NO_SOLUTION,
                               failed_column=j + 2)
    V = U.copy()
    V[n - 1, n - 1] = 1.0
    G = -np.linalg.solve(V, np.diag(np.diagonal(V)))
    return CompanionResult(status=STATUS_UNIQUE,
                           coefficients=[np.concatenate([U[k, k] * L[k:, k], G[:k, k]])
                                         for k in range(n)])
