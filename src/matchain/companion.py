"""Exact decomposition of a matrix into a product of companion matrices.

A companion matrix here has ones on the subdiagonal, zeros elsewhere, and a
free last column.  A = C_1 * ... * C_n is solved column by column: the q-th
column of A yields n linear equations for the n coefficients of C_q, of which
the first q-1 form a square subsystem (the leading (q-1) x (q-1) block of A)
and the rest are direct read-offs.  The whole procedure is rational in the
entries of A and needs no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterRangeError

STATUS_UNIQUE = "unique"
STATUS_NO_SOLUTION = "no-solution"
STATUS_NON_UNIQUE = "non-unique"

DEFAULT_PIVOT_TOL = 1e-10


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


def decompose_companion(A, pivot_tol: float = DEFAULT_PIVOT_TOL) -> CompanionResult:
    """Solve A = C_1 * ... * C_n for companion matrices C_q.

    For each q the unknowns are the n entries of C_q's last column c_q.
    Column q of A is C_1 ... C_(q-1) c_q, and the columns of C_1 ... C_(q-1)
    are the unit vectors e_q .. e_n and then columns 1 .. q-1 of A.  So rows
    p < q give the leading block, A[:q-1, :q-1] g = A[:q-1, q-1] (0-based
    slices), for the q-1 trailing coefficients g, and rows p >= q read off
    the rest: c_q = [A[q-1:, q-1] - A[q-1:, :q-1] g ; g].  The decomposition
    is unique exactly when every leading principal block of order 1 .. n-1
    is nonsingular.

    A subsystem counts as singular when its smallest singular value is at
    most pivot_tol times its largest, or when its LU factorization meets an
    exact zero pivot (the 0 x 0 system is vacuously nonsingular).  Only
    pivot_tol 0 lets the second case through: rounding can leave an exactly
    singular block a smallest singular value of about 1e-16.  A singular but
    consistent subsystem yields "non-unique", an inconsistent one
    "no-solution"; both report the failing column.
    """
    if not 0 <= pivot_tol < 1:
        raise ParameterRangeError(f"pivot tolerance must lie in [0, 1), got {pivot_tol}")
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ParameterRangeError("input must be a square matrix")
    if not np.isfinite(A).all():
        raise ParameterRangeError("input matrix must have finite entries")
    n = A.shape[0]

    columns = []
    for q in range(n):  # 0-based: column q + 1 of A gives C_(q+1)
        block, rhs = A[:q, :q], A[:q, q]
        g = rhs  # empty: the 0 x 0 system at q = 0 is vacuously nonsingular
        if q > 0:
            sv = np.linalg.svd(block, compute_uv=False)
            try:
                g = np.linalg.solve(block, rhs) if sv[-1] > pivot_tol * sv[0] else None
            except np.linalg.LinAlgError:
                g = None  # an exact zero pivot, which only pivot_tol 0 lets through
            if g is None:
                # Singular subsystem: consistency decides the failure mode.
                g, *_ = np.linalg.lstsq(block, rhs, rcond=None)
                residual = np.linalg.norm(block @ g - rhs)
                status = STATUS_NON_UNIQUE if residual <= pivot_tol * (1.0 + np.linalg.norm(rhs)) else STATUS_NO_SOLUTION
                return CompanionResult(status=status, failed_column=q + 1)
        columns.append(np.concatenate([A[q:, q] - A[q:, :q] @ g, g]))

    return CompanionResult(status=STATUS_UNIQUE, coefficients=columns)
