"""Exact column-by-column companion factorization."""

import numpy as np
import pytest

from matchain.companion import (
    STATUS_NON_UNIQUE,
    STATUS_NO_SOLUTION,
    STATUS_UNIQUE,
    companion_matrix,
    decompose_companion,
)
from matchain.errors import ParameterRangeError
from matchain.families import complex_gaussian


def test_companion_matrix_layout():
    C = companion_matrix(np.array([9.0, 8.0, 7.0]))
    np.testing.assert_array_equal(C, np.array([
        [0, 0, 9],
        [1, 0, 8],
        [0, 1, 7],
    ], dtype=complex))


def test_companion_matrix_1x1():
    np.testing.assert_array_equal(companion_matrix(np.array([4.0])), [[4.0]])


def test_unique_decomposition_round_trip():
    rng = np.random.default_rng(123)
    for n in range(2, 7):
        A = complex_gaussian(rng, n * n).reshape(n, n)
        res = decompose_companion(A)
        assert res.status == STATUS_UNIQUE
        assert res.failed_column is None
        assert len(res.coefficients) == n
        prod = np.eye(n, dtype=complex)
        for c in res.coefficients:
            prod = prod @ companion_matrix(c)
        assert np.linalg.norm(prod - A) <= 1e-10 * np.linalg.norm(A)


def reconstruct_prefix(columns, k: int) -> np.ndarray:
    """Partial product C_1 * ... * C_k of the companion factors with last
    columns c_1 .. c_n, built by recurrence instead of multiplication.

    Columns q < n-k+1 carry the shift pattern (entry 1 where p - q = k),
    and columns q >= n-k+1 satisfy

        X_{p,q} = sum_{j=1}^{q+k-n-1} X_{p,q-j} c_{q+k-n, n-j+1}
                  + c_{q+k-n, n+1+p-q-k}

    with coefficients of nonpositive index read as zero.  For k = n this is
    exactly the equation system the decomposition solves, so the recurrence
    is an independent check on the factorization.
    """
    n = len(columns)
    X = np.zeros((n, n), dtype=complex)
    # base pattern: 1 where p - q = k (1-based), for q < n-k+1
    for q0 in range(n - k):
        X[q0 + k, q0] = 1.0
    for q0 in range(n - k, n):
        ci = np.asarray(columns[q0 + k - n], dtype=complex)
        jmax = q0 + k - n  # q + k - n - 1 in 1-based terms
        col = np.zeros(n, dtype=complex)
        if jmax > 0:
            # sum_j X[:, q-j] c_{i, n-j+1}, j = 1 .. jmax
            col += X[:, q0 - jmax:q0] @ ci[n - jmax:n]
        offset = q0 + k - n  # direct term exists for p0 >= offset
        col[offset:] += ci[: n - offset]
        X[:, q0] = col
    return X


def test_reconstruct_prefix_builds_partial_products():
    A = complex_gaussian(np.random.default_rng(7), 16).reshape(4, 4)
    res = decompose_companion(A)
    assert res.status == STATUS_UNIQUE
    prod = np.eye(4, dtype=complex)
    for k in range(1, 5):
        prod = prod @ companion_matrix(res.coefficients[k - 1])
        np.testing.assert_allclose(reconstruct_prefix(res.coefficients, k), prod, rtol=1e-12)


def test_counterexample_family_fails_at_column_two():
    """a11 = 0 with a12 = 1 forces c11 = 0 and c11 * c2n = 1 at once."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        A = complex_gaussian(rng, 16).reshape(4, 4)
        A[0, 0] = 0.0
        A[0, 1] = 1.0
        res = decompose_companion(A)
        assert res.status == STATUS_NO_SOLUTION
        assert res.failed_column == 2
        assert res.coefficients is None


def test_non_generic_product_detected_as_non_unique():
    # a factor with vanishing corner coefficient makes a later system singular
    C1 = companion_matrix(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    C2 = companion_matrix(np.array([0.0, 1.0, 0.0, 2.0], dtype=complex))
    C3 = companion_matrix(np.array([2.0, 0.0, 1.0, 1.0], dtype=complex))
    C4 = companion_matrix(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    res = decompose_companion(C1 @ C2 @ C3 @ C4)
    assert res.status == STATUS_NON_UNIQUE
    assert res.failed_column == 3
    assert res.coefficients is None


def test_identity_decomposes_into_cyclic_shifts():
    """I = sigma^n where sigma is the companion matrix of e1."""
    res = decompose_companion(np.eye(3, dtype=complex))
    assert res.status == STATUS_UNIQUE
    for c in res.coefficients:
        np.testing.assert_array_equal(c, [1.0, 0.0, 0.0])


def test_n1_matrix_is_its_own_companion():
    res = decompose_companion(np.array([[5.0 + 1j]]))
    assert res.status == STATUS_UNIQUE
    np.testing.assert_array_equal(res.coefficients[0], [5.0 + 1j])


def test_rejects_non_square():
    with pytest.raises(ParameterRangeError):
        decompose_companion(np.ones((2, 3)))


def test_pivot_tolerance_is_scale_invariant():
    """Scaling the input must not flip the verdict."""
    rng = np.random.default_rng(11)
    A = complex_gaussian(rng, 25).reshape(5, 5)
    for scale in (1.0, 1e-12, 1e-6, 1e6, 1e12):
        assert decompose_companion(scale * A).status == STATUS_UNIQUE


def test_an_exactly_singular_block_at_pivot_tolerance_zero_is_a_failure_not_a_raise():
    """The rank-1 block [[3, 1], [3, 1]] leaves an exact zero second pivot,
    which vanishes at pivot_tol 0 too.  The right-hand side (1, 2) is not in
    the block's range, (1, 1) is."""
    for last, status in ((2.0, STATUS_NO_SOLUTION), (1.0, STATUS_NON_UNIQUE)):
        A = np.array([[3.0, 1.0, 1.0], [3.0, 1.0, last], [3.0, 1.0, 1.0]])
        for pivot_tol in (0.0, 1e-10):
            res = decompose_companion(A, pivot_tol)
            assert (res.status, res.failed_column) == (status, 3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        A = rng.standard_normal((3, 3))
        A[:2, :2] = np.outer(rng.standard_normal(2), rng.standard_normal(2))
        res = decompose_companion(A, 0.0)
        assert res.status == STATUS_UNIQUE or res.failed_column == 3
