"""Unit-root Vandermonde chains and their block determinants."""

import itertools

import numpy as np
import pytest

import matchain.dominance as dom
import matchain.families as fam
import matchain.vandermonde as vm
from closed_forms import det_tilde
from matchain.errors import ParameterRangeError


def test_unit_root_value():
    w = vm.unit_root(4)
    assert abs(w - 1j) < 1e-15
    assert abs(vm.unit_root(3) ** 3 - 1) < 1e-14


def test_vand_entries():
    nodes = np.array([2.0, 3.0], dtype=complex)
    V = fam.vand(2, 1, nodes)
    np.testing.assert_allclose(V, [[2, 3], [4, 9]], rtol=1e-14)
    V0 = fam.vand(2, 0, nodes)
    np.testing.assert_allclose(V0, [[1, 1], [2, 3]], rtol=1e-14)


def test_unit_root_factor_pair_inverts():
    """The vandermonde-t member at the nodes w^1 .. w^n is n times the
    inverse of the base factor."""
    for n in (2, 3, 5):
        nodes = vm.unit_root(n) ** np.arange(1, n + 1)
        for s in (-1, 0, 2):
            A = vm.unit_root_factor(n, s)
            B = fam.parameterize(fam.FamilySpec("vandermonde-t", n, s=s), nodes)
            np.testing.assert_allclose(B @ A, n * np.eye(n), atol=1e-12)
            np.testing.assert_allclose(A @ B, n * np.eye(n), atol=1e-12)


def test_unit_root_factor_is_vandermonde_at_unit_root_nodes():
    n, s = 4, 2
    w = vm.unit_root(n)
    nodes = np.array([w ** (-q) for q in range(1, n + 1)])
    V = fam.vand(n, s, nodes)
    np.testing.assert_allclose(vm.unit_root_factor(n, s), V, atol=1e-12)


def mp_block(n, s, p):
    """The p-th Jacobian block M_p at the unit-root base point for the types
    s at size n.

    Row q, column j holds the coefficient of the j-th factor's p-th node
    variable in the (p, q) output entry:

        q != p:  -(n w^{p-q} / (1 - w^{p-q})) * w^{(p-q) s_j - 2p + q}
        q == p:  (2 s_j + n - 1) n w^{-p} / 2

    These are the geometric sums sum_k (k + s_j - 1) w^{(p-q)k} carried out
    in closed form and multiplied by w^{p(s_j-2) - q(s_j-1)}."""
    w = vm.unit_root(n)
    q = np.arange(1, n + 1)[:, None]
    s = np.array(s)[None, :]
    v = w ** (p - q)
    M = -(n * v / np.where(q == p, 1.0, 1.0 - v)) * w ** ((p - q) * s - 2 * p + q)
    M[p - 1] = (2 * s[0] + n - 1) * n * w ** (-p) / 2.0
    return M


def test_mp_block_matches_finite_differences():
    """Block entries are chain derivatives in single node variables.

    The chain multiplies pairs (transposed factor at variable nodes) times
    (fixed unit-root factor divided by n).  Moving the p-th node of factor j
    off the base point w^p perturbs only row p of the product, and the row
    derivative is column j of the p-th block, up to the scaling by n kept
    out of the chain normalization.
    """
    n, types = 3, (0, 2, 4)
    w = vm.unit_root(n)
    base_nodes = np.array([w ** p for p in range(1, n + 1)])

    def chain(all_nodes):
        P = np.eye(n, dtype=complex)
        for i, s in enumerate(types):
            B = fam.vand(n, s, all_nodes[i]).T
            A = vm.unit_root_factor(n, s)
            P = P @ (B @ A / n)
        return P

    h = 1e-7
    for j, p in [(1, 3), (0, 1), (2, 2)]:  # factor j, node index p
        nodes_p = [base_nodes.copy() for _ in range(n)]
        nodes_m = [base_nodes.copy() for _ in range(n)]
        nodes_p[j][p - 1] += h
        nodes_m[j][p - 1] -= h
        fd = n * (chain(nodes_p) - chain(nodes_m)) / (2 * h)
        # only row p of the product moves
        off_rows = [q for q in range(n) if q != p - 1]
        assert np.max(np.abs(fd[off_rows])) < 1e-6
        Mp = mp_block(n, types, p)
        np.testing.assert_allclose(fd[p - 1, :], Mp[:, j], atol=1e-5)


def test_mp_block_determinant_formula():
    """det of the reduced block is (V / n) * sum of the diagonal exponents."""
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        for _ in range(5):
            s = _random_valid_types(rng, n)
            p = int(rng.integers(1, n + 1))
            alphas = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            direct, formula = det_tilde(n, s, p, alphas)
            scale = max(abs(formula), 1e-8)
            assert abs(direct - formula) <= 1e-8 * scale


def test_det_tilde_vanishes_when_alphas_sum_to_zero():
    alphas = np.array([1.0, -1.0, 2.5, -2.5])
    direct, formula = det_tilde(4, (1, 2, 3, 4), 2, alphas)
    assert formula == 0
    assert abs(direct) <= 1e-10


def _random_valid_types(rng, n):
    """A type list with pairwise distinct residues modulo n and a nonzero sum."""
    while True:
        s = tuple(int(v) for v in rng.integers(-2 * n, 2 * n + 1, size=n))
        if len({v % n for v in s}) == n and sum(s) != 0:
            return s


def test_dominance_with_consecutive_types():
    for n in (2, 3, 4):
        rep = vm.vandermonde_dominance(n, tuple(range(1, n + 1)))
        assert rep.dominant
        assert rep.d_estimate == n * n
        assert rep.problem["r"] == 2 * n


def test_report_problem_holds_only_the_chain():
    """The rank is the one certificate: the problem names the chain and the
    target, and nothing else."""
    rep = vm.vandermonde_dominance(3, (1, 2, 3))
    assert list(rep.problem) == ["n", "r", "families", "target"]
    assert rep.problem["families"] == [f"vandermonde-pair({s})" for s in (1, 2, 3)]


def test_dominance_does_not_require_nonzero_sum():
    """A zero-sum type list can still give a full-rank base point.

    The reduced blocks are nonsingular exactly when the type sum avoids
    -n(n-1)/2, so a zero sum is no rank obstruction.
    """
    rep = vm.vandermonde_dominance(3, (-1, 0, 1))
    assert rep.dominant
    assert rep.d_estimate == 9


def test_dominance_degenerates_at_the_true_singular_sum():
    # sum s = -3 = -n(n-1)/2 at n = 3 makes every block singular
    rep = vm.vandermonde_dominance(3, (0, -1, -2))
    assert not rep.dominant
    assert rep.d_estimate < 9


def test_distinct_residues_rank_fully_exactly_off_the_singular_sum():
    """With types pairwise distinct modulo n the rank is n^2 exactly when
    sum s differs from -n(n-1)/2."""
    for n in (2, 3, 4, 5):
        for s in itertools.combinations_with_replacement(range(-4, 4), n):
            if len({v % n for v in s}) == n:
                rep = vm.vandermonde_dominance(n, s)
                assert rep.dominant == (sum(s) != -n * (n - 1) // 2), s


def test_repeated_residues_do_not_decide_the_rank():
    """-4 and -2 collide modulo 2, yet the blocks stay nonsingular; 0 and 0
    collapse them."""
    assert vm.vandermonde_dominance(2, (-4, -2)).ranks == [4]
    assert vm.vandermonde_dominance(2, (0, 0)).ranks == [2]


def test_dominance_rejects_bad_types():
    # a wrong count, then a size or type that is not an integer
    for n, s in [(3, (1, 2)), (3, (1, 2.5, 3)), (3, (True, 2, 3)), (2.9, (1, 2))]:
        with pytest.raises(ParameterRangeError):
            vm.vandermonde_dominance(n, s)
    # at n = 1, vandermonde-t(0) has the one member [[1]] and no parameters
    with pytest.raises(ParameterRangeError):
        vm.vandermonde_dominance(1, (0,))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jacobian_is_block_diagonal_by_node_index(n):
    """dominance.jacobian of B_1 (A_1/n) ... B_n (A_n/n), each B_i in its
    vandermonde-t(s_i) frame and each A_i fixed, times n: grouping the
    columns by node index p gives the closed form blockdiag(M_1, ..., M_n)."""
    rng = np.random.default_rng(n)
    types = _random_valid_types(rng, n)
    nodes = vm.unit_root(n) ** np.arange(1, n + 1)  # the nodes of every B_i
    factors, frames = [], []
    for s in types:
        spec = fam.FamilySpec("vandermonde-t", n, s=s)
        factors += [fam.parameterize(spec, nodes), vm.unit_root_factor(n, s) / n]
        frames += [fam.tangent_basis(spec, nodes), np.empty((0, n, n), dtype=complex)]
    by_node = np.arange(n * n).reshape(n, n).T.reshape(-1)  # column (j, p) -> (p, j)
    expect = np.zeros((n * n, n * n), dtype=complex)
    for p, Mp in enumerate([mp_block(n, types, p) for p in range(1, n + 1)]):
        expect[p * n:(p + 1) * n, p * n:(p + 1) * n] = Mp
    np.testing.assert_allclose(n * dom.jacobian(factors, frames)[:, by_node], expect,
                               rtol=0, atol=1e-13 * np.abs(expect).max())
