"""The product layer over the reals, and rank verdicts that try a real base
point before a complex one.

A real matrix has the same rank over R as over C, and full rank at one
point forces the generic rank, so a real point that the Gram-Cholesky test
proves of full rank settles a trial; any other trial is a complex one.
Both are taken at the family centres.  The oracles below are copies of the
complex-only product layer at Gaussian points, so the tests compare
against what a verdict gave before real points and centres.
"""

import numpy as np
import pytest

import matchain.dominance as dom
import matchain.families as fam
from closed_forms import gaussian_point
from matchain.errors import DegeneratePointError, ParameterRangeError


def _complex_chain_product(factors):
    out = np.asarray(factors[0], dtype=complex)
    for A in factors[1:]:
        out = out @ np.asarray(A, dtype=complex)
    return out


def _complex_jacobian(factors, frames):
    n = len(factors[0])
    eye = np.eye(n, dtype=complex)
    prefix = [eye]
    for A in factors[:-1]:
        prefix.append(prefix[-1] @ A)
    suffix = [eye]
    for A in reversed(factors[1:]):
        suffix.append(A @ suffix[-1])
    suffix.reverse()
    out = np.empty((sum(len(frame) for frame in frames), n * n), dtype=complex)
    row = 0
    for frame, P, S in zip(frames, prefix, suffix):
        d = len(frame)
        np.matmul((P @ frame).reshape(d * n, n), S, out=out[row:row + d].reshape(d * n, n))
        row += d
    return out.T


def _oracle_ranks(prob, trials, seed, rel_tol=dom.DEFAULT_RANK_TOL):
    """The complex-only verdict at Gaussian points: gaussian_point draws
    from seed + t, the complex Jacobian at their members with the frames at
    their parameters, and the count of its singular values."""
    ranks = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        params, factors = zip(*(gaussian_point(spec, rng) for spec in prob.factors))
        J = _complex_jacobian(factors, [fam.tangent_basis(spec, u)
                                        for spec, u in zip(prob.factors, params)])
        if prob.target == dom.TARGET_CENTRO:
            J = J[:prob.target_dim]
        sv = np.linalg.svd(J, compute_uv=False)
        ranks.append(int(np.count_nonzero(sv > rel_tol * sv[0])))
    return ranks


def _real_point(prob, seed):
    rng = np.random.default_rng(seed)
    params = [rng.standard_normal(spec.param_dim) for spec in prob.factors]
    return ([fam.parameterize(spec, u) for spec, u in zip(prob.factors, params)],
            [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)])


REAL_CHAINS = [
    ("skew-n8", ["skew-symmetric"] * 3, 8, "full"),
    ("companion-n6", ["companion"] * 6, 6, "full"),
    ("orthogonal-n4", ["orthogonal"] * 3, 4, "full"),
    ("toeplitz-sym-n5-centro", ["toeplitz-sym"] * 3, 5, "centro"),
    ("alternating-bidiagonal-n4", ["bidiagonal-lower", "bidiagonal-upper"] * 4, 4, "full"),
]


@pytest.mark.parametrize("name, tags, n, target", REAL_CHAINS, ids=[c[0] for c in REAL_CHAINS])
def test_real_factors_give_the_real_part_of_the_complex_product_and_jacobian(name, tags, n, target):
    prob = dom.problem(tags, n, target)
    factors, frames = _real_point(prob, 3)
    assert all(A.dtype == np.float64 for A in factors)
    assert all(F.dtype == np.float64 for F in frames)
    P, J = dom.chain_product(factors), dom.jacobian(factors, frames)
    assert P.dtype == J.dtype == np.float64
    Pc = dom.chain_product([A.astype(complex) for A in factors])
    Jc = dom.jacobian([A.astype(complex) for A in factors], [F.astype(complex) for F in frames])
    assert Pc.dtype == Jc.dtype == np.complex128
    np.testing.assert_allclose(P, Pc.real, rtol=0, atol=1e-13 * np.abs(P).max())
    np.testing.assert_allclose(J, Jc.real, rtol=0, atol=1e-13 * np.abs(J).max())
    assert not Pc.imag.any() and not Jc.imag.any()


@pytest.mark.parametrize("name, tags, n, target", REAL_CHAINS, ids=[c[0] for c in REAL_CHAINS])
def test_complex_product_and_jacobian_are_byte_identical_to_the_complex_only_path(
        name, tags, n, target):
    prob = dom.problem(tags, n, target)
    rng = np.random.default_rng(5)
    params, factors = zip(*(gaussian_point(spec, rng) for spec in prob.factors))
    frames = [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)]
    assert dom.chain_product(factors).tobytes() == _complex_chain_product(factors).tobytes()
    assert dom.jacobian(factors, frames).tobytes() == _complex_jacobian(factors, frames).tobytes()


def test_real_parameters_keep_their_dtype_in_the_family_layer():
    rng = np.random.default_rng(0)
    for tag in ("bidiagonal", "skew-symmetric", "toeplitz-sym", "orthogonal", "companion"):
        spec = fam.FamilySpec(tag, 5)
        u = rng.standard_normal(spec.param_dim)
        M = fam.parameterize(spec, u)
        assert M.dtype == np.float64 and spec.real_points
        np.testing.assert_allclose(M, fam.parameterize(spec, u.astype(complex)).real,
                                   rtol=0, atol=1e-14 * np.abs(M).max())
        assert fam.tangent_basis(spec, u).dtype == np.float64
        assert fam.is_member(spec, M, 1e-10)
    for spec in (fam.FamilySpec("vandermonde", 3, s=1), fam.FamilySpec("subspace", 3, k=4, seed=0)):
        assert not spec.real_points


def test_numerical_rank_of_a_real_matrix_is_its_complex_rank():
    rng = np.random.default_rng(1)
    full = rng.standard_normal((30, 12))
    deficient = full[:, :7] @ rng.standard_normal((7, 12))
    for M, rank in ((full, 12), (deficient, 7), (full.T, 12), (deficient.T, 7)):
        assert dom.numerical_rank(M) == dom.numerical_rank(M.astype(complex)) == rank


@pytest.mark.parametrize("name, tags, n, target", REAL_CHAINS, ids=[c[0] for c in REAL_CHAINS])
def test_no_trial_ranks_below_the_complex_only_oracle(name, tags, n, target):
    prob = dom.problem(tags, n, target)
    got = dom.estimate_image_dimension(prob, trials=20, seed=0).ranks
    want = _oracle_ranks(prob, 20, 0)
    assert all(g >= w for g, w in zip(got, want)), (got, want)
    assert max(got) == max(want)


@pytest.mark.parametrize("prob, same_point", [
    (dom.problem([fam.FamilySpec("vandermonde", 4, s=1)] * 8, 4), False),
    (dom.problem([fam.FamilySpec("subspace", 3, k=5, seed=1)] * 2, 3), True),
], ids=["vandermonde-1-n4", "subspace-n3"])
def test_chains_with_complex_members_report_the_oracle_ranks(prob, same_point):
    """Complex trials draw at the family centres.  The subspace centre is
    the Gaussian draw itself, so its ranks are the oracle's; the
    Vandermonde centre nodes lie about the roots of unity, where no trial
    ranks below the Gaussian one.  A full rank ends a verdict, so each
    point is ranked by a one-trial verdict at its own seed."""
    got = [dom.estimate_image_dimension(prob, trials=1, seed=t).ranks[0] for t in range(20)]
    want = _oracle_ranks(prob, 20, 0)
    assert all(g >= w for g, w in zip(got, want)), (got, want)
    assert got == want if same_point else got == [prob.target_dim] * 20


def _refuse(*args, **kwargs):
    raise AssertionError("the verdict left the real Gram test")


@pytest.mark.parametrize("rel_tol", [float("nan"), 0.0, 1.0])
def test_rank_tolerance_out_of_range_is_refused_where_the_real_point_passes(rel_tol, monkeypatch):
    prob = dom.problem(["skew-symmetric"] * 3, 8)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    monkeypatch.setattr(dom, "numerical_rank", _refuse)
    # at the default tolerance the real point settles the trial
    assert dom.estimate_image_dimension(prob, trials=1).ranks == [64]
    with pytest.raises(ParameterRangeError):
        dom.estimate_image_dimension(prob, trials=1, rel_tol=rel_tol)


def test_the_gram_test_refuses_a_non_finite_real_matrix():
    M = np.ones((4, 3))
    M[1, 2] = np.nan
    with pytest.raises(DegeneratePointError):
        dom.numerical_rank(M)


@pytest.mark.parametrize("tags, n", [(["companion"] * 12, 12),
                                     (["triangular-lower", "triangular-upper"] * 6, 6)],
                         ids=["companion-x12-n12", "lower-upper-x6-n6"])
def test_real_centres_certify_without_an_svd_or_a_complex_trial(tags, n, monkeypatch):
    """Real Gaussian points are ill-conditioned on these chains (companion
    x12 passed the Gram test 18 times in 100, and lower-upper x6 reported
    "not dominant"); near the family centres every trial is settled by the
    real Gram test.  Seed t is the point of trial t of the default verdict;
    each certifies full rank, which ends its verdict."""
    prob = dom.problem(tags, n)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    monkeypatch.setattr(dom, "numerical_rank", _refuse)
    for seed in range(5):
        assert dom.estimate_image_dimension(prob, seed=seed).ranks == [n * n]


def test_skew_real_points_are_the_real_gaussian_draws(monkeypatch):
    """The skew centre is the draw itself, so a skew real point is the
    standard normal draw of each slot in turn, and its verdicts stay: at
    n = 10 seeds 13 and 37 fail the real Gram test and fall back to one
    complex trial each."""
    prob = dom.problem(["skew-symmetric"] * 3, 10)
    complex_trials, rank = [], dom.numerical_rank
    monkeypatch.setattr(dom, "numerical_rank",
                        lambda M, rel_tol: complex_trials.append(M.dtype) or rank(M, rel_tol))
    for seed in range(40):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for slot, spec in enumerate(prob.factors, start=1):
            u = fam.fit_center(spec, rng, slot, float)
            assert u.tobytes() == old.standard_normal(spec.param_dim).tobytes()
        factors, frames = _real_point(prob, seed)
        passes = dom._gram_full_rank(dom.jacobian(factors, frames), dom.DEFAULT_RANK_TOL)
        complex_trials.clear()
        assert dom.estimate_image_dimension(prob, trials=1, seed=seed).ranks == [100]
        assert complex_trials == ([] if passes else [np.complex128])
        assert passes == (seed not in (13, 37))


def test_orthogonal_chain_stays_deficient():
    """28, the dimension of SO(8), is the full rank of every trial's
    Jacobian, so the first trial ends the verdict, deficient."""
    prob = dom.problem(["orthogonal"] * 3, 8)
    rep = dom.estimate_image_dimension(prob, seed=0)
    assert rep.ranks == [28] and not rep.dominant


def test_real_centres_are_float64_and_reproducible():
    for tag in sorted(fam.ALL_TAGS - {"subspace", "vandermonde", "vandermonde-t"}):
        arg = {"k": 2} if tag.startswith("k-diagonal") else {}
        spec = fam.FamilySpec(tag, 5, **arg)
        u = fam.fit_center(spec, np.random.default_rng(9), 1, float)
        assert u.dtype == np.float64 and u.shape == (spec.param_dim,)
        assert u.tobytes() == fam.fit_center(spec, np.random.default_rng(9), 1, float).tobytes()
        assert fam.parameterize(spec, u).dtype == np.float64
