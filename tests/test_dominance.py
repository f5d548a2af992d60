"""Jacobians of multiplication maps and dimension arithmetic."""

import importlib.util
import itertools
import os
import warnings

import numpy as np
import pytest

import matchain.families as fam
import matchain.dominance as dom
import matchain.vandermonde as vand
from closed_forms import gaussian_point, span_frame, two_factor_tangent_test
from matchain.errors import DegeneratePointError, ParameterRangeError


def test_target_space_dimensions():
    assert dom.target_dim("full", 5) == 25
    assert dom.target_dim("det", 5) == 24
    assert dom.target_dim("centro", 5) == 13
    assert dom.target_dim("centro", 4) == 8
    assert dom.target_dim("full", np.int64(3)) == 9
    assert dom.target_dim("orthogonal", 8) == 28
    assert dom.target_dim("orthogonal", 1) == 0
    with pytest.raises(ParameterRangeError):
        dom.target_dim("banana", 4)


@pytest.mark.parametrize("tag, n", [("bogus", 3), ("full", 0), ("full", 2.5), ("full", True)])
def test_target_space_checks_itself_on_construction(tag, n):
    """A target is checked where its dimension is taken: target_dim, which
    a problem calls on construction."""
    with pytest.raises(ParameterRangeError):
        dom.target_dim(tag, n)


def test_chain_product():
    rng = np.random.default_rng(0)
    mats = [fam.complex_gaussian(rng, 9).reshape(3, 3) for _ in range(4)]
    expect = mats[0] @ mats[1] @ mats[2] @ mats[3]
    np.testing.assert_allclose(dom.chain_product(mats), expect, rtol=1e-14)


def differential_apply(base, tangents):
    """The product map's differential at base applied to one tangent per
    slot, term by term: sum_i A_1 .. A_{i-1} X_i A_{i+1} .. A_r."""
    return sum(dom.chain_product([*base[:i], X, *base[i + 1:]]) for i, X in enumerate(tangents))


def test_differential_is_derivative_of_product():
    """Product rule: the differential matches finite differences of the chain."""
    rng = np.random.default_rng(1)
    base = [fam.complex_gaussian(rng, 16).reshape(4, 4) for _ in range(3)]
    tangents = [fam.complex_gaussian(rng, 16).reshape(4, 4) for _ in range(3)]
    D = differential_apply(base, tangents)
    h = 1e-7
    plus = dom.chain_product([B + h * X for B, X in zip(base, tangents)])
    minus = dom.chain_product([B - h * X for B, X in zip(base, tangents)])
    fd = (plus - minus) / (2 * h)
    np.testing.assert_allclose(D, fd, atol=1e-6)


def test_differential_single_factor_is_identity_map():
    X = np.arange(9.0).reshape(3, 3) + 0j
    np.testing.assert_array_equal(differential_apply([np.eye(3, dtype=complex)], [X]), X)


def test_problem_summary_and_param_dim():
    prob = dom.problem(["skew-symmetric", "toeplitz-sym", "diagonal"], 4)
    assert prob.r == 3
    assert prob.param_dim == 6 + 4 + 4
    s = prob.summary()
    assert s == {
        "n": 4,
        "r": 3,
        "families": ["skew-symmetric", "toeplitz-sym", "diagonal"],
        "target": "full",
    }



def test_problem_refuses_a_spec_of_another_size():
    with pytest.raises(ParameterRangeError, match="problem size"):
        dom.problem([fam.FamilySpec("diagonal", 3)], 4)

def _frames(prob, params):
    """The tangent frame of each factor family at its parameters."""
    return [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)]


@pytest.mark.parametrize("kinds,n,target", [
    pytest.param(["bidiagonal-lower", "bidiagonal-upper"], 4, "full", id="band-pattern"),
    pytest.param(["skew-symmetric"] * 3, 4, "full", id="skew"),
    pytest.param(["toeplitz-sym"] * 3, 5, "centro", id="toeplitz-sym-centro"),
    pytest.param(["companion"] * 3, 3, "full", id="companion"),
    pytest.param(["orthogonal"] * 2, 3, "full", id="orthogonal"),
    pytest.param([fam.FamilySpec("vandermonde", 3, s=1)] * 2, 3, "full", id="vandermonde:1"),
])
def test_jacobian_shape_and_column_content(kinds, n, target):
    """Each column is the differential applied to one frame direction, with
    the other slots zero, cut to the target rows."""
    prob = dom.problem(kinds, n, target)
    rng = np.random.default_rng(5)
    params = [gaussian_point(spec, rng)[0] for spec in prob.factors]
    base = [fam.parameterize(spec, p) for spec, p in zip(prob.factors, params)]
    frames = _frames(prob, params)
    rows = (n * n + 1) // 2 if target == "centro" else n * n
    J = dom.jacobian(base, frames)[:rows]
    assert J.shape == (rows, prob.param_dim)
    col = 0
    for i, frame in enumerate(frames):
        for X in frame:
            tangents = [np.zeros((n, n), dtype=complex)] * prob.r
            tangents[i] = X
            expect = differential_apply(base, tangents).reshape(-1)[:rows]
            np.testing.assert_allclose(J[:, col], expect, rtol=1e-13)
            col += 1


def test_jacobian_slot_without_parameters():
    """A fixed factor takes an empty frame: it adds no columns, and the
    Jacobian equals that of the chain with it multiplied into its neighbour."""
    rng = np.random.default_rng(3)
    lower, upper = (fam.FamilySpec(tag, 4)
                    for tag in ("bidiagonal-lower", "bidiagonal-upper"))
    (ua, A), (ub, B) = (gaussian_point(spec, rng) for spec in (lower, upper))
    F = fam.complex_gaussian(rng, 16).reshape(4, 4)
    fa, fb = fam.tangent_basis(lower, ua), fam.tangent_basis(upper, ub)
    J = dom.jacobian([A, F, B], [fa, np.empty((0, 4, 4), dtype=complex), fb])
    assert J.shape == (16, len(fa) + len(fb))
    np.testing.assert_allclose(J, dom.jacobian([A, F @ B], [fa, F @ fb]), rtol=1e-13)


@pytest.mark.parametrize("kinds, n, target, shapes", [
    pytest.param(["toeplitz-sym"] * 2, 4, "centro", [(8, 8)] * 4, id="centro"),
    pytest.param(["skew-symmetric"] * 3, 5, "det", [(24, 30)], id="det"),
    pytest.param(["skew-symmetric"] * 3, 5, "full", [(24, 30)], id="full"),
    pytest.param(["orthogonal"] * 3, 4, "full", [(6, 18)], id="orthogonal-on-full"),
    pytest.param(["orthogonal"] * 3, 4, "orthogonal", [(6, 18)], id="orthogonal"),
    pytest.param(["centrosymmetric"] * 2, 4, "centro", [(8, 16)], id="centrosymmetric-on-centro"),
    pytest.param(["skew-symmetric", "triangular-upper", "skew-symmetric"], 5, "full", [(24, 35)],
                 id="mixed-skew-on-full"),
])
def test_verdict_ranks_the_target_rows(monkeypatch, kinds, n, target, shapes):
    """A verdict ranks the Jacobian in the coordinates of the space its
    chain lies in, against that target or the full one: the first
    ceil(n^2/2) rows for centro (the space the centrosymmetric family
    names too), n^2 - 1 rows for det (the space of a chain with an
    odd-size skew factor) and n(n - 1)/2 for orthogonal.  These are the
    matrices the Gram test sees.  The toeplitz-sym pair is deficient: both
    trials fail the real and the complex Gram test.  The other chains pass
    the real test at once with the full rank of their Jacobian, and stop
    there, on their own target or on full."""
    seen, gram = [], dom._gram_full_rank
    monkeypatch.setattr(dom, "_gram_full_rank",
                        lambda M, rel_tol: seen.append(M.shape) or gram(M, rel_tol))
    dom.estimate_image_dimension(dom.problem(kinds, n, target), trials=2)
    assert seen == shapes


def test_det_rows_drop_the_entry_the_normal_weighs_most():
    """The det row map drops entry (a, b) maximising |u_a v_b| for the null
    vectors u and v of the singular product, here read off an SVD, in
    either field."""
    rng = np.random.default_rng(4)
    for n in (3, 5, 7):
        for draw in (rng.standard_normal, lambda size: fam.complex_gaussian(rng, size)):
            A = draw(n * n).reshape(n, n)
            A[:, -1] = A[:, :-1] @ draw(n - 1)
            B = draw(n * n).reshape(n, n)
            U, _, Vh = np.linalg.svd(A @ B)
            a, b = np.argmax(np.abs(U[:, -1])), np.argmax(np.abs(Vh[-1]))
            J = np.arange(2.0 * n * n).reshape(n * n, 2)
            np.testing.assert_array_equal(dom._det_rows([A, B], J), np.delete(J, a * n + b, axis=0))


def test_orthogonal_rows_are_the_skew_coordinates_of_p_transpose_dp():
    """At an orthogonal P, a tangent dP = P K with K skew-symmetric maps to
    the strictly upper entries of K."""
    rng = np.random.default_rng(5)
    spec = fam.FamilySpec("orthogonal", 5)
    for field in (float, complex):
        u = fam.fit_center(spec, rng, 1, field)
        Q = fam.parameterize(spec, u)
        K = fam.parameterize(fam.FamilySpec("skew-symmetric", 5), u)
        J = (Q @ K).reshape(25, 1)
        np.testing.assert_allclose(dom._orthogonal_rows([Q], J)[:, 0], K[np.triu_indices(5, 1)],
                                   rtol=0, atol=1e-13)


def test_jacobian_needs_a_nonempty_chain_and_one_frame_per_factor():
    spec = fam.FamilySpec("diagonal", 3)
    A, B = np.eye(3, dtype=complex), np.diag([1.0, 2.0, 3.0]).astype(complex)
    frame = fam.tangent_basis(spec, np.ones(3))
    with pytest.raises(ParameterRangeError):
        dom.jacobian([A, B], [frame])
    with pytest.raises(ParameterRangeError):
        dom.jacobian([], [])


@pytest.mark.parametrize("tag", sorted(fam.ALL_TAGS))
def test_jacobian_at_sampled_matrices_matches_parameters(tag):
    """Verdicts take the frames at the parameters of their points: at
    Gaussian points (gaussian_point) and at the family centres alike, the
    same rank as with frames read off the matrices alone (span_frame), and
    the same array where the frame does not depend on the point (linear and
    companion families).  Banded kinds take bandwidth 2, Vandermonde kinds
    type 0, subspaces dimension n."""
    def centres(rng):
        params = [fam.fit_center(spec, rng, slot) for slot, spec in enumerate(prob.factors, 1)]
        return [(u, fam.parameterize(spec, u)) for spec, u in zip(prob.factors, params)]

    for n in (2, 4, 6):
        arg = n if tag == "subspace" else 2 if tag.startswith("k-diagonal") else None
        prob = dom.problem([fam.spec_from_argument(tag, arg, n, rng_seed=n)] * 2, n)
        for seed, draw in itertools.product(range(3), ("gaussian", "centre")):
            rng = np.random.default_rng(seed)
            points = ([gaussian_point(spec, rng) for spec in prob.factors] if draw == "gaussian"
                      else centres(rng))
            params, mats = zip(*points)
            J_params = dom.jacobian(mats, _frames(prob, params))
            J_mats = dom.jacobian(mats, [span_frame(spec, M) for spec, M in zip(prob.factors, mats)])
            assert dom.numerical_rank(J_mats) == dom.numerical_rank(J_params)
            if prob.factors[0].linear or tag == "companion":
                assert np.array_equal(J_mats, J_params)


@pytest.mark.parametrize("tag", ["vandermonde", "vandermonde-t"])
def test_sampled_vandermonde_matrices_are_members(tag):
    """estimate_image_dimension does not re-check the members it builds at
    the family centres, nor `sample` the ones sample_point draws; both pass
    is_member."""
    for s in range(-3, 4):
        for n in range(2, 9):
            spec = fam.FamilySpec(tag, n, s=s)
            for seed in range(5):
                _, V = fam.sample_point(spec, seed)
                assert fam.is_member(spec, V, 1e-8)
                u = fam.fit_center(spec, np.random.default_rng(seed), 1)
                assert fam.is_member(spec, fam.parameterize(spec, u), 1e-8)


@pytest.mark.parametrize("tag", ["vandermonde", "vandermonde-t"])
@pytest.mark.parametrize("s", [8, 12, 20])
def test_high_type_vandermonde_verdicts_at_sampled_matrices(tag, s):
    """At a high type s a Gaussian node x can have |x|^s far below 1e-14; it
    is still a nonzero node with its own frame, and the Jacobian there is
    ranked without a redraw, though far below 64.  Verdicts take their
    nodes at the centres, of modulus 1, and see the generic rank 64 at
    every seed, so a verdict stops after its first trial."""
    prob = dom.problem([fam.FamilySpec(tag, 8, s=s)] * 16, 8)
    for seed in range(0, 20, 5):
        rng = np.random.default_rng(seed)
        params, mats = zip(*(gaussian_point(spec, rng) for spec in prob.factors))
        assert 1 <= dom.numerical_rank(dom.jacobian(mats, _frames(prob, params))) < 64
    for seed in range(20):
        assert dom.estimate_image_dimension(prob, trials=5, seed=seed).ranks == [64]


def test_orthogonal_span_frame_spans_the_cayley_derivative():
    """Q E over the skew basis E spans the same tangent space at the Cayley
    map Q = (I - S)^-1 (I + S) as its derivative: the joint rank is n(n-1)/2."""
    for n in (3, 5, 8):
        spec = fam.FamilySpec("orthogonal", n)
        params, Q = fam.sample_point(spec, n)
        span = span_frame(spec, Q)
        deriv = fam.tangent_basis(spec, params)
        d = n * (n - 1) // 2
        joint = np.concatenate([span, deriv]).reshape(2 * d, n * n)
        assert dom.numerical_rank(span.reshape(d, -1)) == d
        assert dom.numerical_rank(joint) == d


def test_numerical_rank_is_the_same_in_either_orientation():
    rng = np.random.default_rng(8)
    for rows, cols, rank in [(5, 9, 3), (9, 5, 3), (40, 70, 25), (70, 40, 39)]:
        M = (fam.complex_gaussian(rng, rows * rank).reshape(rows, rank)
             @ fam.complex_gaussian(rng, rank * cols).reshape(rank, cols))
        assert dom.numerical_rank(M) == dom.numerical_rank(M.T) == rank


def test_numerical_rank_thresholds():
    M = np.diag([1.0, 1e-2, 1e-9, 0.0])
    assert dom.numerical_rank(M, rel_tol=1e-8) == 2
    assert dom.numerical_rank(M, rel_tol=1e-10) == 3
    assert dom.numerical_rank(np.zeros((3, 3)), rel_tol=1e-8) == 0
    assert dom.numerical_rank(np.eye(7)[:5], rel_tol=1e-8) == 5
    for bad in (-1.0, 0.0, np.nan, np.inf, 1.0):
        with pytest.raises(ParameterRangeError):
            dom.numerical_rank(M, rel_tol=bad)


def test_numerical_rank_refuses_a_non_finite_matrix():
    M = np.eye(4, dtype=complex)
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        M[2, 1] = bad
        with pytest.raises(DegeneratePointError, match="non-finite"):
            dom.numerical_rank(M)


@pytest.mark.parametrize("c", [1e200, 1e-200, 1e-310])
def test_numerical_rank_does_not_depend_on_scale(c):
    """The Gram certificate scales M first, so c M neither overflows nor
    underflows in the product, and its rank is that of M (at c = 1e-310
    every entry is subnormal)."""
    rng = np.random.default_rng(11)
    full = fam.complex_gaussian(rng, 30 * 20).reshape(30, 20)
    deficient = full[:, :12] @ fam.complex_gaussian(rng, 12 * 20).reshape(12, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M, rank in [(full, 20), (deficient, 12)]:
            assert dom.numerical_rank(M) == rank
            assert dom.numerical_rank(c * M) == rank
            assert dom.numerical_rank((c * M).T) == rank


def _certify_matrices(monkeypatch, verdict):
    """The matrices a verdict hands to numerical_rank."""
    seen = []

    def record(M, rel_tol=dom.DEFAULT_RANK_TOL):
        seen.append(np.array(M))
        return 0
    with monkeypatch.context() as patch:
        patch.setattr(dom, "numerical_rank", record)
        patch.setattr(vand, "numerical_rank", record)
        verdict()
    return seen


def _chain_verdict(kinds, n):
    return lambda: dom.estimate_image_dimension(dom.problem(kinds, n), trials=2)


_SKEW, _ORTH, _COMPANION = "skew-symmetric", "orthogonal", "companion"
_LOWER, _UPPER = "bidiagonal-lower", "bidiagonal-upper"


def _recorded(verdict):
    return lambda monkeypatch: _certify_matrices(monkeypatch, verdict)


def _complex_trials(kinds, n):
    """The complex Jacobians of trials 0 and 1 of a chain's verdict, in the
    coordinates of its space.  The verdict hands one to numerical_rank only
    when the real Gram test fails, and for these chains it passes at seed
    0, where the verdict stops."""
    prob = dom.problem(kinds, n)
    space = dom.chain_space(prob.factors)
    return lambda monkeypatch: [dom._trial_jacobian(prob, seed, complex, space) for seed in (0, 1)]


@pytest.mark.parametrize("matrices", [
    pytest.param(_complex_trials([_SKEW] * 3, 8), id="skew-n8"),
    pytest.param(_complex_trials([_SKEW] * 3, 10), id="skew-n10"),
    pytest.param(_complex_trials([_SKEW] * 3, 12), id="skew-n12"),
    pytest.param(_complex_trials([_SKEW] * 3, 16), id="skew-n16"),
    pytest.param(_complex_trials([_ORTH] * 3, 8), id="orthogonal-n8"),
    pytest.param(_complex_trials([_COMPANION] * 12, 12), id="companion-n12"),
    pytest.param(_complex_trials(["toeplitz-sym"] * 5, 9), id="toeplitz-sym-n9-centro"),
    pytest.param(_complex_trials([_LOWER, _UPPER] * 4, 4), id="alternating-bidiagonal-n4"),
    pytest.param(_recorded(lambda: vand.vandermonde_dominance(6, (1, 2, 3, 4, 5, 6))),
                 id="vandermonde-n6"),
    pytest.param(_recorded(_chain_verdict([_LOWER] * 8 + [_UPPER] * 8, 8)), id="bidiagonal-2n-n8"),
])
def test_numerical_rank_is_the_svd_count_on_verdict_matrices(monkeypatch, matrices):
    """Whether or not the Gram certificate decides, the rank is the number
    of singular values above rel_tol times the largest, at every tolerance.
    Every row checks at least one matrix."""
    seen = matrices(monkeypatch)
    assert seen
    for M in seen:
        tall = M.T if M.shape[0] < M.shape[1] else M
        sv = np.linalg.svd(tall, compute_uv=False)
        for rel_tol in (1e-13, 1e-8, 1e-4, 0.5):
            assert dom.numerical_rank(M, rel_tol) == np.count_nonzero(sv > rel_tol * sv[0])


@pytest.mark.parametrize("kinds, n, target, ranks", [
    pytest.param([_SKEW] * 3, 8, "full", [64], id="dominant-skew"),
    pytest.param([_ORTH] * 3, 8, "full", [28], id="deficient-orthogonal"),
    pytest.param([_ORTH] * 3, 8, "orthogonal", [28], id="dominant-orthogonal"),
    pytest.param([_SKEW] * 3, 7, "det", [48], id="dominant-skew-det"),
    pytest.param([_SKEW, "triangular-upper", _SKEW], 5, "full", [24], id="deficient-mixed-skew"),
    pytest.param([_SKEW, "triangular-upper", _SKEW], 5, "det", [24], id="dominant-mixed-skew-det"),
])
def test_full_rank_verdicts_take_no_svd(monkeypatch, kinds, n, target, ranks):
    """A full-rank Jacobian is certified by the Gram matrix's Cholesky alone,
    in the coordinates of the space the chain lies in: the orthogonal
    group's n(n - 1)/2 for the orthogonal chain, which is deficient on the
    full target, and n^2 - 1 for chains with an odd-size skew factor.
    Seeds 0 and 1 start a verdict at each of the points 0 and 1, and every
    verdict stops at its first: no Jacobian has a rank above the dimension
    of its chain's space, so the deficient ones stop there too."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    prob = dom.problem(kinds, n, target)
    for seed in (0, 1):
        assert dom.estimate_image_dimension(prob, trials=2, seed=seed).ranks == ranks
    assert calls == []


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_orthogonal_verdict_ranks_are_the_svd_count_of_the_complex_jacobian(n, r):
    """An orthogonal chain's verdict ranks n(n - 1)/2 rows; its ranks are the
    singular-value count of the unmapped complex Jacobian, all n^2 rows, at
    the points of the same seeds, cut after the first that reaches
    n(n - 1)/2, the full rank of the verdict's Jacobian."""
    prob = dom.problem([_ORTH] * r, n)
    full_rank = min(n * (n - 1) // 2, prob.param_dim)
    for seed in (0, 7):
        want = []
        for t in range(3):
            sv = np.linalg.svd(dom._trial_jacobian(prob, seed + t, complex, "full"),
                               compute_uv=False)
            want.append(int(np.count_nonzero(sv > dom.DEFAULT_RANK_TOL * sv[0])))
        assert want == [n * (n - 1) // 2] * 3
        assert dom.estimate_image_dimension(prob, trials=3, seed=seed).ranks == \
            want[:want.index(full_rank) + 1]


@pytest.mark.parametrize("kinds, n, target", [
    pytest.param([_SKEW] * 3, 8, "centro", id="skew-on-centro"),
    pytest.param(["toeplitz"] * 3, 4, "centro", id="toeplitz-on-centro"),
    pytest.param([_SKEW] * 3, 8, "det", id="even-skew-on-det"),
    pytest.param([_ORTH] * 3, 5, "det", id="orthogonal-on-det"),
    pytest.param([_SKEW] * 2, 4, "orthogonal", id="skew-on-orthogonal"),
    pytest.param(["toeplitz-sym"] * 3, 5, "orthogonal", id="toeplitz-sym-on-orthogonal"),
    pytest.param(["toeplitz-sym", "diagonal"], 4, "centro", id="toeplitz-sym-and-diagonal-on-centro"),
    pytest.param([_SKEW] * 2, 2, "centro", id="skew-pair-n2-on-centro"),
    pytest.param(["diagonal"] * 2, 1, "det", id="diagonal-n1-on-det"),
])
def test_a_chain_outside_its_target_is_refused(monkeypatch, kinds, n, target):
    """A row map only bounds a rank from below, so a chain is ranked against
    a target smaller than all n x n matrices only when its families keep
    its products there (_chain_space).  Any other chain is refused with a
    message naming the target, before a point is drawn.  The families
    decide, not a product: at n = 2 a skew pair's products -ab I are
    centrosymmetric, but skew chains leave centro at r = 3, so the pair is
    refused too."""
    monkeypatch.setattr(fam, "fit_center", lambda *a: pytest.fail("a point was drawn"))
    with pytest.raises(ParameterRangeError, match=f"{target} target"):
        dom.estimate_image_dimension(dom.problem(kinds, n, target))


def _lies_in(space, P) -> bool:
    """Does the product P lie in the space tagged space?  An oracle apart
    from the verdict code: the 180-degree-rotation residual for centro,
    sigma_min / sigma_1 <= 1e-8 for det and P^T P = I for orthogonal."""
    scale = 1.0 + np.linalg.norm(P)
    if space == "centro":
        return np.linalg.norm(P - P[::-1, ::-1]) <= 1e-10 * scale
    if space == "det":
        sv = np.linalg.svd(P, compute_uv=False)
        return sv[-1] <= 1e-8 * sv[0]
    if space == "orthogonal":
        return np.linalg.norm(P.T @ P - np.eye(len(P))) <= 1e-10 * scale ** 2
    return space == "full"


def _snapshot_families():
    """The family tokens of tools/cli_snapshot.py: every family, with the
    argument it takes."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "cli_snapshot.py")
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES


@pytest.mark.parametrize("token", _snapshot_families())
def test_families_keep_their_products_in_the_space_they_name(token):
    """A verdict takes a chain's space from the families (bounds_facts),
    with no check of a product, so this test checks each family's claim:
    at every n = 1..6 the family takes, a product of r = 1..3 complex
    members about its center lies in the space it names."""
    tag, _, arg = token.partition(":")
    for n in range(1, 7):
        try:
            spec = fam.spec_from_argument(tag, int(arg) if arg else None, n)
        except ParameterRangeError:
            continue
        space = fam.bounds_facts(spec)[0]
        for r in range(1, 4):
            rng = np.random.default_rng(10 * n + r)
            P = dom.chain_product([fam.parameterize(spec, fam.fit_center(spec, rng, slot))
                                   for slot in range(1, r + 1)])
            assert _lies_in(space, P), (n, r, space)


@pytest.mark.parametrize("kinds, n, space", [
    pytest.param(["toeplitz-sym", "hankel-persym", "centrosymmetric"], 4, "centro", id="centro"),
    pytest.param(["toeplitz-sym", "diagonal"], 4, "full", id="centro-and-full"),
    pytest.param([_SKEW, "toeplitz"], 5, "det", id="odd-skew-and-full"),
    pytest.param(["triangular-upper", _SKEW, "companion"], 3, "det", id="full-odd-skew-full"),
    pytest.param([_SKEW, "toeplitz-sym"], 5, "det", id="odd-skew-and-centro"),
    pytest.param([_SKEW, _ORTH], 4, "full", id="even-skew-and-orthogonal"),
])
def test_a_chain_lies_in_the_space_its_families_keep(kinds, n, space):
    """det when any family names det, since a product with a singular
    factor is singular; else the space all families name; else full.  A
    product at a complex point lies there (the oracles of
    test_families_keep_their_products_in_the_space_they_name)."""
    prob = dom.problem(kinds, n)
    assert dom.chain_space(prob.factors) == space
    rng = np.random.default_rng(5)
    P = dom.chain_product([fam.parameterize(spec, fam.fit_center(spec, rng, slot))
                           for slot, spec in enumerate(prob.factors, start=1)])
    assert _lies_in(space, P)


def test_verdicts_read_frames_without_a_membership_re_check(monkeypatch):
    """parameterize builds members, so a verdict takes their frames without
    is_member."""
    monkeypatch.setattr(fam, "is_member", lambda *a: pytest.fail("is_member was called"))
    for kinds in ([_SKEW] * 3, [_ORTH] * 2, [_COMPANION] * 3,
                  [fam.FamilySpec("vandermonde-t", 4, s=1)] * 6):
        dom.estimate_image_dimension(dom.problem(kinds, 4), trials=1)


@pytest.mark.parametrize("kinds, n, target, space_dim, dominant", [
    pytest.param([_SKEW] * 3, 8, "full", 64, True, id="skew-n8"),
    pytest.param(["companion"] * 5, 5, "full", 25, True, id="companion-n5"),
    pytest.param(["toeplitz-sym"] * 3, 5, "centro", 13, True, id="toeplitz-sym-n5-centro"),
    pytest.param(["skew-symmetric"] * 3, 5, "det", 24, True, id="skew-n5-det"),
    pytest.param(["orthogonal"] * 3, 4, "full", 6, False, id="orthogonal-n4-deficient"),
    pytest.param(["diagonal"] * 2, 1, "centro", 1, True, id="diagonal-n1-centro"),
])
def test_verdict_ranks_are_the_one_trial_ranks_up_to_the_first_full_rank(kinds, n, target,
                                                                           space_dim, dominant):
    """Trial t ranks the point of seed + t, as a one-trial verdict at that
    seed does, and a verdict stops at its first full-rank Jacobian, of rank
    min(dimension of the chain's space, parameter count), which no later
    trial can exceed: on the chain's own target that proves dominance, and
    the orthogonal chain on full stops there deficient.  At n = 1 every
    matrix is centrosymmetric, so the centro target takes a chain of any
    space."""
    prob = dom.problem(kinds, n, target)
    full_rank = min(space_dim, prob.param_dim)
    for seed in (0, 3, 11):
        oracle = [dom.estimate_image_dimension(prob, 1, seed=seed + t).ranks[0] for t in range(5)]
        assert (prob.target_dim in oracle) == dominant
        if full_rank in oracle:
            oracle = oracle[:oracle.index(full_rank) + 1]
        rep = dom.estimate_image_dimension(prob, 5, seed=seed)
        assert rep.ranks == oracle
        assert rep.dominant == dominant


def test_estimate_image_dimension_report():
    prob = dom.problem(["skew-symmetric"] * 3, 4)
    rep = dom.estimate_image_dimension(prob, trials=4, seed=3)
    assert rep.trials == 4
    assert len(rep.ranks) == 4
    assert rep.d_estimate == max(rep.ranks) == 13
    assert rep.target_dim == 16
    assert not rep.dominant
    assert rep.seed == 3
    assert rep.problem["families"] == ["skew-symmetric"] * 3

    again = dom.estimate_image_dimension(prob, trials=4, seed=3)
    assert rep == again  # same seed, same report


def test_estimate_image_dimension_dominant_case():
    prob = dom.problem(["skew-symmetric"] * 5, 4)
    rep = dom.estimate_image_dimension(prob, trials=3, seed=0)
    assert rep.dominant
    assert rep.d_estimate == 16


def test_skew_dimension_row_matches_table():
    for n, r, d in dom.SKEW_TABLE[:6]:
        prob = dom.problem([fam.SKEW_SYMMETRIC] * r, n)
        assert dom.estimate_image_dimension(prob, trials=3, seed=1).d_estimate == d


def test_lower_bound_cone():
    # r factors from an m-dimensional cone reach at most rm - (r - 1)
    assert dom.lower_bound_cone(6, 16) == 3
    assert dom.lower_bound_cone(28, 64) == 3
    assert dom.lower_bound_cone(5, 13) == 3
    assert dom.lower_bound_cone(4, 8) == 3
    assert dom.lower_bound_cone(16, 16) == 1
    with pytest.raises(ParameterRangeError):
        dom.lower_bound_cone(1, 9)


def test_lower_bound_cone_is_sharp_necessary_count():
    for m in (3, 5, 9):
        for D in (7, 16, 25, 49):
            r = dom.lower_bound_cone(m, D)
            assert r * m - (r - 1) >= D
            if r > 1:
                assert (r - 1) * m - (r - 2) < D


def test_surjectivity_bound():
    assert dom.surjectivity_bound(3) == 13
    assert dom.surjectivity_bound(5) == 21
    assert dom.surjectivity_bound(1) == 5


def test_two_factor_tangent_test_qr_like_pairs():
    """At the parameters of I in each family (Q = I at zero for orthogonal)."""
    up = fam.FamilySpec("triangular-upper", 3)
    lo = fam.FamilySpec("triangular-lower", 3)
    orth = fam.FamilySpec("orthogonal", 3)
    I_up, I_lo, I_orth = fam.identity_coordinates(up), fam.identity_coordinates(lo), np.zeros(3)
    assert two_factor_tangent_test(lo, up, (I_lo, I_up))
    assert two_factor_tangent_test(orth, up, (I_orth, I_up))
    assert not two_factor_tangent_test(up, up, (I_up, I_up))


def test_companion_chain_dominance_small():
    """n companion factors reach the full n x n space for small n."""
    prob = dom.problem(["companion"] * 3, 3)
    rep = dom.estimate_image_dimension(prob, trials=3, seed=2)
    assert rep.dominant
