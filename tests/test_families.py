"""Family catalogue: dimensions, parameterizations, membership."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchain.families as fam
from closed_forms import pattern_mask
from matchain.errors import DegeneratePointError, ParameterRangeError


def _spec(tag, n, k=None, s=None):
    return fam.FamilySpec(tag, n, k=k, s=s)


# tag, k, expected dimension at n=4, and at n=6
DIMENSIONS = [
    ("diagonal", None, 4, 6),
    ("bidiagonal-upper", None, 7, 11),
    ("bidiagonal-lower", None, 7, 11),
    ("bidiagonal", None, 10, 16),
    ("k-diagonal", 2, 10, 16),
    ("k-diagonal", 3, 14, 24),
    ("k-diagonal-upper", 2, 7, 11),
    ("k-diagonal-lower", 3, 9, 15),
    ("triangular-upper", None, 10, 21),
    ("triangular-lower", None, 10, 21),
    ("anti-triangular-top", None, 10, 21),
    ("anti-triangular-bottom", None, 10, 21),
    ("orthogonal", None, 6, 15),
    ("skew-symmetric", None, 6, 15),
    ("toeplitz", None, 7, 11),
    ("toeplitz-sym", None, 4, 6),
    ("hankel-persym", None, 4, 6),
    ("centrosymmetric", None, 8, 18),
    ("companion", None, 4, 6),
    ("vandermonde", None, 4, 6),
    ("vandermonde-t", None, 4, 6),
]


@pytest.mark.parametrize("tag,k,d4,d6", DIMENSIONS)
def test_family_dimension(tag, k, d4, d6):
    s = 1 if tag.startswith("vandermonde") else None
    assert _spec(tag, 4, k=k, s=s).param_dim == d4
    assert _spec(tag, 6, k=k, s=s).param_dim == d6


# closed forms of the linear family dimensions, f(n, k)
CLOSED_FORMS = {
    "diagonal": lambda n, k: n,
    "bidiagonal-upper": lambda n, k: 2 * n - 1,
    "bidiagonal-lower": lambda n, k: 2 * n - 1,
    "bidiagonal": lambda n, k: 3 * n - 2,
    "k-diagonal": lambda n, k: (2 * k - 1) * n - k * (k - 1),
    "k-diagonal-upper": lambda n, k: k * n - k * (k - 1) // 2,
    "k-diagonal-lower": lambda n, k: k * n - k * (k - 1) // 2,
    "triangular-upper": lambda n, k: n * (n + 1) // 2,
    "triangular-lower": lambda n, k: n * (n + 1) // 2,
    "anti-triangular-top": lambda n, k: n * (n + 1) // 2,
    "anti-triangular-bottom": lambda n, k: n * (n + 1) // 2,
    "skew-symmetric": lambda n, k: n * (n - 1) // 2,
    "toeplitz": lambda n, k: 2 * n - 1,
    "toeplitz-sym": lambda n, k: n,
    "hankel-persym": lambda n, k: n,
    "centrosymmetric": lambda n, k: (n * n + 1) // 2,
}


def _linear_cases(sizes):
    """(tag, n, k) for every structured linear family, banded ones at every k."""
    return [(tag, n, k) for tag in CLOSED_FORMS for n in sizes
            for k in (range(1, n + 1) if tag.startswith("k-diagonal") else [None])]


def test_closed_forms_agree_with_dimensions_table():
    for tag, k, d4, d6 in DIMENSIONS:
        if tag in CLOSED_FORMS:
            assert (CLOSED_FORMS[tag](4, k), CLOSED_FORMS[tag](6, k)) == (d4, d6), tag


def test_linear_dimensions_match_closed_forms():
    for tag, n, k in _linear_cases(range(1, 9)):
        d = CLOSED_FORMS[tag](n, k)
        if d == 0:  # skew-symmetric at n = 1: no spec exists
            with pytest.raises(ParameterRangeError, match="has no parameters"):
                fam.FamilySpec(tag, n, k=k)
        else:
            assert fam.FamilySpec(tag, n, k=k).param_dim == d


def _closed_form_matrix(tag, n, k, p):
    """The member with parameters p, built entry by entry from the
    family's definition and its documented parameter order."""
    M = np.zeros((n, n), dtype=complex)
    bands = {
        "diagonal": lambda i, j: i == j,
        "bidiagonal-upper": lambda i, j: j - i in (0, 1),
        "bidiagonal-lower": lambda i, j: i - j in (0, 1),
        "bidiagonal": lambda i, j: abs(i - j) <= 1,
        "k-diagonal": lambda i, j: abs(i - j) < k,
        "k-diagonal-upper": lambda i, j: 0 <= j - i < k,
        "k-diagonal-lower": lambda i, j: 0 <= i - j < k,
        "triangular-upper": lambda i, j: i <= j,
        "triangular-lower": lambda i, j: i >= j,
        # 1-based: entry (i, j) vanishes when i + j > n + 1, or < n + 1
        "anti-triangular-top": lambda i, j: (i + 1) + (j + 1) <= n + 1,
        "anti-triangular-bottom": lambda i, j: (i + 1) + (j + 1) >= n + 1,
    }
    if tag in bands:  # one parameter per allowed position, row by row
        allowed = [(i, j) for i in range(n) for j in range(n) if bands[tag](i, j)]
        for c, (i, j) in zip(p, allowed):
            M[i, j] = c
    elif tag == "skew-symmetric":  # the strict upper triangle row by row
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for c, (i, j) in zip(p, upper):
            M[i, j], M[j, i] = c, -c
    elif tag == "toeplitz":  # diagonals from the bottom-left corner up
        for i in range(n):
            for j in range(n):
                M[i, j] = p[(n - 1) + (j - i)]
    elif tag == "toeplitz-sym":  # p[d] on the +d and -d diagonals
        for i in range(n):
            for j in range(n):
                M[i, j] = p[abs(i - j)]
    elif tag == "hankel-persym":  # J times the symmetric Toeplitz matrix
        M = _closed_form_matrix("toeplitz-sym", n, k, p)[::-1, :]
    elif tag == "centrosymmetric":  # the first half row by row, then rotated
        half = (n * n + 1) // 2
        for idx in range(half):
            i, j = divmod(idx, n)
            M[i, j] = M[n - 1 - i, n - 1 - j] = p[idx]
    return M


@pytest.mark.parametrize("tag,n,k", _linear_cases([4]))
def test_parameter_order_matches_closed_form(tag, n, k):
    spec = fam.FamilySpec(tag, n, k=k)
    p = np.arange(1, spec.param_dim + 1).astype(complex)
    np.testing.assert_array_equal(fam.parameterize(spec, p), _closed_form_matrix(tag, n, k, p))


def test_structured_bases_are_orthogonal():
    """The Gram matrix of every structured basis is diagonal, which is what
    membership by projection onto the span relies on."""
    for tag, n, k in _linear_cases(range(2, 8)):
        B = fam.linear_basis(fam.FamilySpec(tag, n, k=k)).reshape(-1, n * n)
        G = B.conj() @ B.T
        assert np.array_equal(G, np.diag(np.diag(G))), (tag, n, k)


def test_linear_membership_measures_the_projection_residual():
    # the diagonal matrices plus eps on each of the 12 off-diagonal entries:
    # the largest violated entry is eps, the projection residual sqrt(12) eps
    spec = _spec("diagonal", 4)
    eps = 1e-3
    M = np.eye(4) + eps * (np.ones((4, 4)) - np.eye(4))
    scale = 1.0 + np.linalg.norm(M)
    assert fam.is_member(spec, M, 3.5 * eps / scale)
    assert not fam.is_member(spec, M, 3.4 * eps / scale)


def test_kind_from_tag_rejects_arguments_the_family_does_not_take():
    for tag, kw in [("diagonal", {"k": 3}), ("vandermonde", {"k": 1}),
                    ("k-diagonal", {"s": 1}), ("skew-symmetric", {"s": 0}),
                    ("k-diagonal", {"k": "2"}), ("vandermonde", {"s": 1.0})]:
        with pytest.raises(ParameterRangeError):
            fam.FamilySpec(tag, 4, **kw)
    assert fam.FamilySpec("k-diagonal", 4, k=2) == fam.spec_from_argument("k-diagonal", 2, 4)


def test_k_diagonal_edge_dimensions():
    # k=1 collapses to diagonal, k=n is a full matrix
    assert _spec("k-diagonal", 5, k=1).param_dim == 5
    assert _spec("k-diagonal", 5, k=5).param_dim == 25
    assert _spec("k-diagonal-upper", 5, k=5).param_dim == 15
    for bad in (0, 6, -1):
        with pytest.raises(ParameterRangeError):
            _spec("k-diagonal", 5, k=bad)


def test_kind_from_tag_rejects_unknown_and_subspace():
    with pytest.raises(ParameterRangeError):
        fam.FamilySpec("hessenberg", 4)
    with pytest.raises(ParameterRangeError):
        fam.FamilySpec("subspace", 4)


@pytest.mark.parametrize("tag, kw", [
    ("toeplitz", {"k": 3}), ("k-diagonal", {"k": True}), ("k-diagonal", {"k": 2.5}),
    ("vandermonde", {"s": 1.5}), ("k-diagonal", {}), ("bogus", {}),
    ("skew-symmetric", {"seed": 0}), ("subspace", {"k": 2}),
    ("subspace", {"k": 2, "seed": True}), ("subspace", {"k": 2, "seed": 1.5}),
    ("subspace", {"k": 2, "seed": -1}), ("subspace", {"k": 0, "seed": 0}),
    ("subspace", {"k": 5, "seed": 0}),
    ("diagonal", {"n": 2.5}), ("diagonal", {"n": True}),
], ids=["argument-not-taken", "bool-k", "fractional-k", "fractional-s", "missing-k",
        "unknown-tag", "seed-outside-subspace", "subspace-without-seed", "bool-seed",
        "fractional-seed", "negative-seed", "subspace-k-0", "subspace-k-above-n-squared",
        "fractional-n", "bool-n"])
def test_family_kind_checks_itself_on_construction(tag, kw):
    with pytest.raises(ParameterRangeError):
        fam.FamilySpec(tag, **{"n": 2, **kw})


def test_family_size_takes_a_numpy_integer():
    spec = fam.FamilySpec("diagonal", np.int64(3))
    assert spec.n == 3 and type(spec.n) is int


def test_subspace_basis_is_the_seeded_qr_draw_read_only():
    """The basis is the Householder Q of k vectorized complex Gaussian
    matrices from default_rng(seed), C-ordered and read-only."""
    for n, k, seed in [(1, 1, 0), (2, 4, 3), (3, 5, 7), (4, 7, 2026)]:
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal(n * n * k) + 1j * rng.standard_normal(n * n * k)).reshape(n * n, k)
        expect = np.ascontiguousarray(np.linalg.qr(X)[0].T.reshape(k, n, n))
        basis = fam.FamilySpec("subspace", n, k=k, seed=seed).basis
        assert basis.tobytes() == expect.tobytes()
        assert basis.flags.c_contiguous and not basis.flags.writeable


def test_subspace_specs_compare_by_their_seed():
    a, b = fam.FamilySpec("subspace", 4, k=7, seed=11), fam.FamilySpec("subspace", 4, k=7, seed=12)
    assert a != b and hash(a) != hash(b)
    again = fam.FamilySpec("subspace", 4, k=7, seed=np.int64(11))
    assert a == again and hash(a) == hash(again)


def test_labels():
    assert fam.FamilySpec("toeplitz-sym", 4).label() == "toeplitz-sym"
    assert fam.FamilySpec("k-diagonal", 4, k=3).label() == "k-diagonal(3)"
    assert fam.FamilySpec("vandermonde", 4, s=2).label() == "vandermonde(2)"
    assert fam.FamilySpec("subspace", 4, k=7, seed=0).label() == "subspace(7)"


@pytest.mark.parametrize("tag,k", [(t, k) for t, k, _, _ in DIMENSIONS])
def test_parameterize_members(tag, k):
    """A parameterized point satisfies its own membership test."""
    s = 1 if tag.startswith("vandermonde") else None
    spec = _spec(tag, 5, k=k, s=s)
    rng = np.random.default_rng(17)
    p = fam.complex_gaussian(rng, spec.param_dim)
    M = fam.parameterize(spec, p)
    assert M.shape == (5, 5)
    assert fam.is_member(spec, M, 1e-10)
    # a generic dense matrix is not a member of any strict subfamily
    if spec.param_dim < 25:
        G = fam.complex_gaussian(rng, 25).reshape(5, 5)
        assert not fam.is_member(spec, G, 1e-10)


def test_pattern_families_have_exact_zeros():
    rng = np.random.default_rng(3)
    for tag, k in [("diagonal", None), ("bidiagonal-upper", None),
                   ("bidiagonal", None), ("k-diagonal", 3),
                   ("triangular-lower", None), ("anti-triangular-top", None)]:
        spec = _spec(tag, 6, k=k)
        M = fam.parameterize(spec, fam.complex_gaussian(rng, spec.param_dim))
        mask = pattern_mask(tag, 6, k=k)
        assert np.all(M[~mask] == 0)
        assert np.all(M[mask] != 0)


def test_pattern_mask_bidiagonal_is_2_diagonal():
    mask = pattern_mask("bidiagonal", 5)
    i, j = np.indices((5, 5))
    assert np.array_equal(mask, np.abs(i - j) < 2)


def test_coordinates_of_inverts_parameterize():
    for tag, k in [("toeplitz", None), ("centrosymmetric", None),
                   ("skew-symmetric", None), ("bidiagonal", None)]:
        spec = _spec(tag, 4, k=k)
        p = fam.complex_gaussian(np.random.default_rng(8), spec.param_dim)
        M = fam.parameterize(spec, p)
        np.testing.assert_allclose(fam.coordinates_of(spec, M), p, atol=1e-13)


def test_coordinates_of_is_a_projection():
    """On a non-member the coordinates are those of the orthogonal
    projection: the closest member."""
    spec = _spec("toeplitz-sym", 4)
    G = np.arange(16.0).reshape(4, 4)
    coords = fam.coordinates_of(spec, G)
    P = fam.parameterize(spec, coords)
    assert fam.is_member(spec, P, 1e-10)
    assert np.linalg.norm(P - G) > 1.0
    with pytest.raises(ParameterRangeError):
        fam.coordinates_of(_spec("companion", 4), G)


def test_symmetric_toeplitz_structure():
    spec = _spec("toeplitz-sym", 5)
    M = fam.parameterize(spec, np.arange(1.0, 6.0))
    np.testing.assert_array_equal(M, M.T)
    for d in range(5):
        diag = np.diagonal(M, offset=d)
        assert np.all(diag == diag[0])
        assert diag[0] == d + 1.0


def test_persymmetric_hankel_is_flipped_toeplitz():
    spec = _spec("hankel-persym", 5)
    p = fam.complex_gaussian(np.random.default_rng(2), 5)
    H = fam.parameterize(spec, p)
    J = fam.exchange_matrix(5)
    T = fam.parameterize(_spec("toeplitz-sym", 5), p)
    np.testing.assert_array_equal(H, J @ T)


def test_centrosymmetric_invariance():
    spec = _spec("centrosymmetric", 5)
    M = fam.parameterize(spec, fam.complex_gaussian(np.random.default_rng(4), spec.param_dim))
    J = fam.exchange_matrix(5)
    np.testing.assert_allclose(J @ M @ J, M, atol=1e-14)


def test_skew_symmetric_members():
    spec = _spec("skew-symmetric", 4)
    M = fam.parameterize(spec, fam.complex_gaussian(np.random.default_rng(5), 6))
    np.testing.assert_array_equal(M, -M.T)
    assert np.all(np.diagonal(M) == 0)


def test_orthogonal_members_are_complex_orthogonal():
    """Q^T Q = I with plain transpose, not conjugate transpose."""
    spec = _spec("orthogonal", 4)
    Q = fam.parameterize(spec, 0.3 * fam.complex_gaussian(np.random.default_rng(6), 6))
    np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    assert fam.is_member(spec, Q, 1e-10)
    assert fam.is_member(spec, np.eye(4), 1e-12)


def test_companion_template():
    spec = _spec("companion", 4)
    c = np.array([5.0, 6.0, 7.0, 8.0], dtype=complex)
    C = fam.parameterize(spec, c)
    np.testing.assert_array_equal(C[:, -1], c)
    np.testing.assert_array_equal(np.diagonal(C, offset=-1), np.ones(3))
    C[:, -1] = 0
    np.fill_diagonal(C[1:, :-1], 0)
    assert np.all(C == 0)


def test_vandermonde_template():
    # entry (p, q) is x_q ** (s + p - 1) in 1-based indexing
    spec = _spec("vandermonde", 3, s=2)
    x = np.array([1.5, 2.0, -1.0], dtype=complex)
    V = fam.parameterize(spec, x)
    expect = np.array([[xq ** (2 + p) for xq in x] for p in range(3)])
    np.testing.assert_allclose(V, expect, rtol=1e-14)
    Vt = fam.parameterize(_spec("vandermonde-t", 3, s=2), x)
    np.testing.assert_allclose(Vt, expect.T, rtol=1e-14)


def test_contains_identity_flags():
    yes = ["diagonal", "bidiagonal", "bidiagonal-upper", "triangular-lower",
           "toeplitz", "toeplitz-sym", "centrosymmetric", "orthogonal"]
    no = ["skew-symmetric", "companion", "hankel-persym",
          "anti-triangular-top", "vandermonde"]
    for tag in yes:
        s = 1 if tag.startswith("vandermonde") else None
        assert fam.is_member(_spec(tag, 4, s=s), np.eye(4), 1e-12), tag
    for tag in no:
        s = 1 if tag.startswith("vandermonde") else None
        assert not fam.is_member(_spec(tag, 4, s=s), np.eye(4), 1e-12), tag


def test_subspace_basis_is_orthonormal_and_seeded():
    spec = fam.FamilySpec("subspace", 4, k=7, seed=11)
    assert len(spec.basis) == 7
    assert all(B.shape == (4, 4) for B in spec.basis)
    # orthonormal in the trace inner product
    G = np.array([[np.vdot(a, b) for b in spec.basis] for a in spec.basis])
    np.testing.assert_allclose(G, np.eye(7), atol=1e-12)
    again = fam.FamilySpec("subspace", 4, k=7, seed=11)
    for a, b in zip(spec.basis, again.basis):
        np.testing.assert_array_equal(a, b)
    other = fam.FamilySpec("subspace", 4, k=7, seed=12)
    assert not all(np.allclose(a, b) for a, b in zip(spec.basis, other.basis))


def test_subspace_membership_and_coordinates():
    spec = fam.FamilySpec("subspace", 5, k=9, seed=1)
    assert spec.param_dim == 9
    p = fam.complex_gaussian(np.random.default_rng(0), 9)
    M = fam.parameterize(spec, p)
    assert fam.is_member(spec, M, 1e-10)
    np.testing.assert_allclose(fam.coordinates_of(spec, M), p, atol=1e-12)


@pytest.mark.parametrize("tag", sorted(fam.ALL_TAGS))
def test_sample_point_is_one_gaussian_draw(tag):
    """sample_point draws param_dim complex Gaussians from default_rng(seed)
    once, and returns their parameterization: nothing is redrawn."""
    arg = {"k-diagonal": 2, "k-diagonal-upper": 2, "k-diagonal-lower": 2, "subspace": 5,
           "vandermonde": -1, "vandermonde-t": 2}.get(tag)
    spec = fam.spec_from_argument(tag, arg, 4)
    for seed in range(3):
        params, M = fam.sample_point(spec, rng_seed=seed)
        expect = fam.complex_gaussian(np.random.default_rng(seed), spec.param_dim)
        assert params.tobytes() == expect.tobytes()
        assert M.tobytes() == fam.parameterize(spec, expect).tobytes()


def test_sample_point_is_deterministic_member():
    spec = _spec("centrosymmetric", 4)
    p1, M1 = fam.sample_point(spec, rng_seed=9)
    p2, M2 = fam.sample_point(spec, rng_seed=9)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(M1, M2)
    assert fam.is_member(spec, M1, 1e-10)
    np.testing.assert_allclose(fam.parameterize(spec, p1), M1, atol=1e-14)


def test_linear_basis_spans_parameterization():
    spec = _spec("toeplitz", 3)
    basis = fam.linear_basis(spec)
    assert len(basis) == spec.param_dim
    p = fam.complex_gaussian(np.random.default_rng(10), spec.param_dim)
    M = sum(c * B for c, B in zip(p, basis))
    np.testing.assert_allclose(M, fam.parameterize(spec, p), atol=1e-14)


def test_tangent_basis_matches_dimension():
    for tag, k in [("toeplitz-sym", None), ("companion", None),
                   ("orthogonal", None), ("vandermonde", None)]:
        s = 1 if tag == "vandermonde" else None
        spec = _spec(tag, 4, k=k, s=s)
        point = 0.2 * fam.complex_gaussian(np.random.default_rng(1), spec.param_dim)
        if tag == "vandermonde":
            point = point + np.arange(1.0, 5.0)  # keep nodes apart from zero
        frame = fam.tangent_basis(spec, point)
        assert len(frame) == spec.param_dim
        for B in frame:
            assert B.shape == (4, 4)


def test_tangent_basis_linear_family_is_constant():
    spec = _spec("skew-symmetric", 3)
    f1 = fam.tangent_basis(spec, np.zeros(3, dtype=complex))
    f2 = fam.tangent_basis(spec, fam.complex_gaussian(np.random.default_rng(2), 3))
    for a, b in zip(f1, f2):
        np.testing.assert_array_equal(a, b)


def test_parameterize_is_the_basis_contraction():
    """Every linear family evaluates to the same bytes as the contraction of
    its parameters with its basis, strided parameter views included."""
    specs = [fam.FamilySpec(tag, n, k=k) for tag, n, k in _linear_cases(range(1, 9))
             if CLOSED_FORMS[tag](n, k) > 0]
    specs += [fam.FamilySpec("subspace", n, k=k, seed=n) for n, k in [(1, 1), (3, 4), (5, 25)]]
    for spec in specs:
        n = spec.n
        theta = fam.complex_gaussian(np.random.default_rng(n), 2 * spec.param_dim)
        for p in (theta[:spec.param_dim], theta[::2]):
            expect = np.tensordot(p, fam.linear_basis(spec), axes=1)
            assert fam.parameterize(spec, p).tobytes() == expect.tobytes(), spec


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orthogonal_frame_matches_per_direction_derivatives(n):
    """The Cayley map Q = (I - S)^-1 (I + S) and its frame
    dQ/du_j = 2 (I - S)^-1 E_j (I - S)^-1, against references built here."""
    spec = _spec("orthogonal", n)
    skew = fam.linear_basis(_spec("skew-symmetric", n))
    I = np.eye(n)
    assert np.array_equal(fam.parameterize(spec, np.zeros(spec.param_dim)), I)
    for scale in (1e-3, 1.0, 1e2):
        p = scale * fam.complex_gaussian(np.random.default_rng(n), spec.param_dim)
        S = np.tensordot(p, skew, axes=1)
        Q = fam.parameterize(spec, p)
        ref = np.linalg.solve(I - S, I + S)
        assert np.linalg.norm(Q - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.max(np.abs(Q.T @ Q - I)) <= 1e-10
        frame = fam.tangent_basis(spec, p)
        W = np.linalg.inv(I - S)
        for F, E in zip(frame, skew):
            expect = 2 * W @ E @ W
            assert np.linalg.norm(F - expect) <= 1e-12 * np.linalg.norm(expect)
        h = 1e-6 * max(1.0, scale)
        central = np.stack([(fam.parameterize(spec, p + h * e) - fam.parameterize(spec, p - h * e))
                            / (2 * h) for e in np.eye(spec.param_dim)])
        assert np.linalg.norm(frame - central) <= 1e-6 * np.linalg.norm(frame)


@pytest.mark.parametrize("u", [1j, -1j])
def test_orthogonal_family_is_degenerate_where_i_minus_s_is_singular(u):
    """At n = 2, S = [[0, u], [-u, 0]] and det(I - S) = 1 + u^2 vanishes at
    u = +-i: the Cayley map has no value there."""
    spec = _spec("orthogonal", 2)
    with pytest.raises(DegeneratePointError):
        fam.parameterize(spec, [u])
    with pytest.raises(DegeneratePointError):
        fam.tangent_basis(spec, np.array([u]))


CENTERS = [("diagonal", None, np.eye), ("bidiagonal", None, np.eye),
           ("bidiagonal-upper", None, np.eye), ("bidiagonal-lower", None, np.eye),
           ("k-diagonal", 2, np.eye), ("k-diagonal-upper", 3, np.eye),
           ("k-diagonal-lower", 2, np.eye), ("triangular-upper", None, np.eye),
           ("triangular-lower", None, np.eye), ("toeplitz", None, np.eye),
           ("centrosymmetric", None, np.eye),
           ("anti-triangular-top", None, fam.exchange_matrix),
           ("anti-triangular-bottom", None, fam.exchange_matrix),
           ("hankel-persym", None, fam.exchange_matrix)]


@pytest.mark.parametrize("tag,k,center", CENTERS)
def test_fit_center_is_the_center_plus_a_small_draw(tag, k, center):
    for n in (1, 4, 7):
        spec = _spec(tag, n, k=min(k, n) if k else None)
        g = fam.complex_gaussian(np.random.default_rng(3), spec.param_dim)
        expect = (fam.coordinates_of(spec, center(n).astype(complex)) + 0.1 * g).tobytes()
        first = fam.fit_center(spec, np.random.default_rng(3), 1)
        assert first.tobytes() == expect
        first[:] = 99.0  # the caller owns what it gets; the cached center is untouched
        assert fam.fit_center(spec, np.random.default_rng(3), 2).tobytes() == expect


def test_identity_coordinates_are_read_only():
    for spec in (_spec("triangular-lower", 4), fam.FamilySpec("subspace", 2, k=4, seed=0)):
        u = fam.identity_coordinates(spec)
        np.testing.assert_allclose(fam.parameterize(spec, u), np.eye(spec.n), atol=1e-12)
        with pytest.raises(ValueError):
            u[0] = 1.0


def _grid_specs(n):
    """Every structured linear family at size n, at each bandwidth a banded
    one takes."""
    for tag in sorted(fam.ALL_TAGS - {"subspace"}):
        for k in (None, *range(1, n + 1)):
            try:
                spec = _spec(tag, n, k=k)
            except ParameterRangeError:
                continue
            if spec.linear:
                yield spec


def test_identity_coordinates_are_exact():
    """In every structured family that contains I, or J, at n = 1..8, the
    cached coordinates of I and J are exactly the 0s and 1s that rebuild it."""
    checked = 0
    for n in range(1, 9):
        for spec in _grid_specs(n):
            for exchange, M in ((False, np.eye(n)), (True, fam.exchange_matrix(n))):
                if not fam.is_member(spec, M, 1e-12):
                    continue
                u = fam.identity_coordinates(spec, exchange)
                exact = np.round(u.real)
                assert np.array_equal(u, exact), (spec, exchange)
                assert set(exact) <= {0.0, 1.0}
                assert np.array_equal(fam.parameterize(spec, exact), M)
                checked += 1
    assert checked > 200


def test_exchange_matrix_involution():
    J = fam.exchange_matrix(6)
    np.testing.assert_array_equal(J @ J, np.eye(6))
    np.testing.assert_array_equal(J, J.T)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_complex_gaussian_shape_and_spread(n, seed):
    z = fam.complex_gaussian(np.random.default_rng(seed), n)
    assert z.shape == (n,)
    assert z.dtype == complex
    assert np.all(np.isfinite(z))
    assert np.any(z.imag != 0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_of_upper_bidiagonals_is_banded(data):
    """k-1 upper bidiagonal factors multiply to an upper k-diagonal matrix.

    The zeros are exact: every entry below the diagonal or at distance k or
    more above it is a sum of products that each contain a structural zero.
    """
    n = data.draw(st.integers(min_value=2, max_value=8), label="n")
    k = data.draw(st.integers(min_value=2, max_value=n), label="k")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 31), label="seed")
    spec = _spec("bidiagonal-upper", n)
    rng = np.random.default_rng(seed)
    P = np.eye(n, dtype=complex)
    for _ in range(k - 1):
        P = P @ fam.parameterize(spec, fam.complex_gaussian(rng, spec.param_dim))
    mask = pattern_mask("k-diagonal-upper", n, k=k)
    assert np.all(P[~mask] == 0)


def _vand_tangent_reference(n, s, nodes):
    """Per-entry derivative matrices: column q of the q-th matrix holds
    e x_q^(e-1) for the exponent e = s+p-1, and 0 where e = 0."""
    exps = s + np.arange(n)
    mats = []
    for q in range(n):
        col = np.zeros(n, dtype=complex)
        for p in range(n):
            e = exps[p]
            col[p] = 0.0 if e == 0 else e * nodes[q] ** (e - 1)
        T = np.zeros((n, n), dtype=complex)
        T[:, q] = col
        mats.append(T)
    return mats


# n = 1 at s = 0 has only the exponent 0: its frame is degenerate
@pytest.mark.parametrize("tag", ["vandermonde", "vandermonde-t"])
@pytest.mark.parametrize("n, s", [(n, s) for n in (1, 3, 5) for s in (-2, 0, 1, 3)
                                  if (n, s) != (1, 0)])
def test_vandermonde_frame_matches_the_per_entry_derivatives(tag, n, s):
    spec = _spec(tag, n, s=s)
    orient = (lambda m: m) if tag == "vandermonde" else (lambda m: m.T)
    for seed in range(3):
        x = fam.complex_gaussian(np.random.default_rng(seed), n)
        expect = np.stack([orient(m) for m in _vand_tangent_reference(n, s, x)])
        frame = fam.tangent_basis(spec, x)
        assert frame.tobytes() == expect.tobytes()
        assert not frame.flags.writeable


@pytest.mark.parametrize("n, s, nodes", [
    pytest.param(3, 1, [1.0, 2.0, 1.0], id="repeated-nodes"),
    pytest.param(3, -1, [0.0, 1.0, 2.0], id="zero-node-negative-type"),
])
def test_vandermonde_degenerate_points(n, s, nodes):
    for tag in ("vandermonde", "vandermonde-t"):
        with pytest.raises(DegeneratePointError):
            fam.tangent_basis(_spec(tag, n, s=s), np.array(nodes, dtype=complex))


def test_vandermonde_type_zero_has_no_parameters_at_n1():
    """The only 1 x 1 matrix of type 0 is [[x^0]] = [[1]]: dimension 0, so
    no spec exists, as for skew-symmetric and orthogonal at n = 1."""
    for tag in ("vandermonde", "vandermonde-t"):
        with pytest.raises(ParameterRangeError, match="has no parameters at n=1"):
            fam.FamilySpec(tag, 1, s=0)


def test_vandermonde_membership_edge_cases():
    for tag in ("vandermonde", "vandermonde-t"):
        orient = (lambda m: m) if tag == "vandermonde" else (lambda m: m.T)
        x = np.array([0.0, 1.5, -2.0 + 1j])
        for s in (1, 2):  # a zero node is a zero column
            spec = _spec(tag, 3, s=s)
            assert fam.is_member(spec, fam.parameterize(spec, x), 1e-12), (tag, s)
        for s in (-1, 0):  # a zero top entry is no power of any node
            spec = _spec(tag, 3, s=s)
            V = orient(fam.parameterize(spec, np.array([1.5, -2.0 + 1j, 0.5j]))).copy()
            V[0, 0] = 0.0
            assert not fam.is_member(spec, orient(V), 1e-8), (tag, s)
        for v in (0.0, 3.0 - 2.0j):
            assert fam.is_member(_spec(tag, 1, s=2), np.array([[v]]), 1e-12)
        assert fam.is_member(_spec(tag, 1, s=-1), np.array([[3.0 - 2.0j]]), 1e-12)
        assert not fam.is_member(_spec(tag, 1, s=-1), np.array([[0.0]]), 1e-12)
