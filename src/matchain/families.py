"""Structured families of n x n complex matrices.

Each family is either a linear subspace given by an explicit basis (band
patterns, triangles, Toeplitz variants, centrosymmetric matrices, random
subspaces), or the image of a smooth parameterization (complex orthogonal
group, companion matrices, generalized Vandermonde matrices).  The module
provides, uniformly over a FamilySpec:

    family_dimension   dimension of the parameter space
    parameterize       params -> matrix
    tangent_basis      frame spanning the tangent space at a point
    sample_point       a reproducible random smooth point
    is_member          tolerance-based membership test

Tangent frames are what the dominance machinery consumes: the rank of the
product map's differential is computed against these frames, so for the
nonlinear families the frames are the actual derivatives of the
parameterization (the matrix exponential's Frechet derivative for the
orthogonal group, per-node derivatives for Vandermonde families).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .companion import companion_matrix
from .errors import (
    DegeneratePointError,
    NonMemberError,
    ParameterRangeError,
)

# ---------------------------------------------------------------------------
# family tags

DIAGONAL = "diagonal"
BIDIAGONAL_UPPER = "bidiagonal-upper"
BIDIAGONAL_LOWER = "bidiagonal-lower"
BIDIAGONAL = "bidiagonal"
K_DIAGONAL = "k-diagonal"
K_DIAGONAL_UPPER = "k-diagonal-upper"
K_DIAGONAL_LOWER = "k-diagonal-lower"
TRIANGULAR_UPPER = "triangular-upper"
TRIANGULAR_LOWER = "triangular-lower"
ANTI_TRIANGULAR_TOP = "anti-triangular-top"
ANTI_TRIANGULAR_BOTTOM = "anti-triangular-bottom"
ORTHOGONAL = "orthogonal"
SKEW_SYMMETRIC = "skew-symmetric"
TOEPLITZ = "toeplitz"
SYMMETRIC_TOEPLITZ = "toeplitz-sym"
PERSYMMETRIC_HANKEL = "hankel-persym"
CENTROSYMMETRIC = "centrosymmetric"
COMPANION = "companion"
VANDERMONDE = "vandermonde"
VANDERMONDE_T = "vandermonde-t"
SUBSPACE = "subspace"

_PATTERN_TAGS = frozenset({
    DIAGONAL, BIDIAGONAL_UPPER, BIDIAGONAL_LOWER, BIDIAGONAL,
    K_DIAGONAL, K_DIAGONAL_UPPER, K_DIAGONAL_LOWER,
    TRIANGULAR_UPPER, TRIANGULAR_LOWER,
    ANTI_TRIANGULAR_TOP, ANTI_TRIANGULAR_BOTTOM,
})
_BANDED_TAGS = frozenset({K_DIAGONAL, K_DIAGONAL_UPPER, K_DIAGONAL_LOWER})
_LINEAR_TAGS = _PATTERN_TAGS | frozenset({
    SKEW_SYMMETRIC, TOEPLITZ, SYMMETRIC_TOEPLITZ, PERSYMMETRIC_HANKEL,
    CENTROSYMMETRIC, SUBSPACE,
})
_VANDERMONDE_TAGS = frozenset({VANDERMONDE, VANDERMONDE_T})
ALL_TAGS = _LINEAR_TAGS | _VANDERMONDE_TAGS | frozenset({ORTHOGONAL, COMPANION})


@dataclass(frozen=True)
class FamilyKind:
    """Tag plus the structural parameters some kinds need.

    k is the bandwidth for the k-diagonal kinds and the dimension for
    SUBSPACE; s is the type of a generalized Vandermonde family.  basis
    carries the orthonormal matrices of a random subspace, stacked as a
    (k, n, n) array, and is excluded from equality (two independently drawn
    subspaces of the same dimension compare equal on the structural fields
    only).
    """

    tag: str
    k: int | None = None
    s: int | None = None
    basis: np.ndarray | None = field(default=None, compare=False, repr=False)

    def label(self) -> str:
        if self.tag in _BANDED_TAGS:
            return f"{self.tag}({self.k})"
        if self.tag in _VANDERMONDE_TAGS:
            return f"{self.tag}({self.s})"
        if self.tag == SUBSPACE:
            return f"{self.tag}({self.k})"
        return self.tag


def kind_from_tag(tag: str, k: int | None = None, s: int | None = None) -> FamilyKind:
    if tag not in ALL_TAGS:
        raise ParameterRangeError(f"unknown family tag {tag!r}")
    if tag in _BANDED_TAGS and k is None:
        raise ParameterRangeError(f"family {tag!r} needs a bandwidth k")
    if tag in _VANDERMONDE_TAGS and s is None:
        raise ParameterRangeError(f"family {tag!r} needs a type s")
    if tag == SUBSPACE:
        raise ParameterRangeError("random subspaces are created via random_subspace()")
    return FamilyKind(tag, k=k, s=s)


def k_diagonal(k: int) -> FamilyKind:
    return FamilyKind(K_DIAGONAL, k=k)


def k_diagonal_upper(k: int) -> FamilyKind:
    return FamilyKind(K_DIAGONAL_UPPER, k=k)


def k_diagonal_lower(k: int) -> FamilyKind:
    return FamilyKind(K_DIAGONAL_LOWER, k=k)


def generalized_vandermonde(s: int) -> FamilyKind:
    return FamilyKind(VANDERMONDE, s=int(s))


def generalized_vandermonde_transpose(s: int) -> FamilyKind:
    return FamilyKind(VANDERMONDE_T, s=int(s))


@dataclass(frozen=True)
class FamilySpec:
    """A family kind pinned to a matrix size, with its parameter count."""

    kind: FamilyKind
    n: int
    param_dim: int


def family_spec(kind, n: int) -> FamilySpec:
    """Validate (kind, n) and attach the parameter dimension."""
    if isinstance(kind, str):
        kind = kind_from_tag(kind)
    return FamilySpec(kind=kind, n=int(n), param_dim=family_dimension(kind, n))


@dataclass(frozen=True)
class TangentFrame:
    """A base point and matrices spanning the tangent space there, stacked
    as one read-only (d, n, n) array."""

    base_point: np.ndarray
    basis: np.ndarray


# ---------------------------------------------------------------------------
# dimensions

def family_dimension(kind, n: int) -> int:
    """Dimension of the family inside the n x n matrices.

    Band patterns count their allowed positions; the complex orthogonal
    group and the skew-symmetric matrices both have dimension n(n-1)/2;
    Toeplitz-type families are n- or (2n-1)-dimensional; centrosymmetric
    matrices have ceil(n^2/2) free entries; companion and generalized
    Vandermonde families have n parameters.
    """
    if isinstance(kind, str):
        kind = FamilyKind(kind)
    if n < 1:
        raise ParameterRangeError(f"matrix size n={n} must be positive")
    tag, k = kind.tag, kind.k
    if tag == DIAGONAL:
        return n
    if tag in (BIDIAGONAL_UPPER, BIDIAGONAL_LOWER):
        return 2 * n - 1
    if tag == BIDIAGONAL:
        return 3 * n - 2
    if tag in _BANDED_TAGS:
        if k is None or not 1 <= k <= n:
            raise ParameterRangeError(f"bandwidth k={k} out of range 1..{n}")
        if tag == K_DIAGONAL:
            return (2 * k - 1) * n - k * (k - 1)
        return k * n - k * (k - 1) // 2
    if tag in (TRIANGULAR_UPPER, TRIANGULAR_LOWER,
               ANTI_TRIANGULAR_TOP, ANTI_TRIANGULAR_BOTTOM):
        return n * (n + 1) // 2
    if tag in (ORTHOGONAL, SKEW_SYMMETRIC):
        return n * (n - 1) // 2
    if tag == TOEPLITZ:
        return 2 * n - 1
    if tag in (SYMMETRIC_TOEPLITZ, PERSYMMETRIC_HANKEL, COMPANION):
        return n
    if tag == CENTROSYMMETRIC:
        return (n * n + 1) // 2
    if tag in _VANDERMONDE_TAGS:
        if kind.s is None:
            raise ParameterRangeError("generalized Vandermonde kind needs a type s")
        return n
    if tag == SUBSPACE:
        if kind.k is None or kind.basis is None:
            raise ParameterRangeError("subspace kind carries no basis")
        return kind.k
    raise ParameterRangeError(f"unknown family tag {tag!r}")


# ---------------------------------------------------------------------------
# structural helpers

def exchange_matrix(n: int) -> np.ndarray:
    """The anti-identity J (ones on the anti-diagonal)."""
    return np.eye(n, dtype=complex)[::-1].copy()


def _pattern_positions(tag: str, n: int, k: int | None):
    """0-based (i, j) positions allowed to be nonzero, in row-major order."""
    out = []
    for i in range(n):
        for j in range(n):
            d = j - i
            if tag == DIAGONAL:
                ok = d == 0
            elif tag == BIDIAGONAL_UPPER:
                ok = d in (0, 1)
            elif tag == BIDIAGONAL_LOWER:
                ok = d in (-1, 0)
            elif tag == BIDIAGONAL:
                ok = abs(d) <= 1
            elif tag == K_DIAGONAL:
                ok = abs(d) <= k - 1
            elif tag == K_DIAGONAL_UPPER:
                ok = 0 <= d <= k - 1
            elif tag == K_DIAGONAL_LOWER:
                ok = 0 <= -d <= k - 1
            elif tag == TRIANGULAR_UPPER:
                ok = i <= j
            elif tag == TRIANGULAR_LOWER:
                ok = i >= j
            elif tag == ANTI_TRIANGULAR_TOP:
                # 1-based constraint: entries vanish when i + j > n + 1
                ok = i + j <= n - 1
            elif tag == ANTI_TRIANGULAR_BOTTOM:
                ok = i + j >= n - 1
            else:
                raise ParameterRangeError(f"not a pattern family: {tag!r}")
            if ok:
                out.append((i, j))
    return out


def pattern_mask(tag: str, n: int, k: int | None = None) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    for i, j in _pattern_positions(tag, n, k):
        mask[i, j] = True
    return mask


def _freeze(mats):
    """Stack n x n matrices into one read-only (d, n, n) array."""
    stack = np.stack(mats)
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=None)
def _cached_basis(tag: str, n: int, k):
    """Basis of a structurally-defined linear family (no subspaces), as a
    read-only (d, n, n) array."""
    if tag in _PATTERN_TAGS:
        mats = []
        for i, j in _pattern_positions(tag, n, k):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            mats.append(E)
        return _freeze(mats)
    if tag == SKEW_SYMMETRIC:
        mats = []
        for i in range(n):
            for j in range(i + 1, n):
                E = np.zeros((n, n), dtype=complex)
                E[i, j] = 1.0
                E[j, i] = -1.0
                mats.append(E)
        return _freeze(mats)
    if tag == TOEPLITZ:
        mats = []
        for d in range(-(n - 1), n):
            B = np.zeros((n, n), dtype=complex)
            for i in range(n):
                if 0 <= i + d < n:
                    B[i, i + d] = 1.0
            mats.append(B)
        return _freeze(mats)
    if tag == SYMMETRIC_TOEPLITZ:
        # S_0 is the identity; S_k has ones on the +k and -k diagonals.
        mats = []
        for d in range(n):
            S = np.zeros((n, n), dtype=complex)
            for i in range(n):
                if i + d < n:
                    S[i, i + d] = 1.0
                    S[i + d, i] = 1.0
            mats.append(S)
        return _freeze(mats)
    if tag == PERSYMMETRIC_HANKEL:
        return _freeze(exchange_matrix(n) @ _cached_basis(SYMMETRIC_TOEPLITZ, n, None))
    if tag == CENTROSYMMETRIC:
        # One representative per 180-degree-rotation orbit, taken from the
        # first ceil(n^2/2) row-major positions; this aligns the parameter
        # order with the centrosymmetric coordinate convention.
        half = (n * n + 1) // 2
        mats = []
        for idx in range(half):
            i, j = divmod(idx, n)
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            pi, pj = n - 1 - i, n - 1 - j
            if (pi, pj) != (i, j):
                E[pi, pj] = 1.0
            mats.append(E)
        return _freeze(mats)
    raise ParameterRangeError(f"no cached basis for family {tag!r}")


def linear_basis(spec: FamilySpec) -> np.ndarray:
    """Basis matrices of a linear family, in parameter order, as a (d, n, n)
    array."""
    kind = spec.kind
    if kind.tag == SUBSPACE:
        return kind.basis
    if kind.tag not in _LINEAR_TAGS:
        raise ParameterRangeError(f"family {kind.tag!r} is not linear")
    return _cached_basis(kind.tag, spec.n, kind.k)


def _skew_from_params(n: int, params: np.ndarray) -> np.ndarray:
    S = np.zeros((n, n), dtype=complex)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            S[i, j] = params[idx]
            S[j, i] = -params[idx]
            idx += 1
    return S


def _vand_matrix(n: int, s: int, nodes: np.ndarray) -> np.ndarray:
    """Entries x_q^(s+p-1) for p, q = 1 .. n."""
    nodes = np.asarray(nodes, dtype=complex)
    exps = s + np.arange(n)
    if np.any(exps < 0) and np.any(np.abs(nodes) == 0.0):
        raise DegeneratePointError("zero node with a negative exponent")
    return np.power(nodes[None, :], exps[:, None])


def _vand_tangent(n: int, s: int, nodes: np.ndarray):
    """Per-node derivative matrices; column q of the q-th matrix is
    d/dx_q of (x_q^(s+p-1))."""
    nodes = np.asarray(nodes, dtype=complex)
    exps = s + np.arange(n)
    scale = float(np.max(np.abs(nodes))) if nodes.size else 0.0
    for a in range(n):
        for b in range(a + 1, n):
            if abs(nodes[a] - nodes[b]) <= 1e-12 * (1.0 + scale):
                raise DegeneratePointError("repeated Vandermonde nodes")
    mats = []
    for q in range(n):
        col = np.zeros(n, dtype=complex)
        for p in range(n):
            e = exps[p]
            if e == 0:
                col[p] = 0.0
            else:
                if nodes[q] == 0 and e - 1 < 0:
                    raise DegeneratePointError("zero node with a negative exponent")
                col[p] = e * nodes[q] ** (e - 1)
        if np.max(np.abs(col)) == 0.0:
            raise DegeneratePointError("tangent column vanishes at this node")
        T = np.zeros((n, n), dtype=complex)
        T[:, q] = col
        mats.append(T)
    return mats


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential (scipy.linalg.expm).

    scipy.linalg is imported here, on first use, not at module level: the
    orthogonal family is its only user, and loading it about doubles the
    time of a CLI call that never evaluates an orthogonal factor.
    """
    import scipy.linalg

    return scipy.linalg.expm(A)


def _expm_frechet(S: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Frechet derivative of expm at S in direction E (block-matrix trick)."""
    n = S.shape[0]
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[:n, :n] = S
    blk[n:, n:] = S
    blk[:n, n:] = E
    return _expm(blk)[:n, n:]


# ---------------------------------------------------------------------------
# core operations

def _check_params(spec: FamilySpec, params) -> np.ndarray:
    params = np.asarray(params, dtype=complex).reshape(-1)
    if params.size != spec.param_dim:
        raise ParameterRangeError(
            f"expected {spec.param_dim} parameters for {spec.kind.label()} (n={spec.n}), got {params.size}")
    return params


def parameterize(spec: FamilySpec, params) -> np.ndarray:
    """Map a parameter vector to a matrix of the family."""
    params = _check_params(spec, params)
    tag = spec.kind.tag
    if tag in _LINEAR_TAGS:
        return np.tensordot(params, linear_basis(spec), axes=1)
    if tag == COMPANION:
        return companion_matrix(params)
    if tag == ORTHOGONAL:
        return _expm(_skew_from_params(spec.n, params))
    if tag == VANDERMONDE:
        return _vand_matrix(spec.n, spec.kind.s, params)
    if tag == VANDERMONDE_T:
        return _vand_matrix(spec.n, spec.kind.s, params).T.copy()
    raise ParameterRangeError(f"unknown family tag {tag!r}")


def _nodes_from_matrix(n: int, s: int, V: np.ndarray) -> np.ndarray:
    """Read nodes off an oriented Vandermonde matrix (rows are powers)."""
    if n == 1:
        if s == 0:
            return np.array([1.0 + 0j])
        v = V[0, 0]
        if s < 0 and v == 0:
            raise NonMemberError("zero entry cannot be a negative power")
        return np.array([v ** (1.0 / s)]) if v != 0 else np.array([0.0 + 0j])
    colscale = np.max(np.abs(V), axis=0)
    nodes = np.zeros(n, dtype=complex)
    for q in range(n):
        if abs(V[0, q]) <= 1e-14 * (1.0 + colscale[q]):
            nodes[q] = 0.0
        else:
            nodes[q] = V[1, q] / V[0, q]
    return nodes


def tangent_basis(spec: FamilySpec, point) -> TangentFrame:
    """Tangent frame of the family at a point.

    point may be a parameter vector (1-d, length param_dim) or a member
    matrix (n x n).  For linear families the frame is the fixed basis; for
    the nonlinear families it is the derivative of the parameterization, so
    finite differences of parameterize converge to these matrices.
    """
    point = np.asarray(point, dtype=complex)
    tag, n = spec.kind.tag, spec.n
    is_params = point.ndim == 1
    if not is_params and point.shape != (n, n):
        raise ParameterRangeError(f"point must be a parameter vector or an {n} x {n} matrix")

    if tag in _LINEAR_TAGS:
        if is_params:
            base = parameterize(spec, point)
        else:
            base = point
            if not is_member(spec, base, 1e-8):
                raise NonMemberError(f"matrix is not in {spec.kind.label()}")
        return TangentFrame(base_point=base, basis=linear_basis(spec))

    if tag == COMPANION:
        if is_params:
            base = companion_matrix(_check_params(spec, point))
        else:
            base = point
            if not is_member(spec, base, 1e-8):
                raise NonMemberError("matrix does not match the companion template")
        frame = []
        for p in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[p, n - 1] = 1.0
            frame.append(E)
        return TangentFrame(base_point=base, basis=_freeze(frame))

    if tag == ORTHOGONAL:
        skew = _cached_basis(SKEW_SYMMETRIC, n, None)
        if is_params:
            params = _check_params(spec, point)
            S = _skew_from_params(n, params)
            base = _expm(S)
            frame = [_expm_frechet(S, E) for E in skew]
        else:
            base = point
            if not is_member(spec, base, 1e-8):
                raise NonMemberError("matrix is not complex-orthogonal")
            frame = [base @ E for E in skew]
        return TangentFrame(base_point=base, basis=_freeze(frame))

    if tag in _VANDERMONDE_TAGS:
        if is_params:
            nodes = _check_params(spec, point)
            base = parameterize(spec, nodes)
        else:
            base = point
            if not is_member(spec, base, 1e-8):
                raise NonMemberError(f"matrix is not in {spec.kind.label()}")
            oriented = base.T if tag == VANDERMONDE_T else base
            nodes = _nodes_from_matrix(n, spec.kind.s, oriented)
        mats = _vand_tangent(n, spec.kind.s, nodes)
        if tag == VANDERMONDE_T:
            mats = [m.T.copy() for m in mats]
        return TangentFrame(base_point=base, basis=_freeze(mats))

    raise ParameterRangeError(f"unknown family tag {tag!r}")


def complex_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard complex Gaussian vector: independent standard-normal real
    and imaginary parts."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def sample_point(spec: FamilySpec, rng_seed=0):
    """Draw (params, matrix) with i.i.d. standard complex Gaussian
    parameters.  Deterministic in the seed; degenerate Vandermonde draws
    (coinciding nodes) are resampled."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    for _ in range(100):
        params = complex_gaussian(rng, spec.param_dim)
        try:
            matrix = parameterize(spec, params)
            if spec.kind.tag in _VANDERMONDE_TAGS:
                _vand_tangent(spec.n, spec.kind.s, params)  # reject degenerate draws
        except DegeneratePointError:
            continue
        return params, matrix
    raise DegeneratePointError(f"could not draw a smooth point of {spec.kind.label()}")


def is_member(spec: FamilySpec, M, tol: float) -> bool:
    """Do the family's defining constraints hold within tol * (1 + ||M||_F)?

    Equality constraints are checked entrywise; the template families
    (companion, generalized Vandermonde) are checked against a rebuilt
    template.  Returns False rather than raising on ill-posed fits.
    """
    M = np.asarray(M, dtype=complex)
    n = spec.n
    if M.shape != (n, n):
        return False
    if not np.all(np.isfinite(M.view(float))):
        return False
    scale = tol * (1.0 + float(np.linalg.norm(M)))
    tag = spec.kind.tag

    if tag in _PATTERN_TAGS:
        mask = pattern_mask(tag, n, spec.kind.k)
        outside = M[~mask]
        return outside.size == 0 or float(np.max(np.abs(outside))) <= scale
    if tag == SKEW_SYMMETRIC:
        return float(np.max(np.abs(M + M.T))) <= scale
    if tag == TOEPLITZ:
        if n == 1:
            return True
        return float(np.max(np.abs(M[1:, 1:] - M[:-1, :-1]))) <= scale
    if tag == SYMMETRIC_TOEPLITZ:
        sym = float(np.max(np.abs(M - M.T))) <= scale
        return sym and is_member(family_spec(TOEPLITZ, n), M, tol)
    if tag == PERSYMMETRIC_HANKEL:
        # H = J T with T symmetric Toeplitz, i.e. J H is symmetric Toeplitz.
        return is_member(family_spec(SYMMETRIC_TOEPLITZ, n), M[::-1, :], tol)
    if tag == CENTROSYMMETRIC:
        return float(np.max(np.abs(M - M[::-1, ::-1]))) <= scale
    if tag == ORTHOGONAL:
        resid = M.T @ M - np.eye(n)
        return float(np.max(np.abs(resid))) <= tol * (1.0 + float(np.linalg.norm(M))) ** 2
    if tag == COMPANION:
        return float(np.max(np.abs(M - companion_matrix(M[:, n - 1])))) <= scale
    if tag == SUBSPACE:
        B = spec.kind.basis.reshape(-1, n * n)
        v = M.reshape(-1)
        resid = v - B.T @ (B.conj() @ v)
        return float(np.linalg.norm(resid)) <= scale
    if tag in _VANDERMONDE_TAGS:
        V = M.T if tag == VANDERMONDE_T else M
        s = spec.kind.s
        if n == 1:
            v = V[0, 0]
            if s == 0:
                return abs(v - 1.0) <= scale
            if s < 0:
                return abs(v) > 0.0
            return True
        try:
            nodes = _nodes_from_matrix(n, s, V)
        except NonMemberError:
            return False
        exps = s + np.arange(n)
        for q in range(n):
            col = V[:, q]
            if nodes[q] == 0.0:
                if s >= 1:
                    ok = float(np.max(np.abs(col))) <= tol * (1.0 + float(np.linalg.norm(col)))
                else:
                    ok = False
            else:
                rebuilt = np.power(nodes[q], exps)
                ok = float(np.max(np.abs(col - rebuilt))) <= tol * (1.0 + float(np.linalg.norm(col)))
            if not ok:
                return False
        return True
    raise ParameterRangeError(f"unknown family tag {tag!r}")


def random_subspace(n: int, k: int, rng_seed=0) -> FamilyKind:
    """A uniformly random k-dimensional linear family of n x n matrices.

    The basis is orthonormal for the Frobenius inner product (QR applied to
    k vectorized complex Gaussian matrices; rank-deficient draws are
    rejected, which almost surely never triggers).
    """
    if not 1 <= k <= n * n:
        raise ParameterRangeError(f"subspace dimension k={k} out of range 1..{n * n}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    for _ in range(100):
        X = complex_gaussian(rng, n * n * k).reshape(n * n, k)
        Q, R = np.linalg.qr(X)
        if np.min(np.abs(np.diag(R))) <= 1e-10:
            continue
        return FamilyKind(SUBSPACE, k=k, basis=_freeze(Q.T.reshape(k, n, n)))
    raise DegeneratePointError("could not draw an independent subspace basis")


def contains_identity(spec: FamilySpec) -> bool:
    """Whether the identity matrix belongs to the family (exactly enough for
    warm starts)."""
    return is_member(spec, np.eye(spec.n, dtype=complex), 1e-12)


def coordinates_of(spec: FamilySpec, M) -> np.ndarray:
    """Least-squares coordinates of a member matrix of a linear family."""
    if spec.kind.tag not in _LINEAR_TAGS:
        raise ParameterRangeError(f"family {spec.kind.label()} has no linear coordinates")
    B = linear_basis(spec).reshape(-1, spec.n * spec.n).T
    coeff, *_ = np.linalg.lstsq(B, np.asarray(M, dtype=complex).reshape(-1), rcond=None)
    return coeff
