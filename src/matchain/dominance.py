"""Rank certificates for products of structured matrix families.

The product map rho_r sends a tuple (A_1, ..., A_r) of family members to
A_1 * ... * A_r.  Its differential at a base tuple is

    d rho_r (X_1, ..., X_r) = sum_i A_1 .. A_{i-1} X_i A_{i+1} .. A_r,

and the image of rho_r fills out a d-dimensional set where d is the rank of
that differential at a generic base point.  Everything here reduces to
assembling the Jacobian of rho_r against the families' tangent frames and
reading off numerical ranks: a full-rank Jacobian at a single point
certifies that generic matrices of the target space admit the decomposition.

A target is a space with coordinates, one entry of the table _SPACES:
full (all n x n matrices), det (the singular ones), centro (the
centrosymmetric ones) and orthogonal (SO(n)), each with its dimension,
its row map from the base product P and the Jacobian to the space's
coordinates, and its membership check for P.  A row map M bounds the
rank from below, rank(M J) <= rank(J); the space's dimension bounds it
from above when every product lies in the space.  So a chain is ranked
in the coordinates of a space it lies in, where a full rank is provable
by a Gram-Cholesky test without an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import families as fam
from .errors import DegeneratePointError, ParameterRangeError

TARGET_FULL = "full"
TARGET_DET = "det"
TARGET_CENTRO = "centro"
TARGET_ORTHOGONAL = "orthogonal"

DEFAULT_RANK_TOL = 1e-8
DEFAULT_TRIALS = 5
_EPS = float(np.finfo(float).eps)
_GRAM_BLOCK = 32  # Gram rows per product in _gram_full_rank


def _centro_dim(n: int) -> int:
    return (n * n + 1) // 2


def _det_rows(factors, J: np.ndarray) -> np.ndarray:
    """J without the row of entry (a, b), where |u_a v_b| is largest for the
    left and right null vectors u and v of the singular product P of the
    factors.  The tangent space of the determinant hypersurface at a P of
    rank n - 1 is u^T dP v = 0, on which the other n^2 - 1 entries are
    coordinates.  The null vectors are the last columns of the Q factors of
    P and P^T, up to conjugation, which leaves their moduli alone; no SVD
    is taken."""
    P = chain_product(factors)
    a, b = (int(np.argmax(np.abs(np.linalg.qr(M)[0][:, -1]))) for M in (P, P.T))
    return np.delete(J, a * len(P) + b, axis=0)


def _orthogonal_rows(factors, J: np.ndarray) -> np.ndarray:
    """The strictly upper entries (a < b) of X = P^T dP for each column dP
    of J, P the product of the factors: at an orthogonal P the tangent
    space is P times the skew-symmetric matrices, so X is skew-symmetric
    and these entries are its coordinates."""
    P = chain_product(factors)
    n = len(P)
    X = (P.T @ J.reshape(n, -1)).reshape(n, n, -1)
    return X[np.triu_indices(n, 1)]


class _Space(NamedTuple):
    """A target space: its dimension at size n; rows, which maps the base
    factors, whose product is P, and their Jacobian J (rows the n^2
    row-major entries of dP) to J in the space's coordinates; and holds,
    whether a product P lies in the space within a relative tolerance."""

    dim: Callable
    rows: Callable
    holds: Callable


# target tag -> space.  A row map M only bounds the rank from below,
# rank(M J) <= rank(J); the dimension bounds it from above when every
# product lies in the space.
_SPACES = {
    TARGET_FULL: _Space(lambda n: n * n, lambda factors, J: J, lambda P, tol: True),
    TARGET_DET: _Space(lambda n: n * n - 1, _det_rows,
                       lambda P, tol: numerical_rank(P, tol) < len(P)),
    TARGET_CENTRO: _Space(_centro_dim, lambda factors, J: J[:_centro_dim(len(factors[0]))],
                          lambda P, tol: fam.is_member(
                              fam.FamilySpec(fam.CENTROSYMMETRIC, len(P)), P, tol)),
    TARGET_ORTHOGONAL: _Space(lambda n: n * (n - 1) // 2, _orthogonal_rows, fam.is_orthogonal),
}


def target_dim(tag: str, n: int) -> int:
    """Dimension of the space a product is measured against, for a known
    tag and n >= 1.  Each tag is one entry of the space table, which also
    holds the space's coordinates (see _trial_jacobian).

    full: all n x n matrices (dimension n^2), coordinates all n^2 entries
    det: the determinant hypersurface (dimension n^2 - 1), where chains of
        odd-size skew-symmetric factors lie; coordinates all entries but
        the one the hypersurface's normal at the base product weighs most
    centro: the centrosymmetric matrices (dimension ceil(n^2/2)), with
        coordinates the first ceil(n^2/2) row-major entries
    orthogonal: the orthogonal group SO(n) (dimension n(n - 1)/2), where
        chains of orthogonal factors lie; coordinates the strictly upper
        entries of P^T dP at the base product P
    """
    if not isinstance(tag, str) or tag not in _SPACES:
        raise ParameterRangeError(f"unknown target tag {tag!r}")
    return _SPACES[tag].dim(fam.require_int("n", n, 1))


@dataclass(frozen=True)
class DecompositionProblem:
    """r structured families whose product should cover the target space
    tagged target (see target_dim)."""

    n: int
    factors: tuple
    target: str

    def __post_init__(self):
        target_dim(self.target, self.n)
        object.__setattr__(self, "n", int(self.n))
        if len(self.factors) == 0:
            raise ParameterRangeError("a problem needs at least one factor family")
        for spec in self.factors:
            if spec.n != self.n:
                raise ParameterRangeError("all families must share the problem size n")

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def param_dim(self) -> int:
        return sum(spec.param_dim for spec in self.factors)

    @property
    def target_dim(self) -> int:
        return target_dim(self.target, self.n)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "families": [spec.label() for spec in self.factors],
            "target": self.target,
        }


def problem(families, n: int, target: str = TARGET_FULL) -> DecompositionProblem:
    """Convenience constructor: a chain of family tags or FamilySpecs at size n."""
    specs = tuple(fam.FamilySpec(f, n) if isinstance(f, str) else f for f in families)
    return DecompositionProblem(n=n, factors=specs, target=target)


@dataclass
class DominanceReport:
    """Jacobian ranks at up to `trials` random base points, in trial order,
    ending at the first rank equal to target_dim when one is reached."""

    problem: dict
    ranks: list
    target_dim: int
    tolerance: float
    seed: int

    @property
    def trials(self) -> int:
        """The number of trials that ran, one rank each."""
        return len(self.ranks)

    @property
    def d_estimate(self) -> int:
        """The dimension estimate: the largest rank seen."""
        return max(self.ranks)

    @property
    def dominant(self) -> bool:
        return self.d_estimate == self.target_dim


# ---------------------------------------------------------------------------
# products and differentials

def chain_product(factors) -> np.ndarray:
    """Left-to-right product of a nonempty list of conformable matrices,
    float64 when every factor is float64, else complex."""
    if len(factors) == 0:
        raise ParameterRangeError("empty factor chain")
    out = np.asarray(factors[0])
    for A in factors[1:]:
        A = np.asarray(A)
        if out.shape[1] != A.shape[0]:
            raise ParameterRangeError("factor shapes are not conformable")
        out = out @ A
    return np.asarray(out, dtype=fam._field(out))


def _prefixes_suffixes(base):
    """prefix[i] = A_1..A_i (prefix[0] = I), suffix[i] = A_{i+1}..A_r, in
    the base's number field."""
    n = base[0].shape[0]
    eye = np.eye(n, dtype=fam._field(*base))
    prefix = [eye]
    for A in base[:-1]:
        prefix.append(prefix[-1] @ A)
    suffix = [eye]
    for A in reversed(base[1:]):
        suffix.append(A @ suffix[-1])
    suffix.reverse()  # suffix[i] multiplies on the right of slot i+1
    return prefix, suffix


def jacobian(factors, frames) -> np.ndarray:
    """Jacobian of the product map at the base matrices A_1 .. A_r against
    one (d_i, n, n) tangent frame per slot (see tangent_basis).

    Column j is the vectorized image under the differential of the j-th
    frame direction (frames stacked slot by slot); row k is the k-th
    row-major entry of the product, all n^2 of them.

    The d columns of slot i, with prefix P and suffix S, are the rows
    vec(P X_j S) = (P kron S^T) vec(X_j) of one (d, n^2) block, built in two
    products without forming the Kronecker product: P times every frame
    matrix at once (one product broadcast over the (d, n, n) frame), then
    the (d n) x n stack of the P X_j times S.  Float64 factors and frames
    give a float64 Jacobian, any complex one a complex Jacobian.
    """
    if len(factors) == 0 or len(factors) != len(frames):
        raise ParameterRangeError("need a nonempty chain and one tangent frame per factor")
    prefix, suffix = _prefixes_suffixes(factors)
    n = len(factors[0])
    out = np.empty((sum(len(frame) for frame in frames), n * n), dtype=fam._field(*factors, *frames))
    row = 0
    for frame, P, S in zip(frames, prefix, suffix):
        d = len(frame)
        np.matmul((P @ frame).reshape(d * n, n), S, out=out[row:row + d].reshape(d * n, n))
        row += d
    return out.T


def _gram_full_rank(M: np.ndarray, rel_tol: float) -> bool:
    """Does a Cholesky factorization prove that every singular value of M
    lies above rel_tol times the largest?  No SVD is taken.

    M (float64 or complex128) is taken tall, p x m with p >= m (M and M^T
    share singular values).  Let 2^e bound the largest real or imaginary
    part of an entry, with that part in [2^(e-1), 2^e).  A is M itself when
    e lies in [-400, 400], and otherwise the copy 2^-e M, M scaled exactly
    (e is kept at least -1021, so a subnormal M scales to below 1/2, still
    far from underflow).  Either way A^H A (A^T A for a real M) cannot
    overflow, and what underflows lies far below the shift, which is
    relative to the trace: a power-of-two scale changes neither the shift
    nor the outcome.  With G = fl(A^H A) and u = eps / 2, the Cholesky
    factorization of

        G - s I,   s = (rel_tol^2 + 16 (p + m + 1) eps) trace(G),

    is tried.  The shift covers the rounding of both steps (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, chs. 3
    and 10), each bounded in the 2-norm by Cauchy-Schwarz over the columns:
    - the product: |G - A^H A| <= gamma_(p+2) |A|^H |A|, at most about
      (p + 2) u ||A||_F^2;
    - the factorization: one that completes gives R^H R = G - s I + E with
      |E| <= gamma_(m+1) |R^H| |R|, at most about (m + 1) u ||A||_F^2
      (subtracting s adds u per diagonal entry).
    These bounds count the same unit roundoff u in real and in complex
    arithmetic, so one shift serves both.  R^H R is positive semidefinite,
    so sigma_min(A)^2 is at least s less those terms, which 32 (p + m + 1) u
    covers with room: sigma_min^2 > rel_tol^2 ||A||_F^2 >= (rel_tol
    sigma_1)^2, with more than 4 (p + m + 1) eps sigma_1 to spare, far above
    an SVD's own rounding.  So True proves rank min(p, m) at rel_tol, and
    an empty M is vacuously of full rank.  False proves nothing: M may be
    deficient, ill-conditioned or zero, or rel_tol too near 1 for the
    Frobenius bound.

    Raises ParameterRangeError for a rel_tol outside (0, 1), NaN included
    (a Cholesky factorization does not fail on NaN), and
    DegeneratePointError for an M with a non-finite entry, which has no
    rank.
    """
    if not 0 < rel_tol < 1:
        raise ParameterRangeError(f"rank tolerance must lie in (0, 1), got {rel_tol}")
    if M.size == 0:
        return True
    ends = [float(end()) for X in ((M.real, M.imag) if np.iscomplexobj(M) else (M,))
            for end in (X.min, X.max)]
    if not all(map(math.isfinite, ends)):
        raise DegeneratePointError("matrix has a non-finite entry; its rank is undefined")
    top = max(map(abs, ends))
    if top == 0.0:
        return False
    if M.shape[0] < M.shape[1]:
        M = M.T
    p, m = M.shape
    e = math.frexp(top)[1]
    A = M if -400 <= e <= 400 else M * math.ldexp(1.0, -max(e, -1021))
    if np.iscomplexobj(A):
        # A^H A a block of rows at a time, conjugating a block of A's
        # columns rather than all of A
        G = np.empty((m, m), dtype=A.dtype)
        for i in range(0, m, _GRAM_BLOCK):
            np.matmul(A[:, i:i + _GRAM_BLOCK].conj().T, A, out=G[i:i + _GRAM_BLOCK])
    else:
        G = A.T @ A
    G.flat[::m + 1] -= (rel_tol ** 2 + 16 * (p + m + 1) * _EPS) * G.trace().real
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def numerical_rank(M, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol times the largest.

    Full rank is tried first without an SVD, by the shifted Gram-Cholesky
    test of _gram_full_rank.  When that does not settle it, the rank is
    the count of the singular-values-only SVD of M, so the rank is the same
    either way.  A real M is ranked in float64, whose rounding bound is the
    complex one: the rank of a real matrix over R is its rank over C.  A
    rel_tol outside (0, 1) is a ParameterRangeError, and a matrix with a
    non-finite entry has no rank (DegeneratePointError).
    """
    M = np.asarray(M)
    M = np.asarray(M, dtype=fam._field(M))
    if _gram_full_rank(M, rel_tol):
        return min(M.shape)
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def _trial_factors(prob: DecompositionProblem, seed: int, field):
    """The factors of one trial in field (float or complex) and their
    frames: one parameter vector per factor about its family's center,
    which fit_center draws from default_rng(seed) slot by slot, the members
    there and the frames at those parameters."""
    rng = np.random.default_rng(seed)
    params = [fam.fit_center(spec, rng, slot, field)
              for slot, spec in enumerate(prob.factors, start=1)]
    return ([fam.parameterize(spec, u) for spec, u in zip(prob.factors, params)],
            [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)])


def _chain_space(prob: DecompositionProblem) -> str:
    """The space every product of the chain lies in: the target space each
    family names (bounds_facts) when they all name the same one, else
    full.  Each named space is closed under products."""
    spaces = {fam.bounds_facts(spec)[0] for spec in prob.factors}
    return spaces.pop() if len(spaces) == 1 else TARGET_FULL


def _trial_jacobian(prob: DecompositionProblem, seed: int, field, space: str) -> np.ndarray:
    """The verdict Jacobian of one trial in field (float or complex), at
    the points of _trial_factors, in the coordinates of the target space
    tagged space: the space's row map applied to the factors and the
    Jacobian's n^2 rows.  Its rank is at most that of the Jacobian, so a
    full rank bounds the image dimension from below, while the space's
    dimension bounds it from above when the chain lies in the space."""
    factors, frames = _trial_factors(prob, seed, field)
    return _SPACES[space].rows(factors, jacobian(factors, frames))


def estimate_image_dimension(
    prob: DecompositionProblem,
    trials: int = DEFAULT_TRIALS,
    rel_tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
) -> DominanceReport:
    """Jacobian rank of the product map at up to `trials` random base points.

    The Jacobian is ranked in the coordinates of the space the chain lies
    in: the space its families all name (bounds_facts), or full.  When
    that space is the target, or the target is full, its rows are ranked,
    so a chain of orthogonal factors is ranked on the n(n - 1)/2
    coordinates of SO(n) even against the full target.  Otherwise the
    chain must lie in the target: the product at the first trial's point
    is checked against it (centrosymmetric, singular or orthogonal, within
    rel_tol), a chain whose product fails is refused with a
    ParameterRangeError, and the target's rows are ranked.  A row map only
    lowers a rank, and no rank exceeds the dimension of a space the chain
    lies in, so the rank in the coordinates is the rank of the Jacobian.

    Trial t takes its points about the family centers, which fit_center
    draws from default_rng(seed + t), the same source of good points a fit
    starts from (see _trial_jacobian); the rank at any one point is at most
    the generic rank, so any point will do.  When every family of the chain
    has real members at real parameters (real_points), the trial first
    draws real parameters, with members, frames and Jacobian in float64: a
    real point is a point of the complex parameter space, and a real matrix
    has the same rank over R as over C.  A real Jacobian that the
    Gram-Cholesky test proves of full rank (its rounding bound holds in
    real arithmetic) certifies that rank over C, at most min(rows, cols),
    and it is the trial's rank.  Otherwise the real point proves nothing:
    no real deficit is reported and no real SVD is taken, and the real
    arrays are freed before the trial draws complex parameters from a fresh
    default_rng(seed + t) and ranks the complex Jacobian there
    (numerical_rank).

    The trials stop at the first rank equal to the target dimension: that
    one point proves dominance, and no later trial can change the estimate
    or the verdict.  A deficient verdict runs all of them, since each
    deficit adds evidence.  So the report's ranks are the ranks of trials
    0 .. trials - 1 cut after the first full rank, fixed by the seed.  The
    dimension estimate is the maximum rank seen, and the chain
    is reported dominant when it reaches the target dimension.
    """
    trials = fam.require_int("trials", trials, 1)
    seed = fam.require_int("seed", seed, 0)
    real = all(spec.real_points for spec in prob.factors)
    space = _chain_space(prob)
    if prob.target not in (space, TARGET_FULL):
        factors, _frames = _trial_factors(prob, seed, float if real else complex)
        if not _SPACES[prob.target].holds(chain_product(factors), rel_tol):
            raise ParameterRangeError(
                f"the chain's products do not lie in the {prob.target} target space")
        space = prob.target
    ranks = []
    for t in range(trials):
        rank = None
        if real:
            J = _trial_jacobian(prob, seed + t, float, space)
            rank = min(J.shape) if _gram_full_rank(J, rel_tol) else None
            del J
        if rank is None:
            rank = numerical_rank(_trial_jacobian(prob, seed + t, complex, space), rel_tol)
        ranks.append(rank)
        if rank == prob.target_dim:
            break
    return DominanceReport(
        problem=prob.summary(),
        ranks=ranks,
        target_dim=prob.target_dim,
        tolerance=rel_tol,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# counting bounds

def lower_bound_linear(dims, target_dim: int) -> bool:
    """Necessary condition: the family dimensions must sum to at least the
    target dimension for the product map to dominate."""
    total = sum(fam.require_int(f"dims[{i}]", d, 0) for i, d in enumerate(dims))
    return total >= fam.require_int("target_dim", target_dim, 0)


def lower_bound_cone(m: int, target_dim: int) -> int:
    """Least r compatible with dominance for r cones of dimension m.

    Scaling one factor up and another down leaves the product fixed, so the
    fibers are at least (r-1)-dimensional and r m - (r - 1) >= target_dim is
    needed, i.e. r >= ceil((target_dim - 1) / (m - 1))."""
    m = fam.require_int("m", m, 2)
    target_dim = fam.require_int("target_dim", target_dim, 1)
    return max(1, math.ceil((target_dim - 1) / (m - 1)))


def surjectivity_bound(r: int) -> int:
    """If r factors from a linear family containing all diagonal matrices
    cover a dense subset, 4r + 1 factors cover everything."""
    return 4 * fam.require_int("r", r, 1) + 1


# ---------------------------------------------------------------------------
# reference table

# (n, r, d): image dimension of r-fold products of n x n skew-symmetric
# matrices.  For n = 2 every chain stays inside the scalar multiples of a
# single rank-2 matrix; odd n with odd r is capped by the determinant
# hypersurface; large even n reaches the full n^2.
SKEW_TABLE = (
    (2, 2, 1), (2, 3, 1), (2, 4, 1),
    (3, 3, 7), (3, 4, 8),
    (4, 3, 13), (4, 4, 15), (4, 5, 16),
    (5, 3, 24),
    (6, 3, 35), (6, 4, 36),
    (7, 3, 48),
    (8, 3, 64),
    (10, 3, 100),
)
