"""Rank certificates for products of structured matrix families.

The product map rho_r sends a tuple (A_1, ..., A_r) of family members to
A_1 * ... * A_r.  Its differential at a base tuple is

    d rho_r (X_1, ..., X_r) = sum_i A_1 .. A_{i-1} X_i A_{i+1} .. A_r,

and the image of rho_r fills out a d-dimensional set where d is the rank of
that differential at a generic base point.  Everything here reduces to
assembling the Jacobian of rho_r against the families' tangent frames and
reading off numerical ranks: a full-rank Jacobian at a single point
certifies that generic matrices of the target space admit the decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families as fam
from .errors import DegeneratePointError, ParameterRangeError

TARGET_FULL = "full"
TARGET_DET = "det"
TARGET_CENTRO = "centro"

DEFAULT_RANK_TOL = 1e-8
DEFAULT_TRIALS = 5
_EPS = float(np.finfo(float).eps)


# target tag -> dimension at size n
_TARGET_DIMS = {TARGET_FULL: lambda n: n * n, TARGET_DET: lambda n: n * n - 1,
                TARGET_CENTRO: lambda n: (n * n + 1) // 2}


def target_dim(tag: str, n: int) -> int:
    """Dimension of the ambient space a product is measured against, for a
    known tag and n >= 1.

    full: all n x n matrices (dimension n^2)
    det: the determinant hypersurface (dimension n^2 - 1); used for chains
        that are structurally confined to singular matrices, such as an odd
        number of odd-size skew-symmetric factors
    centro: the centrosymmetric matrices (dimension ceil(n^2/2)), with
        coordinates the first ceil(n^2/2) row-major entries
    """
    if not isinstance(tag, str) or tag not in _TARGET_DIMS:
        raise ParameterRangeError(f"unknown target tag {tag!r}")
    return _TARGET_DIMS[tag](fam.require_int("n", n, 1))


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
    share singular values).  A = 2^-e M, with max |A| in [1/2, 1), is M
    scaled exactly, and A^H A (A^T A for a real M) cannot overflow.  With
    G = fl(A^H A) and u = eps / 2, the Cholesky factorization of

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
    top = float(np.max(np.abs(M)))
    if not math.isfinite(top):
        raise DegeneratePointError("matrix has a non-finite entry; its rank is undefined")
    if top == 0.0:
        return False
    if M.shape[0] < M.shape[1]:
        M = M.T
    p, m = M.shape
    # 2^1021 is the largest scale a float holds with room; a subnormal top
    # then scales to below 1/2, still far from underflow
    A = M * math.ldexp(1.0, -max(math.frexp(top)[1], -1021))
    G = (A.conj().T if np.iscomplexobj(A) else A.T) @ A
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


def _trial_jacobian(prob: DecompositionProblem, seed: int, field) -> np.ndarray:
    """The verdict Jacobian of one trial in field (float or complex): one
    parameter vector per factor about its family's center, which fit_center
    draws from default_rng(seed) slot by slot, the members there, the
    frames at those parameters, and the rows cut to the target's
    coordinates (all n^2, or the first ceil(n^2/2) for centro)."""
    rng = np.random.default_rng(seed)
    params = [fam.fit_center(spec, rng, slot, field)
              for slot, spec in enumerate(prob.factors, start=1)]
    J = jacobian([fam.parameterize(spec, u) for spec, u in zip(prob.factors, params)],
                 [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)])
    return J[:prob.target_dim] if prob.target == TARGET_CENTRO else J


def estimate_image_dimension(
    prob: DecompositionProblem,
    trials: int = DEFAULT_TRIALS,
    rel_tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
) -> DominanceReport:
    """Jacobian rank of the product map at up to `trials` random base points.

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
    ranks = []
    for t in range(trials):
        rank = None
        if real:
            J = _trial_jacobian(prob, seed + t, float)
            rank = min(J.shape) if _gram_full_rank(J, rel_tol) else None
            del J
        if rank is None:
            rank = numerical_rank(_trial_jacobian(prob, seed + t, complex), rel_tol)
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
