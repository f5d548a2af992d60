"""Numerical decomposition of a concrete matrix into structured factors.

fit_chain runs a Levenberg-damped Gauss-Newton iteration on the stacked
factor parameters, minimizing || A_1(u_1) .. A_r(u_r) - T ||_F.  The
residual is holomorphic in the parameters, so the step uses the plain
complex Jacobian with conjugate transposes.  A damping trial solves the
damped normal equations with the Gram matrix of J's smaller side, formed at
most once per Jacobian, wherever the damping bounds their conditioning so
that the solve's rounding bound is at most GRAM_TOL; every other trial is
one Householder QR of the damped least-squares problem (_damped_step).
Each restart's first damping is Marquardt's diagonal scale, the largest
squared column norm of its first Jacobian, and the damping then follows the
gain ratio of actual to predicted decrease (Nielsen 1999).  For a chain of
cones the first damping and the damping ceiling scale with the target as
the squared Jacobian does, so a fit of c T retraces the fit of T.  Restarts
draw fresh initial chains from per-restart seeds and the best residual
wins.

decompose_bidiagonal builds its factors by LU without pivoting
(companion.lu_nopivot) and Neville elimination of each triangle, with no
fitting; these constructions and the companion one also start fit_chain.
decompose_centrosymmetric fits a chain of symmetric Toeplitz factors; a
chain of persymmetric Hankel factors, like every other chain, is fitted by
fit_chain itself, which refuses a target outside the chain's space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import families as fam
from .companion import PIVOT_TOL, STATUS_UNIQUE, as_target, decompose_companion, lu_nopivot
from .dominance import (
    _SPACES,
    DecompositionProblem,
    chain_product,
    chain_space,
    jacobian,
    problem,
)
from .errors import (
    DegeneratePointError,
    InfeasibleProblemError,
    NonGenericMatrixError,
    NonMemberError,
    ParameterRangeError,
)

RESIDUAL_TOL = 1e-8
DAMPING_FLOOR = 1e-12
DAMPING_CEIL = 1e12
GRAM_TOL = 1e-6
_FLOAT_MAX = float(np.finfo(float).max)
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, least in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            fam.require_int(name, getattr(self, name), least)


@dataclass
class FactorChain:
    """A fitted chain: parameters, factor matrices, and the fit certificate.

    residual is relative: ||product - target||_F / max(1, ||target||_F),
    recomputable from factors and target alone.  converged means the
    residual is at most RESIDUAL_TOL.
    """

    problem: DecompositionProblem
    params: list
    factors: list
    residual: float
    iterations: int
    target: np.ndarray

    @property
    def converged(self) -> bool:
        return self.residual <= RESIDUAL_TOL

    def product(self) -> np.ndarray:
        return chain_product(self.factors)


def _initial_params(prob: DecompositionProblem, T: np.ndarray, rng: np.random.Generator):
    """One starting chain.  Family centers, then a common rescale so every
    factor's norm is about ||T||_F^(1/r)."""
    goal = max(float(np.linalg.norm(T)), 1e-2) ** (1.0 / prob.r)
    out = []
    for i, spec in enumerate(prob.factors, start=1):
        u = fam.fit_center(spec, rng, i)
        if spec.linear:
            # balance the factor norms; only linear families scale with
            # their coefficients, so leave the others at their centers
            A = fam.parameterize(spec, u)
            nrm = float(np.linalg.norm(A))
            if nrm > 0:
                u = u * (goal / nrm)
        out.append(u)
    return out


def _split(prob: DecompositionProblem, theta: np.ndarray):
    out = []
    pos = 0
    for spec in prob.factors:
        out.append(theta[pos:pos + spec.param_dim])
        pos += spec.param_dim
    return out


def _evaluate(prob: DecompositionProblem, theta: np.ndarray, tvec: np.ndarray):
    """The factors at the stacked parameters theta, and the residual vector
    of their product against the flattened target tvec."""
    factors = [fam.parameterize(spec, u) for spec, u in zip(prob.factors, _split(prob, theta))]
    return factors, chain_product(factors).reshape(-1) - tvec


def _gram(J):
    """G = K^H K, the k x k Gram matrix of K = J when J has no more columns
    than rows, else K = J^H (k the smaller side of J)."""
    return J @ J.conj().T if J.shape[0] < J.shape[1] else J.conj().T @ J


def _gram_admits(shape, trace, lam):
    """Whether a damping trial at lam may solve with the Gram matrix: its
    rounding bound (N + k) u (trace G + lam) / lam is at most GRAM_TOL, for
    J of the given shape, N its larger and k its smaller side, and u the
    unit roundoff.  (trace G + lam) / lam = (||J||_F^2 + lam) / lam bounds the
    condition number of G + lam I, and (N + k) u that number bounds the
    relative error of forming G and solving with it (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., chs. 3 and 10).  A
    non-finite or NaN trace is refused."""
    return sum(shape) * _UNIT_ROUNDOFF * (trace + lam) / lam <= GRAM_TOL


def _damped_step(J, res, lam, gram=None):
    """The Levenberg step delta solving (J^H J + lam I) delta = -J^H res.

    Given gram = _gram(J), and where _gram_admits the trial, one
    np.linalg.solve with G + lam I gives delta = -J^H y, (J J^H + lam I) y =
    res, when J has more columns than rows, else delta = -(G + lam I)^-1 J^H
    res.  Every other trial solves the least-squares problem of the smaller
    of two equivalent forms:
    [J; sqrt(lam) I] delta = [-res; 0] when J has no more columns than rows,
    else delta = -J^H y with [J^H; sqrt(lam) I] y = [0; res / sqrt(lam)].
    One QR of K = J or J^H with the right-hand side appended as its last
    column leaves Q^H b in the last column of R.  Back substitution on R
    runs in blocks of 64 columns, bottom block first: one np.linalg.solve
    on the triangular diagonal block (no row swaps) and one matvec that
    updates the rows above it.  The QR keeps the conditioning of J, the
    Gram solve squares it, which is why the damping must bound it; neither
    step's accuracy certifies a fit, whose trials are accepted only on a
    recomputed residual."""
    wide = J.shape[0] < J.shape[1]
    if gram is not None and _gram_admits(J.shape, float(np.trace(gram).real), lam):
        A = gram.copy()
        A.flat[::len(A) + 1] += lam
        if wide:
            return -(np.linalg.solve(A, res).conj() @ J).conj()
        return -np.linalg.solve(A, (res.conj() @ J).conj())
    K = J.conj().T if wide else J
    rows, k = K.shape
    root = np.sqrt(lam)
    A = np.zeros((rows + k, k + 1), dtype=complex)
    A[:rows, :k] = K
    A[rows + np.arange(k), np.arange(k)] = root
    if wide:
        A[rows:, k] = res / root
    else:
        A[:rows, k] = -res
    R = np.linalg.qr(A, mode="r")
    x = R[:k, k].copy()
    for hi in range(k, 0, -64):
        lo = max(hi - 64, 0)
        x[lo:hi] = np.linalg.solve(R[lo:hi, lo:hi], x[lo:hi])
        x[:lo] -= R[:lo, lo:hi] @ x[lo:hi]
    return -(K @ x) if wide else x


def fit_chain(T, prob: DecompositionProblem, opts: FitOptions | None = None,
              init_params=None) -> FactorChain:
    """Fit a chain of structured factors to the target matrix T.

    Gauss-Newton with multiplicative Levenberg damping: each trial step
    solves (J^H J + lambda I) delta = -J^H res (_damped_step).  The first
    trial of an iteration whose damping bounds the conditioning of the
    damped normal equations (_gram_admits) forms the Gram matrix of J
    (_gram), and it and every later trial of the iteration, whose damping
    only grows, solve with it; the other trials take one QR of the damped
    least-squares problem, whose conditioning is that of J.  The bound keeps
    the Gram steps within about GRAM_TOL of the QR ones, but correctness
    does not rest on it: a step is accepted only on its recomputed residual,
    and converged is read from that residual.
    Each restart starts its damping at max_j ||J e_j||^2, the largest
    squared column norm of its first Jacobian (Marquardt's scale with
    tau = 1; Madsen, Nielsen and Tingleff, IMM DTU 2004), and stops once
    the relative residual is at most RESIDUAL_TOL; a first Jacobian with no
    nonzero column or a non-finite entry ends the restart, as a degenerate
    one does.  A step is accepted only if
    it lowers the residual, and then damping is multiplied by
    max(1/3, 1 - (2 rho - 1)^3), rho the gain ratio of actual to predicted
    decrease (Nielsen, IMM-REP-1999-05, DTU 1999), floored at DAMPING_FLOOR;
    rejected trials multiply it by 2, 4, 8, ... within one iteration, and a
    restart is abandoned once it exceeds DAMPING_CEIL s without improvement.
    The ceiling scales with the target, s = max(1, ||T||_F)^(2 (r - 1) / r),
    because the Jacobian of a chain of r cones grows as ||T||^((r - 1) / r)
    and the damping is compared with its square; at unit scale s = 1.  The
    first damping of such a chain scales by the same s, so when ||T||_F
    and c are at least 1 the fit of c T retraces the fit of T, up to
    rounding and as long as the damping stays above DAMPING_FLOOR.  It
    is clamped to the largest float, since damping that reaches infinity
    would never pass an infinite ceiling and a stall would never end.
    Restart k draws its initial chain from seed + k, but restart 0 starts
    from init_params when given, else from an exact chain for T
    (_exact_start).  The best restart by residual (ties to the earlier one)
    is returned, and the fit stops at the first converged restart.

    Before any restart, a T outside the chain's space (chain_space; the fit
    never reads prob.target) raises NonMemberError, and too few parameters
    for the space's dimension InfeasibleProblemError, unless T lies in the
    chain's first family with identities after it.  The returned chain's
    problem is prob with that space as its target.
    """
    opts = opts or FitOptions()
    T = as_target(T)
    if T.shape[0] != prob.n:
        raise ParameterRangeError("target size does not match the problem")
    space = chain_space(prob.factors)
    if not _SPACES[space].member(T):
        raise NonMemberError(f"target does not lie in the {space} space of the chain's products")
    space_dim = _SPACES[space].dim(prob.n)
    feasible = prob.param_dim >= space_dim
    exact = None
    if init_params is None or not feasible:
        try:
            exact = _exact_start(prob, T)
        except NonGenericMatrixError:
            pass  # restart 0 draws its chain like the others
    if exact is None and not feasible:
        # too few parameters to reach a generic target, and no structural
        # shortcut puts this particular target inside the chain
        raise InfeasibleProblemError(
            f"{prob.param_dim} parameters cannot cover a {space_dim}-dimensional target")
    start = exact if init_params is None else init_params
    tscale = max(1.0, float(np.linalg.norm(T)))
    ceiling = min(DAMPING_CEIL * tscale ** (2 * (prob.r - 1) / prob.r), _FLOAT_MAX)
    tvec = T.reshape(-1)
    fitted = replace(prob, target=space)
    best = None
    for restart in range(opts.restarts):
        if restart == 0 and start is not None:
            params_list = [np.asarray(u, dtype=complex).reshape(-1) for u in start]
        else:
            params_list = _initial_params(prob, T, np.random.default_rng(opts.seed + restart))
        theta = np.concatenate(params_list)

        try:
            factors, res = _evaluate(prob, theta, tvec)
        except DegeneratePointError:
            continue
        res_norm = float(np.linalg.norm(res))
        lam = None
        iterations = 0
        for _ in range(opts.max_iterations):
            if res_norm / tscale <= RESIDUAL_TOL:
                break
            iterations += 1
            try:
                J = jacobian(factors, [fam.tangent_basis(spec, u)
                                       for spec, u in zip(prob.factors, _split(prob, theta))])
            except DegeneratePointError:
                break
            if lam is None:
                lam = float((np.abs(J) ** 2).sum(axis=0).max())
                if not 0.0 < lam < np.inf:
                    break  # a zero or non-finite first Jacobian
            gram, trace = None, float(np.linalg.norm(J)) ** 2
            grow = 2.0
            while lam <= ceiling:
                if gram is None and _gram_admits(J.shape, trace, lam):
                    gram = _gram(J)
                delta = _damped_step(J, res, lam, gram)
                cand = theta + delta
                try:
                    cand_factors, cand_res = _evaluate(prob, cand, tvec)
                    cand_norm = float(np.linalg.norm(cand_res))
                except DegeneratePointError:
                    cand_norm = np.inf  # rejected like a worse trial
                if cand_norm < res_norm:
                    # gain ratio rho, actual over predicted decrease: for this
                    # step the linear model's ||res||^2 - ||res + J delta||^2
                    # is ||J delta||^2 + 2 lam ||delta||^2, which cannot
                    # cancel.  Every rho >= 1 gives the factor 1/3.
                    pred = float(np.linalg.norm(J @ delta) ** 2 + 2.0 * lam * np.linalg.norm(delta) ** 2)
                    rho = min((res_norm ** 2 - cand_norm ** 2) / pred, 1.0)
                    theta, res, res_norm = cand, cand_res, cand_norm
                    factors = cand_factors
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), DAMPING_FLOOR)
                    break
                lam, grow = lam * grow, 2.0 * grow
            else:
                break  # stalled: damping passed the ceiling with no better trial
        rel = res_norm / tscale
        if best is None or rel < best.residual:
            best = FactorChain(
                problem=fitted,
                params=_split(prob, theta),
                factors=factors,
                residual=rel,
                iterations=iterations,
                target=T.copy(),
            )
        if best.converged:
            break
    if best is None:
        raise DegeneratePointError("every restart drew a degenerate initial chain")
    return best


# ---------------------------------------------------------------------------
# pipelines

def _neville(L, count: int):
    """Parameters of count >= n - 1 unit lower bidiagonal factors whose
    product is the unit lower triangular L, by Neville elimination: step j
    clears column j from the bottom up, row i losing m = A[i, j] / A[i-1, j]
    times row i-1 as it stood at the start of the step.  The elementary
    factors regroup into bidiagonal factor g = i - j (g = n-1 down to 1, left
    to right), entry (i, i-1), parameter 2i - 1; identities pad the rest."""
    n = L.shape[0]
    A = L.copy()
    out = np.zeros((count, 2 * n - 1), dtype=complex)
    out[:, ::2] = 1.0
    tol = PIVOT_TOL * float(np.linalg.norm(L))
    for j in range(n - 1):
        piv, below = A[j:n - 1, j], A[j + 1:, j]
        small = np.abs(piv) <= tol
        if np.any(small & (np.abs(below) > tol)):
            raise NonGenericMatrixError(f"Neville elimination breaks down in column {j + 1}")
        m = np.divide(below, piv, out=np.zeros(n - 1 - j, dtype=complex), where=~small)
        A[j + 1:, j:] -= m[:, None] * A[j:n - 1, j:]
        out[n - 1 - np.arange(1, n - j), 2 * np.arange(j + 1, n) - 1] = m
    return list(out)


def _exact_start(prob: DecompositionProblem, T: np.ndarray):
    """Parameters of an exact chain for T, else None.  First T followed by
    identities, when T lies in the first family and every later factor is a
    linear family that contains the identity: the only start a chain too
    short for a generic target can take.
    Else a chain the paper constructs: lower times upper triangular (LU), n
    companion factors, or a >= n - 1 lower then b >= max(n - 1, 1) upper
    bidiagonal factors.  For the last, T = L D V with V unit upper
    triangular; Neville elimination factors L, and V^T, whose factors
    transpose into upper ones in reverse order with the same parameter
    vectors; D joins the first upper factor.  Raises NonGenericMatrixError
    on a breakdown."""
    first, rest = prob.factors[0], prob.factors[1:]
    if (first.linear and fam.is_member(first, T, 1e-12)
            and all(spec.linear and fam.is_member(spec, np.eye(prob.n), 1e-12) for spec in rest)):
        return [fam.coordinates_of(first, T)] + [fam.identity_coordinates(spec) for spec in rest]
    n, tags = prob.n, [spec.tag for spec in prob.factors]
    if tags == [fam.TRIANGULAR_LOWER, fam.TRIANGULAR_UPPER]:
        L, U = lu_nopivot(T)
        return [L[np.tril_indices(n)], U[np.triu_indices(n)]]
    if tags == [fam.COMPANION] * n:
        result = decompose_companion(T)
        return result.coefficients if result.status == STATUS_UNIQUE else None
    a = tags.count(fam.BIDIAGONAL_LOWER)
    b = len(tags) - a
    if (tags != [fam.BIDIAGONAL_LOWER] * a + [fam.BIDIAGONAL_UPPER] * b
            or a < n - 1 or b < max(n - 1, 1)):
        return None
    L, U = lu_nopivot(T)
    d = np.diagonal(U)
    upper = _neville((U / d[:, None]).T, b)[::-1]
    upper[0][::2] *= d
    upper[0][1::2] *= d[:-1]
    return _neville(L, a) + upper


def decompose_bidiagonal(T, opts: FitOptions | None = None) -> FactorChain:
    """Write a generic matrix as a product of n lower then n upper
    bidiagonal factors, built by Neville elimination of its LU factors (no
    fitting).  fit_chain returns the built chain at iteration 0, or refines
    it when its residual is above tolerance.  Raises NonGenericMatrixError
    when either elimination breaks down."""
    n = as_target(T).shape[0]
    prob = problem([fam.BIDIAGONAL_LOWER] * n + [fam.BIDIAGONAL_UPPER] * n, n)
    return fit_chain(T, prob, opts, init_params=_exact_start(prob, T))


def decompose_centrosymmetric(T, opts: FitOptions | None = None,
                              r: int | None = None) -> FactorChain:
    """Fit a centrosymmetric matrix with a chain of r symmetric Toeplitz
    factors.

    The default chain length is floor(n/2) + 1, the least r with
    r n - (r - 1) >= ceil(n^2/2), below which r factors from the
    scaling-invariant n-dimensional family cannot reach a generic target
    (for odd n it equals floor((n+1)/2)); fit_chain refuses a T that is
    not centrosymmetric.  A persymmetric Hankel chain is fitted as a chain:
    fit_chain(T, problem(["hankel-persym"] * r, n))."""
    n = as_target(T).shape[0]
    if n < 3:
        raise ParameterRangeError("centrosymmetric pipeline needs n >= 3")
    r = fam.require_int("r", n // 2 + 1 if r is None else r, 1)
    return fit_chain(T, problem([fam.SYMMETRIC_TOEPLITZ] * r, n), opts)
