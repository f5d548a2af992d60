"""Structured families of n x n complex matrices.

Each family is either a linear subspace given by a basis (band patterns,
triangles, Toeplitz variants, centrosymmetric matrices, seeded subspaces),
or the image of a smooth parameterization (complex orthogonal group,
companion matrices, generalized Vandermonde matrices).  The module
provides, uniformly over a FamilySpec (one family at one size n):

    param_dim          dimension of the parameter space, set on construction
    parameterize       params -> matrix
    tangent_basis      params -> the derivative of parameterize there
    fit_center         a reproducible point about the family's center,
                       where fits start and rank verdicts are taken
    sample_point       a reproducible random point (one Gaussian draw)
    is_member          tolerance-based membership test

Each family is one entry of the table _FAMILIES.  All linear families
share one path built on their basis; a nonlinear family brings its own
functions.

Tangent frames are what the dominance machinery and the fitter consume:
the product map's differential is taken against these frames.  A
nonlinear family's frame is the derivative of the parameterization (of
the Cayley map for the orthogonal group, per node for Vandermonde
families).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .companion import companion_matrix
from .errors import DegeneratePointError, ParameterRangeError

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


def is_integer(value) -> bool:
    """A Python or NumPy integer, and not a bool: the rule for the k and s
    arguments of a FamilySpec (a type may be negative).  Sizes, counts and
    seeds follow require_int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(name: str, value, least: int) -> int:
    """value as a Python int: an integer by is_integer, at least least."""
    if not is_integer(value):
        raise ParameterRangeError(f"{name}={value!r} is not an integer")
    if value < least:
        raise ParameterRangeError(f"{name}={value} must be at least {least}")
    return int(value)


@dataclass(frozen=True)
class FamilySpec:
    """A family of n x n matrices, checked on construction, which then sets
    param_dim and refuses a family without parameters at this n.

    k is the bandwidth for the k-diagonal families and the dimension for
    SUBSPACE; s is the type of a generalized Vandermonde family.  seed,
    which SUBSPACE alone takes and needs, draws its basis: the Householder
    Q of k vectorized complex Gaussian matrices from default_rng(seed),
    Frobenius-orthonormal (projection membership relies on that), kept as
    a read-only C-ordered (k, n, n) array.  basis derives from the seed, so
    specs compare and hash by what they draw.
    """

    tag: str
    n: int
    k: int | None = None
    s: int | None = None
    seed: int | None = None
    basis: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    param_dim: int = field(init=False)

    def __post_init__(self):
        entry = _family(self.tag)
        arg = entry.arg
        for name, value in (("k", self.k), ("s", self.s)):
            if value is not None and arg is None:
                raise ParameterRangeError(f"family {self.tag!r} takes no argument")
            if value is not None and (name != arg or not is_integer(value)):
                raise ParameterRangeError(f"{name}={value!r} is not an integer argument of {self.tag!r}")
        if arg is not None and getattr(self, arg) is None:
            raise ParameterRangeError(f"family {self.tag!r} needs an argument {arg}")
        if self.tag != SUBSPACE and self.seed is not None:
            raise ParameterRangeError(f"family {self.tag!r} takes no seed")
        object.__setattr__(self, "n", require_int("n", self.n, 1))
        if self.tag == SUBSPACE:
            require_int("seed", self.seed, 0)
            n, k = self.n, self.k
            if not 1 <= k <= n * n:
                raise ParameterRangeError(f"subspace dimension k={k} out of range 1..{n * n}")
            X = complex_gaussian(np.random.default_rng(self.seed), n * n * k).reshape(n * n, k)
            Q = np.linalg.qr(X)[0]
            object.__setattr__(self, "basis", _frozen(np.ascontiguousarray(Q.T.reshape(k, n, n))))
        d = entry.dimension(self) if entry.grid is None else int(np.abs(_grid(self.tag, self.n, self.k)).max())
        if d == 0:
            raise ParameterRangeError(f"family {self.label()} has no parameters at n={self.n}")
        object.__setattr__(self, "param_dim", d)

    def label(self) -> str:
        arg = _family(self.tag).arg
        return f"{self.tag}({getattr(self, arg)})" if arg else self.tag

    @property
    def linear(self) -> bool:
        """Whether the family is a linear subspace, so a cone: scaling a
        member's parameters scales the member."""
        return _family(self.tag).parameterize is None

    @property
    def real_points(self) -> bool:
        """Whether float64 parameters give a float64 member (False for the
        Vandermonde families and a random subspace, whose members are
        complex)."""
        return _family(self.tag).real


def spec_from_argument(tag: str, arg: int | None, n: int, rng_seed=0) -> FamilySpec:
    """The family a token tag[:arg] names at size n: arg is the bandwidth of
    a banded family, the type of a Vandermonde family (0 when omitted), or
    the dimension of a random subspace of the n x n matrices drawn from
    rng_seed."""
    name = _family(tag).arg or "k"  # FamilySpec rejects a k the tag does not take
    seed = {"seed": rng_seed} if tag == SUBSPACE else {}
    return FamilySpec(tag, n, **{name: 0 if arg is None and name == "s" else arg}, **seed)


# ---------------------------------------------------------------------------
# bases

def exchange_matrix(n: int) -> np.ndarray:
    """The anti-identity J (ones on the anti-diagonal)."""
    return np.eye(n, dtype=complex)[::-1].copy()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _grid(tag: str, n: int, k):
    """The basis of a structured linear family as one read-only n x n
    integer array: entry (i, j) is +-(l + 1) where basis matrix l holds +-1,
    and 0 where every basis matrix vanishes.  The supports are disjoint, so
    one array holds the whole basis."""
    entry = _family(tag)
    if entry.grid is None:
        raise ParameterRangeError(f"not a structured linear family: {tag!r}")
    if entry.arg == "k" and (k is None or not 1 <= k <= n):
        raise ParameterRangeError(f"bandwidth k={k} out of range 1..{n}")
    i, j = np.indices((n, n))
    return _frozen(entry.grid(i, j, n, k))


def _pattern(mask: np.ndarray) -> np.ndarray:
    """Grid of the unit matrices on the True positions of mask, in
    row-major order."""
    return np.where(mask, np.cumsum(mask).reshape(mask.shape), 0)


def _skew_grid(i, j, n, k):
    upper = _pattern(i < j)
    return upper - upper.T


_REAL, _COMPLEX = np.dtype(float), np.dtype(complex)


def _field(*arrays) -> np.dtype:
    """The number field the arrays live in: float64 when every one is
    float64, else complex128."""
    for a in arrays:
        if a.dtype != _REAL:
            return _COMPLEX
    return _REAL


@lru_cache(maxsize=None)
def _cached_basis(tag: str, n: int, k, dtype: np.dtype):
    """Basis of a structured linear family, in parameter order, as a
    read-only (d, n, n) array of dtype (float64 or complex128; its entries
    are 0 and +-1, so the two hold the same numbers)."""
    grid = _grid(tag, n, k).reshape(-1)
    pos = np.flatnonzero(grid)
    basis = np.zeros((int(np.abs(grid).max()), n * n), dtype=dtype)
    basis[np.abs(grid[pos]) - 1, pos] = np.sign(grid[pos])
    return _frozen(basis.reshape(-1, n, n))


def _basis(spec: FamilySpec, dtype: np.dtype = _COMPLEX) -> np.ndarray:
    """The basis of a linear family in dtype; a random subspace's basis is
    complex whatever dtype asks."""
    return spec.basis if spec.basis is not None else _cached_basis(spec.tag, spec.n, spec.k, dtype)


def _combine(params: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_l params[l] basis[l] for a (d, n, n) basis, as one (1, d) by
    (d, n^2) matrix product: the BLAS call a tensor contraction over the
    first axis makes, without its per-call shape bookkeeping."""
    d, n, _ = basis.shape
    return np.dot(params.reshape(1, -1), basis.reshape(d, n * n)).reshape(n, n)


def linear_basis(spec: FamilySpec) -> np.ndarray:
    """Basis matrices of a linear family, in parameter order, as a (d, n, n)
    array."""
    if not spec.linear:
        raise ParameterRangeError(f"family {spec.tag!r} is not linear")
    return _basis(spec)


# ---------------------------------------------------------------------------
# nonlinear families

def _powers(nodes: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Entry (p, q) is nodes[q]^exps[p]."""
    if np.any(exps < 0) and np.any(nodes == 0):
        raise DegeneratePointError("zero node with a negative exponent")
    return np.power(nodes[None, :], exps[:, None])


def vand(n: int, s: int, nodes) -> np.ndarray:
    """Generalized Vandermonde matrix: entry (p, q) is x_q^(s+p-1) for
    p, q = 1 .. n."""
    nodes = np.asarray(nodes, dtype=complex).reshape(-1)
    if nodes.size != n:
        raise ParameterRangeError(f"need {n} nodes, got {nodes.size}")
    return _powers(nodes, s + np.arange(n))


def require_distinct_nodes(nodes, tol: float):
    """Raise DegeneratePointError when two nodes lie within tol of each
    other."""
    nodes = np.asarray(nodes, dtype=complex)
    gaps = np.abs(nodes[:, None] - nodes[None, :])[np.triu_indices(nodes.size, 1)]
    if np.any(gaps <= tol):
        raise DegeneratePointError("repeated Vandermonde nodes")


def _vand_tangent(n: int, s: int, nodes) -> np.ndarray:
    """Per-node derivative matrices as one (n, n, n) stack: column q of the
    q-th matrix is d/dx_q of (x_q^(s+p-1)), that is e x_q^(e-1) for the
    exponent e = s+p-1, and 0 in the rows where e = 0."""
    nodes = np.asarray(nodes, dtype=complex)
    scale = float(np.max(np.abs(nodes))) if nodes.size else 0.0
    require_distinct_nodes(nodes, 1e-12 * (1.0 + scale))
    exps = s + np.arange(n)
    cols = exps[:, None] * _powers(nodes, np.where(exps == 0, 0, exps - 1))
    if np.any(np.max(np.abs(cols), axis=0) == 0.0):
        raise DegeneratePointError("tangent column vanishes at this node")
    frame = np.zeros((n, n, n), dtype=complex)
    frame[np.arange(n), :, np.arange(n)] = cols.T
    return frame


# orient maps a Vandermonde matrix (rows are powers), or a stack of them, to
# family members and back: the identity, or the transpose for vandermonde-t

def _vand_member(orient, spec: FamilySpec, M, tol: float) -> bool:
    n, s = spec.n, spec.s
    V = orient(M)
    if n == 1:  # type 0 has no parameters at n = 1; a negative power is never 0
        return s > 0 or abs(V[0, 0]) > 0.0
    # a node is x = V[1] / V[0]; only an exact zero top entry x^s reads as the
    # node 0, so a tiny nonzero node of a high type s (|x|^s far below 1e-14)
    # is read as itself
    nodes = np.divide(V[1], V[0], out=np.zeros(n, dtype=complex), where=V[0] != 0)
    try:
        rebuilt = vand(n, s, nodes)
    except DegeneratePointError:
        return False
    return float(np.max(np.abs(V - rebuilt))) <= tol * (1.0 + float(np.linalg.norm(M)))


def _cayley_inverse(spec: FamilySpec, params) -> np.ndarray:
    """W = (I - S)^-1 for the skew-symmetric S with these parameters."""
    S = _combine(params, _cached_basis(SKEW_SYMMETRIC, spec.n, None, params.dtype))
    try:
        return np.linalg.inv(np.eye(spec.n) - S)
    except np.linalg.LinAlgError:
        raise DegeneratePointError("I - S is singular: the Cayley map has no value here") from None


def _orthogonal_matrix(spec: FamilySpec, params) -> np.ndarray:
    """Cayley map Q = (I - S)^-1 (I + S) = 2W - I of the skew-symmetric S
    with the same parameters; u = 0 gives Q = I exactly.

    Its image is the orthogonal matrices of determinant 1 with no
    eigenvalue -1, an open dense subset of SO(n, C), so every generic
    statement about the group holds.  A lone orthogonal factor reaches a
    target with eigenvalue -1, such as -I, only as a limit."""
    return 2 * _cayley_inverse(spec, params) - np.eye(spec.n)


def _orthogonal_frame(spec: FamilySpec, params):
    """dQ/du_j = 2 W E_j W for the skew basis E."""
    W = _cayley_inverse(spec, params)
    return 2 * (W @ _cached_basis(SKEW_SYMMETRIC, spec.n, None, params.dtype) @ W)


def is_orthogonal(M, tol: float) -> bool:
    """Does the square M satisfy M^T M = I, within max |M^T M - I| <= tol *
    (1 + ||M||_F)^2?  The membership test of the orthogonal group."""
    resid = M.T @ M - np.eye(len(M))
    return float(np.max(np.abs(resid))) <= tol * (1.0 + float(np.linalg.norm(M))) ** 2


def _companion_frame(spec: FamilySpec, params):
    n = spec.n
    frame = np.zeros((n, n, n), dtype=params.dtype)
    frame[:, :, n - 1] = np.eye(n)
    return frame


def _companion_member(spec: FamilySpec, M, tol: float) -> bool:
    scale = tol * (1.0 + float(np.linalg.norm(M)))
    return float(np.max(np.abs(M - companion_matrix(M[:, spec.n - 1])))) <= scale


# ---------------------------------------------------------------------------
# core operations

def _parameter_vector(spec: FamilySpec, params) -> np.ndarray:
    """params as a vector of the family's parameter count: float64 when
    they are float64, else complex."""
    params = np.asarray(params)
    params = np.asarray(params, dtype=_field(params)).reshape(-1)
    if params.size != spec.param_dim:
        raise ParameterRangeError(
            f"expected {spec.param_dim} parameters for {spec.label()} (n={spec.n}), got {params.size}")
    return params


def parameterize(spec: FamilySpec, params) -> np.ndarray:
    """Map a parameter vector to a matrix of the family.  Float64
    parameters give a float64 matrix, except in the families whose members
    are complex (real_points is False)."""
    params = _parameter_vector(spec, params)
    own = _FAMILIES[spec.tag].parameterize
    if own is not None:
        return own(spec, params)
    return _combine(params, _basis(spec, params.dtype))


def tangent_basis(spec: FamilySpec, params) -> np.ndarray:
    """Read-only (d, n, n) tangent frame of the family at a parameter
    vector: the derivative of the parameterization, so finite differences
    of parameterize converge to these matrices.  For linear families it is
    the fixed basis.  Float64 parameters give a float64 frame, except in the
    families whose members are complex, as for parameterize."""
    params = _parameter_vector(spec, params)
    own = _FAMILIES[spec.tag].tangent
    return _basis(spec, params.dtype) if own is None else _frozen(own(spec, params))


def complex_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard complex Gaussian vector: independent standard-normal real
    and imaginary parts."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def sample_point(spec: FamilySpec, rng_seed=0):
    """Draw (params, matrix): one vector of i.i.d. standard complex Gaussian
    parameters from default_rng(rng_seed), and its parameterization; this is
    what the `sample` command prints.  Such a point is generic with
    probability one, so nothing is redrawn; a member whose entries overflow
    (a Vandermonde type far from 0) raises DegeneratePointError.  Fits and
    rank verdicts take their points from fit_center instead.  rng_seed is a
    non-negative integer, as a subspace seed is."""
    rng = np.random.default_rng(require_int("rng_seed", rng_seed, 0))
    params = complex_gaussian(rng, spec.param_dim)
    M = parameterize(spec, params)
    if not np.isfinite(M).all():
        raise DegeneratePointError("sampled member has a non-finite entry")
    return params, M


def is_member(spec: FamilySpec, M, tol: float) -> bool:
    """Does M belong to the family, within tol?

    For a linear family, the Frobenius norm of the residual of the
    orthogonal projection of M onto the span of the basis must be at most
    tol * (1 + ||M||_F).  The complex orthogonal group needs
    max |M^T M - I| <= tol * (1 + ||M||_F)^2, and the template families
    (companion, generalized Vandermonde) are checked entrywise against a
    template rebuilt from M.  Returns False rather than raising on ill-posed
    fits, and for an M whose Frobenius norm is not finite (a non-finite
    entry, or an overflow that would pass every tolerance).
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (spec.n, spec.n):
        return False
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if not np.isfinite(norm):
        return False
    own = _FAMILIES[spec.tag].member
    if own is not None:
        return own(spec, M, tol)
    B = _basis(spec).reshape(-1, spec.n * spec.n)
    resid = M.reshape(-1) - B.T @ coordinates_of(spec, M)
    return float(np.linalg.norm(resid)) <= tol * (1.0 + norm)


def coordinates_of(spec: FamilySpec, M) -> np.ndarray:
    """Coordinates of the orthogonal projection of M onto a linear family,
    the projection is_member measures: <B_l, M> / <B_l, B_l> for each basis
    matrix B_l, which are orthogonal (disjoint supports, or an orthonormal
    subspace).  Both products avoid a conjugated copy of the basis."""
    B = linear_basis(spec).reshape(-1, spec.n * spec.n)
    re_im = B.view(float)
    v = np.asarray(M, dtype=complex).reshape(-1)
    return (B @ v.conj()).conj() / np.einsum("ij,ij->i", re_im, re_im)


@lru_cache(maxsize=None)
def identity_coordinates(spec: FamilySpec, exchange: bool = False) -> np.ndarray:
    """Read-only coordinates of the identity, or of the exchange matrix J
    when exchange, in a linear family that contains it: its projection,
    exact 0s and 1s, cached per spec."""
    M = exchange_matrix(spec.n) if exchange else np.eye(spec.n, dtype=complex)
    return _frozen(coordinates_of(spec, M))


def _gaussian(rng: np.random.Generator, size: int, field) -> np.ndarray:
    """A standard Gaussian vector in field (float or complex, as a type or a
    dtype): real, or complex_gaussian."""
    return rng.standard_normal(size) if field == _REAL else complex_gaussian(rng, size)


def fit_center(spec: FamilySpec, rng: np.random.Generator, slot: int, field=complex) -> np.ndarray:
    """Parameters about the family's center for factor `slot` (1-based) of
    a chain: the center perturbed by a Gaussian of param_dim entries drawn
    from rng in field, complex or float.  Symmetric Toeplitz centers at
    n >= 2 draw one more entry in field.  Vandermonde centers draw n more
    real ones, the phases of nodes of modulus 1 about the roots of unity,
    and are complex in either field; every other center is float64 in the
    float field.  This is the one source of points for fits, which start
    from complex centers, and for rank verdicts, which try real centers
    first and complex ones after: near the centers the Jacobian is far
    better conditioned than at Gaussian parameters."""
    return _FAMILIES[spec.tag].center(spec, _gaussian(rng, spec.param_dim, field), rng, slot)


def bounds_facts(spec: FamilySpec):
    """(target tag, generic count) for dimension-count reports: the target
    space chains of this family lie in and are measured against, and the
    least chain length known to reach a generic target (None when none is
    known)."""
    entry = _family(spec.tag)
    return entry.target(spec.n), entry.generic_r(spec.n)


# ---------------------------------------------------------------------------
# fit centers: (spec, g, rng, slot) -> parameters in g's field, g a Gaussian
# of param_dim

def _in_field(coords: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The complex coordinates of a structured family's center (real
    numbers) in g's field."""
    return coords.real if g.dtype == _REAL else coords


def _identity_center(spec, g, rng, slot):
    return _in_field(identity_coordinates(spec), g) + 0.1 * g


def _exchange_center(spec, g, rng, slot):
    return _in_field(identity_coordinates(spec, True), g) + 0.1 * g


def _first_parameter_center(spec, g, rng, slot):
    """The companion center: the first parameter point, the cycle matrix,
    plus a small perturbation."""
    u = 0.1 * g
    u[0] += 1.0
    return u


def _toeplitz_sym_center(spec, g, rng, slot):
    n = spec.n
    if n < 2:
        return _identity_center(spec, g, rng, slot)
    # identity plus one excited mode, the classic full-rank points
    u = np.zeros(spec.param_dim, dtype=g.dtype)
    u[0] = 1.0
    u[n - 1 - ((slot - 1) % (n - 1))] = _gaussian(rng, 1, g.dtype)[0]
    return u


def _vandermonde_center(spec, g, rng, slot):
    """The n-th roots of unity w^k, each turned by a small phase: nodes of
    modulus 1, whose powers cannot overflow at any type."""
    n = spec.n
    w = np.exp(-2j * np.pi * np.arange(1, n + 1) / n)
    return w * np.exp(0.1j * rng.standard_normal(n))


# ---------------------------------------------------------------------------
# the family table

class _Family(NamedTuple):
    """Everything specific to one family tag.  A structured linear family
    gives grid: (i, j, n, k) -> the array of _grid, for i, j = np.indices((n, n)).
    A nonlinear family gives dimension (spec -> parameter count),
    parameterize, tangent ((spec, params) -> the (d, n, n) frame alone, at
    parameters tangent_basis has checked) and member.  target (a dominance
    target tag: a space closed under products that holds every member, so
    every chain of the family lies in it) and generic_r are functions of
    n.  real is False where float64 parameters still give a complex
    member."""

    arg: str | None = None  # "k" or "s": the argument the tag takes
    grid: Callable | None = None
    dimension: Callable | None = None
    parameterize: Callable | None = None
    tangent: Callable | None = None
    member: Callable | None = None
    center: Callable = _identity_center
    target: Callable = lambda n: "full"
    generic_r: Callable = lambda n: None
    real: bool = True


def _vandermonde_family(orient) -> _Family:
    # at n = 1 type 0 has one member, [[1]], and no parameters
    return _Family(
        arg="s", dimension=lambda spec: 0 if spec.n == 1 and spec.s == 0 else spec.n,
        parameterize=lambda spec, params: orient(vand(spec.n, spec.s, params)),
        tangent=lambda spec, params: orient(_vand_tangent(spec.n, spec.s, params)),
        member=partial(_vand_member, orient),
        center=_vandermonde_center, generic_r=lambda n: 2 * n, real=False)


_FAMILIES = {
    DIAGONAL: _Family(grid=lambda i, j, n, k: _pattern(i == j)),
    BIDIAGONAL_UPPER: _Family(grid=lambda i, j, n, k: _pattern((j - i == 0) | (j - i == 1))),
    BIDIAGONAL_LOWER: _Family(grid=lambda i, j, n, k: _pattern((i - j == 0) | (i - j == 1))),
    # measured (n = 2..9): n - 1 tridiagonal factors reach a generic target
    # and, from n = 3, n - 2 do not
    BIDIAGONAL: _Family(grid=lambda i, j, n, k: _pattern(abs(j - i) <= 1),
                        generic_r=lambda n: max(1, n - 1)),
    K_DIAGONAL: _Family(arg="k", grid=lambda i, j, n, k: _pattern(abs(j - i) <= k - 1)),
    K_DIAGONAL_UPPER: _Family(arg="k",
                              grid=lambda i, j, n, k: _pattern((0 <= j - i) & (j - i <= k - 1))),
    K_DIAGONAL_LOWER: _Family(arg="k",
                              grid=lambda i, j, n, k: _pattern((0 <= i - j) & (i - j <= k - 1))),
    TRIANGULAR_UPPER: _Family(grid=lambda i, j, n, k: _pattern(i <= j)),
    TRIANGULAR_LOWER: _Family(grid=lambda i, j, n, k: _pattern(i >= j)),
    # 1-based: entries vanish below (top) or above (bottom) the anti-diagonal
    ANTI_TRIANGULAR_TOP: _Family(grid=lambda i, j, n, k: _pattern(i + j <= n - 1),
                                 center=_exchange_center),
    ANTI_TRIANGULAR_BOTTOM: _Family(grid=lambda i, j, n, k: _pattern(i + j >= n - 1),
                                    center=_exchange_center),
    # an odd number of odd-size skew factors is singular
    SKEW_SYMMETRIC: _Family(grid=_skew_grid, center=lambda spec, g, rng, slot: g,
                            target=lambda n: "det" if n % 2 else "full",
                            generic_r=lambda n: 3 if n >= 8 and n % 2 == 0 else None),
    TOEPLITZ: _Family(grid=lambda i, j, n, k: j - i + n),
    # S_0 is the identity; S_d has ones on the +d and -d diagonals
    SYMMETRIC_TOEPLITZ: _Family(grid=lambda i, j, n, k: abs(j - i) + 1,
                                center=_toeplitz_sym_center, target=lambda n: "centro",
                                generic_r=lambda n: n // 2 + 1),
    # J S_d for the exchange matrix J and the symmetric Toeplitz S_d
    PERSYMMETRIC_HANKEL: _Family(grid=lambda i, j, n, k: abs(i + j - (n - 1)) + 1,
                                 center=_exchange_center, target=lambda n: "centro",
                                 generic_r=lambda n: n // 2 + 1),
    # one matrix per 180-degree-rotation orbit, numbered by the orbit's
    # first row-major position, which aligns the parameter order with the
    # centrosymmetric coordinate convention
    CENTROSYMMETRIC: _Family(
        grid=lambda i, j, n, k: np.minimum(i * n + j, n * n - 1 - (i * n + j)) + 1),
    SUBSPACE: _Family(arg="k", dimension=lambda spec: spec.k, center=lambda spec, g, rng, slot: g,
                      real=False),
    ORTHOGONAL: _Family(dimension=lambda spec: spec.n * (spec.n - 1) // 2,
                        parameterize=_orthogonal_matrix, tangent=_orthogonal_frame,
                        member=lambda spec, M, tol: is_orthogonal(M, tol),
                        center=lambda spec, g, rng, slot: 0.1 * g,
                        # the Cayley image lies in SO(n), which is closed under products
                        target=lambda n: "orthogonal"),
    COMPANION: _Family(dimension=lambda spec: spec.n,
                       parameterize=lambda spec, params: companion_matrix(params),
                       tangent=_companion_frame, member=_companion_member,
                       center=_first_parameter_center, generic_r=lambda n: n),
    VANDERMONDE: _vandermonde_family(lambda V: V),
    VANDERMONDE_T: _vandermonde_family(lambda V: np.swapaxes(V, -1, -2).copy()),
}

ALL_TAGS = frozenset(_FAMILIES)


def _family(tag) -> _Family:
    entry = _FAMILIES.get(tag) if isinstance(tag, str) else None
    if entry is None:
        raise ParameterRangeError(f"unknown family tag {tag!r}")
    return entry
