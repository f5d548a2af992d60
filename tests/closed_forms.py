"""Closed forms and oracles that two test files share.

They restate results of the paper (the two-factor tangent criterion, the
reduced Vandermonde block determinant), the band pattern of a linear
family, and a tangent frame read off a member matrix alone, so the tests
can check matchain against them; matchain itself never calls them.  One
helper, gaussian_point, draws test points from a running generator.
"""

import numpy as np

import matchain.dominance as dom
import matchain.families as fam
import matchain.vandermonde as vm


def pattern_mask(tag, n, k=None):
    """Positions where some basis matrix of a structured linear family is
    nonzero."""
    return fam._grid(tag, n, k) != 0


def gaussian_point(spec, rng):
    """(params, member) for one complex Gaussian parameter vector drawn from
    the generator rng: the draw families.sample_point makes from a seed,
    taken from a stream that several points share."""
    params = fam.complex_gaussian(rng, spec.param_dim)
    return params, fam.parameterize(spec, params)


def span_frame(spec, M):
    """A frame spanning the family's tangent space at a member matrix M,
    read off M alone: Q E over the skew-symmetric basis E at an orthogonal
    Q, the per-node derivatives at the nodes read back as V[1] / V[0] (rows
    are powers, n >= 2) for a Vandermonde family, and the fixed frame of
    every other family, which does not depend on the point."""
    n = spec.n
    if spec.tag == "orthogonal":
        return M @ fam.linear_basis(fam.FamilySpec("skew-symmetric", n))
    if spec.tag in ("vandermonde", "vandermonde-t"):
        V = M if spec.tag == "vandermonde" else M.T
        nodes = np.divide(V[1], V[0], out=np.zeros(n, dtype=complex), where=V[0] != 0)
        return fam.tangent_basis(spec, nodes)
    return fam.tangent_basis(spec, np.zeros(spec.param_dim, dtype=complex))


def two_factor_tangent_test(spec1, spec2, base):
    """Do the tangent spaces of two families at given base parameters
    jointly span the full matrix space?

    The test stacks both tangent frames as columns and checks for rank n^2
    at DEFAULT_RANK_TOL.  At the parameters of (I, I) this is exactly the
    rank of the two-factor product map's differential, the classical
    certificate that generic matrices factor through the pair; at other
    common base points (such as the anti-identity) it is the tangent-sum
    criterion itself.
    """
    n = spec1.n
    B = np.concatenate([fam.tangent_basis(spec, pt).reshape(-1, n * n)
                        for spec, pt in zip((spec1, spec2), base)])
    return dom.numerical_rank(B.T) == n * n


def det_tilde(n, s, p, alphas):
    """Determinant of the reduced block for the types s at size n, directly
    and in closed form.

    The reduced block replaces row p of the node-power matrix
    (w^{-(a-1) s_j})_{a,j} with (alpha_j w^{-(p-1) s_j})_j.  Its determinant
    equals (V / n) * sum(alpha_j) where V is the Vandermonde determinant of
    the nodes w^{-s_j}, independently of p.  Returns (direct, formula).
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    w = vm.unit_root(n)
    nodes = np.array([w ** (-sj) for sj in s])
    fam.require_distinct_nodes(nodes, 1e-12)
    M = fam.vand(n, 0, nodes)
    M[p - 1, :] = alphas * nodes ** (p - 1)
    direct = complex(np.linalg.det(M))
    V = complex(np.prod([nodes[b] - nodes[a] for a in range(n) for b in range(a + 1, n)]))
    formula = V / n * complex(np.sum(alphas))
    return direct, formula
