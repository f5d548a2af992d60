"""Acceptance sweep. One test and one printed PASS/FAIL line per criterion.

Every sub-check of a criterion runs to completion before the assertion, so
a failing criterion still reports all measured values.  The symmetric
Toeplitz factor count used by criteria 4, 9 and 10 is floor(n/2) + 1: a
chain of r factors from an m-dimensional scaling-invariant family spans at
most rm - (r - 1) tangent directions at any point, and for m = n and the
ceil(n^2/2)-dimensional centrosymmetric target that bound first allows
r = floor(n/2) + 1 (for odd n this equals floor((n+1)/2)).
"""

import numpy as np

import matchain.families as fam
import matchain.dominance as dom
import matchain.vandermonde as vm
from closed_forms import det_tilde, pattern_mask, two_factor_tangent_test
from matchain.companion import STATUS_UNIQUE, companion_matrix, decompose_companion
from matchain.solver import FitOptions, decompose_bidiagonal, fit_chain


def _finish(name, failures):
    if failures:
        print(f"ACCEPTANCE {name}: FAIL ({len(failures)} sub-checks)")
        for f in failures:
            print("   - " + f)
    else:
        print(f"ACCEPTANCE {name}: PASS")
    assert not failures, "\n".join(failures)


# 1. image dimensions of chains of skew-symmetric factors, exact integers
SKEW_EXPECTED = (
    (2, 2, 1), (2, 3, 1), (2, 4, 1),
    (3, 3, 7), (3, 4, 8),
    (4, 3, 13), (4, 4, 15), (4, 5, 16),
    (5, 3, 24),
    (6, 3, 35), (6, 4, 36),
    (7, 3, 48),
    (8, 3, 64),
    (10, 3, 100),
)


def test_criterion_01_skew_dimension_table():
    failures = []
    assert set(dom.SKEW_TABLE) == set(SKEW_EXPECTED)
    for n, r, want in SKEW_EXPECTED:
        got = dom.estimate_image_dimension(dom.problem([fam.SKEW_SYMMETRIC] * r, n), trials=5,
                                           rel_tol=1e-8, seed=0).d_estimate
        if got != want:
            failures.append(f"n={n} r={r}: dimension {got} != {want}")
    _finish("1 (skew-symmetric dimension table)", failures)


def test_criterion_02_companion_round_trip():
    failures = []
    for n in range(2, 11):
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(1000 * n + trial)
            A = fam.complex_gaussian(rng, n * n).reshape(n, n)
            res = decompose_companion(A)
            if res.status != STATUS_UNIQUE:
                failures.append(f"n={n} trial={trial}: status {res.status}")
                continue
            P = np.eye(n, dtype=complex)
            for c in res.coefficients:
                P = P @ companion_matrix(c)
            worst = max(worst, np.linalg.norm(P - A) / np.linalg.norm(A))
        if worst > 1e-10:
            failures.append(f"n={n}: worst relative residual {worst:.3e} > 1e-10")
        for trial in range(100):
            rng = np.random.default_rng(77 * n + trial)
            A = fam.complex_gaussian(rng, n * n).reshape(n, n)
            A[0, 0] = 0.0
            A[0, 1] = 1.0
            res = decompose_companion(A)
            if res.status == STATUS_UNIQUE or res.failed_column != 2:
                failures.append(
                    f"n={n} trial={trial}: counterexample gave {res.status} "
                    f"at column {res.failed_column}, expected failure at 2")
    _finish("2 (companion round-trip and counterexample)", failures)


def test_criterion_03_companion_dominance_at_the_shift():
    failures = []
    for n in range(2, 9):
        spec = fam.FamilySpec("companion", n)
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0  # the cyclic shift is the companion matrix of e1
        J = dom.jacobian([fam.parameterize(spec, e1)] * n, [fam.tangent_basis(spec, e1)] * n)
        rank = dom.numerical_rank(J, rel_tol=1e-8)
        if rank != n * n:
            failures.append(f"n={n}: rank {rank} != {n * n}")
    _finish("3 (companion dominance at the cyclic shift)", failures)


def _toeplitz_proof_params(n, r, rng):
    """Factor i is S_0 + t_i S_(n-i) in the symmetric Toeplitz basis."""
    params = []
    for i in range(1, r + 1):
        u = np.zeros(n, dtype=complex)
        u[0] = 1.0
        u[n - i] += complex(rng.standard_normal(), rng.standard_normal())
        params.append(u)
    return params


def _toeplitz_rank(n, r, seed, draws=3):
    spec = fam.FamilySpec("toeplitz-sym", n)
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(draws):
        params = _toeplitz_proof_params(n, r, rng)
        J = dom.jacobian([fam.parameterize(spec, u) for u in params],
                         [fam.tangent_basis(spec, u) for u in params])
        # rows in centrosymmetric coordinates: the first ceil(n^2/2) entries
        best = max(best, dom.numerical_rank(J[:(n * n + 1) // 2], rel_tol=1e-8))
    return best


def test_criterion_04_symmetric_toeplitz_dominance():
    failures = []
    for n in range(3, 9):
        r = n // 2 + 1
        want = (n * n + 1) // 2
        cap = r * n - (r - 1)
        got = _toeplitz_rank(n, r, seed=400 + n)
        if got != want:
            failures.append(f"n={n} r={r}: rank {got} != {want}"
                            f" (r={r} factors from the n-parameter scaling cone span"
                            f" at most rn-(r-1)={cap} directions)")
        if r >= 2:
            shorter = _toeplitz_rank(n, r - 1, seed=450 + n)
            if shorter >= got:
                failures.append(f"n={n}: rank with r-1={r - 1} factors is {shorter},"
                                f" not strictly below {got}")
    _finish("4 (symmetric Toeplitz dominance)", failures)


def test_criterion_05_two_factor_tangent_toys():
    failures = []
    I = np.eye(3, dtype=complex)
    J = fam.exchange_matrix(3).astype(complex)

    def spec(tag):
        return fam.FamilySpec(tag, 3)

    def coords(tag, M):
        """Parameters of the member M: the zero vector gives Q = I in the
        orthogonal group, and a linear family takes M's coordinates."""
        if tag == "orthogonal":
            return np.zeros(spec(tag).param_dim)
        return fam.coordinates_of(spec(tag), M)

    cases = [
        ("triangular-lower", "triangular-upper", (I, I), True),
        ("triangular-upper", "triangular-lower", (I, I), True),
        ("orthogonal", "triangular-upper", (I, I), True),
        ("orthogonal", "triangular-lower", (I, I), True),
        ("anti-triangular-top", "anti-triangular-bottom", (J, J), True),
        ("triangular-upper", "triangular-upper", (I, I), False),
    ]
    for tag1, tag2, (M1, M2), want in cases:
        base = (coords(tag1, M1), coords(tag2, M2))
        got = two_factor_tangent_test(spec(tag1), spec(tag2), base)
        if got != want:
            failures.append(f"({tag1}, {tag2}): {got}, expected {want}")
    _finish("5 (two-factor tangent tests)", failures)


def test_criterion_06_bidiagonal_products_and_pipeline():
    failures = []
    # products of k-1 upper bidiagonal factors are upper k-diagonal, exactly
    for n in range(2, 9):
        spec = fam.FamilySpec("bidiagonal-upper", n)
        for k in range(2, n + 1):
            rng = np.random.default_rng(60 * n + k)
            P = np.eye(n, dtype=complex)
            for _ in range(k - 1):
                P = P @ fam.parameterize(spec, fam.complex_gaussian(rng, 2 * n - 1))
            mask = pattern_mask("k-diagonal-upper", n, k=k)
            stray = np.max(np.abs(P[~mask])) if (~mask).any() else 0.0
            if stray != 0.0:
                failures.append(f"n={n} k={k}: entry {stray:.3e} outside the band")
    # the two-sided pipeline hits the stated tolerance on random targets
    for n in (4, 5):
        for trial in range(20):
            rng = np.random.default_rng(600 * n + trial)
            T = fam.complex_gaussian(rng, n * n).reshape(n, n)
            chain = decompose_bidiagonal(T)
            if not chain.converged or chain.residual > 1e-8:
                failures.append(f"n={n} trial={trial}: residual {chain.residual:.3e}")
    _finish("6 (bidiagonal structure and pipeline)", failures)


def _random_valid_types(rng, n):
    """A type list with pairwise distinct residues modulo n and a nonzero sum."""
    while True:
        s = tuple(int(v) for v in rng.integers(-2 * n, 2 * n + 1, size=n))
        if len({v % n for v in s}) == n and sum(s) != 0:
            return s


def test_criterion_07_vandermonde_determinant_identity():
    failures = []
    rng = np.random.default_rng(700)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        types = _random_valid_types(rng, n)
        p = int(rng.integers(1, n + 1))
        alphas = fam.complex_gaussian(rng, n)
        direct, formula = det_tilde(n, types, p, alphas)
        rel = abs(direct - formula) / max(abs(formula), 1e-12)
        if rel > 1e-8:
            failures.append(f"trial={trial} n={n} s={types}: relative gap {rel:.3e}")
    # zero-sum type lists annihilate the determinant when the free row
    # carries the types themselves (only odd n admits such lists with
    # distinct residues)
    for n, s in [(3, (-1, 0, 1)), (5, (-2, -1, 0, 1, 2)), (5, (0, 1, 2, 3, -6))]:
        for p in range(1, n + 1):
            direct, formula = det_tilde(n, s, p, np.array(s, dtype=complex))
            _, ref = det_tilde(n, s, p, np.ones(n))
            scale = max(abs(ref), 1.0)
            if abs(formula) != 0.0 or abs(direct) > 1e-8 * scale:
                failures.append(f"n={n} s={s} p={p}: |det| {abs(direct):.3e}"
                                f" above 1e-8 * {scale:.3e}")
    for n in range(2, 7):
        s = tuple(range(1, n + 1))
        rep = vm.vandermonde_dominance(n, s)
        if not rep.dominant or rep.d_estimate != n * n:
            failures.append(f"n={n}: rank {rep.d_estimate} != {n * n}")
    _finish("7 (Vandermonde determinant identity and dominance)", failures)


def test_criterion_08_generic_subspaces():
    failures = []
    recorded = []
    for n in (4, 5, 6):
        r = n // 2 + 1
        for j in range(5):
            kind = fam.FamilySpec("subspace", n, k=2 * n - 1, seed=100 * n + j)
            rep = dom.estimate_image_dimension(
                dom.problem([kind] * r, n), trials=3, seed=j)
            if not rep.dominant:
                failures.append(f"n={n} subspace {j}: r={r} rank {rep.d_estimate}"
                                f" != {n * n}")
            shorter = dom.estimate_image_dimension(
                dom.problem([kind] * (r - 1), n), trials=3, seed=j)
            recorded.append((n, j, shorter.d_estimate))
    # one factor fewer: observed dimensions are evidence, not assertions
    seen = sorted(set((n, d) for n, _, d in recorded))
    print(f"   observed dimensions at r-1 (recorded only): {seen}")
    _finish("8 (generic subspace chains)", failures)


def test_criterion_09_solver_convergence():
    failures = []
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        T = fam.complex_gaussian(rng, 64).reshape(8, 8)
        chain = fit_chain(T, dom.problem(["skew-symmetric"] * 3, 8), FitOptions())
        if not chain.converged or chain.residual > 1e-8:
            failures.append(f"skew n=8 trial={trial}: residual {chain.residual:.3e}")
    centro4 = fam.FamilySpec("centrosymmetric", 4)
    prob4 = dom.problem(["toeplitz-sym"] * 3, 4, target="centro")
    for trial in range(20):
        _, T = fam.sample_point(centro4, rng_seed=5000 + trial)
        chain = fit_chain(T, prob4, FitOptions())
        if not chain.converged or chain.residual > 1e-8:
            failures.append(f"toeplitz-sym n=4 r=3 trial={trial}:"
                            f" residual {chain.residual:.3e}")
    centro5 = fam.FamilySpec("centrosymmetric", 5)
    prob5 = dom.problem(["toeplitz-sym"] * 3, 5, target="centro")
    for trial in range(20):
        _, T = fam.sample_point(centro5, rng_seed=5000 + trial)
        chain = fit_chain(T, prob5, FitOptions())
        if not chain.converged or chain.residual > 1e-8:
            failures.append(f"toeplitz-sym n=5 r=3 trial={trial}:"
                            f" residual {chain.residual:.3e}")
    _finish("9 (solver convergence)", failures)


def test_criterion_10_bounds_arithmetic():
    failures = []
    # skew-symmetric, even n >= 8: 3 generic factors, 13 for every matrix
    for n in range(8, 17, 2):
        got = dom.lower_bound_cone(n * (n - 1) // 2, n * n)
        if got != 3:
            failures.append(f"skew n={n}: cone bound {got} != 3")
    if dom.surjectivity_bound(3) != 13:
        failures.append(f"skew: surjectivity bound {dom.surjectivity_bound(3)} != 13")
    # symmetric Toeplitz: floor(n/2) + 1 generic factors, the ceiling of
    # (ceil(n^2/2) - 1)/(n - 1); for odd n this is floor((n+1)/2)
    for n in range(3, 12):
        want = n // 2 + 1
        got = dom.lower_bound_cone(n, (n * n + 1) // 2)
        if got != want:
            failures.append(f"toeplitz-sym n={n}: cone bound {got} != {want}")
    for n in range(2, 11):
        # companion: n generic factors (a linear, not conic, parameter count),
        # 4n+1 for every matrix
        if dom.problem(["companion"] * n, n).param_dim < n * n:
            failures.append(f"companion n={n}: n factors fail the linear count")
        if dom.problem(["companion"] * (n - 1), n).param_dim >= n * n:
            failures.append(f"companion n={n}: n-1 factors pass the linear count")
        if dom.surjectivity_bound(n) != 4 * n + 1:
            failures.append(f"companion n={n}: {dom.surjectivity_bound(n)} != {4 * n + 1}")
        # generalized Vandermonde: 2n generic factors, 8n+1 for every matrix
        if dom.problem([fam.FamilySpec("vandermonde", n, s=1)] * (2 * n), n).param_dim < n * n:
            failures.append(f"vandermonde n={n}: 2n factors fail the linear count")
        if dom.surjectivity_bound(2 * n) != 8 * n + 1:
            failures.append(f"vandermonde n={n}: {dom.surjectivity_bound(2 * n)}"
                            f" != {8 * n + 1}")
        # bidiagonal: 2n generic factors, 8n for every matrix; the group
        # argument behind the surjectivity bound spends one factor on a
        # diagonal matrix, which is itself bidiagonal and merges, hence -1
        if dom.surjectivity_bound(2 * n) - 1 != 8 * n:
            failures.append(f"bidiagonal n={n}: {dom.surjectivity_bound(2 * n) - 1}"
                            f" != {8 * n}")
        if dom.lower_bound_cone(3 * n - 2, n * n) > 2 * n:
            failures.append(f"bidiagonal n={n}: necessary count exceeds 2n")
    _finish("10 (bounds arithmetic)", failures)
