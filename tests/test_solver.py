"""Damped Gauss-Newton chain fitting and the constructive pipelines."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import matchain.families as fam
import matchain.dominance as dom
import matchain.solver as solver
import matchain.vandermonde as vm
from matchain.companion import decompose_companion, lu_nopivot
from matchain.errors import (
    DegeneratePointError,
    InfeasibleProblemError,
    NonGenericMatrixError,
    NonMemberError,
    ParameterRangeError,
)
from matchain.solver import (
    FitOptions,
    decompose_bidiagonal,
    decompose_centrosymmetric,
    fit_chain,
)


def _random_target(n, seed):
    rng = np.random.default_rng(seed)
    return fam.complex_gaussian(rng, n * n).reshape(n, n)


def test_fit_options_validation():
    with pytest.raises(ParameterRangeError):
        FitOptions(max_iterations=0)
    with pytest.raises(ParameterRangeError):
        FitOptions(restarts=0)
    with pytest.raises(ParameterRangeError):
        FitOptions(seed=-1)


@pytest.mark.parametrize("values", [{"max_iterations": 2.5}, {"seed": 1.5, "restarts": 2},
                                    {"restarts": True}],
                         ids=["float-max-iterations", "float-seed", "bool-restarts"])
def test_fit_options_refuse_a_count_that_is_not_an_integer(values):
    with pytest.raises(ParameterRangeError):
        FitOptions(**values)


def test_fit_options_accept_numpy_integers():
    opts = FitOptions(max_iterations=np.int64(3), restarts=np.int32(1), seed=np.uint8(4))
    prob = dom.problem(["triangular-lower", "triangular-upper"], 2)
    chain = fit_chain(_random_target(2, 0), prob, opts)
    assert chain.iterations <= 3


_SKEW3 = dom.problem(["skew-symmetric"] * 3, 4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: dom.estimate_image_dimension(_SKEW3, trials=2.5), id="float-trials"),
    pytest.param(lambda: dom.estimate_image_dimension(_SKEW3, trials=True), id="bool-trials"),
    pytest.param(lambda: dom.estimate_image_dimension(_SKEW3, seed=1.5), id="float-seed"),
    pytest.param(lambda: dom.estimate_image_dimension(_SKEW3, seed=True), id="bool-seed"),
    pytest.param(lambda: dom.estimate_image_dimension(_SKEW3, seed=-1), id="negative-seed"),
    pytest.param(lambda: decompose_centrosymmetric(_centro_target(5, 50), r=2.5), id="float-r"),
    pytest.param(lambda: decompose_centrosymmetric(_centro_target(5, 50), r=True), id="bool-r"),
    pytest.param(lambda: fam.FamilySpec("subspace", 4, k=2.5, seed=0), id="float-k"),
])
def test_library_counts_refuse_what_is_not_an_integer(call):
    """The rule FitOptions follows: a count is a Python or NumPy integer,
    not a bool, and a seed is not negative."""
    with pytest.raises(ParameterRangeError):
        call()


def test_library_counts_accept_numpy_integers():
    rep = dom.estimate_image_dimension(_SKEW3, trials=np.int64(2), seed=np.int32(1))
    assert rep.ranks == dom.estimate_image_dimension(_SKEW3, trials=2, seed=1).ranks
    assert fam.FamilySpec("subspace", 3, k=np.int64(4), seed=0).k == 4
    assert decompose_centrosymmetric(_centro_target(5, 50), r=np.int64(3)).converged


# (entry point, least): each call takes one size, count or seed
_INTEGER_ARGUMENTS = {
    "FamilySpec-n": (lambda v: fam.FamilySpec("diagonal", v), 1),
    "FamilySpec-seed": (lambda v: fam.FamilySpec("subspace", 3, k=2, seed=v), 0),
    "sample_point-rng_seed": (lambda v: fam.sample_point(fam.FamilySpec("diagonal", 3), rng_seed=v), 0),
    "target_dim-n": (lambda v: dom.target_dim("full", v), 1),
    "estimate_image_dimension-trials": (lambda v: dom.estimate_image_dimension(_SKEW3, trials=v), 1),
    "estimate_image_dimension-seed": (lambda v: dom.estimate_image_dimension(_SKEW3, trials=1, seed=v), 0),
    "FitOptions-max_iterations": (lambda v: FitOptions(max_iterations=v), 1),
    "FitOptions-restarts": (lambda v: FitOptions(restarts=v), 1),
    "FitOptions-seed": (lambda v: FitOptions(seed=v), 0),
    "decompose_centrosymmetric-r": (lambda v: decompose_centrosymmetric(_centro_target(5, 50), r=v), 1),
    "unit_root-n": (lambda v: vm.unit_root(v), 1),
    "lower_bound_linear-target_dim": (lambda v: dom.lower_bound_linear([3, 3], v), 0),
    "lower_bound_linear-dims": (lambda v: dom.lower_bound_linear([3, v], 3), 0),
    "lower_bound_cone-m": (lambda v: dom.lower_bound_cone(v, 10), 2),
    "lower_bound_cone-target_dim": (lambda v: dom.lower_bound_cone(3, v), 1),
    "surjectivity_bound-r": (lambda v: dom.surjectivity_bound(v), 1),
}


@pytest.mark.parametrize("case", ["bool", "float", "below-least", "numpy-least"])
@pytest.mark.parametrize("entry", list(_INTEGER_ARGUMENTS))
def test_sizes_counts_and_seeds_follow_require_int(entry, case):
    """Every size, count and seed follows families.require_int: True, 2.5
    and least - 1 are refused with ParameterRangeError, and np.int64(least)
    is accepted."""
    call, least = _INTEGER_ARGUMENTS[entry]
    if case == "numpy-least":
        try:
            call(np.int64(least))
        except InfeasibleProblemError:  # one symmetric Toeplitz factor fails the count
            assert entry == "decompose_centrosymmetric-r"
        return
    with pytest.raises(ParameterRangeError):
        call({"bool": True, "float": 2.5, "below-least": least - 1}[case])


def test_fit_chain_rejects_bad_targets():
    prob = dom.problem(["bidiagonal"] * 4, 3)
    with pytest.raises(ParameterRangeError):
        fit_chain(np.ones((2, 3)), prob)
    bad = np.ones((3, 3))
    badered = bad.astype(complex)
    bad = bad.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ParameterRangeError):
        fit_chain(bad, prob)
    with pytest.raises(ParameterRangeError):
        fit_chain(badered[:2, :2], prob)  # wrong size for the problem


def test_fit_chain_raises_when_parameters_cannot_cover():
    # 2 symmetric Toeplitz factors carry 8 parameters, a full 4x4 needs 16
    prob = dom.problem(["toeplitz-sym"] * 2, 4)
    with pytest.raises(InfeasibleProblemError):
        fit_chain(_random_target(4, 0), prob)


def test_diagonal_target_in_one_bidiagonal_factor_is_exact():
    """Structured targets inside a single linear family fit in zero steps."""
    D = np.diag(np.array([2.0, -1.0, 0.5, 3.0], dtype=complex))
    prob = dom.problem(["bidiagonal"], 4)
    chain = fit_chain(D, prob)
    assert chain.converged
    assert chain.iterations == 0
    assert chain.residual <= 1e-12
    np.testing.assert_allclose(chain.product(), D, atol=1e-12)


def test_member_target_with_identity_padding_is_exact():
    spec = fam.FamilySpec("toeplitz", 4)
    T = fam.parameterize(spec, fam.complex_gaussian(np.random.default_rng(5), 7))
    prob = dom.problem(["toeplitz", "bidiagonal", "bidiagonal"], 4)
    chain = fit_chain(T, prob)
    assert chain.converged and chain.iterations == 0
    np.testing.assert_allclose(chain.factors[1], np.eye(4), atol=1e-14)
    np.testing.assert_allclose(chain.factors[2], np.eye(4), atol=1e-14)


def test_fit_chain_generic_target():
    T = _random_target(3, 7)
    prob = dom.problem(["bidiagonal-lower", "bidiagonal-upper"] * 2, 3)
    chain = fit_chain(T, prob, FitOptions(seed=2))
    assert chain.converged
    assert chain.residual <= 1e-8
    np.testing.assert_allclose(chain.product(), T, atol=1e-7)
    # every factor reports membership in its family
    for spec, F in zip(prob.factors, chain.factors):
        assert fam.is_member(spec, F, 1e-8)


def test_fit_chain_is_deterministic():
    T = _random_target(3, 42)
    prob = dom.problem(["bidiagonal-lower", "bidiagonal-upper"] * 2, 3)
    opts = FitOptions(seed=11)
    a = fit_chain(T, prob, opts)
    b = fit_chain(T, prob, opts)
    assert a.residual == b.residual
    assert a.iterations == b.iterations
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)


def test_fit_chain_respects_scaling_of_linear_chains():
    """Scaling the target and the first factor together preserves the fit."""
    T = _random_target(3, 42)
    prob = dom.problem(["bidiagonal-lower", "bidiagonal-upper"] * 2, 3)
    base = fit_chain(T, prob, FitOptions(seed=11))
    lam = -2.5 + 0.5j
    init = [p.copy() for p in base.params]
    init[0] = lam * init[0]
    scaled = fit_chain(lam * T, prob, FitOptions(seed=11, restarts=1), init_params=init)
    assert scaled.converged
    assert scaled.iterations == 0
    np.testing.assert_allclose(scaled.product(), lam * T, atol=1e-7 * abs(lam))


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e10, 1e50])
@pytest.mark.parametrize("tags, target", [
    (["skew-symmetric"] * 5, "full"),
    (["toeplitz-sym"] * 3, "centro"),
    (["bidiagonal"] * 3, "full"),
], ids=["skew5", "toeplitz-sym3", "bidiagonal3"])
def test_fit_chain_converges_on_a_scaled_target(tags, target, scale):
    """The first damping and the damping ceiling grow with the target as the
    squared Jacobian does, so a chain of cones fits c T in the iterations of
    T, to the same relative residual (with an absolute ceiling, 1e10 T and
    1e50 T stalled after one iteration; with an absolute first damping the
    iterations varied with c)."""
    T = _random_target(4, 7)
    if target == "centro":
        T = (T + T[::-1, ::-1]) / 2
    prob = dom.problem(tags, 4, target)
    chain = fit_chain(scale * T, prob, FitOptions(restarts=2))
    assert chain.converged
    np.testing.assert_allclose(chain.product(), scale * T, rtol=0,
                               atol=1e-7 * scale * np.abs(T).max())
    unscaled = fit_chain(T, prob, FitOptions(restarts=2))
    assert chain.iterations == unscaled.iterations
    np.testing.assert_allclose(chain.residual, unscaled.residual, rtol=1e-4)


def test_fit_chain_returns_when_the_damping_ceiling_would_overflow():
    """At ||T||_F = 1e154 and r = 40 the scaled ceiling exceeds the largest
    float; clamped, a stalled restart ends (unclamped, the damping reached
    infinity, which never passed the ceiling, and the fit never returned)."""
    T = np.full((2, 2), 5e153, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        chain = fit_chain(T, dom.problem(["diagonal"] * 40, 2),
                          FitOptions(restarts=1, max_iterations=3))
    assert not chain.converged
    assert chain.iterations <= 3


def test_fit_chain_restarts_keep_best():
    T = _random_target(4, 3)
    prob = dom.problem(["skew-symmetric"] * 5, 4)
    one = fit_chain(T, prob, FitOptions(seed=0, restarts=1, max_iterations=60))
    many = fit_chain(T, prob, FitOptions(seed=0, restarts=4, max_iterations=60))
    assert many.residual <= one.residual + 1e-12


def test_fit_chain_skew_triple():
    T = _random_target(8, 900)
    prob = dom.problem(["skew-symmetric"] * 3, 8)
    chain = fit_chain(T, prob, FitOptions(seed=1))
    assert chain.converged
    for F in chain.factors:
        np.testing.assert_allclose(F, -F.T, atol=1e-10)


def test_unconverged_chain_is_reported_not_raised():
    T = _random_target(3, 5)
    prob = dom.problem(["bidiagonal-lower", "bidiagonal-upper"] * 2, 3)
    chain = fit_chain(T, prob, FitOptions(seed=0, max_iterations=1, restarts=1))
    assert not chain.converged
    assert chain.residual > 1e-8


def _svd_step(J, res, lam):
    """The Levenberg step from the SVD of J: -V sig/(sig^2 + lam) U^H res."""
    U, sig, Vh = np.linalg.svd(J, full_matrices=False)
    return -(Vh.conj().T @ (sig / (sig * sig + lam) * (U.conj().T @ res)))


@pytest.mark.parametrize("chain, n, rank, lams, rtol", [
    pytest.param(["skew-symmetric"] * 3, 8, 64, [1e-12, 1e-6, 1e-3, 1.0, 1e6], 1e-10,
                 id="wide-skew3-n8"),
    # k = 144 and 256 rows of R: the back substitution runs in 64-column blocks
    pytest.param(["skew-symmetric"] * 3, 12, 144, [1e-12, 1e-6, 1e-3, 1.0, 1e6], 1e-10,
                 id="wide-skew3-n12"),
    pytest.param(["skew-symmetric"] * 3, 16, 256, [1e-12, 1e-6, 1e-3, 1.0, 1e6], 1e-10,
                 id="wide-skew3-n16"),
    pytest.param(["companion"] * 3, 5, 15, [1e-12, 1e-6, 1e-3, 1.0, 1e6], 1e-10,
                 id="tall-companion3-n5"),
    pytest.param(["companion"] * 4, 4, 16, [1e-12, 1e-6, 1e-3, 1.0, 1e6], 1e-10,
                 id="square-companion4-n4"),
    # rank-deficient J: below lam = 1e-6 both steps carry rounding noise
    # along the near-null directions, so they are compared from there up
    pytest.param(["toeplitz-sym"] * 5, 7, 25, [1e-6, 1e-3, 1.0, 1e6], 1e-8,
                 id="deficient-toeplitz-sym5-n7"),
    pytest.param(["anti-triangular-top", "anti-triangular-bottom"], 3, 6,
                 [1e-6, 1e-3, 1.0, 1e6], 1e-8, id="deficient-top-bottom-n3"),
    pytest.param(["skew-symmetric"] * 3, 5, 24, [1e-6, 1e-3, 1.0, 1e6], 1e-8,
                 id="deficient-skew3-n5"),
])
def test_damped_step_matches_the_svd_formula(chain, n, rank, lams, rtol):
    prob = dom.problem(chain, n)
    T = _random_target(n, 40 + n)
    params = solver._initial_params(prob, T, np.random.default_rng(n))
    factors = [fam.parameterize(spec, u) for spec, u in zip(prob.factors, params)]
    J = dom.jacobian(factors, [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)])
    res = (dom.chain_product(factors) - T).reshape(-1)
    assert J.shape == (n * n, prob.param_dim)
    assert np.linalg.matrix_rank(J) == rank
    for lam in lams:
        np.testing.assert_allclose(solver._damped_step(J, res, lam), _svd_step(J, res, lam),
                                   rtol=rtol, atol=0, err_msg=f"lambda {lam}")


@pytest.mark.parametrize("chain, n", [
    pytest.param(["skew-symmetric"] * 3, 8, id="wide-skew3-n8"),
    pytest.param(["companion"] * 3, 5, id="tall-companion3-n5"),
    pytest.param(["companion"] * 4, 4, id="square-companion4-n4"),
])
def test_predicted_decrease_matches_the_linear_model(chain, n):
    """fit_chain's gain ratio divides by ||J d||^2 + 2 lam ||d||^2, the
    decrease ||res||^2 - ||res + J d||^2 of the linear model at the step d."""
    prob = dom.problem(chain, n)
    T = _random_target(n, 40 + n)
    params = solver._initial_params(prob, T, np.random.default_rng(n))
    factors = [fam.parameterize(spec, u) for spec, u in zip(prob.factors, params)]
    J = dom.jacobian(factors, [fam.tangent_basis(spec, u) for spec, u in zip(prob.factors, params)])
    res = (dom.chain_product(factors) - T).reshape(-1)
    for lam in [1e-6, 1e-3, 1.0]:
        d = solver._damped_step(J, res, lam)
        pred = np.linalg.norm(J @ d) ** 2 + 2 * lam * np.linalg.norm(d) ** 2
        model = np.linalg.norm(res) ** 2 - np.linalg.norm(res + J @ d) ** 2
        assert pred > 0
        np.testing.assert_allclose(pred, model, rtol=1e-8, err_msg=f"lambda {lam}")


def test_fit_accepts_most_damping_trials(monkeypatch):
    """Gain-ratio damping: most trials are accepted, where a fixed
    divide-by-10 / multiply-by-10 schedule rejects nearly every other one."""
    trials = 0
    step = solver._damped_step

    def counted(*args):
        nonlocal trials
        trials += 1
        return step(*args)

    monkeypatch.setattr(solver, "_damped_step", counted)
    skew = dom.problem(["skew-symmetric"] * 3, 8)
    alternating = dom.problem(["bidiagonal-lower", "bidiagonal-upper"] * 4, 4)
    fits = [lambda k: decompose_centrosymmetric(_centro_target(5, 60 + k), opts=FitOptions(seed=k)),
            lambda k: fit_chain(_random_target(8, 70 + k), skew, FitOptions(seed=k)),
            lambda k: fit_chain(_random_target(4, 80 + k), alternating, FitOptions(seed=k))]
    iterations = 0
    for fit in fits:
        for k in range(5):
            chain = fit(k)
            assert chain.converged
            iterations += chain.iterations
    assert trials <= 1.6 * iterations


@pytest.mark.parametrize("chain, n", [
    pytest.param(["skew-symmetric"] * 3, 8, id="skew3-n8"),
    pytest.param(["orthogonal", "triangular-upper", "triangular-lower"], 3,
                 id="orthogonal-upper-lower-n3"),
])
def test_fit_evaluates_each_factor_once_per_point(monkeypatch, chain, n):
    """A fit parameterizes each factor once at its start and once per damping
    trial, and once more per linear factor to balance the start: the
    Jacobian reuses the factors of the accepted point."""
    prob = dom.problem(chain, n)
    T = _random_target(n, 3)
    assert solver._exact_start(prob, T) is None
    counts = {}

    def count(module, name):
        fn = getattr(module, name)
        counts[name] = 0

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    count(fam, "parameterize")
    count(solver, "_damped_step")
    fit_chain(T, prob, FitOptions(restarts=1, seed=0))
    linear = sum(spec.linear for spec in prob.factors)
    assert counts["_damped_step"] > 0
    assert counts["parameterize"] == prob.r * (counts["_damped_step"] + 1) + linear


def _fail_parameterize_call(monkeypatch, k):
    """Make the k-th call of families.parameterize raise DegeneratePointError."""
    calls = 0
    fn = fam.parameterize

    def flaky(*args):
        nonlocal calls
        calls += 1
        if calls == k:
            raise DegeneratePointError("injected")
        return fn(*args)
    monkeypatch.setattr(fam, "parameterize", flaky)


# skew x3 at n=4 has no exact start: a restart makes 3 balancing calls of
# parameterize, then 3 for its start, then 3 per damping trial
_SKEW3 = dom.problem(["skew-symmetric"] * 3, 4)


def test_fit_skips_a_restart_whose_start_is_degenerate(monkeypatch):
    T = _random_target(4, 11)
    expect = fit_chain(T, _SKEW3, FitOptions(restarts=1, seed=6))
    _fail_parameterize_call(monkeypatch, 4)
    chain = fit_chain(T, _SKEW3, FitOptions(restarts=2, seed=5))
    assert (chain.residual, chain.iterations, chain.converged) == (
        expect.residual, expect.iterations, expect.converged)
    for got, want in zip(chain.params + chain.factors, expect.params + expect.factors):
        assert np.array_equal(got, want)


def test_fit_ends_a_restart_at_a_degenerate_frame(monkeypatch):
    def degenerate(spec, point):
        raise DegeneratePointError("injected")

    monkeypatch.setattr(fam, "tangent_basis", degenerate)
    chain = fit_chain(_random_target(4, 12), _SKEW3, FitOptions(restarts=1))
    assert chain.iterations == 1
    assert not chain.converged


def test_fit_rejects_a_degenerate_trial_and_doubles_the_damping(monkeypatch):
    """The first trial runs at the largest squared column norm of the
    Jacobian at the drawn start; its degenerate point is rejected and the
    second trial doubles the damping."""
    T = _random_target(4, 13)
    params = solver._initial_params(_SKEW3, T, np.random.default_rng(0))
    J = dom.jacobian([fam.parameterize(spec, u) for spec, u in zip(_SKEW3.factors, params)],
                     [fam.tangent_basis(spec, u) for spec, u in zip(_SKEW3.factors, params)])
    lams = []
    step = solver._damped_step

    def recorded(J, res, lam):
        lams.append(lam)
        return step(J, res, lam)

    monkeypatch.setattr(solver, "_damped_step", recorded)
    _fail_parameterize_call(monkeypatch, 7)
    chain = fit_chain(T, _SKEW3, FitOptions(restarts=1))
    np.testing.assert_allclose(lams[0], np.max(np.sum(np.abs(J) ** 2, axis=0)), rtol=1e-12)
    assert lams[1] == 2.0 * lams[0]
    assert chain.iterations > 1


def test_fit_ends_a_restart_whose_first_jacobian_is_zero():
    """At all-zero skew parameters every factor and every Jacobian column
    vanishes, so there is no first damping: the restart ends after one
    iteration, with no warning, and the next restart draws its own start."""
    T = _random_target(4, 7)
    zeros = [np.zeros(6)] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = fit_chain(T, _SKEW3, FitOptions(restarts=1), init_params=zeros)
    assert (one.iterations, one.residual) == (1, 1.0)
    two = fit_chain(T, _SKEW3, FitOptions(restarts=2), init_params=zeros)
    assert not two.converged
    assert two.residual < 1.0


def test_fit_ends_a_restart_whose_first_jacobian_is_not_finite(monkeypatch):
    """An infinite first Jacobian gives no first damping either: the restart
    ends before its first damping trial."""
    def step(J, res, lam):
        raise AssertionError("no trial runs")

    monkeypatch.setattr(solver, "jacobian", lambda factors, frames: np.full((16, 18), np.inf))
    monkeypatch.setattr(solver, "_damped_step", step)
    chain = fit_chain(_random_target(4, 7), _SKEW3, FitOptions(restarts=1))
    assert (chain.iterations, chain.converged) == (1, False)


@pytest.mark.parametrize("opts", [FitOptions(), FitOptions(max_iterations=1, restarts=1)],
                         ids=["converged", "unconverged"])
def test_converged_derives_from_the_residual(opts):
    chain = fit_chain(_random_target(4, 14), dom.problem(["skew-symmetric"] * 5, 4), opts)
    assert "converged" not in {f.name for f in fields(solver.FactorChain)}
    assert chain.converged == (chain.residual <= solver.RESIDUAL_TOL)
    assert chain.converged == (opts.max_iterations > 1)


@pytest.mark.parametrize("fit", [
    pytest.param(lambda: fit_chain(_random_target(8, 900), dom.problem(["skew-symmetric"] * 3, 8),
                                   FitOptions(seed=1)), id="skew3-n8"),
    pytest.param(lambda: decompose_centrosymmetric(_centro_target(5, 50)), id="centro-n5"),
    pytest.param(lambda: fit_chain(
        _random_target(4, 31), dom.problem(["bidiagonal-lower", "bidiagonal-upper"] * 4, 4),
        FitOptions(seed=2)), id="alternating-bidiagonal-n4"),
    pytest.param(lambda: fit_chain(
        _random_target(3, 32), dom.problem(["orthogonal", "triangular-upper",
                                            "triangular-lower"], 3), FitOptions(seed=3)),
        id="orthogonal-upper-lower-n3"),
    pytest.param(lambda: fit_chain(
        _random_target(3, 33), dom.problem(["anti-triangular-top", "anti-triangular-bottom"], 3),
        FitOptions(seed=8)), id="top-bottom-n3-unconverged"),
])
def test_fit_iterations_match_the_svd_step(fit, monkeypatch):
    qr = fit()
    monkeypatch.setattr(solver, "_damped_step", _svd_step)
    svd = fit()
    assert (qr.iterations, qr.converged) == (svd.iterations, svd.converged)
    np.testing.assert_allclose(qr.residual, svd.residual, rtol=1e-2)


def test_lu_nopivot_round_trip():
    A = _random_target(5, 21)
    L, U = lu_nopivot(A)
    np.testing.assert_allclose(L @ U, A, atol=1e-12)
    assert np.all(np.triu(L, 1) == 0)
    assert np.all(np.tril(U, -1) == 0)
    np.testing.assert_allclose(np.diagonal(L), 1.0, atol=0)


def test_lu_nopivot_rejects_vanishing_pivot():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonGenericMatrixError, match="pivot 1"):
        lu_nopivot(A)
    B = np.array([  # second pivot exactly cancels
        [1.0, 2.0, 0.0],
        [0.5, 1.0, 1.0],
        [0.0, 1.0, 1.0],
    ])
    with pytest.raises(NonGenericMatrixError, match="pivot 2"):
        lu_nopivot(B)
    C = np.array([[1.0, 2.0], [0.5, 1.0]])  # breakdown in the last pivot
    with pytest.raises(NonGenericMatrixError, match="trailing pivot"):
        lu_nopivot(C)


def test_decompose_bidiagonal_structure():
    T = _random_target(4, 600)
    chain = decompose_bidiagonal(T)
    assert chain.converged
    assert chain.residual <= 1e-8
    assert len(chain.factors) == 8
    for F in chain.factors[:4]:
        assert np.all(np.triu(F, 1) == 0)  # lower bidiagonal half
        assert np.all(np.tril(F, -2) == 0)
    for F in chain.factors[4:]:
        assert np.all(np.tril(F, -1) == 0)  # upper bidiagonal half
        assert np.all(np.triu(F, 2) == 0)
    np.testing.assert_allclose(chain.product(), T, atol=1e-7)


def test_decompose_bidiagonal_upper_triangular_input():
    """An upper bidiagonal target leaves the lower half at the identity."""
    n = 4
    spec = fam.FamilySpec("bidiagonal-upper", n)
    T = fam.parameterize(spec, fam.complex_gaussian(np.random.default_rng(8), 2 * n - 1))
    chain = decompose_bidiagonal(T)
    assert chain.converged
    for F in chain.factors[:n]:
        np.testing.assert_allclose(F, np.eye(n), atol=1e-9)


@pytest.mark.parametrize("n, seed", [(12, 1), (48, 2)])
def test_decompose_bidiagonal_is_constructed_not_fitted(n, seed):
    """Neville elimination gives the factors directly: the chain comes back
    at iteration 0.  n=12 on the default_rng(1) target is the case that used
    to take 589 iterations and end unconverged."""
    chain = decompose_bidiagonal(_random_target(n, seed))
    assert chain.converged
    assert chain.iterations == 0
    assert chain.residual <= 1e-8
    assert len(chain.factors) == 2 * n


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_decompose_bidiagonal_residual_and_membership(n):
    lower = fam.FamilySpec(fam.BIDIAGONAL_LOWER, n)
    upper = fam.FamilySpec(fam.BIDIAGONAL_UPPER, n)
    for trial in range(20):
        T = _random_target(n, 1000 * n + trial)
        chain = decompose_bidiagonal(T)
        assert chain.residual <= 1e-11
        assert np.linalg.norm(chain.product() - T) <= 1e-11 * max(1.0, np.linalg.norm(T))
        for F in chain.factors[:n]:
            assert fam.is_member(lower, F, 1e-12)
        for F in chain.factors[n:]:
            assert fam.is_member(upper, F, 1e-12)


def _neville_breakdown():
    """A unit lower L, so LU succeeds, whose first column has a zero above
    a nonzero: Neville elimination cannot clear L[2, 0] with row 1."""
    L = np.eye(3, dtype=complex)
    L[1, 0], L[2, 0], L[2, 1] = 0.0, 1.0, 0.5
    return L


def test_decompose_bidiagonal_neville_breakdown():
    L = _neville_breakdown()
    lu_nopivot(L)  # elimination without pivoting goes through
    with pytest.raises(NonGenericMatrixError, match="Neville"):
        decompose_bidiagonal(L)


@pytest.mark.parametrize("chain, n", [
    pytest.param(["triangular-lower", "triangular-upper"], 4, id="lu-n4"),
    pytest.param(["triangular-lower", "triangular-upper"], 8, id="lu-n8"),
    pytest.param(["triangular-lower", "triangular-upper"], 16, id="lu-n16"),
    pytest.param(["companion"] * 5, 5, id="companion-n5"),
    pytest.param(["bidiagonal-lower"] * 3 + ["bidiagonal-upper"] * 5, 4, id="bidiagonal-3-5-n4"),
])
def test_fit_chain_starts_from_an_exact_construction(chain, n):
    T = _random_target(n, 70 + n)
    prob = dom.problem(chain, n)
    fit = fit_chain(T, prob)
    assert fit.converged
    assert fit.iterations == 0
    np.testing.assert_allclose(fit.product(), T, atol=1e-10)
    for spec, F in zip(prob.factors, fit.factors):
        assert fam.is_member(spec, F, 1e-10)


def test_fit_chain_falls_back_to_random_restarts_on_breakdown():
    L = _neville_breakdown()
    prob = dom.problem(["bidiagonal-lower"] * 2 + ["bidiagonal-upper"] * 2, 3)
    chain = fit_chain(L, prob, FitOptions(seed=0))
    assert chain.iterations > 0  # started from a seeded draw, not an exact chain
    assert chain.converged


@pytest.mark.parametrize("call", [
    pytest.param(lambda T: lu_nopivot(T), id="lu_nopivot"),
    pytest.param(lambda T: fit_chain(
        T, dom.problem(["triangular-lower", "triangular-upper"], 4)).params, id="fit_chain"),
    pytest.param(lambda T: decompose_bidiagonal(T).params, id="decompose_bidiagonal"),
    pytest.param(lambda T: fam.is_member(fam.FamilySpec("toeplitz", 4), T, 1e-12),
                 id="is_member"),
    pytest.param(lambda T: decompose_companion(T).coefficients, id="decompose_companion"),
])
def test_transposed_complex_input(call):
    """A transposed complex matrix is not contiguous along its last axis;
    every entry point accepts it and agrees with a contiguous copy."""
    T = _random_target(4, 31).T
    assert not T.flags.c_contiguous
    np.testing.assert_array_equal(call(T), call(T.copy()))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf), complex(np.nan, 0)])
def test_non_finite_entries_are_rejected(bad):
    T = _random_target(3, 32)
    T[1, 2] = bad
    for M in (T, T.T):
        with pytest.raises(ParameterRangeError):
            lu_nopivot(M)
        with pytest.raises(ParameterRangeError):
            decompose_companion(M)
        assert not fam.is_member(fam.FamilySpec("toeplitz", 3), M, 1e-12)


def test_a_target_whose_norm_overflows_is_rejected():
    """Finite entries whose Frobenius norm overflows leave no pivot to test
    against tol * ||T||_F, so such a target is refused like a non-finite
    one, and such a matrix belongs to no family."""
    T = _random_target(3, 33) * 1e160
    assert np.isfinite(T).all()
    for call in (lu_nopivot, decompose_companion,
                 lambda M: fit_chain(M, dom.problem(["triangular-lower", "triangular-upper"], 3)),
                 lambda M: fit_chain(M, dom.problem(["companion"] * 3, 3)),
                 decompose_centrosymmetric):
        with pytest.raises(ParameterRangeError, match="Frobenius norm"):
            call(T)
    huge = 1e200 * np.ones((2, 2))
    for tag in ("diagonal", "skew-symmetric", "companion", "orthogonal"):
        assert not fam.is_member(fam.FamilySpec(tag, 2), huge, 1e-8)


def test_decompose_bidiagonal_refuses_pivot_free_targets():
    T = _random_target(3, 9)
    T[0, 0] = 0.0
    with pytest.raises(NonGenericMatrixError):
        decompose_bidiagonal(T)


def _centro_target(n, seed):
    spec = fam.FamilySpec("centrosymmetric", n)
    _, M = fam.sample_point(spec, rng_seed=seed)
    return M


def test_decompose_centrosymmetric_default_depth():
    T = _centro_target(5, 50)
    chain = decompose_centrosymmetric(T)
    assert chain.converged
    assert len(chain.factors) == 3  # n // 2 + 1
    st = fam.FamilySpec("toeplitz-sym", 5)
    for F in chain.factors:
        assert fam.is_member(st, F, 1e-8)
    np.testing.assert_allclose(chain.product(), T, atol=1e-7)


def test_decompose_centrosymmetric_default_depth_even_n():
    """Even n needs n // 2 + 1 factors: n // 2 of them span at most
    n^2/2 - n/2 + 1 < n^2/2 directions of the centrosymmetric target."""
    T = _centro_target(6, 53)
    chain = decompose_centrosymmetric(T)
    assert len(chain.factors) == 4
    assert chain.converged
    assert chain.residual <= 1e-8
    np.testing.assert_allclose(chain.product(), T, atol=1e-7)


@pytest.mark.parametrize("r,seed", [(3, 51), (4, 52)])
def test_persymmetric_hankel_chain_fits_a_centrosymmetric_target(r, seed):
    """The persymmetric Hankel decomposition is a chain fit like any other,
    at odd and even depth."""
    T = _centro_target(5, seed)
    chain = fit_chain(T, dom.problem(["hankel-persym"] * r, 5, "centro"))
    assert chain.converged
    assert len(chain.factors) == r
    ph = fam.FamilySpec("hankel-persym", 5)
    for F in chain.factors:
        assert fam.is_member(ph, F, 1e-8)
    np.testing.assert_allclose(chain.product(), T, atol=1e-7)


def test_decompose_centrosymmetric_rejects_plain_matrices():
    with pytest.raises(NonMemberError):
        decompose_centrosymmetric(_random_target(5, 3))


def test_decompose_centrosymmetric_identity():
    chain = decompose_centrosymmetric(np.eye(5, dtype=complex))
    assert chain.converged
    assert chain.residual <= 1e-12


def test_target_in_the_first_family_takes_priority_over_lu():
    """A lower triangular target on the LU chain starts from itself and the
    identity, not from its LU factors."""
    T = np.tril(_random_target(4, 81))
    prob = dom.problem(["triangular-lower", "triangular-upper"], 4)
    chain = fit_chain(T, prob)
    assert chain.iterations == 0 and chain.converged
    assert np.array_equal(chain.factors[1], np.eye(4))
    np.testing.assert_allclose(chain.factors[0], T, atol=1e-14)


def test_init_params_on_a_too_short_chain_still_raise():
    prob = dom.problem(["diagonal", "diagonal"], 4)
    init = [np.ones(4, dtype=complex), np.ones(4, dtype=complex)]
    with pytest.raises(InfeasibleProblemError):
        fit_chain(_random_target(4, 82), prob, init_params=init)


def test_decompose_bidiagonal_factors_its_target_once(monkeypatch):
    calls = []

    def counting_lu(A):
        calls.append(A)
        return lu_nopivot(A)

    monkeypatch.setattr(solver, "lu_nopivot", counting_lu)
    chain = decompose_bidiagonal(_random_target(5, 83))
    assert chain.converged and chain.iterations == 0
    assert len(calls) == 1


def test_vandermonde_chain_fit_converges_from_root_of_unity_centers():
    """A Vandermonde chain has no exact start, so every restart starts from
    fit_center: the n-th roots of unity, each turned by a phase exp(0.1 i g),
    so every node has modulus 1."""
    specs = [fam.FamilySpec("vandermonde-t", 3, s=1), fam.FamilySpec("vandermonde", 3, s=1),
             fam.FamilySpec("vandermonde-t", 3, s=2), fam.FamilySpec("vandermonde", 3, s=2)]
    prob = dom.problem(specs, 3)
    u = fam.fit_center(prob.factors[0], np.random.default_rng(0), 1)
    w = np.exp(-2j * np.pi * np.arange(1, 4) / 3)
    assert np.all(np.abs(np.abs(u) - 1.0) <= 1e-15)
    assert np.all(np.abs(u / w - 1.0) < 0.5)
    T = _random_target(3, 4)
    chain = fit_chain(T, prob, FitOptions(seed=11))
    assert chain.converged
    resid = np.linalg.norm(dom.chain_product(chain.factors) - T) / max(1.0, np.linalg.norm(T))
    assert resid <= 1e-8
