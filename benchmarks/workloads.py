"""The four benchmark workloads: seeded cases and their correctness oracles.

A workload is a fixed cycle of cases.  Operation i of a run is case
i mod len(cycle), and its inputs come from SeedSequence([seed, i]), so a
seed fixes every input and the mix of cases in a run of whole cycles does
not depend on the seed.  matchain receives only the generated inputs.

Each operation returns an Outcome: whether it passed its oracle, and a
digest of its result that must be identical in traced and untraced runs.
No operation of a timed workload fails at the benchmark's first commit.
The inputs on which matchain fails today are KNOWN_DEFECTS, run once after
each timed loop and reported apart; their oracle marks a failure `known`
only when it has the documented form (a rank deficit, an unconverged fit).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import matchain.cli
import matchain.dominance as dom
import matchain.solver as sol
import matchain.vandermonde as vand

RESIDUAL_TOL = 1e-8  # the fits' relative residual, recomputed from the factors
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Outcome:
    ok: bool
    digest: tuple  # compared between traced and untraced runs
    detail: str = ""
    known: bool = False  # a failure of the form NOTES.md documents for this defect


@dataclass(frozen=True)
class Op:
    case: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Case:
    name: str
    make: Callable[[np.random.Generator, "Context"], Callable[[], Outcome]]


@dataclass
class Context:
    """Per-run state the cases need: where input files go, and whether cli
    operations run as subprocesses or as in-process calls to main."""

    workdir: str
    root: str
    in_process_cli: bool = False


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def relative_residual(factors, target) -> float:
    prod = factors[0]
    for A in factors[1:]:
        prod = prod @ A
    return float(np.linalg.norm(prod - target)) / max(1.0, float(np.linalg.norm(target)))


# ---------------------------------------------------------------------------
# certify: one verdict per operation, checked against the known dimension

def _verdict(kinds, n, d, target=dom.TARGET_FULL, known_deficit=False):
    """known_deficit: a rank below d is the documented false negative."""
    def make(rng, ctx):
        prob = dom.problem(kinds, n, target)
        seed = int(rng.integers(2**31))

        def run():
            rep = dom.estimate_image_dimension(prob, trials=5, seed=seed)
            return Outcome(rep.d_estimate == d, (rep.d_estimate, tuple(rep.ranks)),
                           f"d={rep.d_estimate}, expected {d}",
                           known=known_deficit and rep.d_estimate < d)
        return run
    return make


def _skew_d(n):
    return next(d for (m, r, d) in dom.SKEW_TABLE if (m, r) == (n, 3))


def _vandermonde(rng, ctx):
    def run():
        rep = vand.vandermonde_dominance(6, (1, 2, 3, 4, 5, 6))
        return Outcome(rep.d_estimate == 36, (rep.d_estimate,), f"d={rep.d_estimate}, expected 36")
    return run


SKEW, ORTH, COMPANION = "skew-symmetric", "orthogonal", "companion"
TSYM, LOWER, UPPER = "toeplitz-sym", "bidiagonal-lower", "bidiagonal-upper"

CERTIFY = (
    Case("skew-n8", _verdict([SKEW] * 3, 8, _skew_d(8))),
    Case("skew-n10", _verdict([SKEW] * 3, 10, _skew_d(10))),
    Case("skew-n12", _verdict([SKEW] * 3, 12, 144)),
    Case("skew-n16", _verdict([SKEW] * 3, 16, 256)),
    # the complex orthogonal group is closed under products
    Case("orthogonal-n8", _verdict([ORTH] * 3, 8, 28)),
    Case("companion-n12", _verdict([COMPANION] * 12, 12, 144)),
    Case("toeplitz-sym-n9-centro", _verdict([TSYM] * 5, 9, 41, dom.TARGET_CENTRO)),
    # the README's chain; an odd number of cases puts the median latency
    # inside one case's cluster (skew-n10), not in the gap between two
    Case("alternating-bidiagonal-n4", _verdict([LOWER, UPPER] * 4, 4, 16)),
    Case("vandermonde-n6", _vandermonde),
)


# ---------------------------------------------------------------------------
# fits: one fit per operation, converged with a recomputed residual <= 1e-8

def _fit_outcome(chain, target, known_unconverged=False) -> Outcome:
    """known_unconverged: a fit reported as unconverged is the documented
    failure; a fit reported as converged must still meet the tolerance."""
    resid = relative_residual(chain.factors, target)
    ok = bool(chain.converged) and resid <= RESIDUAL_TOL
    return Outcome(ok, (chain.iterations, chain.residual, resid),
                   f"converged={chain.converged}, residual={resid:.2e}",
                   known=known_unconverged and not chain.converged)


def _fit(kinds, n):
    def make(rng, ctx):
        prob = dom.problem(kinds, n)
        T = complex_gaussian(rng, (n, n))
        opts = sol.FitOptions(seed=int(rng.integers(2**31)))
        return lambda: _fit_outcome(sol.fit_chain(T, prob, opts), T)
    return make


def _centro(n, r=None, known_unconverged=False):
    def make(rng, ctx):
        A = complex_gaussian(rng, (n, n))
        T = (A + A[::-1, ::-1]) / 2
        opts = sol.FitOptions(seed=int(rng.integers(2**31)))
        return lambda: _fit_outcome(sol.decompose_centrosymmetric(T, opts=opts, r=r), T,
                                    known_unconverged)
    return make


def _bidiagonal(n):
    def make(rng, ctx):
        T = complex_gaussian(rng, (n, n))
        opts = sol.FitOptions(seed=int(rng.integers(2**31)))
        return lambda: _fit_outcome(sol.decompose_bidiagonal(T, opts), T)
    return make


def _budget_fit(kinds, n, budget):
    """A fixed budget of Gauss-Newton iterations from one seeded start.

    Whole fits at n=16 take 14 to 140 iterations, so their time depends on
    the target more than on the code; a fixed budget makes every operation
    the same work.  The oracle checks the fit's certificate instead of
    convergence: the reported residual is the one recomputed from the
    returned factors, every factor is skew-symmetric, the budget was spent
    (or the fit converged), and the residual fell below 0.25 (1e-3 to 9e-2
    measured after 12 iterations)."""
    def make(rng, ctx):
        prob = dom.problem(kinds, n)
        T = complex_gaussian(rng, (n, n))
        opts = sol.FitOptions(max_iterations=budget, restarts=1, seed=int(rng.integers(2**31)))

        def run():
            chain = sol.fit_chain(T, prob, opts)
            resid = relative_residual(chain.factors, T)
            ok = (abs(resid - chain.residual) <= 1e-9 * resid
                  and all(np.abs(A + A.T).max() <= 1e-12 * np.abs(A).max() for A in chain.factors)
                  and (chain.iterations == budget or chain.converged)
                  and resid <= 0.25)
            return Outcome(bool(ok), (chain.iterations, chain.residual, resid),
                           f"iterations={chain.iterations}, residual={resid:.2e}")
        return run
    return make


LARGE_BUDGET = 12

FIT_LARGE = (
    Case(f"skew3-n16-{LARGE_BUDGET}-iterations", _budget_fit([SKEW] * 3, 16, LARGE_BUDGET)),
)

FIT_SMALL = (
    Case("centro-n5", _centro(5)),
    # one factor above the default r = 4: at the default a fit takes 44 to 182
    # iterations, and that case alone would spread ops_per_s by 0.07 to 0.1
    # between seeds
    Case("centro-n7-r5", _centro(7, r=5)),
    # even n needs r = n//2 + 1; the default (n+1)//2 is a known defect
    Case("centro-n6-r4", _centro(6, r=4)),
    Case("bidiagonal-n6", _bidiagonal(6)),
    Case("skew3-n8", _fit([SKEW] * 3, 8)),
    Case("alternating-bidiagonal-n4", _fit([LOWER, UPPER] * 4, 4)),
)


# ---------------------------------------------------------------------------
# cli: one `python -m matchain` process per operation

REPORT_KEYS = {"schema_version", "problem", "trials", "ranks", "d_estimate",
               "target_dim", "dominant", "tolerance", "seed"}
BOUNDS_KEYS = {"family", "n", "family_dim", "target", "cone", "lower_bound",
               "lower_bound_rule", "generic_r", "surjective_r"}
MATRIX_KEYS = {"n", "entries"}
COMPANION_KEYS = {"schema_version", "n", "status", "failed_column", "coefficients"}
CHAIN_KEYS = {"schema_version", "problem", "params", "factors", "residual",
              "iterations", "converged", "target"}


def _matrix(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _check_verify(doc):
    return doc["d_estimate"] == 64 and doc["dominant"] is True


def _check_bounds(doc):
    return doc["lower_bound"] == 4 and doc["generic_r"] == 4


def _check_sample(doc):
    M = _matrix(doc["entries"])
    return M.shape == (6, 6) and np.array_equal(M, -M.T)


def _check_companion(T):
    def check(doc):
        if doc["status"] != "unique":
            return False
        n = T.shape[0]
        prod = np.eye(n, dtype=complex)
        for col in doc["coefficients"]:
            C = np.eye(n, k=-1, dtype=complex)
            C[:, -1] = [complex(re, im) for re, im in col]
            prod = prod @ C
        return float(np.linalg.norm(prod - T)) <= 1e-6 * float(np.linalg.norm(T))
    return check


def _check_decompose(T):
    def check(doc):
        factors = [_matrix(A) for A in doc["factors"]]
        return doc["converged"] is True and relative_residual(factors, T) <= RESIDUAL_TOL
    return check


def run_cli(argv, ctx: Context):
    """One cli call, as a subprocess or in process: (exit code, stdout)."""
    if ctx.in_process_cli:
        out = _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_stdio.StringIO()):
            try:
                code = matchain.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    proc = subprocess.run([sys.executable, "-m", "matchain", *argv], cwd=ctx.root,
                          env=cli_env(ctx.root), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cli(build, known_exit=None):
    """build(rng, ctx) -> (argv, expected keys, value check).  known_exit:
    the exit code of the documented failure, with well-formed output."""
    def make(rng, ctx):
        argv, keys, check = build(rng, ctx)

        def run():
            try:
                code, stdout = run_cli(argv, ctx)
            except subprocess.TimeoutExpired:
                return Outcome(False, ("timeout",), "timed out")
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                return Outcome(False, (code, stdout), f"exit {code}, stdout is not JSON")
            well_formed = isinstance(doc, dict) and set(doc) == keys
            ok = code == 0 and well_formed and check(doc)
            return Outcome(bool(ok), (code, stdout), f"exit {code}",
                           known=known_exit is not None and code == known_exit and well_formed)
        return run
    return make


def _write_matrix_file(ctx, rng, name, T):
    n = T.shape[0]
    path = os.path.join(ctx.workdir, f"{name}-{int(rng.integers(2**31))}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "entries": [[[z.real, z.imag] for z in row] for row in T]}, fh)
    return path


def _verify_argv(rng, ctx):
    seed = str(int(rng.integers(2**31)))
    return (["verify", "--family", "skew", "--n", "8", "--r", "3", "--seed", seed],
            REPORT_KEYS, _check_verify)


def _bounds_argv(rng, ctx):
    return ["bounds", "--family", "toeplitz-sym", "--n", "7"], BOUNDS_KEYS, _check_bounds


def _sample_argv(rng, ctx):
    seed = str(int(rng.integers(2**31)))
    return ["sample", "--family", "skew", "--n", "6", "--seed", seed], MATRIX_KEYS, _check_sample


def _companion_argv(rng, ctx):
    T = complex_gaussian(rng, (48, 48))
    path = _write_matrix_file(ctx, rng, "companion", T)
    return ["companion", "--in", path], COMPANION_KEYS, _check_companion(T)


LU_GROWTH = 4.0


def complex_gaussian_target(rng, n):
    return complex_gaussian(rng, (n, n))


def well_pivoted_target(rng, n):
    """A complex Gaussian target, redrawn until its LU factors without
    pivoting stay small: |L| <= LU_GROWTH and |U| <= LU_GROWTH * max|T|.
    About 3 targets in 4 pass.  Every stalled fit seen on generic targets
    (15 of about 10000) had |L| >= 6.5 and |U| >= 5.2 max|T|; none stalled
    in 9600 targets that pass."""
    while True:
        T = complex_gaussian(rng, (n, n))
        L, U = sol.lu_nopivot(T)
        if np.abs(L).max() <= LU_GROWTH and np.abs(U).max() <= LU_GROWTH * np.abs(T).max():
            return T


def _decompose_argv(draw_target):
    def build(rng, ctx):
        T = draw_target(rng, 4)
        path = _write_matrix_file(ctx, rng, "decompose", T)
        seed = str(int(rng.integers(2**31)))
        return (["decompose", "--in", path, "--chain", "lower,upper", "--seed", seed],
                CHAIN_KEYS, _check_decompose(T))
    return build


CLI = (
    Case("verify-skew-n8", _cli(_verify_argv)),
    Case("bounds-toeplitz-sym-n7", _cli(_bounds_argv)),
    Case("sample-skew-n6", _cli(_sample_argv)),
    Case("companion-n48", _cli(_companion_argv)),
    # generic targets stall now and then; see KNOWN_DEFECTS
    Case("decompose-lu-n4", _cli(_decompose_argv(well_pivoted_target))),
)

WORKLOADS = {
    "certify": CERTIFY,
    "fit-large": FIT_LARGE,
    "fit-small": FIT_SMALL,
    "cli": CLI,
}


def make_op(workload: str, seed: int, index: int, ctx: Context) -> Op:
    """Operation `index` of a run: its case and its seeded inputs."""
    cases = WORKLOADS[workload]
    case = cases[index % len(cases)]
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return Op(case.name, case.make(rng, ctx))


# problem shapes per workload, for the warm-up
SHAPES = {
    "certify": [([SKEW] * 3, 8, "full"), ([SKEW] * 3, 10, "full"), ([SKEW] * 3, 12, "full"),
                ([SKEW] * 3, 16, "full"), ([ORTH] * 3, 8, "full"),
                ([COMPANION] * 12, 12, "full"), ([TSYM] * 5, 9, "centro"),
                ([LOWER, UPPER], 4, "full")],
    "fit-large": [([SKEW] * 3, 16, "full")],
    "fit-small": [([TSYM] * 3, 5, "centro"), ([TSYM] * 5, 7, "centro"),
                  ([TSYM] * 4, 6, "centro"), ([LOWER, UPPER], 6, "full"),
                  ([SKEW] * 3, 8, "full"), ([LOWER, UPPER], 4, "full")],
}


def warm_up(workload: str, ctx: Context):
    """Finish lazy set-up before timing: one cheap pass over every problem
    shape of the workload fills the cached bases, starts the OpenBLAS
    threads and runs the first expm; for cli, one process start puts the
    interpreter's files in the page cache."""
    if workload == "cli":
        run_cli(["bounds", "--family", "skew", "--n", "4"], ctx)
        return
    for kinds, n, target in SHAPES[workload]:
        dom.estimate_image_dimension(dom.problem(kinds, n, target), trials=1)
    np.linalg.svd(complex_gaussian(np.random.default_rng(0), (16, 24)), full_matrices=False)
    if workload == "certify":
        vand.vandermonde_dominance(6, (1, 2, 3, 4, 5, 6))


def layer_probe(ctx: Context):
    """One fixed call into every module, run at the end of each traced run so
    that every per-layer metric is measured on every workload: the cli cycle
    in process (fit, rank, sample, companion, read and emit), plus the two
    layers no cli command reaches."""
    probe_ctx = Context(ctx.workdir, ctx.root, in_process_cli=True)
    for index in range(len(CLI)):
        make_op("cli", 0, index, probe_ctx).run()
    rng = np.random.default_rng(0)
    sol.lu_nopivot(complex_gaussian(rng, (8, 8)))
    vand.vandermonde_dominance(4, (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# known defects: fixed inputs on which matchain fails today (NOTES.md).  The
# timed workloads must not fail, so these run once after each timed loop,
# outside its timing and its counts, and the run prints whether each is
# still present.

KNOWN_DEFECTS = (  # (case, the entropy of its inputs' SeedSequence)
    # dominant by LU without pivoting; the numerical rank falls short
    (Case("bidiagonal-2n-n8", _verdict([LOWER] * 8 + [UPPER] * 8, 8, 64, known_deficit=True)), 0),
    (Case("bidiagonal-2n-n12", _verdict([LOWER] * 12 + [UPPER] * 12, 12, 144,
                                        known_deficit=True)), 0),
    # the default r = (n+1)//2 is one factor short for even n
    (Case("centro-n6-default-r", _centro(6, known_unconverged=True)), 0),
    # a generic target on which every restart stalls (exit 4): cli seed 201, operation 44
    (Case("decompose-lu-n4-stall", _cli(_decompose_argv(complex_gaussian_target), known_exit=4)),
     [201, 44]),
)


def known_defects(ctx: Context):
    """Run every known defect once, in process: [(case, status, detail)],
    status 'present' (the documented failure), 'fixed' (it passes) or
    'changed' (it fails in another form, an exception included)."""
    probe_ctx = Context(ctx.workdir, ctx.root, in_process_cli=True)
    report = []
    for case, entropy in KNOWN_DEFECTS:
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        try:
            outcome = case.make(rng, probe_ctx)()
        except Exception as exc:  # a defect that now raises has changed, not crashed the run
            report.append((case.name, "changed", repr(exc)))
            continue
        status = "fixed" if outcome.ok else "present" if outcome.known else "changed"
        report.append((case.name, status, outcome.detail))
    return report
