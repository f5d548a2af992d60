"""Command-line front end.

Subcommands: verify (dominance report for a factor chain), table (the
skew-symmetric image-dimension table with computed ranks), decompose (fit
a chain to a matrix file), companion (structured coefficient solve),
bounds (dimension-count arithmetic for one family), sample (draw a random
family member).  Results go to stdout, as JSON except for table's text
table; diagnostics go to stderr.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 dominance
not observed, 4 fit did not converge, 5 companion solve not unique.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import families as fam
from .companion import PIVOT_TOL, STATUS_UNIQUE, decompose_companion
from .dominance import (
    DEFAULT_RANK_TOL,
    DEFAULT_TRIALS,
    SKEW_TABLE,
    TARGET_CENTRO,
    TARGET_DET,
    TARGET_FULL,
    TARGET_ORTHOGONAL,
    estimate_image_dimension,
    lower_bound_cone,
    problem,
    surjectivity_bound,
    target_dim,
)
from .errors import MatChainError, MatrixParseError, ParameterRangeError
from .io import (chain_to_dict, companion_to_dict, matrix_to_dict, read_matrix, read_options,
                 report_to_dict)
from .solver import FitOptions, fit_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOT_DOMINANT = 3
EXIT_NOT_CONVERGED = 4
EXIT_NOT_UNIQUE = 5

_ALIASES = {
    "skew": fam.SKEW_SYMMETRIC,
    "upper": fam.TRIANGULAR_UPPER,
    "lower": fam.TRIANGULAR_LOWER,
    "top": fam.ANTI_TRIANGULAR_TOP,
    "bottom": fam.ANTI_TRIANGULAR_BOTTOM,
}


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """argparse type for --seed: NumPy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parse_family(text: str, n: int, seed: int = 0) -> fam.FamilySpec:
    """One family token at size n: a tag, an alias, or tag:arg for parameterized
    families (k-diagonal bandwidths, vandermonde types, subspace size)."""
    token = text.strip().lower()
    base, _, arg = token.partition(":")
    base = _ALIASES.get(base, base)
    try:
        value = int(arg) if arg else None
    except ValueError as exc:
        raise ParameterRangeError(f"bad family token {text!r}: {exc}") from None
    return fam.spec_from_argument(base, value, n, rng_seed=seed)


def _emit(doc: dict):
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(args) -> int:
    spec = _parse_family(args.family, args.n, seed=args.seed)
    prob = problem([spec] * args.r, args.n, args.target)
    report = estimate_image_dimension(
        prob, trials=args.trials, rel_tol=args.tol, seed=args.seed)
    _emit(report_to_dict(report))
    return EXIT_OK if report.dominant else EXIT_NOT_DOMINANT


def _cmd_table(args) -> int:
    rows = []
    all_match = True
    for n, r, expected in SKEW_TABLE:
        computed = estimate_image_dimension(problem([fam.SKEW_SYMMETRIC] * r, n),
                                            trials=args.trials, rel_tol=args.tol,
                                            seed=args.seed).d_estimate
        match = computed == expected
        all_match = all_match and match
        rows.append((n, r, expected, computed, match))
    print(f"{'n':>3} {'r':>3} {'expected':>9} {'computed':>9}  match")
    for n, r, expected, computed, match in rows:
        print(f"{n:>3} {r:>3} {expected:>9} {computed:>9}  {'yes' if match else 'NO'}")
    good = sum(1 for row in rows if row[4])
    print(f"{good}/{len(rows)} rows match")
    return EXIT_OK if all_match else EXIT_NOT_DOMINANT


def _cmd_decompose(args) -> int:
    T = read_matrix(args.infile)
    n = T.shape[0]
    specs = [_parse_family(tok, n, seed=args.seed) for tok in args.chain.split(",") if tok.strip()]
    if not specs:
        raise ParameterRangeError("--chain must list at least one family")
    opts = read_options(args.opts, seed=args.seed) if args.opts else FitOptions(seed=args.seed)
    prob = problem(specs, n, args.target)
    chain = fit_chain(T, prob, opts)
    _emit(chain_to_dict(chain))
    if not chain.converged:
        print(f"did not converge: residual {chain.residual:.3e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_companion(args) -> int:
    A = read_matrix(args.infile)
    result = decompose_companion(A, pivot_tol=args.tol)
    _emit(companion_to_dict(result, A.shape[0]))
    return EXIT_OK if result.status == STATUS_UNIQUE else EXIT_NOT_UNIQUE


def _bounds_doc(spec: fam.FamilySpec) -> dict:
    m = spec.param_dim
    target_tag, known_generic = fam.bounds_facts(spec)
    dim = target_dim(target_tag, spec.n)
    is_cone = spec.linear
    if is_cone and m >= 2:
        lower = lower_bound_cone(m, dim)
        rule = f"ceil(({dim} - 1) / ({m} - 1))"
    else:
        lower = -(-dim // m)
        rule = f"ceil({dim} / {m})"
    doc = {
        "family": spec.label(),
        "n": spec.n,
        "family_dim": m,
        "target": {"tag": target_tag, "dim": dim},
        "cone": bool(is_cone),
        "lower_bound": int(lower),
        "lower_bound_rule": rule,
    }
    doc["generic_r"] = known_generic
    # every-matrix counts are quoted for full targets only: the centrosymmetric
    # classes are claimed for generic targets
    doc["surjective_r"] = (surjectivity_bound(known_generic)
                           if known_generic and target_tag == TARGET_FULL else None)
    return doc


def _cmd_bounds(args) -> int:
    spec = _parse_family(args.family, args.n, seed=0)
    _emit(_bounds_doc(spec))
    return EXIT_OK


def _cmd_sample(args) -> int:
    spec = _parse_family(args.family, args.n, seed=args.seed)
    _params, M = fam.sample_point(spec, rng_seed=args.seed)
    _emit(matrix_to_dict(M))
    return EXIT_OK


# ---------------------------------------------------------------------------

_TRIALS_HELP = "at most this many base points; a dominant verdict stops at its first full rank"


def _build_parser() -> _Parser:
    parser = _Parser(prog="matchain",
                     description="structured matrix chain decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="estimate the image dimension of a chain")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help=_TRIALS_HELP)
    p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--target", choices=[TARGET_FULL, TARGET_DET, TARGET_CENTRO, TARGET_ORTHOGONAL],
                   default=TARGET_FULL,
                   help="the space the products are measured against; a chain whose "
                        "products leave it is refused")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="skew-symmetric image dimensions against known values")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help=_TRIALS_HELP)
    p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("decompose", help="fit a factor chain to a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chain", required=True, help="comma-separated family tokens")
    p.add_argument("--opts", default=None, help="JSON file with fit options")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--target", choices=[TARGET_FULL, TARGET_DET, TARGET_CENTRO],
                   default=TARGET_FULL)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("companion", help="solve for companion factors column by column")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=PIVOT_TOL,
                   help="a pivot vanishes when its modulus is at most TOL times the "
                        "Frobenius norm of the input; in [0, 1)")
    p.set_defaults(func=_cmd_companion)

    p = sub.add_parser("bounds", help="dimension-count arithmetic for one family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sample", help="draw a random member of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result is reported by the command itself, as an
        # error or an unconverged fit, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (MatrixParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MatChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
