"""Fingerprint the stdout and stderr of a fixed list of seeded matchain commands.

    python tools/cli_snapshot.py [--src PATH] > snapshot.txt

Each command runs in a fresh `python -m matchain` process that imports
matchain from PATH (default: this checkout's src), with BLAS pinned to one
thread.  For each command one line is printed: the command, its exit code
and the sha256 of its stdout and of its stderr (so a warning that numpy
writes shows too).  A `decompose` line also prints the fit's
iterations, converged flag and residual (3 significant digits), and a
`companion` line the solve's status and failed column, read from its JSON
stdout, so that a fit or a solve that differs only in its last bits shows
as the same one.  A command still running after TIMEOUT_S seconds is killed,
and its line ends in exit=timeout with no digests.  Run it against two
checkouts and diff the two outputs: identical lines mean byte-identical
stdout and stderr and equal exit codes.  Input matrices are drawn from
fixed seeds and, with the fit options files, written to a temporary
directory, which is the working directory of every command, so the
printed commands name the same files on every run.  Only the standard
library is used, so the script runs against any checkout.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 120


def gaussian(seed, n):
    """An n x n complex Gaussian matrix as rows of (re, im) pairs."""
    rng = random.Random(seed)
    return [[(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]


def centrosymmetric(seed, n):
    """(A + rot180(A)) / 2 for a Gaussian A."""
    A = gaussian(seed, n)
    return [[((A[i][j][0] + A[n - 1 - i][n - 1 - j][0]) / 2,
              (A[i][j][1] + A[n - 1 - i][n - 1 - j][1]) / 2)
             for j in range(n)] for i in range(n)]


def lower_triangular(seed, n):
    """A Gaussian matrix with the entries above the diagonal set to zero."""
    A = gaussian(seed, n)
    return [[A[i][j] if j <= i else (0.0, 0.0) for j in range(n)] for i in range(n)]


# input files: name -> entries
INPUTS = {
    "gauss4-a.json": gaussian(1, 4),
    "gauss4-b.json": gaussian(2, 4),
    "gauss4-c.json": gaussian(3, 4),
    "gauss3.json": gaussian(4, 3),
    "centro5.json": centrosymmetric(5, 5),
    "centro3.json": centrosymmetric(7, 3),
    "gauss48.json": gaussian(6, 48),
    "gauss6.json": gaussian(16, 6),
    "lower4.json": lower_triangular(17, 4),
    # gauss4-b.json times 1e10: the damping ceiling scales with the target
    "gauss4-b-1e10.json": [[(re * 1e10, im * 1e10) for re, im in row] for row in gaussian(2, 4)],
    # centro5.json times 1e10: the first damping scales with the target too
    "centro5-1e10.json": [[(re * 1e10, im * 1e10) for re, im in row]
                          for row in centrosymmetric(5, 5)],
    # finite entries whose Frobenius norm overflows
    "huge3.json": [[(re * 1e160, im * 1e160) for re, im in row] for row in gaussian(18, 3)],
    # Frobenius norm 1e154, finite: the damping ceiling of a long chain
    # would overflow to infinity
    "huge2.json": [[(5e153, 0.0)] * 2] * 2,
}

# fit options files: name -> JSON object
OPTIONS = {
    "opts-5x2.json": {"max_iterations": 5, "restarts": 2},
}

COMMANDS = [
    ["verify", "--family", "skew", "--n", "4", "--r", "3", "--seed", "0"],
    ["verify", "--family", "skew", "--n", "6", "--r", "3", "--seed", "1"],
    ["verify", "--family", "toeplitz-sym", "--n", "5", "--r", "3", "--target", "centro",
     "--seed", "2"],
    ["verify", "--family", "companion", "--n", "5", "--r", "5", "--seed", "3"],
    ["verify", "--family", "orthogonal", "--n", "4", "--r", "3", "--seed", "4"],
    ["table"],
    ["decompose", "--in", "gauss4-a.json", "--chain", "lower,upper", "--seed", "0"],
    ["decompose", "--in", "gauss4-b.json", "--chain", "skew,skew,skew,skew,skew", "--seed", "1"],
    ["decompose", "--in", "centro5.json", "--chain", "toeplitz-sym,toeplitz-sym,toeplitz-sym",
     "--target", "centro", "--seed", "2"],
    ["decompose", "--in", "gauss3.json", "--chain", "orthogonal,upper,lower", "--seed", "3"],
    # the persymmetric Hankel decomposition of a centrosymmetric target, at odd r
    ["decompose", "--in", "centro5.json", "--chain", "hankel-persym,hankel-persym,hankel-persym",
     "--target", "centro"],
    # the shapes of the benchmark's cli workload
    ["verify", "--family", "skew", "--n", "8", "--r", "3", "--seed", "5"],
    # the orthogonal and companion shapes of the benchmark's certify workload
    ["verify", "--family", "orthogonal", "--n", "8", "--r", "3", "--seed", "5"],
    ["verify", "--family", "companion", "--n", "6", "--r", "6", "--seed", "6"],
    ["bounds", "--family", "toeplitz-sym", "--n", "7"],
    ["sample", "--family", "skew", "--n", "6", "--seed", "6"],
    ["companion", "--in", "gauss48.json"],
    ["decompose", "--in", "gauss4-c.json", "--chain", "lower,upper", "--seed", "7"],
    # one seeded fit per kind of starting point a fit draws
    ["decompose", "--in", "gauss3.json", "--chain", "top,bottom", "--seed", "8"],
    ["decompose", "--in", "centro3.json", "--chain", "hankel-persym,hankel-persym",
     "--target", "centro", "--seed", "9"],
    ["decompose", "--in", "gauss3.json", "--chain", "companion,companion,companion",
     "--seed", "10"],
    ["decompose", "--in", "gauss3.json",
     "--chain", "vandermonde-t:1,vandermonde:1,vandermonde-t:2,vandermonde:2", "--seed", "11"],
    ["decompose", "--in", "gauss3.json", "--chain", "subspace:5,subspace:5", "--seed", "12"],
    ["decompose", "--in", "gauss3.json", "--chain", "toeplitz,toeplitz", "--seed", "13"],
    # a block of lower then upper bidiagonal factors: n - 1 and n of each
    ["decompose", "--in", "gauss4-a.json",
     "--chain", ",".join(["bidiagonal-lower"] * 3 + ["bidiagonal-upper"] * 3), "--seed", "14"],
    ["decompose", "--in", "gauss4-a.json",
     "--chain", ",".join(["bidiagonal-lower"] * 4 + ["bidiagonal-upper"] * 4), "--seed", "15"],
    # n - 1 tridiagonal factors: no exact start, so every restart starts
    # from the identity centers
    ["decompose", "--in", "gauss6.json", "--chain", ",".join(["bidiagonal"] * 5), "--seed", "16"],
    # a target inside the first family: restart 0 starts from the target
    # and identities
    ["decompose", "--in", "lower4.json", "--chain", "lower,upper", "--seed", "17"],
    # the skew fit of gauss4-b.json above, on the target scaled by 1e10
    ["decompose", "--in", "gauss4-b-1e10.json", "--chain", "skew,skew,skew,skew,skew",
     "--seed", "1"],
    # the toeplitz-sym fit of centro5.json above, on the target scaled by 1e10
    ["decompose", "--in", "centro5-1e10.json", "--chain", "toeplitz-sym,toeplitz-sym,toeplitz-sym",
     "--target", "centro", "--seed", "2"],
    # the skew fit of gauss4-b.json above, with options read from a file
    ["decompose", "--in", "gauss4-b.json", "--chain", "skew,skew,skew,skew,skew",
     "--opts", "opts-5x2.json", "--seed", "1"],
    # a negative type, and a zero-exponent row in the tangent frame
    ["sample", "--family", "vandermonde:-2", "--n", "4", "--seed", "18"],
    ["verify", "--family", "vandermonde:-2", "--n", "4", "--r", "2", "--seed", "18"],
    ["sample", "--family", "vandermonde-t:0", "--n", "4", "--seed", "19"],
    ["verify", "--family", "vandermonde-t:0", "--n", "4", "--r", "2", "--seed", "19"],
    # a det target, whose verdict keeps n^2 - 1 rows, and an even-n centro
    # target, whose verdict keeps the first ceil(n^2/2)
    ["verify", "--family", "skew", "--n", "5", "--r", "3", "--target", "det", "--seed", "42"],
    ["verify", "--family", "hankel-persym", "--n", "6", "--r", "4", "--target", "centro",
     "--seed", "43"],
    # odd-size skew chains on det, and the orthogonal chain on the
    # orthogonal group, ranked in their own space's coordinates
    ["verify", "--family", "skew", "--n", "7", "--r", "3", "--target", "det", "--seed", "44"],
    ["verify", "--family", "skew", "--n", "9", "--r", "3", "--target", "det", "--seed", "45"],
    ["verify", "--family", "orthogonal", "--n", "8", "--r", "3", "--target", "orthogonal"],
    ["bounds", "--family", "orthogonal", "--n", "8"],
    # chains whose products leave the target: refused, exit 1
    ["verify", "--family", "skew", "--n", "8", "--r", "3", "--target", "centro"],
    ["verify", "--family", "toeplitz", "--n", "4", "--r", "3", "--target", "centro"],
    ["verify", "--family", "skew", "--n", "8", "--r", "3", "--target", "det"],
    # verdicts the real attempt settles at the family centers: a chain that
    # real Gaussian points left one rank short, and the companion chain of
    # the benchmark's certify workload
    ["verify", "--family", "anti-triangular-bottom", "--n", "8", "--r", "5", "--seed", "1"],
    ["verify", "--family", "companion", "--n", "12", "--r", "12", "--seed", "0"],
    # 2n Vandermonde factors, dominant at the center nodes (Gaussian nodes
    # left them short; type 200 is in the overflow block below)
    ["verify", "--family", "vandermonde:1", "--n", "4", "--r", "8"],
    ["verify", "--family", "vandermonde:3", "--n", "8", "--r", "16"],
    ["verify", "--family", "vandermonde:1", "--n", "6", "--r", "12"],
]

# every family, with the argument it takes
FAMILIES = [
    "diagonal", "bidiagonal-upper", "bidiagonal-lower", "bidiagonal",
    "k-diagonal:2", "k-diagonal-upper:2", "k-diagonal-lower:2",
    "triangular-upper", "triangular-lower", "anti-triangular-top", "anti-triangular-bottom",
    "orthogonal", "skew-symmetric", "toeplitz", "toeplitz-sym", "hankel-persym",
    "centrosymmetric", "companion", "vandermonde:1", "vandermonde-t:1", "subspace:5",
]
for seed, family in enumerate(FAMILIES, start=20):
    COMMANDS += [
        ["bounds", "--family", family, "--n", "5"],
        ["sample", "--family", family, "--n", "4", "--seed", str(seed)],
        ["verify", "--family", family, "--n", "4", "--r", "2", "--seed", str(seed)],
    ]

# invalid family tokens and an unknown target: usage errors, so only the exit
# code and the empty stdout are fingerprinted
for family in ["toeplitz:3", "skew:2", "subspace", "k-diagonal", "k-diagonal:9",
               "vandermonde:x", "bogus"]:
    COMMANDS.append(["bounds", "--family", family, "--n", "5"])
COMMANDS.append(["verify", "--family", "skew", "--n", "4", "--r", "2", "--target", "bogus"])

# type-0 Vandermonde families at n = 1, whose only member is [[1]]
for family in ["vandermonde", "vandermonde-t:0"]:
    COMMANDS += [
        ["bounds", "--family", family, "--n", "1"],
        ["sample", "--family", family, "--n", "1", "--seed", "41"],
        ["verify", "--family", family, "--n", "1", "--r", "2", "--seed", "41"],
    ]

# overflow: type-200 and type -2000 members, whose powers overflow at
# Gaussian nodes (`sample`) but not at the center nodes of a verdict, a
# chain product of 1,100 factors, and a target whose Frobenius norm
# overflows; each error is one line on stderr
COMMANDS += [
    ["verify", "--family", "vandermonde:200", "--n", "4", "--r", "8"],
    ["verify", "--family", "vandermonde:1", "--n", "4", "--r", "1100"],
    ["sample", "--family", "vandermonde:-2000", "--n", "3"],
    ["verify", "--family", "vandermonde:-2000", "--n", "3", "--r", "2"],
    ["decompose", "--in", "huge3.json", "--chain", "lower,upper"],
    ["decompose", "--in", "huge3.json", "--chain", "companion,companion,companion"],
    ["companion", "--in", "huge3.json"],
    # a stalled restart ends at the largest-float damping ceiling
    ["decompose", "--in", "huge2.json", "--chain", ",".join(["diagonal"] * 40)],
]


def fit_summary(stdout):
    """The fit certificate of a `decompose` stdout, or '' when there is none."""
    try:
        doc = json.loads(stdout)
        return (f"  iterations={doc['iterations']}  converged={doc['converged']}"
                f"  residual={doc['residual']:.3g}")
    except (ValueError, KeyError, TypeError):
        return ""


def companion_summary(stdout):
    """The status and failed column of a `companion` stdout, or '' when
    there is none."""
    try:
        doc = json.loads(stdout)
        return f"  status={doc['status']}  failed_column={doc['failed_column']}"
    except (ValueError, KeyError, TypeError):
        return ""


# the summary each command prints beside its digests
SUMMARIES = {"decompose": fit_summary, "companion": companion_summary}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the matchain package to run")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "matchain", "__init__.py")):
        sys.exit(f"error: no matchain package under {src}")
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in BLAS_VARS})
    with tempfile.TemporaryDirectory() as work:
        for name, entries in INPUTS.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump({"n": len(entries), "entries": entries}, fh)
        for name, doc in OPTIONS.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for cmd in COMMANDS:
            try:
                res = subprocess.run([sys.executable, "-m", "matchain", *cmd], cwd=work, env=env,
                                     capture_output=True, check=False, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"matchain {' '.join(cmd)}  exit=timeout", flush=True)
                continue
            digest = hashlib.sha256(res.stdout).hexdigest()
            err_digest = hashlib.sha256(res.stderr).hexdigest()
            summary = SUMMARIES[cmd[0]](res.stdout) if cmd[0] in SUMMARIES else ""
            print(f"matchain {' '.join(cmd)}  exit={res.returncode}{summary}  sha256={digest}"
                  f"  stderr_sha256={err_digest}", flush=True)


if __name__ == "__main__":
    main()
