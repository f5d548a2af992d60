"""What commands read and the documents they print.

Matrices are only read: JSON ({"n": ..., "entries": n x n array of
[re, im] pairs}), or CSV with one row per line and entries like "1.5",
"2i", or "0.25-1.5i" when the path, or a stream's name, ends in .csv (any
case).  Fit options are read from a plain JSON object of FitOptions'
integer fields.  The printed documents are built here: a matrix, a fitted
chain, a dominance report and a companion solve, the last three stamped
with schema_version "1".  Floats print by Python's shortest round-trip
repr, so a matrix as `sample` prints it reads back to the exact binary64
values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re as _re

import numpy as np

from . import families as fam
from .companion import CompanionResult
from .dominance import DecompositionProblem, DominanceReport
from .errors import MatrixParseError, ParameterRangeError
from .solver import FactorChain, FitOptions

SCHEMA_VERSION = "1"


def _read_text(source) -> str:
    try:
        if hasattr(source, "read"):
            return source.read()
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_json(source):
    """Parse the JSON text of a path or open stream.  Invalid JSON raises
    MatrixParseError with the line and column of the fault."""
    text = _read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    except (RecursionError, ValueError) as exc:  # nesting or integer digits past Python's limits
        raise MatrixParseError(f"invalid JSON: {exc}") from None


def _float(x) -> float:
    """x as a float; an integer beyond the float range reads as +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def read_options(source, seed: int = 0) -> FitOptions:
    """Fit options from a JSON object of FitOptions fields, all integers,
    with seed where the object sets none.  An unknown field or a value that
    is not an integer raises MatrixParseError; FitOptions checks the ranges."""
    doc = read_json(source)
    if not isinstance(doc, dict):
        raise MatrixParseError("options file must hold a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(FitOptions)}
    if unknown:
        raise MatrixParseError(f"unknown option fields: {sorted(unknown)}")
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, int):  # true is no count
            raise MatrixParseError(f"option {key!r} must be an integer, got {json.dumps(value)}")
    return FitOptions(**{"seed": seed, **doc})


_TOKEN_RE = _re.compile(
    r"""^\s*(?P<body>
        [+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?:[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?[iI]
        | [+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?
        | [+-]?[iI]
    )\s*$""",
    _re.VERBOSE,
)


def _parse_scalar(token: str, line: int, column: int) -> complex:
    m = _TOKEN_RE.match(token)
    if m is None:
        raise MatrixParseError(f"cannot parse entry {token.strip()!r}", line=line, column=column)
    # every form the pattern admits is one complex() parses once i is j
    z = complex(m.group("body").replace("i", "j").replace("I", "j"))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MatrixParseError(f"non-finite entry {token.strip()!r}", line=line, column=column)
    return z


def _pair_to_complex(pair, line=None) -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise MatrixParseError(f"entry {pair!r} is not an [re, im] pair", line=line)
    z = complex(_float(pair[0]), _float(pair[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MatrixParseError(f"non-finite entry {pair!r}", line=line)
    return z


def _matrix_from_pairs(n, entries) -> np.ndarray:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixParseError(f"matrix size {n!r} is not a positive integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixParseError(f"expected {n} rows, found {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    M = np.empty((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"row {i + 1} does not have {n} entries", line=i + 1)
        for j, pair in enumerate(row):
            M[i, j] = _pair_to_complex(pair, line=i + 1)
    return M


def read_matrix(source) -> np.ndarray:
    """Read a square complex matrix from a path or open stream.

    A path, or a stream's name, ending in .csv (any case) is read as CSV:
    rows are lines, entries are comma-separated, and each entry is a real
    or an a+bi token.  Anything else is read as JSON.
    """
    name = getattr(source, "name", source)
    if not (isinstance(name, str) and name.lower().endswith(".csv")):
        doc = read_json(source)
        if not isinstance(doc, dict) or "entries" not in doc:
            raise MatrixParseError("matrix JSON must be an object with an 'entries' field")
        n = doc.get("n", len(doc["entries"]) if isinstance(doc["entries"], list) else 0)
        return _matrix_from_pairs(n, doc["entries"])
    rows = []
    for lineno, ln in enumerate(_read_text(source).splitlines(), start=1):
        if not ln.strip():
            continue
        row = []
        for col, token in enumerate(ln.split(","), start=1):
            row.append(_parse_scalar(token, lineno, col))
        rows.append((lineno, row))
    if not rows:
        raise MatrixParseError("no matrix rows found")
    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            raise MatrixParseError(
                f"row has {len(row)} entries but the matrix has {n} rows", line=lineno)
    return np.array([row for _, row in rows], dtype=complex)


def complex_pairs(A) -> list:
    """A complex array of any shape as nested lists of [re, im] floats."""
    A = np.asarray(A, dtype=complex)
    return np.stack((A.real, A.imag), -1).tolist()


def matrix_to_dict(M) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterRangeError("only square matrices are serialized")
    return {"n": int(M.shape[0]), "entries": complex_pairs(M)}


# ---------------------------------------------------------------------------
# families

def kind_to_dict(spec: fam.FamilySpec) -> dict:
    out = {"tag": spec.tag}
    if spec.k is not None:
        out["k"] = int(spec.k)
    if spec.s is not None:
        out["s"] = int(spec.s)
    if spec.basis is not None:
        out["basis"] = complex_pairs(spec.basis)
    return out


def _problem_to_dict(prob: DecompositionProblem) -> dict:
    return {
        "n": prob.n,
        "r": prob.r,
        "target": prob.target,
        "factors": [kind_to_dict(spec) for spec in prob.factors],
    }


# ---------------------------------------------------------------------------
# chains

def chain_to_dict(chain: FactorChain) -> dict:
    if len(chain.factors) == 0:
        raise ParameterRangeError("refusing to serialize an empty factor chain")
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": _problem_to_dict(chain.problem),
        "params": [complex_pairs(u) for u in chain.params],
        "factors": complex_pairs(chain.factors),
        "residual": float(chain.residual),
        "iterations": int(chain.iterations),
        "converged": bool(chain.converged),
        "target": complex_pairs(chain.target),
    }


# ---------------------------------------------------------------------------
# dominance reports

def report_to_dict(report: DominanceReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": dict(report.problem),
        "trials": int(report.trials),
        "ranks": [int(v) for v in report.ranks],
        "d_estimate": int(report.d_estimate),
        "target_dim": int(report.target_dim),
        "dominant": bool(report.dominant),
        "tolerance": float(report.tolerance),
        "seed": int(report.seed),
    }


# ---------------------------------------------------------------------------
# companion solves

def companion_to_dict(result: CompanionResult, n: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": int(n),
        "status": result.status,
        "failed_column": result.failed_column,
        "coefficients": None if result.coefficients is None else complex_pairs(result.coefficients),
    }
