"""Spans around the public functions of each matchain module.

While active, the tracer replaces a function by a wrapper in every module
namespace where a caller looks it up (solver binds `jacobian` by name at
import, cli binds most of what it calls) and records one span per call; on
leaving it restores the originals.  Nothing under src/ is edited.

A span is [name, start, end, parent index, operation id, extra]; extra
holds what a count needs (Jacobian shape, chain length, iterations).  The
spans stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import matchain.cli
import matchain.companion
import matchain.dominance
import matchain.families
import matchain.io
import matchain.solver
import matchain.vandermonde

SVD = "numpy.linalg.svd"
FIT = "solver.fit_chain"
PARAMETERIZE = "families.parameterize"
RANK = "dominance.numerical_rank"
EMIT = "io.emit"


def _jacobian_extra(args, kwargs, result):
    return {"cols": int(result.shape[1])}


def _svd_extra(args, kwargs, result):
    return {"shape": [int(k) for k in np.shape(args[0])]}


def _fit_extra(args, kwargs, result):
    prob = args[1] if len(args) > 1 else kwargs["prob"]
    return {"r": prob.r, "iterations": int(result.iterations)}


# (span name, [(module, attribute) looked up by some caller], extra)
WRAPPED = [
    ("families.parameterize", [(matchain.families, "parameterize")], None),
    ("families.tangent_basis", [(matchain.families, "tangent_basis")], None),
    ("families.sample_point", [(matchain.families, "sample_point")], None),
    ("dominance.jacobian", [(matchain.dominance, "jacobian"), (matchain.solver, "jacobian")],
     _jacobian_extra),
    (RANK, [(matchain.dominance, "numerical_rank"), (matchain.vandermonde, "numerical_rank")],
     None),
    ("dominance.estimate_image_dimension",
     [(matchain.dominance, "estimate_image_dimension"), (matchain.cli, "estimate_image_dimension")],
     None),
    (FIT, [(matchain.solver, "fit_chain"), (matchain.cli, "fit_chain")], _fit_extra),
    ("solver.lu_nopivot", [(matchain.solver, "lu_nopivot")], None),
    ("solver.decompose_bidiagonal", [(matchain.solver, "decompose_bidiagonal")], None),
    ("solver.decompose_centrosymmetric", [(matchain.solver, "decompose_centrosymmetric")], None),
    ("companion.decompose_companion",
     [(matchain.companion, "decompose_companion"), (matchain.cli, "decompose_companion")], None),
    ("vandermonde.vandermonde_dominance", [(matchain.vandermonde, "vandermonde_dominance")], None),
    ("io.read_matrix", [(matchain.io, "read_matrix"), (matchain.cli, "read_matrix")], None),
    # emission: the *_to_dict serializers plus cli._emit, which is json.dumps and print
    (EMIT, [(matchain.io, "chain_to_dict"), (matchain.cli, "chain_to_dict"),
            (matchain.io, "report_to_dict"), (matchain.cli, "report_to_dict"),
            (matchain.io, "matrix_to_dict"), (matchain.cli, "matrix_to_dict"),
            (matchain.cli, "_emit")], None),
    ("cli.main", [(matchain.cli, "main")], None),
    (SVD, [(np.linalg, "svd")], _svd_extra),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def active(self, op_id):
        """Wrap every function of WRAPPED while the block runs; spans made
        there carry op_id."""
        self.op_id = op_id
        undo = []
        for name, sites, extra in WRAPPED:
            for module, attr in sites:
                original = getattr(module, attr)
                undo.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, extra))
        try:
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "extra"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def svd_flops(shape) -> float:
    """Real flops of a thin complex SVD with both factors, computed from the
    shape: Golub & Van Loan's R-SVD count 6 l k^2 + 20 k^3 (k = min, l = max
    dimension), times 4 for complex arithmetic."""
    k, l = min(shape), max(shape)
    return 4.0 * (6.0 * l * k * k + 20.0 * k ** 3)


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer totals per operation: self times, inclusive times and counts."""
    children_time = defaultdict(float)
    for name, start, end, parent, _op, _extra in spans:
        if parent is not None:
            children_time[parent] += end - start

    def self_time(name):
        return sum(s[2] - s[1] - children_time[i] for i, s in enumerate(spans) if s[0] == name)

    def outer_time(name):
        # inclusive time, skipping spans nested in a span of the same name
        total = 0.0
        for s in spans:
            if s[0] != name:
                continue
            p = s[3]
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                total += s[2] - s[1]
        return total

    def parent_name(s):
        return spans[s[3]][0] if s[3] is not None else None

    fits = [i for i, s in enumerate(spans) if s[0] == FIT]
    direct_params = defaultdict(int)
    for s in spans:
        if s[0] == PARAMETERIZE and s[3] is not None and spans[s[3]][0] == FIT:
            direct_params[s[3]] += 1
    iterations = sum(spans[i][5]["iterations"] for i in fits if spans[i][5])
    evals = sum(direct_params[i] / spans[i][5]["r"] for i in fits if spans[i][5])
    fit_svds = [s for s in spans if s[0] == SVD and parent_name(s) == FIT]
    totals = {
        "families.tangent_basis_s": self_time("families.tangent_basis"),
        "families.parameterize_calls": sum(1 for s in spans if s[0] == PARAMETERIZE),
        "families.parameterize_s": self_time(PARAMETERIZE),
        "families.sample_point_s": self_time("families.sample_point"),
        "dominance.jacobian_s": self_time("dominance.jacobian"),
        "dominance.jacobian_cols": sum(s[5]["cols"] for s in spans
                                       if s[0] == "dominance.jacobian" and s[5]),
        "dominance.rank_s": outer_time(RANK),
        "solver.fit_s": outer_time(FIT),
        "solver.svd_s": sum(s[2] - s[1] for s in fit_svds),
        "solver.svd_flops": sum(svd_flops(s[5]["shape"]) for s in fit_svds),
        "solver.iterations": iterations,
        "solver.evals": evals,
        "solver.lu_s": outer_time("solver.lu_nopivot"),
        "companion.solve_s": outer_time("companion.decompose_companion"),
        "vandermonde.dominance_s": outer_time("vandermonde.vandermonde_dominance"),
        "io.read_s": outer_time("io.read_matrix"),
        "io.emit_s": outer_time(EMIT),
        "cli.main_s": outer_time("cli.main"),
    }
    out = {k: v / n_ops for k, v in totals.items()}
    out["solver.accept_ratio"] = iterations / evals if evals else 0.0
    return out
