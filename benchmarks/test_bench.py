"""Checks of the benchmark itself, on one seed (the development seed).

    python3 -m pytest -q benchmarks/test_bench.py

The counts a later change may cite must repeat exactly, and tracing must
not change any operation's outcome.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.pin_blas_threads()
run.import_matchain()

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1  # the development seed of NOTES.md
COUNTS = ("solver.iterations", "solver.evals", "families.parameterize_calls",
          "dominance.jacobian_cols", "solver.svd_flops")


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(workdir=str(tmp_path), root=run.ROOT, in_process_cli=True)


def traced_pass(workload, ctx, n_ops):
    tracer = tracing.Tracer()
    plain, traced = run.traced_pass(workloads, workload, SEED, ctx, tracer, n_ops=n_ops)
    return plain, traced, tracing.layer_metrics(tracer.spans, n_ops)


@pytest.mark.parametrize("workload, n_ops", [("fit-small", 6), ("fit-large", 2), ("certify", 10)])
def test_counts_repeat_exactly(workload, ctx, n_ops):
    first = traced_pass(workload, ctx, n_ops)[2]
    second = traced_pass(workload, ctx, n_ops)[2]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["families.parameterize_calls"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_does_not_change_outcomes(workload, ctx):
    n_ops = len(workloads.WORKLOADS[workload])
    plain, traced, _ = traced_pass(workload, ctx, n_ops)
    assert len(plain) == len(traced) == n_ops
    assert [r.outcome.digest for r in plain] == [r.outcome.digest for r in traced]
    assert [r.outcome.ok for r in plain] == [r.outcome.ok for r in traced]
