"""matchain benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports matchain from ./src.  With
--trace 0 it prints every end-to-end metric of the workload, with units and
sample counts; with --trace 1 it makes the separate traced run and prints
the per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Workloads, oracles, seeds and
known failures are described in benchmarks/NOTES.md.
"""

import time

BENCH_START = time.perf_counter()  # setup_s counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify", "fit-large", "fit-small", "cli")
BLAS_THREADS = "1"  # at most nproc; one thread keeps run-to-run spread low
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of these and this run's
PROBE_REPEATS = 3  # interpreter and import probes of the traced run
# Machine-speed calibration: the reference kernel runs about every
# REF_EVERY_S between operations, and each operation's times are divided by
# its slowdown, the median of the REF_NEAREST reference times nearest to it
# over REF_NOMINAL_S; each set-up is divided by the median of SETUP_REFS
# reference times taken right after it.  See NOTES.md.
REF_NOMINAL_S = 0.040
REF_EVERY_S = 0.5
REF_NEAREST = 5
SETUP_REFS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads():
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def import_matchain():
    """Import matchain from this checkout's src, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "matchain", "__init__.py")):
        sys.exit(f"error: no matchain sources under {SRC}")
    sys.path.insert(0, SRC)
    import matchain
    if os.path.dirname(os.path.dirname(os.path.abspath(matchain.__file__))) != SRC:
        sys.exit(f"error: imported matchain from {matchain.__file__}, not from {SRC}")


def set_up(workload, seed):
    """Everything before the first timed operation: imports, the run's work
    directory and warm-up.  Returns the workloads module and the context."""
    import_matchain()
    import workloads
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(workdir=workdir, root=ROOT)
    workloads.warm_up(workload, ctx)
    return workloads, ctx


# ---------------------------------------------------------------------------
# measuring

@dataclass
class Record:
    """One operation: its case, wall seconds and outcome.  In the timed
    loop also its start time and slot, the wall seconds from drawing its
    inputs to the end of its check."""

    case: str
    seconds: float
    outcome: object
    at: float = 0.0
    slot: float = 0.0


def run_op(op):
    from workloads import Outcome  # not at the top: BLAS threads are pinned first
    t = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # an exception is a failed operation, not a crashed run
        outcome = Outcome(False, ("exception", type(exc).__name__, str(exc)), repr(exc))
    return Record(op.case, time.perf_counter() - t, outcome)


def reference_s():
    """Wall time of a fixed kernel that uses no matchain code: a LAPACK
    SVD, a pure-Python loop and many small NumPy products, the three kinds
    of work the workloads do."""
    import numpy as np
    rng = np.random.default_rng(0)
    A = rng.standard_normal((128, 180)) + 1j * rng.standard_normal((128, 180))
    B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    t = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(A, full_matrices=False)
    x = 0
    for i in range(100_000):
        x += i * i
    C = B
    for _ in range(1000):
        C = C @ B
        C /= np.abs(C).max()
    return time.perf_counter() - t


def setup_slowdown():
    return statistics.median(reference_s() for _ in range(SETUP_REFS)) / REF_NOMINAL_S


def run_loop(workloads, workload, seed, ctx, seconds):
    """Closed loop, one client: operations back to back, in whole cycles of
    the workload's cases, until `seconds` of wall time have passed.  The
    reference kernel runs before the first operation and then about every
    REF_EVERY_S, between operations.  Returns (records, [(time, reference
    seconds)])."""
    cycle = len(workloads.WORKLOADS[workload])
    records, refs = [], [(time.perf_counter(), reference_s())]
    start = last_ref = time.perf_counter()
    while len(records) % cycle or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        record = run_op(workloads.make_op(workload, seed, len(records), ctx))
        record.at, record.slot = t, time.perf_counter() - t
        records.append(record)
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append((time.perf_counter(), reference_s()))
            last_ref = time.perf_counter()
    return records, refs


def slowdowns(records, refs):
    """Each operation's slowdown: the median of the REF_NEAREST reference
    times nearest to its start, over REF_NOMINAL_S."""
    def near(t):
        nearest = sorted(refs, key=lambda ref: abs(ref[0] - t))[:REF_NEAREST]
        return statistics.median(s for _, s in nearest) / REF_NOMINAL_S
    return [near(r.at) for r in records]


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


def failures(records):
    return [r for r in records if not r.outcome.ok]


def setup_probe_times(workload, seed, n):
    """Set-ups of n fresh processes that stop before the first operation:
    [{"setup_s": raw seconds, "slowdown": ...}]."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_process_s(code, repeats):
    """Median wall time of `python -c code`, from start to exit."""
    import workloads
    env = workloads.cli_env(ROOT)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# reporting

def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"  {name:<28} {shown:>14} {unit:<6} {note}")


def case_summary(records):
    by_case = {}
    for r in records:
        n, fails, total = by_case.get(r.case, (0, 0, 0.0))
        by_case[r.case] = (n + 1, fails + (not r.outcome.ok), total + r.seconds)
    for case, (n, fails, total) in by_case.items():
        print(f"  case {case:<32} ops {n:>4}  failed {fails:>4}  mean {total / n:.4g} s")


def end_to_end(args):
    workloads, ctx = set_up(args.workload, args.seed)
    setups = [{"setup_s": time.perf_counter() - BENCH_START, "slowdown": setup_slowdown()}]
    try:
        records, refs = run_loop(workloads, args.workload, args.seed, ctx, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        defects = workloads.known_defects(ctx)
        setups += setup_probe_times(args.workload, args.seed, SETUP_PROBES)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    failed = failures(records)
    n = len(records)
    slow = slowdowns(records, refs)
    wall = sum(r.slot for r in records)
    lat = [r.seconds / k for r, k in zip(records, slow)]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] / p["slowdown"] for p in setups), "s"),
        "ops_per_s": ((n - len(failed)) / sum(r.slot / k for r, k in zip(records, slow)), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    p90 = percentile(lat, 90) if n >= 100 else "n/a"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"env {json.dumps(environment())}")
    print(f"slowdown: {len(refs)} reference kernels, median {statistics.median(s for _, s in refs):.4f} s "
          f"over {REF_NOMINAL_S} s; operations' slowdowns {min(slow):.3f} to {max(slow):.3f}, "
          f"median {statistics.median(slow):.3f}; times below are divided by them")
    print_table("end-to-end metrics", [
        ("setup_s", metrics["setup_s"][0], "s",
         f"median of {len(setups)} set-ups: " + ", ".join(
             f"{p['setup_s']:.3f}/{p['slowdown']:.3f}" for p in setups) + " (raw s/slowdown)"),
        ("ops_per_s", metrics["ops_per_s"][0], "1/s",
         f"{n - len(failed)} passed of {n} in {wall:.3f} s; raw {(n - len(failed)) / wall:.4g}"),
        ("op_p50_s", metrics["op_p50_s"][0], "s",
         f"{n} samples; raw {statistics.median(r.seconds for r in records):.4g}"),
        ("op_p90_s", p90, "s", f"{n} samples" + ("" if n >= 100 else "; needs >= 100")),
        ("fail_frac", len(failed) / n, "ratio", f"{len(failed)} of {n}"),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB",
         "ru_maxrss of " + ("the cli processes" if args.workload == "cli" else "this process")),
    ])
    case_summary(records)
    for r in failed:
        print(f"  FAILED {r.case}: {r.outcome.detail}")
    print("known defects, run once with fixed inputs (not timed, not counted):")
    for case, status, detail in defects:
        print(f"  defect {case:<32} {status:<8} {detail}")
    return not failed, n, len(failed), metrics


def traced_pass(workloads, workload, seed, ctx, tracer, seconds=None, n_ops=None):
    """Each operation twice with the same inputs, untraced and traced, in
    alternating order so that drift and warm caches favour neither side;
    whole cycles until `seconds` have passed, or exactly `n_ops`.  Ends
    with the layer probe, traced.  Returns (untraced, traced) records."""
    cycle = len(workloads.WORKLOADS[workload])
    plain, traced_records = [], []
    start = time.perf_counter()
    i = 0
    while n_ops is None or i < n_ops:
        if seconds is not None and i % cycle == 0 and time.perf_counter() - start >= seconds:
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            op = workloads.make_op(workload, seed, i, ctx)
            if with_trace:
                with tracer.active(i):
                    traced_records.append(run_op(op))
            else:
                plain.append(run_op(op))
        i += 1
    with tracer.active("probe"):
        workloads.layer_probe(ctx)
    return plain, traced_records


def traced(args):
    """The traced run: per-layer metrics over the traced operations plus the
    layer probe.  Outcomes must match the untraced twins exactly."""
    workloads, ctx = set_up(args.workload, args.seed)
    import tracing
    if args.workload == "cli":
        ctx.in_process_cli = True  # spans need the calls in this process
    tracer = tracing.Tracer()
    try:
        plain, traced_records = traced_pass(workloads, args.workload, args.seed, ctx, tracer,
                                            seconds=args.seconds)
        interp_s = timed_process_s("pass", PROBE_REPEATS)
        import_s = timed_process_s("import matchain.cli", PROBE_REPEATS) - interp_s
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    wall_plain = sum(r.seconds for r in plain)
    wall_traced = sum(r.seconds for r in traced_records)
    n = len(traced_records)
    mismatched = [(a.case, a.outcome.digest, b.outcome.digest)
                  for a, b in zip(plain, traced_records) if a.outcome.digest != b.outcome.digest]
    failed = failures(traced_records)
    layers = tracing.layer_metrics(tracer.spans, n)
    layers["cli.interp_s"] = interp_s
    layers["cli.import_s"] = import_s
    layers["trace.overhead_frac"] = 1.0 - wall_plain / wall_traced
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    print(f"workload {args.workload}  seed {args.seed}  traced  {n} operations  "
          f"{len(tracer.spans)} spans -> {os.path.relpath(trace_path, ROOT)}  "
          f"env {json.dumps(environment())}")
    print_table("per-layer metrics (per traced operation; layer probe included)", [
        (name, value, unit, "") for name, (value, unit) in metrics.items()])
    print(f"  untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s in the same {n} operations")
    for case, a, b in mismatched:
        print(f"  TRACING CHANGED AN OUTCOME {case}: {a} != {b}")
    for r in failed:
        print(f"  FAILED {r.case}: {r.outcome.detail}")
    return not failed and not mismatched, n, len(failed), metrics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.setup_only:
        _, ctx = set_up(args.workload, args.seed)
        elapsed = time.perf_counter() - BENCH_START
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed, "slowdown": setup_slowdown()}))
        return 0
    measure = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = measure(args)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
