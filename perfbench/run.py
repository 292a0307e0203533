"""mvexpectile benchmark: one closed-loop caller running a fixed task list.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 15 --trace 0

Workloads: analytic, empirical, stochastic, cli. The seed makes every
input; the task list holds as many rounds of the workload's task mix as
fit the run length at nominal cost. Tasks run one after another in this
process, each through the package's public functions, and their outputs
are checked after the timed loop. With ``--trace 0`` the last line reports
the end-to-end metrics; with ``--trace 1`` the list runs once untraced and
once under the span tracer and the last line reports the per-layer
metrics. The package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import stats
import tasks as workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"  # per-run temporary directories
OUT = ROOT / ".bench_out"  # span files of traced runs
SETUP_REPEATS = 7
WARMUP_SEED = 0

E2E = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Layers whose calls and busy time are reported; the solvers add more below.
_SIMPLE = (
    "core.residual", "core.score", spans.RESIDUAL_MAP, "univariate.univariate_expectile",
    "analysis.alpha_derivative_system", "analysis.alpha_of_point",
)
PER_LAYER = (
    *[(f"{name}.{field}", unit) for name in _SIMPLE
      for field, unit in (("calls", "count"), ("busy_s", "s"))],
    (f"{spans.SAMPLE_ROWS}.calls", "count"),
    (f"{spans.SAMPLE_ROWS}.rows", "count"),
    (f"{spans.SAMPLE_ROWS}.busy_s", "s"),
    *[(f"deterministic.{solver}.{field}", unit) for solver in ("solve_analytic", "solve_empirical")
      for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                          ("iterations", "count"), ("not_converged", "count"))],
    ("deterministic.solve_analytic.residual_evals_per_iteration", "ratio"),
    *[(f"deterministic.solve_lp.{field}", unit) for field, unit in
      (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("not_converged", "count"))],
    *[(f"stochastic.rm_estimate.{field}", unit) for field, unit in
      (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("replica_steps", "count"),
       ("diverged_runs", "count"))],
    ("stochastic.rm_estimate.ns_per_replica_step", "ns"),
    *[(f"{name}.{field}", unit)
      for name in ("stochastic.step_schedule_sweep", "analysis.asymptotic_sweep")
      for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))],
    *[(f"properties.run_property_suite.{field}", unit) for field, unit in
      (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("instances", "count"),
       ("skipped", "count"))],
    *[(f"cli.main.{field}", unit) for field, unit in
      (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("nonzero_exit", "count"))],
    ("trace.overhead_ratio", "ratio"),
)
LP_LAYER = "deterministic.solve_lp"  # reached only by the empirical probes


def import_package(workload):
    """Import mvexpectile from this checkout's ``src``; exit 2 without it."""
    sys.path.insert(0, str(SRC))
    try:
        mv = importlib.import_module("mvexpectile")
        if workload == "cli":
            importlib.import_module("mvexpectile.cli")
    except ImportError as exc:
        sys.exit(f"cannot import mvexpectile from {SRC}: {exc}")
    if not Path(mv.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"mvexpectile was imported from {mv.__file__}, not from {SRC}")
    return mv


# Called between tasks, outside the timed interval: returning free heap
# memory to the kernel makes each task's memory peak independent of how
# earlier tasks left the heap. Without it the peak RSS of one and the same
# stochastic run read 131 or 146 MB at random.
try:
    release_heap = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: nothing to release
    release_heap = lambda pad: 0  # noqa: E731


def timed_loop(task_list, tracer=None):
    """Run every task once, back to back; returns the latencies, outputs
    and errors. Traced spans carry the task's index in the list."""
    latencies, outputs, errors = [], [], []
    for index, task in enumerate(task_list):
        if tracer is not None:
            tracer.task_id = index
        release_heap(0)
        start = time.perf_counter()
        try:
            outputs.append(task.run())
            errors.append(None)
        except Exception as exc:  # a failing task is counted, the run goes on
            outputs.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    return latencies, outputs, errors


def check_all(task_list, outputs, errors):
    """Failure reason per task (None for a pass); runs outside the timed loop."""
    reasons = []
    for task, out, err in zip(task_list, outputs, errors):
        if err is None:
            try:
                err = task.check(out)
            except Exception as exc:  # a check that cannot run fails its task
                err = f"check raised {type(exc).__name__}: {exc}"
        reasons.append(err)
    return reasons


def measure_setup(workload, seed, seconds, repeats):
    """Median wall time of fresh processes that import, build inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer_metrics(tracer, probe_tracer, untraced_wall, traced_wall):
    """Layer metrics of the gated tasks; only the solve_lp ones, which no
    gated task reaches, come from the probes' own tracer."""
    totals = spans.layer_totals(tracer.spans)
    probe_totals = spans.layer_totals(probe_tracer.spans)
    values = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        source, counts = ((probe_totals, probe_tracer.counts) if layer == LP_LAYER
                          else (totals, tracer.counts))
        if field in ("calls", "busy_s", "self_s"):
            values[name] = source[layer][field] if layer in source else 0
        else:
            values[name] = counts.get(name, 0)
    counts = tracer.counts
    iterations = counts["deterministic.solve_analytic.iterations"]
    evals = spans.nested_calls(tracer.spans, spans.RESIDUAL_MAP, "deterministic.solve_analytic")
    values["deterministic.solve_analytic.residual_evals_per_iteration"] = (
        evals / iterations if iterations else 0.0
    )
    steps = counts["stochastic.rm_estimate.replica_steps"]
    values["stochastic.rm_estimate.ns_per_replica_step"] = (
        1e9 * values["stochastic.rm_estimate.busy_s"] / steps if steps else 0.0
    )
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def set_up(mv, workload, seed, seconds, workdir, toy=False):
    """Build the task list and warm up on one toy-size round.

    The warm-up round is the same for every seed: it only loads code paths,
    and a seeded one made set-up time follow the seed (cli: 70 or 105 ms of
    warm-up, depending on the property instance drawn).
    """
    rounds = 1 if toy else workloads.rounds_for(workload, seconds)
    task_list = workloads.build(workload, mv, seed, rounds, workdir, toy)
    timed_loop(workloads.build(workload, mv, WARMUP_SEED, 1, workdir, toy=True))
    return task_list


def run_workload(mv, workload, seed, seconds, trace, workdir, toy=False,
                 setup_repeats=SETUP_REPEATS):
    """Build, warm up, time and check one workload.

    Returns the result object of the last output line and the report lines
    printed before it. ``toy`` runs one round at toy sizes through the same
    path; set-up is still timed on the full-size inputs.
    """
    task_list = set_up(mv, workload, seed, seconds, workdir, toy)
    q = stats.tail_percentile(len(task_list))
    latencies, outputs, errors = timed_loop(task_list)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons = check_all(task_list, outputs, errors)

    probes = workloads.probes(mv, seed) if workload == "empirical" else []
    if trace:
        tracer = spans.Tracer(mv)
        with tracer:
            traced, outputs, errors = timed_loop(task_list, tracer)
        reasons += check_all(task_list, outputs, errors)
        probe_tracer = spans.Tracer(mv)
        with probe_tracer:
            _, probe_out, probe_err = timed_loop(probes, probe_tracer)
        metrics = per_layer_metrics(tracer, probe_tracer, sum(latencies), sum(traced))
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    else:
        values = {
            "latency_p50_ms": 1e3 * np.percentile(latencies, 50, method="inverted_cdf"),
            "latency_tail_ms": 1e3 * np.percentile(latencies, q, method="inverted_cdf"),
            "tasks_per_s": len(task_list) / sum(latencies),
            "setup_s": measure_setup(workload, seed, seconds, setup_repeats),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
        _, probe_out, probe_err = timed_loop(probes)
    probe_reasons = check_all(probes, probe_out, probe_err)

    lines = [f"workload {workload}: seed {seed}, {len(task_list)} tasks, closed loop, "
             f"1 caller, tail percentile p{q}"]
    lines += [f"FAILED {task.name}: {reason}"
              for task, reason in zip(task_list, reasons) if reason]
    lines += [f"probe {task.name} (outside the gate): "
              + (f"FAILED: {reason}" if reason else "passed")
              for task, reason in zip(probes, probe_reasons)]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    failed = sum(r is not None for r in reasons)
    result = {"correct": failed == 0, "attempted": len(reasons), "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs, warm up and exit")
    args = parser.parse_args(argv)

    mv = import_package(args.workload)
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.setup_only:
            set_up(mv, args.workload, args.seed, args.seconds, workdir)
            return 0
        result, lines = run_workload(mv, args.workload, args.seed, args.seconds, args.trace,
                                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
