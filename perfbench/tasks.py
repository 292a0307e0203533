"""Workload task lists, generated from the workload seed.

A task is one call sequence a user would make through the package's public
API, plus an independent check of its output. Each workload is a fixed
composition of task classes ("a round"); a run repeats the round with fresh
seeded inputs until its nominal cost reaches the run length, then shuffles
the list. Class sizes are chosen so that the median and the tail percentile
of the task latencies fall inside a band of tasks of one class rather than
on the gap between two classes.

Tasks look functions up through the package's modules at call time, so a
tracer that patches those module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("analytic", "empirical", "stochastic", "cli")

# Nominal wall time of one round on a 2-CPU AMD EPYC VM when the benchmark
# was added; it only sets how many rounds a run of a given length holds.
ROUND_SECONDS = {"analytic": 0.65, "empirical": 3.6, "stochastic": 3.75, "cli": 1.2}


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload, mv, seed: int, rounds: int, workdir: str, toy: bool = False) -> list[Task]:
    """The shuffled task list of ``rounds`` rounds of ``workload``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {
        "analytic": _analytic_round,
        "empirical": _empirical_round,
        "stochastic": _stochastic_round,
        "cli": _cli_round,
    }[workload]
    tasks = []
    for r in range(rounds):
        tasks.extend(make(mv, rng, r, workdir, toy))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _jit(rng, value, spread=0.2) -> float:
    """Value scaled by a seeded factor in [e^-spread, e^spread]."""
    return float(value * np.exp(rng.uniform(-spread, spread)))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _level(rng, alpha, spread=0.1) -> float:
    """Level moved by a seeded amount on the logit scale."""
    logit = np.log(alpha / (1.0 - alpha)) + rng.uniform(-spread, spread)
    return float(1.0 / (1.0 + np.exp(-logit)))


def _equicorrelated(mv, rng, d):
    m = np.full((d, d), rng.uniform(0.2, 0.5))
    np.fill_diagonal(m, 1.0)
    return mv.ScoringMatrix(m)


def _sigmas(mv, rng, d):
    return (("ones", mv.ScoringMatrix.ones(d)), ("nd", _equicorrelated(mv, rng, d)))


def _mixed_marginals(mv, rng, d):
    out = []
    for j in range(d):
        if j % 2:
            out.append(mv.Pareto(shape=_jit(rng, 3.0, 0.1), scale=_jit(rng, 2.0)))
        else:
            out.append(mv.Exponential(rate=_jit(rng, 0.5 + 0.1 * j)))
    return tuple(out)


# -- analytic ----------------------------------------------------------------

# Bivariate independence tasks (about 2 ms) are 54 of the 78 tasks of a
# round, so the median falls inside their band; the d=8 tasks (about 50 ms)
# are the top 2.6%, so the 99th percentile falls inside theirs.
LEVELS_FULL = (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
LEVELS_IND3 = (0.001, 0.5, 0.999)
LEVELS_IND5 = (0.3, 0.7)
LEVELS_FGM = (0.01, 0.99)
LEVELS_D8 = (0.7,)


def _analytic_task(mv, name, model, sigma, alpha, display=None):
    """Newton solve, level derivative at the root, and level recovery.

    ``display`` maps the root to the two sides of the paper's verbatim
    bivariate system, which is evaluated without the package's l-functions.
    """
    scale = float(np.max(model.means()))

    def run():
        result = mv.deterministic.solve_analytic(model, sigma, alpha)
        system = mv.analysis.alpha_derivative_system(result.point, alpha, model, sigma)
        recovered = mv.analysis.alpha_of_point(result.point, model, sigma)
        return result, system, recovered

    def check(out):
        result, system, recovered = out
        reason = checks.flag(result) or checks.level_recovered(recovered, alpha)
        if reason is None and not np.all(np.isfinite(system.solution)):
            reason = "non-finite level derivative"
        if reason is None and display is not None:
            reason = checks.display_zero(*display(result.point, alpha), scale)
        return reason

    return Task(name, run, check)


def _analytic_round(mv, rng, r, workdir, toy):
    dist = mv.distributions
    E, P = mv.Exponential, mv.Pareto
    levels_full = (0.001, 0.999) if toy else LEVELS_FULL
    levels_ind3 = (0.5,) if toy else LEVELS_IND3
    levels_ind5 = (0.3,) if toy else LEVELS_IND5
    levels_fgm = (0.7,) if toy else LEVELS_FGM
    levels_d8 = (0.6,) if toy else LEVELS_D8
    big = (3, 4) if toy else (5, 8)
    tasks = []

    def add(label, model, levels, display=None):
        for sname, sigma in _sigmas(mv, rng, model.d):
            for a in levels:
                alpha = _level(rng, a)
                shown = display if sname == "ones" else None
                name = f"analytic/{label}-{sname}-a{a}-r{r}"
                tasks.append(_analytic_task(mv, name, model, sigma, alpha, shown))

    rates = (_jit(rng, 0.05), _jit(rng, 0.25))
    add("biv", mv.ModelSpec((E(rates[0]), E(rates[1]))), levels_full,
        lambda x, a, b=rates: dist.exponential_indep_sides(b, x, a))
    for shape in (_jit(rng, 2.5, 0.1), 1.2):  # 1.2: heavy tail, barely finite mean
        scales = (_jit(rng, 10.0), _jit(rng, 20.0))
        add("biv", mv.ModelSpec((P(shape, scales[0]), P(shape, scales[1]))), levels_full,
            lambda x, a, s=shape, c=scales: dist.pareto_indep_sides(s, c, x, a))
    for theta in (-1.0, 0.5, 1.0):
        rates = (_jit(rng, 0.5), _jit(rng, 1.0))
        add("fgm", mv.ModelSpec((E(rates[0]), E(rates[1])), mv.Fgm(theta)), levels_fgm,
            lambda x, a, b=rates, t=theta: dist.fgm_exponential_sides(b, t, x, a))
    add("ind3", mv.ModelSpec(_mixed_marginals(mv, rng, 3)), levels_ind3)
    add(f"ind{big[0]}", mv.ModelSpec(_mixed_marginals(mv, rng, big[0])), levels_ind5)
    add(f"ind{big[1]}", mv.ModelSpec(_mixed_marginals(mv, rng, big[1])), levels_d8)
    return tasks


# -- empirical ---------------------------------------------------------------

# (label, d, n, sigma, level, tasks per round). Labels:
#   desc   diagonal Sigma: the score is smooth and gradient descent alone
#          finishes, so these tasks time the score and residual kernels;
#   tie    sample rounded to integers, so the minimizer sits on tied values;
#   polish an integer-valued first coordinate (a count) and a second one in
#          units 100 times larger. The minimizer then sits on a tied count,
#          descent stalls there and the exact coordinate polish runs over
#          the n distinct values of the second coordinate; one or two
#          polish sweeps suffice, so no task takes many times the others.
# Sorted by cost, 18 tasks lie below the median's band (about 1-3 ms), 12
# in it (about 5 ms) and 19 above it, so the median falls inside the band.
# The n=10000 polish tasks (about 0.3 s) take most of the time, and the
# tail percentile falls inside their band. A polish task's cost follows its
# iteration count (20-40), so the band is made of many such tasks: four
# n=20000 tasks per round in its place left throughput and tail 12% apart
# between seeds, eight n=10000 tasks about 6%.
EMPIRICAL_CLASSES = (
    ("desc", 2, 1_000, "diag", 0.7, 9),
    ("desc", 2, 3_000, "diag", 0.3, 7),
    ("tie", 2, 1_000, "ones", 0.7, 2),
    ("desc", 2, 10_000, "diag", 0.7, 6),
    ("tie", 2, 3_000, "nd", 0.3, 6),
    ("desc", 3, 10_000, "diag", 0.5, 1),
    ("desc", 2, 30_000, "diag", 0.7, 2),
    ("polish", 2, 1_000, "ones", 0.7, 3),
    ("polish", 2, 5_000, "ones", 0.7, 5),
    ("polish", 2, 10_000, "ones", 0.7, 8),
)
# solve_lp with p outside {1, 2}: (p, n, level)
LP_PROBES = ((1.5, 3_000, 0.7), (3.0, 1_000, 0.3))
TOY_N = 200


def _empirical_rows(mv, rng, d, n, units):
    """Exponential, Pareto and exponential coordinates with means about 2,
    ``units`` and ``units / 5``."""
    marginals = (
        mv.Exponential(_jit(rng, 0.5)),
        mv.Pareto(_jit(rng, 3.0, 0.1), units * _jit(rng, 2.0)),
        mv.Exponential(_jit(rng, 2.5) / units),
    )
    model = mv.ModelSpec(marginals[:d])
    return model.sample_rows(n, np.random.default_rng(_seed(rng)))


def _empirical_sigma(mv, rng, kind, d):
    if kind == "diag":
        return mv.ScoringMatrix(np.diag(np.exp(rng.uniform(-0.5, 0.5, size=d))))
    return dict(_sigmas(mv, rng, d))[kind]


def _solve_task(mv, name, rows, sigma, alpha):
    sample = mv.SampleMatrix(rows)
    rows, pi = sample.rows, sigma.entries

    def run():
        return mv.deterministic.solve_empirical(sample, sigma, alpha)

    return Task(name, run, lambda res: checks.empirical(res, rows, pi, alpha))


def _lp_task(mv, name, rows, p, alpha):
    sample = mv.SampleMatrix(rows)
    rows = sample.rows

    def run():
        return mv.deterministic.solve_lp(sample, p, alpha)

    return Task(name, run, lambda res: checks.lp(res, rows, p, alpha))


def _empirical_round(mv, rng, r, workdir, toy):
    tasks = []
    for label, d, n, sname, a, count in EMPIRICAL_CLASSES:
        n = TOY_N if toy else n
        for c in range(1 if toy else count):
            rows = _empirical_rows(mv, rng, d, n, 100.0 if label == "polish" else 1.0)
            alpha = _level(rng, a)
            name = f"empirical/{label}-d{d}-n{n}-{sname}-a{a}-r{r}.{c}"
            if label == "tie":
                rows = np.round(rows)
            if label == "polish":
                rows[:, 0] = np.round(rows[:, 0])
            sigma = _empirical_sigma(mv, rng, sname, d)
            tasks.append(_solve_task(mv, name, rows, sigma, alpha))
    return tasks


def probes(mv, seed: int) -> list[Task]:
    """Tasks run after the timed loop and kept out of the pass/fail gate,
    because they failed when the benchmark was added: one n=500 sample
    solved in other units (scaled by 1e-8 it failed on every seed, shifted
    by 1e8 on most), which a solver judged in the data's units passes; and
    solve_lp, which then reported converged=False on about 1% of samples."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    model = mv.ModelSpec((mv.Exponential(1.0), mv.Exponential(1.0)))
    rows = model.sample_rows(500, rng)
    sigma = mv.ScoringMatrix([[1.0, 0.4], [0.4, 1.0]])
    out = [
        _solve_task(mv, "empirical/units-x1e-8", rows * 1e-8, sigma, 0.7),
        _solve_task(mv, "empirical/units-plus1e8", rows + 1e8, sigma, 0.7),
    ]
    for p, n, a in LP_PROBES:
        rows = _empirical_rows(mv, rng, 2, n, 1.0)
        out.append(_lp_task(mv, f"empirical/lp{p}-n{n}-a{a}", rows, p, _level(rng, a)))
    return out


# -- stochastic --------------------------------------------------------------

# Largest relative error against the Newton oracle per task class: about twice
# the largest error measured over 36 seeds when the benchmark was added.
RM_TOL = {"bulk": 0.03, "single": 0.05, "sweep": 0.07, "toy": 0.5}
SWEEP_SCHEDULES = ((2.0, 0.0, 1.0), (1.0, 0.0, 0.9), (2.0, 10.0, 0.75))


def _rm_models(mv, rng):
    E = mv.Exponential
    d3 = mv.ModelSpec((E(_jit(rng, 0.5)), E(_jit(rng, 0.8)), E(_jit(rng, 1.2))))
    return (
        ("exp", mv.ModelSpec((E(_jit(rng, 0.05)), E(_jit(rng, 0.25)))),
         mv.ScoringMatrix.ones(2), 0.7),
        ("fgm+1", mv.ModelSpec((E(_jit(rng, 0.5)), E(_jit(rng, 1.0))), mv.Fgm(1.0)),
         mv.ScoringMatrix.ones(2), 0.85),
        ("fgm-1", mv.ModelSpec((E(_jit(rng, 0.5)), E(_jit(rng, 1.0))), mv.Fgm(-1.0)),
         mv.ScoringMatrix.ones(2), 0.85),
        ("d3", d3, _equicorrelated(mv, rng, 3), 0.7),
    )


def _oracle(mv, model, sigma, alpha):
    """Newton solution, itself checked by level recovery."""
    result = mv.deterministic.solve_analytic(model, sigma, alpha)
    reason = checks.flag(result) or checks.level_recovered(
        mv.analysis.alpha_of_point(result.point, model, sigma), alpha
    )
    return result.point, reason


def _rm_task(mv, name, model, sigma, alpha, iterations, runs, seed, tol):
    config = mv.RmConfig(
        schedule=mv.StepSchedule(1.0, 0.0, 0.9), iterations=iterations, runs=runs, seed=seed
    )

    def run():
        return mv.stochastic.rm_estimate(model, sigma, alpha, config)

    def check(est):
        oracle, reason = _oracle(mv, model, sigma, alpha)
        if reason:
            return "oracle: " + reason
        if not est.result.converged:
            return f"{int(np.sum(est.diverged))} runs diverged"
        return checks.close_to_oracle(est.result.point, oracle, tol)

    return Task(name, run, check)


def _sweep_task(mv, name, model, sigma, alpha, iterations, runs, seed, tol):
    schedules = [mv.StepSchedule(*s) for s in SWEEP_SCHEDULES]
    config = mv.RmConfig(iterations=iterations, runs=runs, seed=seed)

    def run():
        return mv.stochastic.step_schedule_sweep(model, sigma, alpha, schedules, config)

    def check(out):
        rows, _ = out
        oracle, reason = _oracle(mv, model, sigma, alpha)
        if reason:
            return "oracle: " + reason
        for row in rows:
            reason = checks.close_to_oracle(row["point"], oracle, tol)
            if reason:
                return f"schedule a={row['a']} b={row['b']} kappa={row['kappa']}: {reason}"
            if abs(row["max_rel_error"] - checks.relative_error(row["point"], oracle)) > 1e-9:
                return "reported max_rel_error disagrees with the point"
        return None

    return Task(name, run, check)


def _stochastic_round(mv, rng, r, workdir, toy):
    models = _rm_models(mv, rng)
    bulk = (500, 5) if toy else (20_000, 100)
    single = (2_000, 1) if toy else (100_000, 1)
    sweep = (500, 2) if toy else (20_000, 10)
    tol = {kind: RM_TOL["toy" if toy else kind] for kind in ("bulk", "single", "sweep")}
    tasks = [
        _rm_task(mv, f"stochastic/bulk-{label}-r{r}", model, sigma, alpha,
                 *bulk, _seed(rng), tol["bulk"])
        for label, model, sigma, alpha in models
    ]
    label, model, sigma, alpha = models[r % len(models)]
    tasks.append(_rm_task(mv, f"stochastic/single-{label}-r{r}", model, sigma,
                          alpha, *single, _seed(rng), tol["single"]))
    for k in (2 * r, 2 * r + 1):
        label, model, sigma, alpha = models[k % len(models)]
        tasks.append(_sweep_task(mv, f"stochastic/sweep-{label}-r{r}.{k}", model, sigma,
                                 alpha, *sweep, _seed(rng), tol["sweep"]))
    return tasks


# -- cli ---------------------------------------------------------------------

# (command, tasks per round)
CLI_ROUND = (
    ("props", 24), ("solve", 8), ("empirical", 8), ("sweep-alpha", 2),
    ("estimate", 1), ("sweep-steps", 2),
)
CLI_SCHEDULES = "1,0,1;1,0,0.9;2,10,0.75"
CLI_RM = {"estimate": ("5000", "10"), "sweep-steps": ("5000", "5")}
CLI_EMPIRICAL_N = 300
_fresh = itertools.count()


def _fresh_path(workdir):
    """A path that no file has had in this run: outputs are never overwritten.

    On an ext4 volume mounted with ``discard``, truncating a file whose blocks
    are on disk costs tens of milliseconds, as does deleting it; a file
    written once and deleted before write-back costs microseconds. So every
    output gets a new name, and each file is written in one go.
    """
    return os.path.join(workdir, f"out-{next(_fresh)}.csv")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _point_check(header, rows, expected_header, expected_points):
    if header != expected_header:
        return f"CSV header {header} differs from {expected_header}"
    if len(rows) != len(expected_points):
        return f"{len(rows)} CSV rows, expected {len(expected_points)}"
    d = len(expected_points[0]) if expected_points else 0
    for row, point in zip(rows, expected_points):
        got = np.array([float(v) for v in row[1 : 1 + d]])
        if not np.array_equal(got, point):
            return f"CSV point {got.tolist()} differs from the library's {list(point)}"
    return None


def _result_header(d):
    return ["alpha"] + [f"x_{k + 1}" for k in range(d)] + ["residual_norm", "iterations"]


def _cli_task(mv, name, argv, workdir, expected):
    """``expected()`` makes the matching library call and returns a judge
    of the CSV header and rows: None when they match, else the reason."""
    memo = {}

    def run():
        out = _fresh_path(workdir)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = mv.cli.main([*argv, "--out", out])
        return code, buf.getvalue(), out

    def check(result):
        code, text, out = result
        if code != 0:
            return f"exit code {code}: {text.strip()[-200:]}"
        table = _read_csv(out)
        os.unlink(out)  # removed before write-back makes that slow; see _fresh_path
        if "judge" not in memo:
            memo["judge"] = expected()
        return memo["judge"](*table)

    return Task(name, run, check)


def _cli_model(mv, rng, k):
    """(flags, model) for one of three catalogued models."""
    E, P = mv.Exponential, mv.Pareto
    if k % 3 == 0:
        rates = (_jit(rng, 0.05), _jit(rng, 0.25))
        return ["--model", f"exp({rates[0]!r},{rates[1]!r})"], mv.ModelSpec(tuple(map(E, rates)))
    if k % 3 == 1:
        scales = (_jit(rng, 10.0), _jit(rng, 20.0))
        flags = ["--model", f"pareto(2.5,{scales[0]!r},{scales[1]!r})"]
        return flags, mv.ModelSpec(tuple(P(2.5, s) for s in scales))
    rates = (_jit(rng, 0.5), _jit(rng, 1.0))
    flags = ["--model", f"exp({rates[0]!r},{rates[1]!r})", "--copula", "fgm(0.5)"]
    return flags, mv.ModelSpec(tuple(map(E, rates)), mv.Fgm(0.5))


def _cli_sigma(mv, rng, k):
    if k % 2 == 0:
        return ["--sigma", "ones"], mv.ScoringMatrix.ones(2)
    sigma = _equicorrelated(mv, rng, 2)
    return ["--sigma", json.dumps(sigma.entries.tolist())], sigma


def _cli_round(mv, rng, r, workdir, toy):
    tasks = []
    for command, count in CLI_ROUND:
        for k in range(1 if toy else count):
            name = f"cli/{command}-r{r}.{k}"
            tasks.append(_cli_command(mv, rng, command, k, _seed(rng), name, workdir, toy))
    return tasks


def _cli_command(mv, rng, command, k, seed, name, workdir, toy):
    if command == "props":
        argv = ["props", "--instances", "1", "--seed", str(seed)]

        def expected():
            reports = mv.properties.run_property_suite(seed=seed, instances=1, tol=1e-6)

            def judge(header, rows):
                want = ["property", "instances", "skipped", "max_violation", "tol", "passed"]
                if header != want:
                    return f"CSV header {header} differs from {want}"
                got = [(row[0], int(row[1]), int(row[2]), float(row[3]), row[5]) for row in rows]
                lib_rows = [(x.name, x.instances, x.skipped, x.max_violation, str(x.passed))
                            for x in reports]
                if got != lib_rows:
                    return "property rows differ from run_property_suite"
                failed = [x.name for x in reports if not x.passed]
                return f"properties failed: {failed}" if failed else None

            return judge

        return _cli_task(mv, name, argv, workdir, expected)

    model_flags, model = _cli_model(mv, rng, k)
    sigma_flags, sigma = _cli_sigma(mv, rng, k)
    alpha = round(_level(rng, 0.7, 1.0), 6)
    header = _result_header(2)

    if command == "solve":
        argv = ["solve", *model_flags, *sigma_flags, "--alpha", repr(alpha)]

        def expected():
            res = mv.deterministic.solve_analytic(model, sigma, mv.Level(alpha))
            return lambda h, rows: checks.flag(res) or _point_check(h, rows, header, [res.point])

    elif command == "empirical":
        data = model.sample_rows(TOY_N if toy else CLI_EMPIRICAL_N,
                                 np.random.default_rng(seed))
        path = _fresh_path(workdir)
        with open(path, "x") as fh:  # one write: see _fresh_path
            fh.write("".join(f"{a!r},{b!r}\n" for a, b in data.tolist()))
        argv = ["empirical", "--data", path, *sigma_flags, "--alpha", repr(alpha)]

        def expected():
            sample = mv.SampleMatrix(np.loadtxt(path, delimiter=",", ndmin=2))
            res = mv.deterministic.solve_empirical(
                sample, sigma, mv.Level(alpha), mv.GradientConfig(tol=1e-10)
            )
            reason = checks.empirical(res, sample.rows, sigma.entries, alpha)
            return lambda h, rows: reason or _point_check(h, rows, header, [res.point])

    elif command == "sweep-alpha":
        grid = "0.05:0.95:10" if not toy else "0.3:0.7:2"
        argv = ["sweep-alpha", *model_flags, *sigma_flags, "--alphas", grid]

        def expected():
            start, stop, count = grid.split(":")
            levels = sorted(np.linspace(float(start), float(stop), int(count)))
            sweep = mv.analysis.asymptotic_sweep(model, sigma, levels)
            bad = [a for a, res in sweep if not res.converged]
            points = [res.point for _, res in sweep]
            return lambda h, rows: (f"levels not converged: {bad}" if bad else None) or (
                _point_check(h, rows, header, points)
            )

    else:
        iterations, runs = ("200", "2") if toy else CLI_RM[command]
        rm = ["--iterations", iterations, "--runs", runs, "--seed", str(seed)]
        config = mv.RmConfig(iterations=int(iterations), runs=int(runs), seed=seed)
        if command == "estimate":
            argv = ["estimate", *model_flags, *sigma_flags, "--alpha", repr(alpha), *rm,
                    "--schedule", "1,0,1"]

            def expected():
                est = mv.stochastic.rm_estimate(model, sigma, mv.Level(alpha), config)
                return lambda h, rows: _point_check(h, rows, header, [est.result.point])

        else:
            argv = ["sweep-steps", *model_flags, *sigma_flags, "--alpha", repr(alpha), *rm,
                    "--schedules", CLI_SCHEDULES]
            schedules = [mv.StepSchedule(*map(float, s.split(",")))
                         for s in CLI_SCHEDULES.split(";")]
            sweep_header = (["a", "b", "kappa", "x_1", "x_2", "abs_err_1", "abs_err_2",
                             "max_rel_error"])

            def expected():
                rows_lib, _ = mv.stochastic.step_schedule_sweep(
                    model, sigma, mv.Level(alpha), schedules, config
                )

                def judge(h, rows):
                    if h != sweep_header:
                        return f"CSV header {h} differs from {sweep_header}"
                    got = [np.array([float(v) for v in row[3:5]]) for row in rows]
                    if len(got) != len(rows_lib) or not all(
                        np.array_equal(g, w["point"]) for g, w in zip(got, rows_lib)
                    ):
                        return "schedule points differ from step_schedule_sweep"
                    return None

                return judge

    return _cli_task(mv, name, argv, workdir, expected)
