"""Span tracer that measures the package's layers from outside.

Each public function of a layer is replaced, at every module attribute
where a caller looks it up, by a wrapper that records a span (name, start,
end, parent span, task id) and the layer's work counts. The package itself
is not modified on disk and untraced runs never install the tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _rm_counts(counts, args, kwargs, est):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    if config is None:
        config = sys.modules[est.__class__.__module__].RmConfig()
    counts["stochastic.rm_estimate.replica_steps"] += config.iterations * config.runs
    counts["stochastic.rm_estimate.diverged_runs"] += int(np.sum(est.diverged))


def _solver_counts(prefix, iterations=True):
    def hook(counts, args, kwargs, result):
        if iterations:
            counts[prefix + ".iterations"] += result.iterations
        counts[prefix + ".not_converged"] += int(not result.converged)

    return hook


def _suite_counts(counts, args, kwargs, reports):
    counts["properties.run_property_suite.instances"] += reports[0].instances
    counts["properties.run_property_suite.skipped"] += sum(r.skipped for r in reports)


def _cli_counts(counts, args, kwargs, code):
    counts["cli.main.nonzero_exit"] += int(code != 0)


def _sample_counts(counts, args, kwargs, rows):
    counts["distributions.sample_rows.rows"] += len(rows)


# (span name, defining module, attribute, count hook). A span's name is the
# layer metric prefix; the functions are wrapped wherever they are bound.
LAYERS = (
    ("core.residual", "core", "residual", None),
    ("core.score", "core", "score", None),
    ("univariate.univariate_expectile", "univariate", "univariate_expectile", None),
    ("deterministic.solve_analytic", "deterministic", "solve_analytic",
     _solver_counts("deterministic.solve_analytic")),
    ("deterministic.solve_empirical", "deterministic", "solve_empirical",
     _solver_counts("deterministic.solve_empirical")),
    ("deterministic.solve_lp", "deterministic", "solve_lp",
     _solver_counts("deterministic.solve_lp", iterations=False)),
    ("stochastic.rm_estimate", "stochastic", "rm_estimate", _rm_counts),
    ("stochastic.step_schedule_sweep", "stochastic", "step_schedule_sweep", None),
    ("analysis.alpha_derivative_system", "analysis", "alpha_derivative_system", None),
    ("analysis.alpha_of_point", "analysis", "alpha_of_point", None),
    ("analysis.asymptotic_sweep", "analysis", "asymptotic_sweep", None),
    ("properties.run_property_suite", "properties", "run_property_suite", _suite_counts),
    ("cli.main", "cli", "main", _cli_counts),
)
RESIDUAL_MAP = "distributions.residual_map"
SAMPLE_ROWS = "distributions.sample_rows"


class Tracer:
    """Installs span-recording wrappers into an imported package.

    ``install`` patches, ``uninstall`` restores every patched attribute.
    Spans stay in memory as tuples (name, start, end, parent, task) with
    ``parent`` the index of the enclosing span or -1.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counts = defaultdict(float)
        self.task_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package.__name__
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task_id)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        pkg = self.package
        for name, module, attr, hook in LAYERS:
            if not hasattr(pkg, module):  # e.g. cli, which the package does not import
                continue
            original = getattr(getattr(pkg, module), attr)
            self._patch_everywhere(original, self.wrap(name, original, hook))

        make_map = pkg.distributions.optimality_residual_fn

        @functools.wraps(make_map)
        def traced_residual_fn(*args, **kwargs):
            return self.wrap(RESIDUAL_MAP, make_map(*args, **kwargs))

        self._patch_everywhere(make_map, traced_residual_fn)

        model_spec = pkg.distributions.ModelSpec
        self._patch(
            model_spec,
            "sample_rows",
            self.wrap(SAMPLE_ROWS, model_spec.__dict__["sample_rows"], _sample_counts),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def save(self, path):
        """Write the recorded spans as compressed arrays."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            task=np.array([s[4] for s in self.spans], dtype=np.int64),
        )


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans):
    """Calls, busy time and self time per span name.

    Busy time adds up only the outermost span of a name, so a layer that
    calls itself through another path is not counted twice.
    """
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["busy_s"] += end - start
    return totals


def nested_calls(spans, child: str, ancestor: str) -> int:
    """Number of ``child`` spans that run inside some ``ancestor`` span."""
    count = 0
    for name, _, _, parent, _ in spans:
        if name != child:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count
