"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import tasks  # noqa: E402

mv = run.import_package("cli")


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_at_toy_size(workload, trace):
    with tempfile.TemporaryDirectory() as workdir:
        result, lines = run.run_workload(mv, workload, 3, 1, trace, workdir, toy=True,
                                         setup_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.E2E
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(expected)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "empirical":
        # the probes are traced apart: they reach solve_lp and nothing else reported
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert values["deterministic.solve_empirical.calls"] == result["attempted"] // 2
        assert values["deterministic.solve_empirical.not_converged"] == 0
        assert values["deterministic.solve_lp.calls"] == len(tasks.LP_PROBES)


def test_same_seed_same_inputs():
    def inputs(seed):
        with tempfile.TemporaryDirectory() as workdir:
            task_list = tasks.build("analytic", mv, seed, 1, workdir)
        # the models, matrices and levels a task's closure holds
        return [(t.name, [repr(c.cell_contents) for c in t.run.__closure__]) for t in task_list]

    assert inputs(5) == inputs(5)
    assert sorted(inputs(5)) != sorted(inputs(6))


@pytest.mark.parametrize("n", [1, 10, 11, 19, 20, 21, 28, 100, 148, 260, 999, 1000, 1320, 10**5])
def test_tail_percentile_keeps_ten_tasks_beyond(n):
    q = stats.tail_percentile(n)
    beyond = lambda p: n - math.ceil(p * n / 100)
    if beyond(50) < stats.MIN_BEYOND:
        assert q == 50
        return
    assert beyond(q) >= stats.MIN_BEYOND
    assert q == 99 or beyond(q + 1) < stats.MIN_BEYOND
    tail = np.percentile(np.arange(1, n + 1), q, method="inverted_cdf")
    assert n - tail >= stats.MIN_BEYOND


def test_tail_percentile_is_the_value_with_ten_beyond():
    values = list(range(1, 201))  # 200 tasks: p95 is the 190th value, 10 lie beyond
    q = stats.tail_percentile(len(values))
    assert q == 95
    assert np.percentile(values, q, method="inverted_cdf") == 190
    assert np.percentile(values, 50, method="inverted_cdf") == 100


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3].
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("c", 8.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == [10.0 - 6.0, 3.0 - 1.0, 1.0, 3.0, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert spans.nested_calls(tree, "leaf", "root") == 1
    assert spans.nested_calls(tree, "leaf", "b") == 0


def test_busy_time_counts_a_recursive_layer_once():
    tree = [
        ("solve", 0.0, 4.0, -1, 0),
        ("other", 1.0, 3.0, 0, 0),
        ("solve", 1.5, 2.5, 1, 0),
    ]
    totals = spans.layer_totals(tree)
    assert totals["solve"]["calls"] == 2
    assert totals["solve"]["busy_s"] == 4.0
    assert totals["solve"]["self_s"] == 2.0 + 1.0


def _module_state():
    tracer = spans.Tracer(mv)
    state = {mod.__name__: dict(vars(mod)) for mod in tracer._modules()}
    state["ModelSpec"] = dict(vars(mv.distributions.ModelSpec))
    return state


def test_tracer_patches_lookup_sites_and_restores_them():
    before = _module_state()
    tracer = spans.Tracer(mv)
    with tracer:
        during = _module_state()
        changed = {(mod, attr) for mod, attrs in before.items()
                   for attr, value in attrs.items() if during[mod][attr] is not value}
        assert ("mvexpectile.deterministic", "residual") in changed
        assert ("mvexpectile.analysis", "solve_analytic") in changed
        assert ("mvexpectile.cli", "main") in changed
        assert ("ModelSpec", "sample_rows") in changed
        model = mv.ModelSpec((mv.Exponential(1.0), mv.Exponential(2.0)))
        mv.deterministic.solve_analytic(model, mv.ScoringMatrix.ones(2), 0.6)
    after = _module_state()
    for mod, attrs in before.items():
        assert after[mod].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[mod][attr] is value, (mod, attr)
    names = {span[0] for span in tracer.spans}
    assert {"deterministic.solve_analytic", spans.RESIDUAL_MAP} <= names
    assert tracer.counts["deterministic.solve_analytic.iterations"] > 0


def test_tracer_restores_after_an_exception():
    before = _module_state()
    with pytest.raises(RuntimeError):
        with spans.Tracer(mv):
            raise RuntimeError("boom")
    after = _module_state()
    assert all(after[m][a] is v for m, attrs in before.items() for a, v in attrs.items())


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(tasks.WORKLOADS)


def test_notes_record_the_task_counts_and_tail_percentiles():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "notes.json").read_text())
    for name in tasks.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            n = len(tasks.build(name, mv, 1, tasks.rounds_for(name, spec["run_seconds"]),
                                workdir))
        entry = notes["workloads"][name]
        assert entry["tasks"] == n
        assert entry["tail_percentile"] == stats.tail_percentile(n)


def test_checks_catch_a_wrong_empirical_point():
    rows = np.random.default_rng(0).exponential(size=(400, 2))
    pi = np.array([[1.0, 0.4], [0.4, 1.0]])
    res = mv.solve_empirical(mv.SampleMatrix(rows), mv.ScoringMatrix(pi), 0.7)
    assert checks.empirical(res, rows, pi, 0.7) is None
    res.point = res.point * 1.01
    assert "certificate gap" in checks.empirical(res, rows, pi, 0.7)
