"""Tests of the benchmark itself: span arithmetic and its metric names."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent=None, stage=None, counts=None):
    return [name, start, end, parent, stage, counts]


def synthetic_tree():
    """stage.train [0, 10] holds a search [1, 9] that evaluates an objective
    twice; each evaluation calls the filter kernel once."""
    return [
        span("stage.train", 0.0, 10.0, stage="train"),
        span("optimize.minimize_scalar", 1.0, 9.0, 0, "train", [2, 1]),
        span("estimators.mse_learning", 2.0, 4.0, 1, "train"),
        span("spectral.filter_factors", 2.5, 3.0, 2, "train"),
        span("estimators.mse_learning", 5.0, 8.0, 1, "train"),
        span("spectral.filter_factors", 6.0, 7.5, 4, "train"),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(synthetic_tree()) == [2.0, 3.0, 1.5, 0.5, 1.5, 1.5]


def test_self_times_add_up_to_the_root_duration():
    spans = synthetic_tree()
    assert sum(tracing.self_times(spans)) == spans[0][tracing.END]


def test_layer_metrics_from_synthetic_tree():
    m = tracing.layer_metrics(synthetic_tree())
    assert m["estimators.mse_learning.train.evals"] == 2
    assert m["estimators.mse_learning.train.ms_per_eval"] == 2500.0
    assert m["estimators.mse_learning.validate.evals"] == 0
    assert m["spectral.filter_factors.calls"] == 2
    assert m["spectral.filter_factors.ms"] == 2000.0
    assert m["estimators.self.ms"] == 3000.0
    assert m["optimize.self.ms"] == 3000.0
    assert m["optimize.minimize_scalar.evals"] == 2
    assert m["optimize.inf_frac"] == 0.5
    assert set(m) == {name for name, _, _ in tracing.SPAN_METRICS}


def test_nested_search_counts_once_in_inf_frac():
    spans = [
        span("optimize.minimize_vector", 0.0, 4.0, counts=[10, 0]),
        span("optimize.minimize_scalar", 1.0, 2.0, 0, counts=[4, 4]),
    ]
    m = tracing.layer_metrics(spans)
    assert m["optimize.minimize_scalar.evals"] == 4
    assert m["optimize.minimize_vector.evals"] == 10
    assert m["optimize.inf_frac"] == 0.0


def test_tracer_records_nesting_and_stage():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "solver.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "solver.outer")
    with tracer.span("stage.validate"):
        assert outer(1) == 4
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    stages = {s[tracing.STAGE] for s in tracer.spans}
    assert names == ["stage.validate", "solver.outer", "solver.inner"]
    assert parents == [None, 0, 1]
    assert stages == {"validate"}


def test_search_wrapper_counts_saturated_evaluations():
    class Saturated(Exception):
        pass

    def search(objective, points):
        values = []
        for p in points:
            try:
                values.append(objective(p))
            except Saturated:
                values.append(float("inf"))
        return min(values)

    def objective(x):
        if x < 0:
            raise Saturated
        return float("nan") if x == 0 else float(x)

    tracer = tracing.Tracer()
    traced = tracer.wrap_search(search, "optimize.minimize_scalar", Saturated)
    assert traced(objective, [-1, 0, 2, 3]) == 2.0
    assert tracer.spans[0][tracing.COUNTS] == [4, 2]


def test_benchmark_json_matches_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [tuple(s) for s in tracing.PER_LAYER])
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_runner_refuses_a_tree_without_specwin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "desk", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
