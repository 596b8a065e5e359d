"""Tests of the benchmark's own arithmetic and failure accounting.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from taskquant import harness  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import Outcome, failures, run_pass  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [Span("root", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("a.inner", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 6.5, 0, 0),
            Span("b.x", 5.0, 6.0, 3, 0),
            Span("b.y", 5.5, 6.5, 3, 0)]     # overlaps its sibling b.x
    assert self_times(tree) == [10.0 - 3.0 - 1.5, 2.0, 1.0, 0.0, 1.0, 1.0]


def test_nested_spans_account_for_the_operation():
    tracer = Tracer()
    with tracer.operation("op"):
        with tracer.span("harness.sweep"):
            with tracer.span("scenarios.sample"):
                pass
            with tracer.span("quant.quantize"):
                pass
    root = tracer.spans[0]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    assert abs(sum(self_times(tracer.spans)) - (root.end - root.start)) < 1e-12


def _one_row_workload(factor):
    """mc_linear reduced to one isi row, its prediction scaled by `factor`."""
    wl = workloads.McLinear(0)
    cfg = harness.ExperimentConfig(scenario="isi", method="task_based",
                                   grid=(24.0,), trials=8192, seed=5, channels=8)
    wl.sweeps = [("isi/task_based", cfg)]
    wl.predicted = {"isi/task_based": [factor * wl._predicted(cfg, 24.0)]}
    return wl


def test_wrong_prediction_counts_as_failed_operation():
    right = [run_pass(_one_row_workload(1.0))]
    assert failures(right) == []
    wrong = [run_pass(_one_row_workload(1.5))]
    assert len(failures(wrong)) == 1
    assert wrong[0][1][0].problems


def test_digest_mismatch_counts_as_failed_operation():
    first = (1.0, [Outcome("a", "1.0"), Outcome("b", "2.0")])
    again = (1.0, [Outcome("a", "1.0"), Outcome("b", "2.5")])
    assert failures([first, first]) == []
    assert len(failures([first, again])) == 1


def test_tracing_restores_bindings_and_keeps_results():
    original = harness.sweep
    wl = _one_row_workload(1.0)
    plain = run_pass(wl)
    tracer = Tracer()
    with tracer.patched():
        traced = run_pass(wl, tracer)
    assert harness.sweep is original
    assert [o.digest for o in plain[1]] == [o.digest for o in traced[1]]
    names = {s.name for s in tracer.spans}
    assert {"harness.sweep", "scenarios.sample", "quant.quantize",
            "linear_task.estimate", "linear_task.design"} <= names


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
