"""Self-test of the benchmark against the program it measures.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mgcs import harness  # noqa: E402
from mgcs.errors import ConvergenceError  # noqa: E402

SEED, TRIALS = 3, 4


def test_desk_sweep_loop_matches_run_sweep():
    """The benchmark's desk-sweep trials give run_sweep's per-estimator means."""
    w = workloads.WORKLOADS["desk-sweep"]
    point = w.setup(SEED)
    failures = workloads.Failures(w.name)
    outputs = [w.trial(point, SEED, t, failures) for t in range(TRIALS)]
    ours = workloads.mean_nmse_db(outputs, w.solvers)
    table = harness.run_sweep(harness.desk_experiment(SEED, points=(20.0,), trials=TRIALS))
    assert failures.failed == 0 and table.failures[0] == 0
    for name in w.solvers:
        assert ours[name] == (pytest.approx(table.cell(20.0, name), rel=1e-12), TRIALS)


def test_traced_trial_nests_and_restores_attributes():
    w = workloads.WORKLOADS["desk-sweep"]
    point = w.setup(SEED)
    original = harness.discrete_ir
    tracer = spans.Tracer()
    with spans.patched(tracer.replacements()):
        assert harness.discrete_ir is not original
        traced = tracer.trial(0, w.trial, point, SEED, 0, workloads.Failures(w.name))
    assert harness.discrete_ir is original
    assert traced == w.trial(point, SEED, 0, workloads.Failures(w.name))
    assert spans.nesting_errors(tracer.spans) == []
    layers = spans.layer_metrics(tracer.spans, 1, workloads.ESTIMATORS)
    assert layers["channel.path_channels"][0] > 0
    assert 0 < layers["harness.simulate_self_s"][0] < layers["harness.simulate_trial_s"][0]


def test_failures_count_package_errors_and_propagate_others():
    failures = workloads.Failures("w")

    def converge():
        raise ConvergenceError("no")

    assert failures.call("est", converge) is None
    assert failures.by_kind == {("w", "est", "ConvergenceError"): 1}
    with pytest.raises(ZeroDivisionError):
        failures.call("est", lambda: 1 / 0)
    assert failures.attempted == 2 and failures.failed == 1


def test_benchmark_json_lists_the_emitted_names():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(runner.GATED_METRICS)
    per_layer = spans.per_layer_names(workloads.ESTIMATORS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
