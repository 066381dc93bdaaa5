"""Measurement and report of one benchmark run (see ``bench.py`` for usage)."""

import gc
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import spans
import workloads
from mgcs import estimator

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 15
SETUP_REP_S = 0.1  # each rep repeats setup this long: sub-millisecond setups time steadily
HELD_OUT_SEED = 2718  # confirms a claimed gain; never used while tuning a change
GATED_METRICS = ("setup_s", "trial_s.p50", "peak_rss_mb")


def run_trials(workload, ctx, seed, failures, *, seconds=None, min_trials=1,
               count=None, tracer=None, setup_timer=None):
    """Closed loop over trials 0, 1, ...: a fixed ``count``, or until
    ``seconds`` have passed and at least ``min_trials`` ran.  A
    ``setup_timer`` gets the elapsed time before each trial."""
    times, outputs = [], []
    start = perf_counter()
    t = 0
    while (t < count if count is not None
           else t < min_trials or perf_counter() - start < seconds):
        if setup_timer is not None:
            setup_timer.due(perf_counter() - start)
        t0 = perf_counter()
        if tracer is None:
            out = workload.trial(ctx, seed, t, failures)
        else:
            out = tracer.trial(t, workload.trial, ctx, seed, t, failures)
        times.append(perf_counter() - t0)
        outputs.append(out)
        t += 1
    return times, outputs


def trial_metrics(times):
    """Median trial time, plus p90 where at least ten trials lie beyond it."""
    n = len(times)
    out = {"trial_s.p50": (statistics.median(times), "s", n)}
    if n >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        if sum(x > p90 for x in times) >= 10:
            out["trial_s.p90"] = (p90, "s", n)
    return out


def environment(seed, blas_threads, load_start):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


@dataclass
class Measurement:
    setup_times: list
    times: list
    outputs: list
    failures: workloads.Failures
    checks: list
    tracer: spans.Tracer = None
    traced_times: list = field(default_factory=list)


class SetupTimer:
    """SETUP_REPS figures of seconds per setup, each the mean over the calls
    that fill SETUP_REP_S.  The figures are taken at evenly spaced times
    through the trial loop, not all at its start, so that ``setup_s`` sees
    the same drift of the machine's speed as the trials do.  The first comes
    after the first trial: until a trial has grown the heap, every setup
    page-faults on its large temporaries, and how long that takes varies
    with the host far more than the setup's own work does.  Each figure
    starts from a full garbage collection, so that collections triggered by
    the trials' objects do not land in it at random."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed = workload, seed
        self.schedule = [seconds * (k + 1) / (SETUP_REPS + 1) for k in range(SETUP_REPS)]
        self.figures = []

    def due(self, elapsed):
        """Take every figure scheduled at or before ``elapsed`` seconds."""
        while self.schedule and self.schedule[0] <= elapsed:
            self.schedule.pop(0)
            self._figure()

    def finish(self):
        """Take the figures the trial loop ended before."""
        self.due(float("inf"))
        return self.figures

    def _figure(self):
        gc.collect()
        calls = 0
        t0 = perf_counter()
        while calls == 0 or perf_counter() - t0 < SETUP_REP_S:
            self.workload.setup(self.seed)
            calls += 1
        self.figures.append((perf_counter() - t0) / calls)


def measure(workload, seed, seconds, trace):
    """Run the trial loop, timing the setup at intervals through it.  With
    ``trace`` the loop runs untraced for half the time and the same trials
    are replayed under spans."""
    ctx = workload.setup(seed)
    seconds_untraced = seconds / 2 if trace else seconds
    setup_timer = SetupTimer(workload, seed, seconds_untraced)
    failures = workloads.Failures(workload.name)
    feasibility = workloads.BpdnFeasibility()
    checks = []
    tracer = spans.Tracer() if trace else None
    traced_times = []
    with spans.patched([(estimator, "g_bpdn", feasibility.wrap)]):
        if trace:
            times, outputs = run_trials(workload, ctx, seed, failures,
                                        seconds=seconds_untraced, setup_timer=setup_timer)
            setup_times = setup_timer.finish()
            with spans.patched(tracer.replacements()):
                traced_times, traced_outputs = run_trials(
                    workload, ctx, seed, failures, count=len(times), tracer=tracer)
            same = all(a["nmse"] == b["nmse"] and a.get("margin_pct") == b.get("margin_pct")
                       for a, b in zip(outputs, traced_outputs))
            checks.append(("traced NMSE bit-identical to untraced", same, ""))
            errors = spans.nesting_errors(tracer.spans)
            checks.append(("self times add up to traced trial time", not errors,
                           "; ".join(errors[:3])))
        else:
            times, outputs = run_trials(workload, ctx, seed, failures,
                                        seconds=seconds_untraced, setup_timer=setup_timer,
                                        min_trials=workload.fingerprint_trials)
            setup_times = setup_timer.finish()
    bad = feasibility.violations()
    checks.append(("g-bpdn residual <= eps (1 + tol)", not bad,
                   f"{len(bad)} of {len(feasibility.records)} calls violate"))
    checks += workload.checks(ctx, outputs, OUT_DIR)
    return Measurement(setup_times, times, outputs, failures, checks, tracer, traced_times)


def run(args, blas_threads, load_start):
    """Measure, print the metric table and the JSON line, write the result
    files; returns the exit code."""
    workload = workloads.WORKLOADS[args.workload]
    m = measure(workload, args.seed, args.seconds, args.trace)
    failures = m.failures

    metrics = {"setup_s": (statistics.median(m.setup_times), "s", SETUP_REPS)}
    metrics.update(trial_metrics(m.times))
    metrics["failed_frac"] = (failures.failed / failures.attempted, "ratio", failures.attempted)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1)
    metrics.update(workload.metrics(m.outputs))
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, blas_threads, load_start),
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "setup_s_figures": m.setup_times,
        "trial_s": m.times,
        "failures": [{"workload": w, "estimator": e, "error": k, "count": c}
                     for (w, e, k), c in sorted(failures.by_kind.items())],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in m.checks],
        "tracing_overhead_s": None,  # measured by --trace 1 runs only
    }
    if args.trace:
        layers = spans.layer_metrics(m.tracer.spans, len(m.traced_times), workloads.ESTIMATORS)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["traced_trial_s"] = m.traced_times
        result["tracing_overhead_s"] = (statistics.median(m.traced_times)
                                        - statistics.median(m.times))
        reported = layers
    else:
        reported = {k: metrics[k][:2] for k in GATED_METRICS}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for record in spans.span_records(m.tracer.spans):
                fh.write(json.dumps(record) + "\n")

    for name, (value, unit, n) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit:<6} n={n}")
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"{name:<34} {value:>14.6g} {unit}")
        print(f"{'tracing_overhead_s':<34} {result['tracing_overhead_s']:>14.6g} s")
    for name, ok, detail in m.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    correct = all(ok for _, ok, _ in m.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1
