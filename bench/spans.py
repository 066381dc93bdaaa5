"""In-memory spans around the public functions of each mgcs layer.

The traced run replaces the module attributes through which the pipeline
calls its layers (``mgcs.harness.discrete_ir``, ``mgcs.estimator.g_omp``,
``mgcs.basisopt.convex_update_step``, ...) with wrappers that record one span
per call: name, start, end, parent span and trial id.  The package source is
untouched and every attribute is restored when tracing stops.  Spans stay in
memory until the run writes them out.

Partition, io and cli get no spans: partition runs inside the recovery and
basisopt spans, and no workload waits on io or the command line.
"""

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a trial's root span
    trial: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _path_channels(args, result):
    paths = args[0]
    return {"channel.path_channels": paths.n_paths * paths.n_channels}


def _estimator_name(args, result):
    return {"estimator": args[0]}


def _least_squares(result):
    return {"recovery.ls_calls": 1,
            "recovery.rank_deficient": int(result.diagnostics["rank_deficient"])}


def _omp_groups(args, result):
    return {"recovery.g_omp.groups": len(result.selected_groups), **_least_squares(result)}


def _somp_groups(args, result):
    return {"recovery.g_dcs_somp.groups": len(result.selected_groups),
            **_least_squares(result)}


def _cosamp_iters(args, result):
    return {"recovery.g_cosamp.iters": result.iterations, **_least_squares(result)}


def _bpdn_iters(args, result):
    return {"recovery.g_bpdn.inner_iters": result.iterations}


def _accepted_steps(args, result):
    _, diags = result
    return {"basisopt.accepted": sum(len(h) - 1 for h in diags.objective_history)}


# (span name, function name, modules whose attribute the pipeline calls, counts)
WRAP_POINTS = (
    ("harness.simulate_trial", "simulate_trial", ("mgcs.harness",), None),
    ("harness.run_estimator", "run_estimator", ("mgcs.harness",), _estimator_name),
    ("channel.geometry", "sample_geometry", ("mgcs.harness",), None),
    ("channel.geometry", "path_params", ("mgcs.harness",), None),
    ("channel.discrete_ir", "discrete_ir", ("mgcs.harness", "mgcs.channel"), _path_channels),
    ("channel.phi_kernel", "phi_kernel", ("mgcs.channel", "mgcs.basisopt"), None),
    ("waveform.modulate", "modulate", ("mgcs.harness", "mgcs.waveform"), None),
    ("waveform.apply_channel", "apply_discrete_channel",
     ("mgcs.harness", "mgcs.waveform"), None),
    ("waveform.demodulate", "demodulate", ("mgcs.harness", "mgcs.waveform"), None),
    ("waveform.effective_coeffs", "effective_coeffs", ("mgcs.harness", "mgcs.waveform"), None),
    ("estimator.collect_measurements", "collect_measurements",
     ("mgcs.harness", "mgcs.estimator"), None),
    ("estimator.build_phi", "build_phi", ("mgcs.estimator",), None),
    ("estimator.estimate_mimo", "estimate_mimo", ("mgcs.harness", "mgcs.estimator"), None),
    ("estimator.expand_coeffs", "expand_coeffs", ("mgcs.estimator",), None),
    ("recovery.g_omp", "g_omp", ("mgcs.estimator",), _omp_groups),
    ("recovery.g_dcs_somp", "g_dcs_somp", ("mgcs.estimator",), _somp_groups),
    ("recovery.g_cosamp", "g_cosamp", ("mgcs.estimator",), _cosamp_iters),
    ("recovery.g_bpdn", "g_bpdn", ("mgcs.estimator",), _bpdn_iters),
    ("recovery.mgcs_stack", "mgcs_stack", ("mgcs.estimator",), None),
    ("basisopt.attach_kernels", "attach_kernels", ("mgcs.basisopt",), None),
    ("basisopt.optimize_blocks", "optimize_blocks", ("mgcs.basisopt",), _accepted_steps),
    ("basisopt.convex_update_step", "convex_update_step", ("mgcs.basisopt",), None),
    ("basisopt.retraction", "hermitian_unitary_exp", ("mgcs.basisopt",), None),
    ("basisopt.mc_objective", "mc_objective", ("mgcs.basisopt",), None),
)

BUSY_METRICS = (
    "channel.discrete_ir", "channel.geometry", "channel.phi_kernel",
    "waveform.modulate", "waveform.apply_channel", "waveform.demodulate",
    "waveform.effective_coeffs",
    "harness.simulate_trial",
    "estimator.collect_measurements", "estimator.build_phi", "estimator.expand_coeffs",
    "recovery.g_omp", "recovery.g_dcs_somp", "recovery.g_cosamp", "recovery.g_bpdn",
    "recovery.mgcs_stack",
    "basisopt.attach_kernels", "basisopt.optimize_blocks", "basisopt.convex_update_step",
    "basisopt.retraction", "basisopt.mc_objective",
)
SELF_METRICS = {
    "harness.simulate_self_s": "harness.simulate_trial",
    "estimator.estimate_mimo_self_s": "estimator.estimate_mimo",
}
COUNT_METRICS = (
    "channel.path_channels", "recovery.g_omp.groups", "recovery.g_dcs_somp.groups",
    "recovery.g_cosamp.iters", "recovery.g_bpdn.inner_iters",
)


@contextmanager
def patched(replacements):
    """Set ``module.attr = make(original)`` for each (module, attr, make);
    restore every original on exit."""
    saved = []
    try:
        for module, attr, make in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """Records a span per wrapped call, nested under the innermost open span."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._trial = None

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, 0.0, 0.0, parent, self._trial)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def replacements(self):
        """Patch list for :func:`patched` covering every wrap point."""
        out = []
        for name, attr, modules, counts in WRAP_POINTS:
            for module in modules:
                out.append((importlib.import_module(module), attr,
                            lambda fn, name=name, counts=counts: self.wrap(name, fn, counts)))
        return out

    def trial(self, trial_id, fn, *args):
        """Run one trial under a root span ``bench.trial``."""
        self._trial = trial_id
        try:
            return self.wrap("bench.trial", fn)(*args)
        finally:
            self._trial = None


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def nesting_errors(spans):
    """Spans that leave their parent's interval, plus trials whose self times
    do not add up to the root span's duration."""
    errors = []
    per_trial = Counter()
    roots = {}
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        per_trial[span.trial] += own
        if span.parent < 0:
            roots[span.trial] = span.duration
        else:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end or span.trial != parent.trial:
                errors.append(f"span {i} ({span.name}) escapes its parent {parent.name}")
    for trial, total in per_trial.items():
        if abs(total - roots.get(trial, 0.0)) > 1e-9 * max(1.0, total):
            errors.append(f"trial {trial}: self times sum to {total}, root lasts {roots.get(trial)}")
    return errors


def per_layer_names(estimators):
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{n}_s", "s") for n in BUSY_METRICS]
    names += [(n, "s") for n in SELF_METRICS]
    names += [(f"harness.estimator_s.{e}", "s") for e in estimators]
    names += [(n, "count") for n in COUNT_METRICS]
    names += [("channel.phi_kernel.calls", "count"),
              ("basisopt.convex_update_step.calls", "count"),
              ("recovery.rank_deficient_frac", "ratio"),
              ("basisopt.accept_frac", "ratio")]
    return names


def layer_metrics(spans, n_trials, estimators):
    """Per-layer metrics per traced trial: seconds busy, self seconds, counts
    and ratios.  Layers a workload never enters read 0."""
    busy, own, counts = Counter(), Counter(), Counter()
    for span, self_s in zip(spans, self_times(spans)):
        busy[span.name] += span.duration
        own[span.name] += self_s
        counts[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            if key == "estimator":
                busy[f"harness.estimator_s.{value}"] += span.duration
            else:
                counts[key] += value
    values = {f"{n}_s": busy[n] / n_trials for n in BUSY_METRICS}
    values.update({m: own[n] / n_trials for m, n in SELF_METRICS.items()})
    values.update({f"harness.estimator_s.{e}": busy[f"harness.estimator_s.{e}"] / n_trials
                   for e in estimators})
    values.update({n: counts[n] / n_trials for n in COUNT_METRICS})
    for name in ("channel.phi_kernel.calls", "basisopt.convex_update_step.calls"):
        values[name] = counts[name] / n_trials
    ls_calls = counts["recovery.ls_calls"]
    values["recovery.rank_deficient_frac"] = (
        counts["recovery.rank_deficient"] / ls_calls if ls_calls else 0.0)
    steps = counts["basisopt.convex_update_step.calls"]
    values["basisopt.accept_frac"] = counts["basisopt.accepted"] / steps if steps else 0.0
    return {name: (values[name], unit) for name, unit in per_layer_names(estimators)}


def span_records(spans):
    """JSON-ready span list, one dict per span."""
    return [
        {"id": i, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "trial": s.trial, **({"counts": s.counts} if s.counts else {})}
        for i, s in enumerate(spans)
    ]
