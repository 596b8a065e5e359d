"""Spans for the traced benchmark run, and the per-layer metrics built from them.

A Tracer keeps its spans in memory as (name, start, end, parent, operation)
records. `Tracer.patched()` rebinds the module and class attributes that
taskquant's own code looks up at call time, so every public entry point a
workload reaches runs inside a span; nothing in the package is edited, and
every binding is restored on exit. Wrappers record only while an operation is
open, so the benchmark's own output checks stay untraced.

Times are self times: a span's duration minus the part of it that its child
spans cover. Bookkeeping done for the trace itself (overload counts, tanh
saturation, allocation peaks) runs in `trace.probe` spans, so it is charged
to no layer of the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
import tracemalloc
from collections import Counter

import numpy as np

# span name -> per-layer metric that receives the span's self time
SELF_TIME_METRICS = {
    "bench.op": "bench.self_s",
    "harness.sweep": "harness.self_s",
    "harness.simulate_ber": "harness.self_s",
    "harness.train_deep_estimator": "harness.self_s",
    "harness.train_deep_classifier": "harness.self_s",
    "scenarios.sample": "scenarios.sample_s",
    "scenarios.train_sample": "scenarios.train_sample_s",
    "scenarios.detect": "scenarios.detect_s",
    "quadratic_task.lift": "quadratic_task.lift_s",
    "quadratic_task.values": "quadratic_task.values_s",
    "quant.quantize": "quant.quantize_s",
    "quant.learned_quantize": "quant.learned_quantize_s",
    "linear_task.estimate": "linear_task.estimate_self_s",
    "linear_task.design": "linear_task.design_self_s",
    "linear_task.sqrt_pair": "linear_task.sqrt_pair_s",
    "linear_task.waterfill": "linear_task.waterfill_s",
    "linear_task.rotation": "linear_task.rotation_s",
    "linear_task.wiener": "linear_task.wiener_s",
    "linear_task.excess_mse": "linear_task.excess_mse_s",
    "hardware.constrained": "hardware.constrained_self_s",
    "hardware.lorentzian": "hardware.lorentzian_s",
    "bounds.indirect_drf": "bounds.indirect_drf_s",
    "deep.train": "deep.train_self_s",
    "deep.backward": "deep.backward_s",
    "deep.forward": "deep.forward_s",
    "deep.harden": "deep.harden_s",
    "trace.probe": "trace.probe_s",
}

# deep-training configs whose backward step time is reported on its own
STEP_CONFIGS = ("L64", "L8", "bpsk")

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    "scenarios.values_drawn": "count",
    "scenarios.train_sample_peak_mb": "MB",
    "quant.elements": "count",
    "quant.overload_fraction": "fraction",
    "harness.blocks": "count",
    "harness.rows": "count",
    "deep.steps": "count",
    **{f"deep.backward_ms_per_step.{c}": "ms" for c in STEP_CONFIGS},
    "deep.tanh_saturated_fraction": "fraction",
    "linear_task.design_calls": "count",
    "trace.wall_s": "s",
    "trace.accounted_fraction": "fraction",
    "trace.overhead_fraction": "fraction",
}

# a tanh term with |argument| above this is exactly +-1 in float64
_TANH_SATURATED = 20.0
# probe the soft quantizer's saturation on every n-th backward step
_SATURATION_EVERY = 8
# harness entry points whose sampler calls are Monte Carlo trial blocks
_BLOCK_LOOPS = ("harness.sweep", "harness.simulate_ber")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 for an operation's root
    op: int       # operation id, shared by every span of one operation


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """In-memory spans and counts for the operations of traced passes."""

    def __init__(self):
        self.spans = []
        self.op_labels = []
        self.counts = Counter()
        self.peak_bytes = 0
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def operation(self, label: str):
        self.op_labels.append(label)
        self._op = len(self.op_labels) - 1
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, probe=None):
        """fn inside a span named `name`; probe(args, kwargs, result) runs after
        the span closes, inside a trace.probe span."""
        if getattr(fn, "_perfbench_traced", False):
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if probe is not None:
                with self.span("trace.probe"):
                    probe(args, kwargs, result)
            return result

        traced._perfbench_traced = True
        return traced

    # -- probes ---------------------------------------------------------

    def _count_values(self, args, kwargs, result):
        self.counts["scenarios.values_drawn"] += sum(np.size(a) for a in result)

    def _count_quantized(self, args, kwargs, result):
        z = np.asarray(args[0] if args else kwargs["z"])
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        self.counts["quant.elements"] += z.size
        self.counts["quant.overloaded"] += int(
            np.count_nonzero(np.abs(z) > spec.support))

    def _count_rows(self, args, kwargs, result):
        # a sweep's BER rows come from nested simulate_ber calls: count once
        caller = self.spans[self.spans[self._stack[-1]].parent].name
        if caller != "harness.sweep":
            self.counts["harness.rows"] += (len(result) if isinstance(result, list)
                                            else 1)

    def _count_saturation(self, args, kwargs, result):
        self.counts["deep.backward_calls"] += 1
        if self.counts["deep.backward_calls"] % _SATURATION_EVERY:
            return
        net = args[0] if args else kwargs["net"]
        x = np.atleast_2d(np.asarray(args[1] if len(args) > 1 else kwargs["x"],
                                     dtype=float))
        for layer in net.analog:
            x = x @ layer.weights.T + layer.bias
            if layer.activation == "tanh":
                x = np.tanh(x)
        qz = net.quantizer
        arg = x[:, :, None] * qz.steepness - qz.shifts
        self.counts["deep.tanh_terms"] += arg.size
        self.counts["deep.tanh_saturated"] += int(
            np.count_nonzero(np.abs(arg) > _TANH_SATURATED))

    # -- scenario samplers --------------------------------------------

    def _wrap_train_sampler(self, fn):
        if getattr(fn, "_perfbench_traced", False):
            return fn

        def measured(rng, count):
            tracemalloc.start()
            try:
                return fn(rng, count)
            finally:
                self.peak_bytes = max(self.peak_bytes,
                                      tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return self.wrap(measured, "scenarios.train_sample")

    def spec(self, spec):
        """The scenario with its samplers running inside spans."""
        if spec is None:
            return spec
        return dataclasses.replace(
            spec,
            sampler=self.wrap(spec.sampler, "scenarios.sample", self._count_values),
            train_sampler=self._wrap_train_sampler(spec.train_sampler))

    def _spec_factory(self, fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return self.spec(fn(*args, **kwargs))
        return build

    # -- bindings ---------------------------------------------------------

    def bindings(self):
        """(owner, attribute, replacement factory) for every traced entry point."""
        from taskquant import (bounds, deep, hardware, harness, linear_task,
                               quadratic_task, scenarios)

        def span(name, probe=None):
            return lambda fn: self.wrap(fn, name, probe)

        quantize = span("quant.quantize", self._count_quantized)
        table = [
            (harness, "sweep", span("harness.sweep", self._count_rows)),
            (harness, "simulate_ber", span("harness.simulate_ber", self._count_rows)),
            (harness, "train_deep_estimator", span("harness.train_deep_estimator")),
            (harness, "train_deep_classifier", span("harness.train_deep_classifier")),
            (harness, "build_scenario", self._spec_factory),
            (scenarios, "bpsk_scenario", self._spec_factory),
            (scenarios, "csi_perturb", self._spec_factory),
            (scenarios, "map_detect", span("scenarios.detect")),
            (scenarios, "quantized_map_detect", span("scenarios.detect")),
            (quadratic_task.LiftedTaskModel, "lift", span("quadratic_task.lift")),
            (quadratic_task.QuadraticTask, "values", span("quadratic_task.values")),
            (harness, "estimate", span("linear_task.estimate")),
            (quadratic_task, "estimate", span("linear_task.estimate")),
            (linear_task, "dithered_quantize", quantize),
            (linear_task, "uniform_quantize", quantize),
            (harness, "dithered_quantize", quantize),
            (harness, "uniform_quantize", quantize),
            (deep, "learned_quantize", span("quant.learned_quantize")),
            (linear_task.LinearTaskModel, "sqrt_pair", span("linear_task.sqrt_pair")),
            (linear_task, "waterfill", span("linear_task.waterfill")),
            (linear_task, "equalizing_rotation", span("linear_task.rotation")),
            (hardware, "project_lorentzian", span("hardware.lorentzian")),
            (bounds, "indirect_drf", span("bounds.indirect_drf")),
            (harness, "indirect_drf", span("bounds.indirect_drf")),
            (deep, "train", span("deep.train")),
            (deep, "backward", span("deep.backward", self._count_saturation)),
            (deep, "forward", span("deep.forward")),
            (deep, "harden", span("deep.harden")),
        ]
        for owner in (linear_task, harness, hardware):
            table += [(owner, "design", span("linear_task.design")),
                      (owner, "optimal_digital", span("linear_task.wiener")),
                      (owner, "excess_mse", span("linear_task.excess_mse"))]
        for owner in (hardware, harness):
            table.append((owner, "constrained_design", span("hardware.constrained")))
        return table

    @contextlib.contextmanager
    def patched(self):
        """Rebind every traced entry point; restore the originals on exit.

        An attribute a later version of the package no longer has is skipped,
        so the trace loses that span rather than failing."""
        saved = []
        try:
            for owner, attr, factory in self.bindings():
                original = vars(owner).get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, traced_pass_s: list, untraced_pass_s: float) -> dict:
        """Per-layer metrics per traced pass, keyed by metric name.

        traced_pass_s holds the wall time of each traced pass; untraced_pass_s
        is the median wall time of the same pass run without tracing.
        """
        passes = len(traced_pass_s)
        traced_seconds = sum(traced_pass_s)
        totals = Counter()
        step_time, step_count = Counter(), Counter()
        blocks = design_calls = 0
        selfs = self_times(self.spans)
        for span, own in zip(self.spans, selfs):
            totals[SELF_TIME_METRICS[span.name]] += own
            if span.name == "deep.backward":
                label = self.op_labels[span.op]
                step_time[label] += own
                step_count[label] += 1
            elif (span.name == "scenarios.sample"
                  and self.spans[span.parent].name in _BLOCK_LOOPS):
                blocks += 1
            elif span.name == "linear_task.design":
                design_calls += 1
        c = self.counts
        traced_median = float(np.median(traced_pass_s))
        values = {metric: totals[metric] / passes
                  for metric in set(SELF_TIME_METRICS.values())}
        values.update({
            "scenarios.values_drawn": c["scenarios.values_drawn"] // passes,
            "scenarios.train_sample_peak_mb": self.peak_bytes / 2 ** 20,
            "quant.elements": c["quant.elements"] // passes,
            "quant.overload_fraction": _ratio(c["quant.overloaded"], c["quant.elements"]),
            "harness.blocks": blocks // passes,
            "harness.rows": c["harness.rows"] // passes,
            "deep.steps": sum(step_count.values()) // passes,
            "deep.tanh_saturated_fraction": _ratio(c["deep.tanh_saturated"],
                                                   c["deep.tanh_terms"]),
            "linear_task.design_calls": design_calls // passes,
            "trace.wall_s": traced_median,
            "trace.accounted_fraction": _ratio(sum(selfs), traced_seconds),
            "trace.overhead_fraction": traced_median / untraced_pass_s - 1.0,
        })
        for label in STEP_CONFIGS:
            values[f"deep.backward_ms_per_step.{label}"] = (
                1000.0 * _ratio(step_time[label], step_count[label]))
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def write_jsonl(self, path, origin: float):
        """One JSON object per span, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start - origin,
                    "end": span.end - origin, "parent": span.parent,
                    "op": span.op, "op_label": self.op_labels[span.op]}) + "\n")


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
