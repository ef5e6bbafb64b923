"""In-memory span tracer that wraps xlbeam's public entry points from outside.

Every wrapper replaces the module attribute a caller looks up: the
original function object is searched for in every loaded ``xlbeam``
module and each binding of it is swapped, so ``run_brpss`` is traced
whether it is called from ``xlbeam.harness.experiments`` or from
``xlbeam.tracking``.  An entry point that no longer exists is recorded
as absent instead of failing the run.

A span is (id, name, parent id, thread, start, end).  Its self time is
its duration minus the part covered by its children on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# (span name, home module, attribute) of each wrapped entry point.
FUNCTIONS = [
    ("codebooks.build_hybrid", "xlbeam.codebooks", "build_hybrid_codebook"),
    ("codebooks.build_subarray", "xlbeam.codebooks", "build_subarray_codebook"),
    ("training.design_all", "xlbeam.training", "design_all"),
    ("arrays.sample_channel", "xlbeam.arrays", "sample_channel"),
    ("training.run_thbt", "xlbeam.training", "run_thbt"),
    ("training.stage1_sweep", "xlbeam.training", "stage1_sweep"),
    ("training.stage2_select", "xlbeam.training", "stage2_select"),
    ("training.hfbs", "xlbeam.training", "baseline_hfbs"),
    ("training.ffbs", "xlbeam.training", "baseline_ffbs"),
    ("combining.design_hybrid", "xlbeam.combining", "design_hybrid"),
    ("combining.alignment_gain", "xlbeam.combining", "alignment_gain"),
    ("refinement.run_brpss", "xlbeam.refinement", "run_brpss"),
    ("tracking.measure_block", "xlbeam.tracking", "measure_block"),
    ("tracking.predict", "xlbeam.tracking", "predict"),
    ("tracking.filter_update", "xlbeam.tracking", "filter_update"),
    ("tracking.innovation_distance", "xlbeam.tracking", "innovation_distance"),
    ("tracking.spectral_efficiency", "xlbeam.tracking", "spectral_efficiency"),
    ("tracking.calibrate", "xlbeam.tracking", "calibrate_measurement_cov"),
    # one tracking trial: a 180-block run of one scheme, or the perfect-CSI reference
    ("harness.trial", "xlbeam.harness.experiments", "_tracking_run"),
    ("harness.trial", "xlbeam.harness.experiments", "_perfect_csi_se"),
]

FILTER_SPANS = ("tracking.predict", "tracking.filter_update",
                "tracking.innovation_distance")


class Tracer:
    """Collects spans and counters in memory for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, parent: int | None = None):
        """Run ``fn`` inside a span; ``parent`` links work handed to another thread."""
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1] if stack else parent,
                "thread": threading.get_ident(), "start": time.perf_counter()}
        stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- installing wrappers ---------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if observe is not None:
                observe(self, out, args, kwargs)
            return out
        return traced

    def install(self) -> None:
        """Wrap every entry point in FUNCTIONS, run_trials and TrackingChannel.at_block."""
        for name, module, attr in FUNCTIONS:
            self._patch(name, module, attr,
                        lambda fn, name=name: self.wrap(name, fn, OBSERVERS.get(name)))
        self._patch("harness.run_trials", "xlbeam.harness.runner", "run_trials",
                    self._wrap_run_trials)
        try:
            cls = importlib.import_module("xlbeam.tracking").TrackingChannel
            cls.at_block = self.wrap("tracking.at_block", cls.at_block)
        except (ImportError, AttributeError):
            self.absent.append("tracking.at_block")

    def _patch(self, name: str, module: str, attr: str, make) -> None:
        try:
            orig = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "xlbeam" or mod_name.startswith("xlbeam."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)

    def _wrap_run_trials(self, run_trials):
        """Also wrap each trial's worker, so every trial gets its own span."""
        @functools.wraps(run_trials)
        def traced(worker, *args, **kwargs):
            owner = []      # the run_trials span; parent of trials on pool threads

            def traced_worker(*wargs, **wkwargs):
                return self.call("harness.trial", worker, wargs, wkwargs, parent=owner[0])

            def body():
                owner.append(self.current())
                return run_trials(traced_worker, *args, **kwargs)

            return self.call("harness.run_trials", body, (), {})
        return traced

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            parent = by_id.get(s["parent"])
            if parent is not None and parent["thread"] == s["thread"]:
                covered[parent["id"]] = covered.get(parent["id"], 0.0) + s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0)
                for s in self.spans}

    def layer_metrics(self, trial_wall_s: float, workers: int) -> dict[str, float]:
        """Per-layer numbers of one process's trial phase."""
        self_s = self.self_times()
        by_id = {s["id"]: s for s in self.spans}
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        for s in self.spans:
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            total[s["name"]] = total.get(s["name"], 0.0) + self_s[s["id"]]

        def in_trial(span) -> bool:
            while span is not None:
                if span["name"] == "harness.trial":
                    return True
                span = by_id.get(span["parent"])
            return False

        trials = [s["end"] - s["start"] for s in self.spans if s["name"] == "harness.trial"]
        busy = sum(trials)
        layer_self = sum(self_s[s["id"]] for s in self.spans
                         if not s["name"].startswith("harness.")
                         and in_trial(by_id.get(s["parent"])))
        trial_ms = sorted(1e3 * t for t in trials)
        c = self.counts
        return {
            "training.stage1_sweep.calls": calls.get("training.stage1_sweep", 0),
            "training.stage1_sweep.self_s": total.get("training.stage1_sweep", 0.0),
            "training.stage2_select.self_s": total.get("training.stage2_select", 0.0),
            "training.hfbs.self_s": total.get("training.hfbs", 0.0),
            "training.ffbs.self_s": total.get("training.ffbs", 0.0),
            "arrays.sample_channel.calls": calls.get("arrays.sample_channel", 0),
            "arrays.sample_channel.self_s": total.get("arrays.sample_channel", 0.0),
            "combining.design_hybrid.calls": calls.get("combining.design_hybrid", 0),
            "combining.design_hybrid.self_s": total.get("combining.design_hybrid", 0.0),
            "combining.alignment_gain.self_s": total.get("combining.alignment_gain", 0.0),
            "refinement.run_brpss.calls": calls.get("refinement.run_brpss", 0),
            "refinement.run_brpss.self_s": total.get("refinement.run_brpss", 0.0),
            "refinement.refined_ratio": _ratio(c.get("brpss.refined", 0),
                                               calls.get("refinement.run_brpss", 0)),
            "tracking.at_block.self_s": total.get("tracking.at_block", 0.0),
            "tracking.filter.self_s": sum(total.get(n, 0.0) for n in FILTER_SPANS),
            "tracking.spectral_efficiency.self_s": total.get("tracking.spectral_efficiency", 0.0),
            "tracking.calibrate_s": self.duration("tracking.calibrate"),
            "tracking.meas_ok_ratio": _ratio(c.get("meas.ok", 0),
                                             calls.get("tracking.measure_block", 0)),
            "tracking.gate_accept_ratio": _ratio(c.get("gate.accepted", 0),
                                                 c.get("gate.tested", 0)),
            "harness.trial_ms.p50": _quantile(trial_ms, 0.5),
            "harness.trial_ms.p90": _quantile(trial_ms, 0.9),
            "harness.parallel_efficiency": _ratio(busy, workers * trial_wall_s),
            "trace.coverage": _ratio(layer_self, busy),
        }

    def duration(self, name: str) -> float:
        """Summed wall time of all spans with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def setup_metrics(self) -> dict[str, float]:
        return {
            "codebooks.build_s": (self.duration("codebooks.build_hybrid")
                                  + self.duration("codebooks.build_subarray")),
            "training.design_all_s": self.duration("training.design_all"),
        }

    def reset(self) -> None:
        """Forget spans and counters (wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()


def _observe_brpss(tracer, result, args, kwargs):
    if getattr(result, "refined", False):
        tracer.count("brpss.refined")


def _observe_measure(tracer, result, args, kwargs):
    if getattr(result, "ok", False):
        tracer.count("meas.ok")


def _observe_gate(tracer, result, args, kwargs):
    tcfg = args[2] if len(args) > 2 else kwargs.get("tcfg")
    gate = getattr(tcfg, "innovation_gate", None)
    if gate is not None:
        tracer.count("gate.tested")
        if result <= gate:
            tracer.count("gate.accepted")


OBSERVERS = {
    "refinement.run_brpss": _observe_brpss,
    "tracking.measure_block": _observe_measure,
    "tracking.innovation_distance": _observe_gate,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(100 * q) - 1]
