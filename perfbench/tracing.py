"""Spans recorded from outside the `etdkf` package.

The tracer replaces module attributes and class methods with wrappers that
record one span per call: (name, start, end, parent). `etdkf.simulate` binds
the names it imports at import time, so those are patched in the `simulate`
namespace; classes are patched on the class, so every caller sees them. Spans
stay in memory and are written out once, when the benchmark ends.

A layer's self time is its span's duration minus the time its child spans
cover. Within one root span the self times therefore add up to the root's
duration, which is checked for every traced repetition.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

# Names `etdkf.simulate` imports (or defines and calls through its own
# namespace), mapped to the layer they are reported under. Several names may
# share one layer: every craft_*/corrupt_* call counts as `attacks.craft`.
SIMULATE_NAMES = {
    "corrupt_channel": "attacks.craft",
    "corrupt_measurement": "attacks.craft",
    "craft_non_triggering": "attacks.craft",
    "craft_replay": "attacks.craft",
    "estimate_kl": "detection.estimate_kl",
    "neighbor_innovation": "detection.neighbor_innovation",
    "nominal_reference_window": "detection.reference_window",
    "innovation": "filtering.innovation",
    "innovation_covariance": "filtering.innovation_covariance",
    "kalman_gain": "filtering.kalman_gain",
    "measurement_update": "filtering.measurement_update",
    "posterior_covariance": "filtering.posterior_covariance",
    "should_transmit": "filtering.should_transmit",
    "time_update": "filtering.time_update",
    "update_predictive": "filtering.update_predictive",
    "consensus_gain": "filtering.consensus_gain",
    "connected_components": "graphs.connected_components",
    "laplacian": "graphs.laplacian",
    "neighbors": "graphs.neighbors",
    "measure": "models.measure",
    "step_process": "models.step_process",
    "resilient_measurement_update": "resilience.resilient_update",
    "trust_masked_laplacian": "resilience.trust_masked_laplacian",
    "weighted_neighbor_estimate": "resilience.weighted_neighbor_estimate",
    "run_scenario": "simulate.run_scenario",
    "write_run_dir": "simulate.write_run_dir",
    "export_csv": "simulate.export_csv",
    "compute_metrics": "simulate.compute_metrics",
    "load_trace_csv": "simulate.load_trace_csv",
}

# (module, class name, method name, layer).
METHODS = [
    ("detection", "InnovationWindow", "push", "detection.window_push"),
    ("detection", "InnovationWindow", "samples", "detection.window_samples"),
    ("detection", "DivergenceTracker", "update", "detection.tracker_update"),
    ("resilience", "BeliefState", "step", "resilience.beliefs_step"),
    ("resilience", "BoundMonitor", "start", "resilience.bound_start"),
    ("resilience", "BoundMonitor", "step", "resilience.bound_step"),
    ("models", "NoiseSource", "draw_initial_state", "models.noise_draw"),
    ("models", "NoiseSource", "draw_process_noise", "models.noise_draw"),
    ("models", "NoiseSource", "draw_measurement_noise", "models.noise_draw"),
    ("attacks", "AttackRecursion", "step", "attacks.recursion_step"),
    ("scenario", "ScenarioConfig", "validate", "scenario.validate"),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index or -1)
        self._stack = []
        self._restore = []    # (owner, attribute, original value)
        self.sampler_calls = 0
        self.sampler_fallbacks = 0

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn):
        # The body repeats span() inline: a generator-based context manager
        # would double the cost of every traced call.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one repetition's root."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        from etdkf import simulate

        # A name a later version drops or renames is skipped: its layer then
        # reports zero calls instead of breaking the benchmark.
        for attr, layer in SIMULATE_NAMES.items():
            if attr in vars(simulate):
                self._patch(simulate, attr, self._wrap(layer, getattr(simulate, attr)))
        if "craft_non_triggering" in vars(simulate):
            self._patch(simulate, "craft_non_triggering",
                        self._count_fallbacks(simulate.craft_non_triggering))

        engine_main = self._wrap("simulate.engine_main", simulate._engine)
        engine_twin = self._wrap("simulate.engine_twin", simulate._engine)

        def engine(*args, **kwargs):
            # The attack-free twin pass is the call with lite=True.
            lite = kwargs.get("lite", args[2] if len(args) > 2 else False)
            return (engine_twin if lite else engine_main)(*args, **kwargs)

        self._patch(simulate, "_engine", engine)

        for module, cls_name, method, layer in METHODS:
            cls = getattr(importlib.import_module(f"etdkf.{module}"), cls_name, None)
            if cls is not None and method in vars(cls):
                self._patch(cls, method, self._wrap(layer, vars(cls)[method]))

        from etdkf.scenario import ScenarioConfig
        from_yaml = ScenarioConfig.__dict__["from_yaml"].__func__
        self._patch(ScenarioConfig, "from_yaml",
                    classmethod(self._wrap("scenario.from_yaml", from_yaml)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_fallbacks(self, craft):
        """Count sampler calls and fallbacks from the returned `fell_back` flag
        (log lines are demoted after the first per process, so they cannot)."""

        @functools.wraps(craft)
        def counted(*args, **kwargs):
            y_a, fell_back = craft(*args, **kwargs)
            if kwargs.get("sampler"):
                self.sampler_calls += 1
                self.sampler_fallbacks += int(fell_back)
            return y_a, fell_back

        return counted

    # -- output ---------------------------------------------------------------------

    def save(self, path):
        """Write every span as columns: name id (into `names`), start, end, parent."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name_id=np.array([ids[s[0]] for s in self.spans], dtype=np.int32),
                 start=np.array([s[1] for s in self.spans]),
                 end=np.array([s[2] for s in self.spans]),
                 parent=np.array([s[3] for s in self.spans], dtype=np.int64))


def self_times(spans, first, last, roots):
    """Aggregate the trees under `roots` among spans[first:last].

    Returns ({name: (calls, self_s)}, {root name: (duration, self-time sum)}).
    Spans are appended when they open, so every parent precedes its children;
    trees under other roots (the untimed checks) are left out.
    """
    durations = [s[2] - s[1] for s in spans[first:last]]
    child = [0.0] * len(durations)
    root_of = list(range(len(durations)))
    for k in range(len(durations)):
        parent = spans[first + k][3]
        if parent >= first:
            child[parent - first] += durations[k]
            root_of[k] = root_of[parent - first]
    layers, trees = {}, {}
    for k, span in enumerate(spans[first:last]):
        root = spans[first + root_of[k]][0]
        if root not in roots:
            continue
        own = durations[k] - child[k]
        calls, total = layers.get(span[0], (0, 0.0))
        layers[span[0]] = (calls + 1, total + own)
        dur, covered = trees.get(root, (durations[root_of[k]], 0.0))
        trees[root] = (dur, covered + own)
    return layers, trees


def check_nesting(spans, first, last):
    """Problems with spans[first:last]: a child outside its parent's interval."""
    problems = []
    for k in range(first, last):
        name, start, end, parent = spans[k]
        if parent >= first:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"span {name} [{start}, {end}] escapes parent {p[0]}")
                break
    return problems
