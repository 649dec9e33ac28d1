"""Outside-in tracer: spans around the public functions of each pathent layer.

The tracer changes nothing under src/.  It replaces each wrapped
function at every place it is bound inside the pathent package, because
pipeline and witness import functions by name and fockcore imports expm
by name; patching only the defining module would miss those calls.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

# (layer name, defining module, wrapped functions)
LAYERS = (
    ("cli", "pathent.cli", ("main",)),
    ("config.load", "pathent.config", ("load_experiment_config", "parse_experiment_config", "load_counts_file", "load_settings_file")),
    ("pipeline", "pathent.pipeline", ("run_experiment", "sweep_phase", "sweep_alpha", "certify_from_counts")),
    ("pipeline.serialize", "pathent.pipeline", ("report_to_json", "write_report", "rows_to_csv")),
    ("herald.simulate", "pathent.herald", ("simulate_heralded_state",)),
    ("fockcore.expm", "pathent.fockcore", ("expm",)),
    ("measurement.click_povm", "pathent.measurement", ("click_povm",)),
    ("measurement.joint_click", "pathent.measurement", ("joint_click_probabilities",)),
    ("measurement.witness_operator", "pathent.measurement", ("phase_averaged_witness_operator",)),
    ("measurement.multiphoton", "pathent.measurement", ("multiphoton_coincidence_probability",)),
    ("witness.box_bound", "pathent.witness", ("w_ppt_fluctuation_bound", "beta_bound")),
    ("witness.optimal_alpha", "pathent.witness", ("optimal_alpha",)),
    ("witness.certify", "pathent.witness", ("certify",)),
    ("stats.sample_counts", "pathent.stats", ("sample_counts",)),
)
# Every DensityOperator construction validates its matrix with an eigvalsh.
DENSITY_CHECK = "fockcore.density_check"
LAYER_NAMES = tuple(name for name, _, _ in LAYERS) + (DENSITY_CHECK,)


def _herald_source(args, kwargs):
    """Source and truncation of a heralding call: the part a phase sweep repeats."""
    return (args[0], args[2])


def _is_point_box(args, kwargs):
    return all(s.alpha_min == s.alpha_max for s in args[:2])


ANNOTATIONS = {"herald.simulate": _herald_source, "witness.box_bound": _is_point_box}


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "op", "note")

    def __init__(self, name, thread, start, parent, op, note):
        self.name, self.thread, self.start, self.parent, self.op, self.note = name, thread, start, parent, op, note
        self.end = start


class Tracer:
    """Records spans while installed; install() and uninstall() swap the wrappers in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._root_thread = None
        self._root_stack: list[Span] = []
        self._local = threading.local()
        self._patches = None

    def _stack(self, thread):
        if thread == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func, annotate):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stack(thread)
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's first span belongs to the sweep that submitted it
                parent = self._root_stack[-1] if self._root_stack else None
            note = annotate(args, kwargs) if annotate else None
            span = Span(name, thread, time.perf_counter(), parent, self.op, note)
            stack.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def _collect_patches(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "pathent" or n.startswith("pathent.")]
        patches = []
        for name, module_name, attrs in LAYERS:
            for attr in attrs:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self._wrap(name, original, ANNOTATIONS.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original, wrapped))
        density = sys.modules["pathent.fockcore"].DensityOperator
        original = density.__dict__["__post_init__"]
        patches.append((density, "__post_init__", original, self._wrap(DENSITY_CHECK, original, None)))
        return patches

    def install(self, op) -> None:
        if self._patches is None:
            self._patches = self._collect_patches()
        self.op = op
        self._root_thread = threading.get_ident()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)
        self.op = None
        self._root_thread = None

    def write(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "op": span.op,
                    "name": span.name,
                    "thread": span.thread,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(id(span.parent)),
                }) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, per span id."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children[id(span)]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[id(span)] = span.end - span.start - covered
    return out


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of n_ops traced ops."""
    self_time = _self_times(spans)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_ms[span.name] += 1e3 * self_time[id(span)]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = calls[name] / n_ops
        metrics[f"{name}.self_ms"] = self_ms[name] / n_ops

    seen, repeats = set(), 0
    for span in spans:
        if span.name == "herald.simulate":
            key = (span.op, span.note)
            repeats += key in seen
            seen.add(key)
    metrics["herald.simulate.repeat_source_ratio"] = _ratio(repeats, calls["herald.simulate"])
    points = sum(1 for span in spans if span.name == "witness.box_bound" and span.note)
    metrics["witness.box_bound.point_box_ratio"] = _ratio(points, calls["witness.box_bound"])

    sweeps = [span for span in spans if span.name == "pipeline"]
    worker = sum(
        span.end - span.start
        for span in spans
        if span.parent is not None and span.parent.name == "pipeline" and span.thread != span.parent.thread
    )
    metrics["pipeline.pool_busy_ratio"] = _ratio(worker, sum(s.end - s.start for s in sweeps))
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
