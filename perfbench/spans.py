"""Outside-in span recorder for the traced benchmark run.

Wrappers are installed by name around public functions and methods of the
gair package; nothing inside the package is edited. A wrapper replaces every
attribute of a loaded gair module (or the class attribute, for a method)
that refers to the wrapped callable, so calls made through a
`from .module import name` binding are traced as well. A name that no
longer exists is reported as missing and the run goes on without it.

Spans are kept in memory as [name, start, end, parent, step] and written out
by the caller when the run ends. The benchmark is single-threaded, so the
children of a span never overlap, and a span's self time is its duration
minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# Span name -> (module, attribute path). A dotted attribute path names a
# method, which is wrapped on its class.
TARGETS = {
    "tensor.backward": ("gair.tensor", "backward"),
    "encoders.rs_fwd": ("gair.encoders", "ImageEncoder.encode_feature_maps"),
    "encoders.sv_fwd": ("gair.encoders", "ImageEncoder.encode_pooled"),
    "encoders.loc_fwd": ("gair.encoders", "LocationEncoder.encode"),
    "inr.unfold3x3": ("gair.inr", "unfold3x3"),
    "inr.query_batch": ("gair.inr", "inr_query_batch"),
    "objectives.incl_loss": ("gair.objectives", "incl_loss"),
    "objectives.secl_loss": ("gair.objectives", "secl_loss"),
    "objectives.bank_snapshot": ("gair.objectives", "MemoryBank.snapshot"),
    "objectives.bank_push": ("gair.objectives", "MemoryBank.push"),
    "training.train_step": ("gair.training", "train_step"),
    "training.adamw_step": ("gair.training", "AdamW.step"),
    "training.save_checkpoint": ("gair.training", "save_checkpoint"),
    "training.load_checkpoint": ("gair.training", "load_checkpoint"),
    "datagen.generate_records": ("gair.datagen", "generate_records"),
    "datagen.write_dataset": ("gair.datagen", "write_dataset"),
    "datagen.read_dataset": ("gair.datagen", "read_dataset"),
    "datagen.make_batch": ("gair.datagen", "make_batch"),
    "evalkit.retrieval": ("gair.evalkit", "retrieval_metrics"),
    "evalkit.fit_probe": ("gair.evalkit", "fit_probe"),
    "evalkit.heatmap_inr": ("gair.evalkit", "heatmap_inr"),
    "evalkit.heatmap_loc": ("gair.evalkit", "heatmap_loc"),
}


def graph_counts(root) -> dict:
    """Nodes reachable from the loss root, their float64 share, and the MB of
    node values, computed from array sizes (not a measured allocation)."""
    seen = {id(root)}
    stack = [root]
    nodes = f64 = nbytes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        f64 += node.values.dtype == np.float64
        nbytes += node.values.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return {"graph_nodes": nodes, "graph_float64_share": f64 / nodes, "graph_mb": nbytes / 1e6}


# Counts recorded at a span's boundary, from its bound arguments and result.
# A hook that no longer fits the package (a renamed argument or attribute)
# is reported as missing, as "<span>:count", and its counts read 0.
HOOKS = {
    "tensor.backward": lambda a, out: graph_counts(a["root"]),
    "inr.query_batch": lambda a, out: {"queries": len(np.atleast_2d(a["queries"]))},
    "objectives.bank_snapshot": lambda a, out: {"rows": int(out.shape[0])},
    "training.save_checkpoint": lambda a, out: {"bytes": os.path.getsize(a["path"])},
    "datagen.generate_records": lambda a, out: {"records": len(out)},
}


class SpanRecorder:
    """Installs the wrappers while recording; keeps spans and counts in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, step]
        self.counts = []  # (span index, {count name: value})
        self.missing = []
        self.step = None
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, (module_name, path) in TARGETS.items():
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            hook = HOOKS.get(name)
            signature = inspect.signature(original) if hook else None
            wrapper = self._wrap(name, original, hook, signature)
            if "." in path:
                self._patches.append((owner, attr, original, wrapper))
            else:
                for module in _gair_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original, wrapper))

    @contextmanager
    def recording(self, step):
        """Trace every wrapped call made inside the block, tagged with `step`."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.step = step
        try:
            yield
        finally:
            self.step = None
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.step]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook, signature):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name) as index:
                result = fn(*args, **kwargs)
            if hook is not None and f"{name}:count" not in recorder.missing:
                # Counting is tracing cost: give it its own span so it is not
                # mistaken for the caller's self time.
                with recorder.span("trace.count"):
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        recorder.counts.append((index, hook(bound.arguments, result)))
                    except Exception:
                        recorder.missing.append(f"{name}:count")
            return result

        return traced

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def nesting_errors(self) -> list:
        """Spans that leave their parent's interval or overlap an earlier sibling."""
        errors = []
        last_child_end = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                continue
            _, p_start, p_end, _, _ = self.spans[parent]
            if start < p_start or end > p_end or start < last_child_end.get(parent, p_start):
                errors.append(f"span {i} ({name}) is not nested in span {parent}")
            last_child_end[parent] = end
        return errors

    def durations_ms(self, name) -> list:
        return [(end - start) * 1e3 for n, start, end, _, _ in self.spans if n == name]

    def self_ms(self, name) -> list:
        return [t * 1e3 for (n, *_), t in zip(self.spans, self.self_times()) if n == name]

    def count_values(self, name, key) -> list:
        return [c[key] for i, c in self.counts if self.spans[i][0] == name and key in c]

    def step_breakdown_ms(self, root_name):
        """Mean over `root_name` spans of (wall, time in child spans, self time)."""
        selfs = self.self_times()
        rows = []
        for i, (name, start, end, *_) in enumerate(self.spans):
            if name == root_name:
                rows.append(((end - start) * 1e3, (end - start - selfs[i]) * 1e3, selfs[i] * 1e3))
        if not rows:
            return None
        return tuple(statistics.fmean(col) for col in zip(*rows))


def _gair_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "gair" or name.startswith("gair."))]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    if "." in path:
        original = vars(owner)[attr]  # the plain function, not a bound method
    return owner, attr, original


def _median(values):
    return statistics.median(values) if values else 0.0


# Per-layer metric -> (unit, how it is computed from the recorder).
LAYER_METRICS = {
    "tensor.backward_ms": ("ms", lambda r: _median(r.durations_ms("tensor.backward"))),
    "tensor.graph_nodes": ("count", lambda r: _median(r.count_values("tensor.backward", "graph_nodes"))),
    "tensor.graph_float64_share": ("share", lambda r: _median(r.count_values("tensor.backward", "graph_float64_share"))),
    "tensor.graph_mb": ("MB", lambda r: _median(r.count_values("tensor.backward", "graph_mb"))),
    "encoders.rs_fwd_ms": ("ms", lambda r: _median(r.durations_ms("encoders.rs_fwd"))),
    "encoders.sv_fwd_ms": ("ms", lambda r: _median(r.durations_ms("encoders.sv_fwd"))),
    "encoders.loc_fwd_ms": ("ms", lambda r: _median(r.durations_ms("encoders.loc_fwd"))),
    "inr.unfold3x3_ms": ("ms", lambda r: _median(r.durations_ms("inr.unfold3x3"))),
    "inr.query_batch_ms": ("ms", lambda r: _median(r.durations_ms("inr.query_batch"))),
    "inr.queries_per_call": ("count", lambda r: _median(r.count_values("inr.query_batch", "queries"))),
    "evalkit.heatmap_inr_self_ms": ("ms", lambda r: _median(r.self_ms("evalkit.heatmap_inr"))),
    "evalkit.heatmap_loc_self_ms": ("ms", lambda r: _median(r.self_ms("evalkit.heatmap_loc"))),
    "evalkit.retrieval_ms": ("ms", lambda r: _median(r.durations_ms("evalkit.retrieval"))),
    "evalkit.fit_probe_ms": ("ms", lambda r: _median(r.durations_ms("evalkit.fit_probe"))),
    "objectives.incl_loss_ms": ("ms", lambda r: _median(r.durations_ms("objectives.incl_loss"))),
    "objectives.secl_loss_ms": ("ms", lambda r: _median(r.durations_ms("objectives.secl_loss"))),
    "objectives.bank_snapshot_ms": ("ms", lambda r: _median(r.durations_ms("objectives.bank_snapshot"))),
    "objectives.bank_push_ms": ("ms", lambda r: _median(r.durations_ms("objectives.bank_push"))),
    "objectives.bank_rows": ("count", lambda r: _median(r.count_values("objectives.bank_snapshot", "rows"))),
    "training.adamw_step_ms": ("ms", lambda r: _median(r.durations_ms("training.adamw_step"))),
    "training.step_other_ms": ("ms", lambda r: _median(r.self_ms("training.train_step"))),
    "training.load_checkpoint_ms": ("ms", lambda r: _median(r.durations_ms("training.load_checkpoint"))),
    "training.save_checkpoint_ms": ("ms", lambda r: _median(r.durations_ms("training.save_checkpoint"))),
    "training.checkpoint_mb": ("MB", lambda r: _median(r.count_values("training.save_checkpoint", "bytes")) / 1e6),
    "datagen.generate_ms_per_record": (
        "ms",
        lambda r: sum(r.durations_ms("datagen.generate_records")) / max(1, sum(r.count_values("datagen.generate_records", "records"))),
    ),
    "datagen.write_dataset_ms": ("ms", lambda r: _median(r.durations_ms("datagen.write_dataset"))),
    "datagen.read_dataset_ms": ("ms", lambda r: _median(r.durations_ms("datagen.read_dataset"))),
    "datagen.make_batch_ms": ("ms", lambda r: _median(r.durations_ms("datagen.make_batch"))),
    "trace.missing_wrappers": ("count", lambda r: len(r.missing)),
}


def layer_metrics(recorder: SpanRecorder, overhead_share: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}. A layer the workload
    does not call, or whose wrapper is missing, reads 0."""
    out = {name: (float(fn(recorder)), unit) for name, (unit, fn) in LAYER_METRICS.items()}
    out["trace.overhead_share"] = (float(overhead_share), "share")
    return out
