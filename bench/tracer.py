"""Span tracing of the ktransformer package from outside it.

``Tracer.install`` replaces every public function of the traced modules,
and the public methods of ``model.KTransformer``, at each module binding
the program calls through: ``ktransformer.model.kmeans_fit`` and
``ktransformer.cluster.kmeans_fit`` both get the wrapper of the one
function. The package code is not edited; ``uninstall`` puts every
original back.

Each call records one span: name, start, end and the index of the span that
was open when it started (its parent). Spans stay in memory, in flat arrays,
until ``write_json``. A few wrappers also read a count from values the call
already exposes (``COUNTERS``). A name that no longer exists is reported
absent; a counter that cannot read its value is dropped and reported absent
rather than crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("tensor", "layers", "cluster", "model", "corpus", "metrics", "trainer", "cli")
TRACED_CLASSES = {"model": ("KTransformer",)}


def _bound_arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_tape_ops(fn, args, kwargs, out, add):
    add("tensor.tape_ops", len(_bound_arg(fn, "tape", args, kwargs)))


def _count_matmul(fn, args, kwargs, out, add):
    a, b = args[0].data.shape, args[1].data.shape
    batch = 1 if len(a) == len(b) == 2 else int(np.prod(np.broadcast_shapes(a[:-2], b[:-2])))
    add("tensor.matmul.mflop", 2e-6 * batch * a[-2] * a[-1] * b[-1])


def _count_kmeans(fn, args, kwargs, out, add):
    add("cluster.kmeans_fit.iters", out.iterations)


def _count_batches(fn, args, kwargs, out, add):
    for b in out:
        add("corpus.padded_tokens", b.src_ids.size + b.tgt_ids.size)
        add("corpus.real_tokens", int(b.src_mask.sum()) + int(b.tgt_mask.sum()))


def _count_checkpoint(fn, args, kwargs, out, add):
    add("trainer.save_checkpoint.bytes", os.path.getsize(_bound_arg(fn, "path", args, kwargs)))


# span name -> reads counts from the call's arguments and result
COUNTERS = {
    "tensor.backward": _count_tape_ops,
    "tensor.matmul": _count_matmul,
    "cluster.kmeans_fit": _count_kmeans,
    "corpus.make_batches": _count_batches,
    "trainer.save_checkpoint": _count_checkpoint,
}

# counted metric -> the span whose counter produces it
COUNTED = {
    "tensor.tape_ops": "tensor.backward",
    "tensor.matmul.mflop": "tensor.matmul",
    "cluster.kmeans_fit.iters": "cluster.kmeans_fit",
    "trainer.save_checkpoint.bytes": "trainer.save_checkpoint",
    "corpus.pad_ratio": "corpus.make_batches",
}


def discover() -> dict:
    """Map each traced function object to its span name ("module.function")."""
    targets = {}
    for short in MODULES:
        try:
            mod = importlib.import_module(f"ktransformer.{short}")
        except ImportError:
            continue
        owners = [mod] + [getattr(mod, c) for c in TRACED_CLASSES.get(short, ()) if hasattr(mod, c)]
        for owner in owners:
            for name, obj in vars(owner).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                span = f"{short}.{name}"
                if span not in targets.values():
                    targets[obj] = span
    return targets


class Tracer:
    def __init__(self):
        self.targets = discover()
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = {}
        self.broken_counters: set[str] = set()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, fn, span: str):
        name_id = len(self.names)
        self.names.append(span)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None and span not in self.broken_counters:
                try:
                    counter(fn, args, kwargs, out, self._add)
                except Exception:  # a renamed argument or field must not stop the run
                    self.broken_counters.add(span)
            return out

        return traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, span) for fn, span in self.targets.items()}
        owners = [m for n, m in list(sys.modules.items()) if n == "ktransformer" or n.startswith("ktransformer.")]
        for short, classes in TRACED_CLASSES.items():
            mod = sys.modules.get(f"ktransformer.{short}")
            owners += [getattr(mod, c) for c in classes if mod is not None and hasattr(mod, c)]
        for owner in owners:
            for name, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((owner, name, obj))
                    setattr(owner, name, wrappers[obj])

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patches):
            setattr(owner, name, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_span(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self milliseconds); self time is the span's
        duration minus the durations of its direct children."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_ms = np.bincount(names, weights=self_s, minlength=len(self.names)) * 1000.0
        return {n: (int(calls[i]), float(self_ms[i])) for i, n in enumerate(self.names)}

    def layer_metrics(self, metric_names, items: int) -> tuple[dict[str, float], list[str]]:
        """Values of the named per-layer metrics, normalised per item (train
        step or translated line), plus the names that could not be measured.

        A name is "<span>.calls", "<span>.self_ms" or a key of ``COUNTED``;
        ``corpus.pad_ratio`` is padded over real tokens of every batch built.
        Absent metrics read 0.
        """
        spans = self.per_span()
        present = set(self.names)
        values, absent = {}, []
        for name in metric_names:
            span, _, kind = name.rpartition(".")
            if name in COUNTED:
                span = COUNTED[name]
                ok = span in present and span not in self.broken_counters
                if name == "corpus.pad_ratio":
                    real = self.counts.get("corpus.real_tokens", 0.0)
                    value = self.counts.get("corpus.padded_tokens", 0.0) / real if real else 0.0
                else:
                    value = self.counts.get(name, 0.0) / items
            elif kind in ("calls", "self_ms"):
                ok = span in present
                calls, self_ms = spans.get(span, (0, 0.0))
                value = (calls if kind == "calls" else self_ms) / items
            else:
                ok, value = False, 0.0
            values[name] = value if ok else 0.0
            if not ok:
                absent.append(name)
        return values, absent

    def write_json(self, path: Path, extra: dict) -> None:
        """Write every span, times in nanoseconds from the first span's start."""
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        t0 = float(starts.min()) if len(starts) else 0.0
        doc = dict(extra)
        doc.update(
            names=self.names,
            span_name=list(self.span_name),
            span_parent=list(self.span_parent),
            start_ns=np.rint((starts - t0) * 1e9).astype(np.int64).tolist(),
            end_ns=np.rint((np.frombuffer(self.span_end, dtype=np.float64) - t0) * 1e9).astype(np.int64).tolist(),
            counts=self.counts,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
