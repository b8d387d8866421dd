"""Spans around calls into meshseg's public functions, recorded from outside
the package.

``instrumented(tracer)`` rebinds each traced function in every meshseg
module that looks it up as a global, so calls made inside ``segment()``
and ``denoise()`` get spans too, and restores the originals on exit.
Spans stay in memory (``Tracer.spans``) until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Layer (a module of src/meshseg) -> its functions that get a span. A span
# is named "<layer>.<function>".
TRACED = {
    "core": ("build_topology", "face_geometry"),
    "prefilter": ("prefilter",),
    "edgeop": ("edge_operator_field",),
    "segment": ("segment", "region_grow", "refine"),
    "denoise": (
        "denoise",
        "filter_normals",
        "filter_unf",
        "filter_bnf",
        "filter_l1median",
        "filter_gnf",
        "vertex_update",
    ),
    "metrics": ("msae", "ev"),
    "fileio": ("write_obj", "read_obj", "write_labels", "write_ply_colored"),
    "fixtures": ("make_fixture",),
    "noise": ("add_noise",),
}

# Spans whose tracemalloc peak is recorded as "<name>.peak_mb". tracemalloc
# slows every Python allocation, so it runs only inside these calls, and
# only while ``Tracer.watch_memory`` is set.
MEMORY_TRACED = ("denoise.filter_gnf",)


class Tracer:
    """In-memory span and counter collector.

    A span is ``[id, parent_id, pass_id, name, start, end]`` with times
    from ``time.perf_counter``. Counters are kept per pass id: ``add``
    sums, ``peak`` keeps the maximum. The counter hooks of HOOKS are queued
    at the end of a span and run by ``run_hooks``, after the pass's timing
    ends, so that their work falls outside every span and pass time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self.watch_memory = False
        self._stack: list[int] = []
        self._pending: list[tuple] = []

    def add(self, name: str, value: float) -> None:
        self.counters[self.pass_id][name] += value

    def peak(self, name: str, value: float) -> None:
        bucket = self.counters[self.pass_id]
        bucket[name] = max(bucket[name], value)

    def run_hooks(self) -> None:
        for hook, args, kwargs, result in self._pending:
            hook(self, args, kwargs, result)
        self._pending.clear()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        memory_traced = name in MEMORY_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self.pass_id, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            watch_memory = memory_traced and self.watch_memory
            if watch_memory:
                tracemalloc.start()
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
                if watch_memory:
                    self.peak(f"{name}.peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if hook is not None:
                self._pending.append((hook, args, kwargs, result))
            return result

        return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every traced function to a span-recording wrapper in each
    loaded meshseg module that binds it, plus the filter dispatch table
    ``meshseg.denoise._FILTERS``; restore everything on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "meshseg" or n.startswith("meshseg.")]
    wrappers = {}
    for layer, names in TRACED.items():
        home = sys.modules[f"meshseg.{layer}"]
        for fn_name in names:
            fn = getattr(home, fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fn_name}", fn))
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in wrappers and wrappers[id(value)][0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    # filter_normals picks its backend from this dict, not from globals.
    filters = sys.modules["meshseg.denoise"]._FILTERS
    saved_filters = dict(filters)
    for key, fn in saved_filters.items():
        filters[key] = wrappers[id(fn)][1]
    try:
        yield tracer
    finally:
        filters.update(saved_filters)
        for module, attr, value in saved:
            setattr(module, attr, value)


# ---- counters recorded at span boundaries -------------------------------

def _label_array(labels):
    if labels is None:
        return None
    return np.asarray(getattr(labels, "labels", labels))


def _call_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _region_grow(tracer, args, kwargs, result):
    tracer.add("segment.raw_clusters", result.cluster_count)


def _refine(tracer, args, kwargs, result):
    clusters = _call_arg(args, kwargs, 3, "clusters")
    params = _call_arg(args, kwargs, 4, "params")
    sizes = np.asarray(clusters.cluster_sizes)
    tracer.add("segment.absorbed_faces", int(sizes[sizes < params.min_cluster_size].sum()))
    tracer.add("segment.final_clusters", result.cluster_count)
    tracer.add("segment.refined_faces", int(sizes.sum()))


def _ring_filter(tracer, args, kwargs, result):
    """Faces whose (cluster-constrained) edge ring is empty: the filter
    leaves their normal unchanged."""
    topo = _call_arg(args, kwargs, 1, "topo")
    labels = _label_array(_call_arg(args, kwargs, 4, "labels"))
    ring = topo.face_adjacent
    valid = ring >= 0
    if labels is not None:
        valid &= labels[np.where(valid, ring, 0)] == labels[:, None]
    tracer.add("denoise.fixed_faces", int((~valid.any(axis=1)).sum()))
    tracer.add("denoise.filtered_faces", topo.n_faces)


def _filter_gnf(tracer, args, kwargs, result):
    """Same-cluster face pairs whose centroids lie within r mean edge
    lengths: the neighbourhood size filter_gnf works on."""
    from scipy.spatial import cKDTree

    topo = _call_arg(args, kwargs, 1, "topo")
    geometry = _call_arg(args, kwargs, 2, "geometry")
    params = _call_arg(args, kwargs, 3, "params")
    labels = _label_array(_call_arg(args, kwargs, 4, "labels"))
    pairs = cKDTree(geometry.centroids).query_pairs(
        params.r * topo.mean_edge_length, output_type="ndarray"
    )
    if labels is not None:
        pairs = pairs[labels[pairs[:, 0]] == labels[pairs[:, 1]]]
    tracer.add("denoise.gnf_radius_pairs", len(pairs))


def _ev(tracer, args, kwargs, result):
    tracer.add("metrics.ev.points", _call_arg(args, kwargs, 0, "result").n_vertices)


def _bytes_written(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    tracer.add("fileio.bytes_written", os.path.getsize(path))


HOOKS = {
    "segment.region_grow": _region_grow,
    "segment.refine": _refine,
    "denoise.filter_unf": _ring_filter,
    "denoise.filter_bnf": _ring_filter,
    "denoise.filter_l1median": _ring_filter,
    "denoise.filter_gnf": _filter_gnf,
    "metrics.ev": _ev,
    "fileio.write_obj": _bytes_written,
    "fileio.write_labels": _bytes_written,
    "fileio.write_ply_colored": _bytes_written,
}


def self_times(spans) -> dict:
    """Per (pass_id, name): summed self time, i.e. each span's duration
    minus the part its direct children cover. Calls are serial, so
    children never overlap and their coverage is the sum of their
    durations."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for span_id, _, pass_id, name, start, end in spans:
        out[pass_id, name] += (end - start) - child_time[span_id]
    return out


def call_counts(spans) -> dict:
    out = defaultdict(int)
    for _, _, pass_id, name, _, _ in spans:
        out[pass_id, name] += 1
    return out


def top_level_time(spans) -> dict:
    """Per pass_id: summed duration of spans with no parent."""
    out = defaultdict(float)
    for _, parent, pass_id, _, start, end in spans:
        if parent is None:
            out[pass_id] += end - start
    return out
