"""Outside-in layer trace of one fractalheat operation.

The tracer wraps the public entry points of each module at the binding its
caller uses (``fractalheat.pipeline.stable_comparison_reports`` rather than
``fractalheat.bounds.stable_comparison_reports``, because the pipeline
imports that name directly) and restores every binding afterwards.  Nothing
under ``src/`` changes.

Three kinds of probe:

* spans (name, start, end, parent) for calls that happen at most a few
  hundred times per operation;
* timed counters for calls made tens of thousands of times (kernel
  ``value``, subordinator densities): a count and a total, no span object;
* plain counters for the innermost calls (scipy ``quad``), a count only.

Every per-layer time is a *self* time: a span's duration minus its child
spans and the timed counters that ran directly inside it.  No span is ever
opened inside a timed counter, so nothing is subtracted twice.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import fractalheat.bounds as fh_bounds
import fractalheat.kernels as fh_kernels
import fractalheat.pipeline as fh_pipeline
import fractalheat.subordinate as fh_subordinate
import fractalheat.subordinators as fh_subordinators

STAGES = fh_pipeline.STAGES

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "geometry.validate_s": "s",
    "geometry.graph_build_s": "s",
    "geometry.graph_build_calls": "count",
    "geometry.graph_vertices": "count",
    "labeling.build_s": "s",
    "kernels.eigh_s": "s",
    "kernels.eigh_calls": "count",
    "kernels.eigh_n3": "count",
    "kernels.generator_s": "s",
    "kernels.decompose_s": "s",
    "kernels.cache_misses": "count",
    "kernels.cache_disk_hits": "count",
    "kernels.cache_memory_hits": "count",
    "kernels.cache_store_s": "s",
    "kernels.cache_load_s": "s",
    "kernels.cache_bytes_written": "B",
    "kernels.cache_bytes_read": "B",
    "kernels.matrix_s": "s",
    "kernels.matrix_calls": "count",
    "kernels.matrix_repeat_calls": "count",
    "kernels.matrix_unique_ratio": "ratio",
    "kernels.matrix_elements": "count",
    "kernels.matrix_bytes_computed": "B",
    "kernels.value_calls": "count",
    "kernels.value_s": "s",
    "subordinators.density_s": "s",
    "subordinators.density_points": "count",
    "subordinators.quad_calls": "count",
    "subordinators.transform_s": "s",
    "subordinators.transform_calls": "count",
    "subordinators.verify_s": "s",
    "subordinate.crosscheck_s": "s",
    "subordinate.quadrature_calls": "count",
    "subordinate.quad_calls": "count",
    "bounds.study_build_s": "s",
    "bounds.stable_reports_s": "s",
    "bounds.relativistic_reports_s": "s",
    "bounds.truncation_bracket_s": "s",
    "bounds.claims": "count",
    "bounds.claims_failed": "count",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.plot_rows_s": "s",
    "pipeline.output_files": "count",
    "pipeline.output_bytes": "B",
    "pipeline.cold_warm_differing_files": "count",
    "trace.run_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    kind: str | None = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def to_dict(self, origin: float) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "self": self.self_time,
        }
        if self.kind:
            out["kind"] = self.kind
        return out


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.calls: Counter = Counter()  # probe name -> calls
        self.totals: Counter = Counter()  # timed-counter name -> seconds; byte and size sums
        self.top_counter_time = 0.0  # timed counters outside every span
        self._busy: set[str] = set()
        self._seen_kernels: dict[int, object] = {}
        self._matrix_keys: set = set()
        self._keep: list = []  # keeps ids in the keys above unique
        self.origin = time.perf_counter()

    # -- probes --------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)
        self.calls[name] += 1
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_time += span.end - span.start

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def timed_counter(self, name: str, fn, size=None):
        """Count and time the outermost of nested calls; no span object."""

        def wrapper(*args, **kwargs):
            if name in self._busy:
                return fn(*args, **kwargs)
            self._busy.add(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._busy.discard(name)
                self.calls[name] += 1
                self.totals[name] += dt
                if size is not None:
                    self.totals[name + ".points"] += size(args, kwargs)
                if self.stack:
                    self.stack[-1].child_time += dt
                else:
                    self.top_counter_time += dt

        return wrapper

    def counter(self, name: str, fn, nbytes=None):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            if nbytes is not None:
                self.totals[name + ".bytes"] += nbytes(args, kwargs)
            return result

        return wrapper

    # -- span post-processing ------------------------------------------

    def _after_graph(self, args, kwargs, graph):
        self.totals["graph_vertices"] += graph.n_vertices

    def _after_eigh(self, args, kwargs, result):
        n = int(np.shape(args[0])[0])
        self.totals["eigh_n3"] += n**3

    def _after_matrix(self, args, kwargs, result):
        kern = args[0]
        bound = _matrix_args(*args[1:], **kwargs)
        key = (id(kern),) + tuple(
            v.tobytes() if isinstance(v, np.ndarray) else v for v in bound
        )
        if key in self._matrix_keys:
            self.calls["matrix_repeat"] += 1
        self._matrix_keys.add(key)
        self._keep.append(kern)
        self.totals["matrix_elements"] += result.size
        self.totals["matrix_bytes"] += result.nbytes

    def kernel_lookup(self, fn):
        """KernelCache.kernel: a memory hit returns an object returned before;
        a miss decomposes; anything else was read from the cache file."""

        def wrapper(cache, *args, **kwargs):
            decomposed = self.calls["decompose"]
            span = self.open("kernels.KernelCache.kernel")
            try:
                kern = fn(cache, *args, **kwargs)
            finally:
                self.close(span)
            if id(kern) in self._seen_kernels:
                span.kind = "memory_hit"
            elif self.calls["decompose"] > decomposed:
                span.kind = "miss"
            else:
                span.kind = "disk_hit"
            self._seen_kernels[id(kern)] = kern
            return kern

        return wrapper

    def decompose(self, name: str, fn):
        inner = self.span(name, fn)

        def wrapper(*args, **kwargs):
            self.calls["decompose"] += 1
            return inner(*args, **kwargs)

        return wrapper

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            name = span.name if span.kind is None else f"{span.name}[{span.kind}]"
            out[name] += span.self_time
        return out

    def layer_metrics(self, op_seconds: float) -> dict[str, float]:
        """Per-layer numbers of this operation (the output-derived ones and
        the overhead are filled in by the caller)."""
        st = self.self_times()
        c = self.calls
        tot = self.totals
        top = sum(s.end - s.start for s in self.spans if s.parent is None)
        matrix_calls = c["kernels.SpectralKernel.matrix"]
        return {
            "geometry.validate_s": st["geometry.validate_snf"],
            "geometry.graph_build_s": st["geometry.build_vertex_graph"],
            "geometry.graph_build_calls": c["geometry.build_vertex_graph"],
            "geometry.graph_vertices": tot["graph_vertices"],
            "labeling.build_s": st["labeling.build_good_labeling"],
            "kernels.eigh_s": st["numpy.linalg.eigh"],
            "kernels.eigh_calls": c["numpy.linalg.eigh"],
            "kernels.eigh_n3": tot["eigh_n3"],
            "kernels.generator_s": st["kernels.build_generator"],
            "kernels.decompose_s": st["kernels.spectral_decompose"]
            + st["kernels._dirichlet_kernel"],
            "kernels.cache_misses": _kind_count(self.spans, "miss"),
            "kernels.cache_disk_hits": _kind_count(self.spans, "disk_hit"),
            "kernels.cache_memory_hits": _kind_count(self.spans, "memory_hit"),
            "kernels.cache_store_s": st["kernels.KernelCache.kernel[miss]"],
            "kernels.cache_load_s": st["kernels.KernelCache.kernel[disk_hit]"],
            "kernels.cache_bytes_written": tot["numpy.savez_compressed.bytes"],
            "kernels.cache_bytes_read": tot["numpy.load.bytes"],
            "kernels.matrix_s": st["kernels.SpectralKernel.matrix"],
            "kernels.matrix_calls": matrix_calls,
            "kernels.matrix_repeat_calls": c["matrix_repeat"],
            "kernels.matrix_unique_ratio": (
                (matrix_calls - c["matrix_repeat"]) / matrix_calls if matrix_calls else 0.0
            ),
            "kernels.matrix_elements": tot["matrix_elements"],
            "kernels.matrix_bytes_computed": tot["matrix_bytes"],
            "kernels.value_calls": c["kernels.SpectralKernel.value"],
            "kernels.value_s": tot["kernels.SpectralKernel.value"],
            "subordinators.density_s": tot["subordinators.density"],
            "subordinators.density_points": tot["subordinators.density.points"],
            "subordinators.quad_calls": c["subordinators.quad"],
            "subordinators.transform_s": st["subordinators.laplace_transform_numeric"],
            "subordinators.transform_calls": c["subordinators.laplace_transform_numeric"],
            "subordinators.verify_s": st["subordinators.verify_density"],
            "subordinate.crosscheck_s": st["subordinate.crosscheck_subordination"]
            + st["subordinate.subordinate_quadrature"],
            "subordinate.quadrature_calls": c["subordinate.subordinate_quadrature"],
            "subordinate.quad_calls": c["subordinate.quad"],
            "bounds.study_build_s": st["bounds.ReflectionStudy.build"],
            "bounds.stable_reports_s": st["bounds.stable_comparison_reports"],
            "bounds.relativistic_reports_s": st["bounds.relativistic_comparison_reports"],
            "bounds.truncation_bracket_s": st["bounds.ReflectionStudy.truncation_bracket"],
            **{
                f"pipeline.stage.{stage}_s": st[f"pipeline._stage_{stage}"]
                for stage in STAGES
            },
            "pipeline.plot_rows_s": st["pipeline._collect_plot_rows"],
            "trace.run_s": op_seconds,
            "trace.unattributed_s": op_seconds - top - self.top_counter_time,
        }

    def spans_dump(self) -> list[dict]:
        return [s.to_dict(self.origin) for s in self.spans]


def _matrix_args(t, rows=None, cols=None, exponent=None):
    return (float(t), rows, cols, exponent)


def _kind_count(spans, kind: str) -> int:
    return sum(1 for s in spans if s.kind == kind)


def _density_size(args, kwargs) -> int:
    s = args[-1] if args else kwargs["s"]
    return int(np.size(s))


def _npz_size(args, kwargs) -> int:
    path = str(args[0])
    return os.path.getsize(path if path.endswith(".npz") else path + ".npz")


def _patches(tracer: Tracer):
    """(owner, attribute, replacement factory) for every probe."""
    t = tracer
    RS = fh_bounds.ReflectionStudy
    return [
        # geometry and labeling
        (fh_pipeline, "validate_snf", lambda f: t.span("geometry.validate_snf", f)),
        (fh_kernels, "build_vertex_graph",
         lambda f: t.span("geometry.build_vertex_graph", f, t._after_graph)),
        (fh_pipeline, "build_good_labeling",
         lambda f: t.span("labeling.build_good_labeling", f)),
        # kernels
        (np.linalg, "eigh", lambda f: t.span("numpy.linalg.eigh", f, t._after_eigh)),
        (fh_kernels, "build_generator", lambda f: t.span("kernels.build_generator", f)),
        (fh_kernels, "spectral_decompose",
         lambda f: t.decompose("kernels.spectral_decompose", f)),
        (fh_kernels, "_dirichlet_kernel",
         lambda f: t.decompose("kernels._dirichlet_kernel", f)),
        (fh_kernels.KernelCache, "kernel", t.kernel_lookup),
        (np, "savez_compressed",
         lambda f: t.counter("numpy.savez_compressed", f, _npz_size)),
        (np, "load", lambda f: t.counter("numpy.load", f, _npz_size)),
        (fh_kernels.SpectralKernel, "matrix",
         lambda f: t.span("kernels.SpectralKernel.matrix", f, t._after_matrix)),
        (fh_kernels.SpectralKernel, "value",
         lambda f: t.timed_counter("kernels.SpectralKernel.value", f)),
        # subordinators
        (fh_subordinators.SubordinatorSpec, "density",
         lambda f: t.timed_counter("subordinators.density", f, _density_size)),
        (fh_subordinators, "stable_density",
         lambda f: t.timed_counter("subordinators.density", f, _density_size)),
        (fh_subordinators, "quad", lambda f: t.counter("subordinators.quad", f)),
        (fh_subordinators, "laplace_transform_numeric",
         lambda f: t.span("subordinators.laplace_transform_numeric", f)),
        (fh_subordinators, "verify_density",
         lambda f: t.span("subordinators.verify_density", f)),
        # subordinate
        (fh_subordinate, "quad", lambda f: t.counter("subordinate.quad", f)),
        (fh_subordinate, "subordinate_quadrature",
         lambda f: t.span("subordinate.subordinate_quadrature", f)),
        (fh_subordinate, "crosscheck_subordination",
         lambda f: t.span("subordinate.crosscheck_subordination", f)),
        (fh_pipeline, "crosscheck_subordination",
         lambda f: t.span("subordinate.crosscheck_subordination", f)),
        # bounds
        (RS, "build", lambda f: classmethod(t.span("bounds.ReflectionStudy.build", f.__func__))),
        (RS, "truncation_bracket",
         lambda f: t.span("bounds.ReflectionStudy.truncation_bracket", f)),
        (fh_pipeline, "stable_comparison_reports",
         lambda f: t.span("bounds.stable_comparison_reports", f)),
        (fh_pipeline, "relativistic_comparison_reports",
         lambda f: t.span("bounds.relativistic_comparison_reports", f)),
        # pipeline
        *[
            (fh_pipeline, f"_stage_{stage}",
             lambda f, stage=stage: t.span(f"pipeline._stage_{stage}", f))
            for stage in STAGES
        ],
        (fh_pipeline, "_collect_plot_rows",
         lambda f: t.span("pipeline._collect_plot_rows", f)),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install every probe, yield the tracer, restore every binding."""
    saved = []
    try:
        for owner, attr, make in _patches(tracer):
            # classes keep descriptors (classmethod) in __dict__
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        tracer.origin = time.perf_counter()
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
