"""In-memory span recorder that wraps halfbubble's functions from outside.

Each layer is measured from outside: ``install`` replaces the module
attributes that callers look up at call time (for example
``halfbubble.energy.eval_metric_inverse`` or ``halfbubble.corrector.splu``)
with wrappers that record a span -- name, layer, thread, start, end and the
id of the enclosing span -- and bump exact counters.  The wrapped functions
are public ones, plus the two private stages of the profile solve
(``_assemble`` and ``_sigma_min_probe``).  Nothing under ``src/`` is
edited.  ``write`` dumps the spans and counters once the run is
over; ``summarize`` turns them into the per-layer metrics.

A span opened in a thread-pool worker starts a new root in that thread:
the parent link is per thread, so a span's children are always the spans
its own thread opened inside it.
"""

from __future__ import annotations

import functools
import json
import threading
import time

import numpy as np

# Per-layer metric names, units and the direction that counts as better.
# Times are totals over one traced round; counts are exact.
LAYER_METRICS = [
    ("cli.pipeline_s", "s"),
    ("corrector.solve_vq_s", "s"),
    ("corrector.assemble_s", "s"),
    ("corrector.splu_s", "s"),
    ("corrector.sigma_probe_s", "s"),
    ("corrector.factorizations", "count"),
    ("corrector.lu_solves", "count"),
    ("corrector.lu_fill_nnz", "count"),
    ("corrector.spline_evals", "count"),
    ("corrector.spline_points", "count"),
    ("corrector.spline_s", "s"),
    ("corrector.eval_v_derivatives_s", "s"),
    ("corrector.source_overlap_s", "s"),
    ("quadrature.adaptive_calls", "count"),
    ("quadrature.adaptive_s", "s"),
    ("quadrature.mc_calls", "count"),
    ("quadrature.mc_samples", "count"),
    ("quadrature.mc_s", "s"),
    ("quadrature.mc_integrand_s", "s"),
    ("geometry.load_s", "s"),
    ("geometry.metric_inverse_s", "s"),
    ("geometry.metric_inverse_points", "count"),
    ("geometry.metric_divergence_s", "s"),
    ("geometry.metric_divergence_points", "count"),
    ("bubble.eval_s", "s"),
    ("bubble.eval_points", "count"),
    ("energy.compute_phi_s", "s"),
    ("energy.identity_s", "s"),
    ("energy.residual_slope_s", "s"),
    ("reduction.find_blowup_point_s", "s"),
    ("corrector.self_s", "s"),
    ("quadrature.self_s", "s"),
    ("geometry.self_s", "s"),
    ("bubble.self_s", "s"),
    ("energy.self_s", "s"),
    ("trace.overhead_s", "s"),
]

SELF_LAYERS = ("corrector", "quadrature", "geometry", "bubble", "energy")

# span name -> metric that sums its durations
_SPAN_TIME_METRIC = {
    "cli.pipeline": "cli.pipeline_s",
    "corrector.solve_vq": "corrector.solve_vq_s",
    "corrector.assemble": "corrector.assemble_s",
    "corrector.splu": "corrector.splu_s",
    "corrector.sigma_probe": "corrector.sigma_probe_s",
    "corrector.spline": "corrector.spline_s",
    "corrector.eval_v_derivatives": "corrector.eval_v_derivatives_s",
    "corrector.source_overlap": "corrector.source_overlap_s",
    "quadrature.adaptive": "quadrature.adaptive_s",
    "quadrature.mc": "quadrature.mc_s",
    "quadrature.mc_integrand": "quadrature.mc_integrand_s",
    "geometry.load": "geometry.load_s",
    "geometry.metric_inverse": "geometry.metric_inverse_s",
    "geometry.metric_divergence": "geometry.metric_divergence_s",
    "bubble.eval": "bubble.eval_s",
    "energy.compute_phi": "energy.compute_phi_s",
    "energy.identity": "energy.identity_s",
    "energy.residual_slope": "energy.residual_slope_s",
    "reduction.find_blowup_point": "reduction.find_blowup_point_s",
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []          # [id, parent, name, layer, thread, start, end]
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, stack

    def wrap(self, fn, name: str, layer: str, points=None, calls=None):
        """fn wrapped in a span named name.

        points(args, kwargs) is added to the counter <name>_points; calls,
        if given, names a counter of the calls.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, stack = self._open()
            if calls is not None:
                self.count(calls)
            if points is not None:
                self.count(name + "_points", points(args, kwargs))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, parent, name, layer,
                                   threading.get_ident(), start, end])

        return wrapper

    def patch(self, owner, attr: str, name: str = "", layer: str = "",
              points=None, calls=None, wrapper=None) -> None:
        """Replace owner.attr by wrapper(original), or by a span around it.

        Absent attributes are skipped, so a renamed private helper leaves
        its metric at zero instead of breaking the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        traced = (wrapper(original) if wrapper is not None
                  else self.wrap(original, name, layer, points, calls))
        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.counters, "spans": self.spans}, fh)


class _CountingLU:
    """Factor returned by splu, counting solves on it."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("corrector.lu_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _rows(args, kwargs, index: int, key: str) -> int:
    arr = args[index] if len(args) > index else kwargs[key]
    arr = np.asarray(arr)
    return 1 if arr.ndim <= 1 else int(arr.shape[0])


def _size(args, kwargs, index: int, key: str) -> int:
    return int(np.size(args[index] if len(args) > index else kwargs[key]))


def install(tracer: Tracer) -> None:
    """Patch every traced call site of the halfbubble modules."""
    from halfbubble import cli, corrector, energy, geometry, quadrature

    def splu_wrapper(fn):
        timed = tracer.wrap(fn, "corrector.splu", "corrector",
                            calls="corrector.factorizations")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = timed(*args, **kwargs)
            tracer.count("corrector.lu_fill_nnz", lu.nnz)
            return _CountingLU(lu, tracer)

        return wrapper

    def mc_wrapper(fn):
        timed = tracer.wrap(fn, "quadrature.mc", "quadrature",
                            calls="quadrature.mc_calls")

        @functools.wraps(fn)
        def wrapper(n, integrand, n_samples, *args, **kwargs):
            tracer.count("quadrature.mc_samples", n_samples)
            # the integrand is energy code called back from the sampler
            inner = tracer.wrap(integrand, "quadrature.mc_integrand", "energy")
            return timed(n, inner, n_samples, *args, **kwargs)

        return wrapper

    def spline_points(args, kwargs):
        # Profile2D.eval(self, t, r, ...)
        t = args[1] if len(args) > 1 else kwargs["t"]
        r = args[2] if len(args) > 2 else kwargs["r"]
        return np.broadcast(np.asarray(t), np.asarray(r)).size

    tracer.patch(cli, "cmd_pipeline", "cli.pipeline", "cli")
    tracer.patch(cli, "solve_vq", "corrector.solve_vq", "corrector")
    tracer.patch(corrector, "_assemble", "corrector.assemble", "corrector")
    tracer.patch(corrector, "splu", wrapper=splu_wrapper)
    tracer.patch(corrector, "_sigma_min_probe", "corrector.sigma_probe",
                 "corrector")
    tracer.patch(corrector.Profile2D, "eval", "corrector.spline", "corrector",
                 points=spline_points, calls="corrector.spline_evals")
    tracer.patch(energy, "eval_v_derivatives", "corrector.eval_v_derivatives",
                 "corrector")
    tracer.patch(corrector.Profile2D, "source_overlap",
                 "corrector.source_overlap", "corrector")
    for owner in (energy, quadrature):
        for attr in ("moment", "half_line_moment"):
            tracer.patch(owner, attr, "quadrature.adaptive", "quadrature",
                         calls="quadrature.adaptive_calls")
    tracer.patch(energy, "mc_halfspace", wrapper=mc_wrapper)
    for owner in (geometry, cli):
        tracer.patch(owner, "load_curvature_file", "geometry.load", "geometry")
    for owner in (geometry, energy):
        tracer.patch(owner, "eval_metric_inverse", "geometry.metric_inverse",
                     "geometry",
                     points=lambda a, k: _rows(a, k, 2, "z"))
        tracer.patch(owner, "metric_divergence", "geometry.metric_divergence",
                     "geometry",
                     points=lambda a, k: _rows(a, k, 2, "z"))
    for attr in ("eval_U", "eval_U_grad", "eval_U_hess", "eval_U_tr",
                 "eval_U_dt_tr", "eval_U_dr_tr"):
        tracer.patch(energy, attr, "bubble.eval", "bubble",
                     points=lambda a, k: _size(a, k, 1, "t"))
    tracer.patch(cli, "compute_phi", "energy.compute_phi", "energy")
    tracer.patch(cli, "verify_A4_L2_L3_identity", "energy.identity", "energy")
    tracer.patch(cli, "residual_slope", "energy.residual_slope", "energy")
    tracer.patch(cli, "find_blowup_point", "reduction.find_blowup_point",
                 "reduction")


def summarize(payload: dict) -> dict:
    """Per-layer metrics from one traced worker's spans and counters.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS}
    for key, value in payload["counters"].items():
        if key in metrics:
            metrics[key] = int(value)

    child_time = {}
    for span_id, parent, name, layer, thread, start, end in payload["spans"]:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for span_id, parent, name, layer, thread, start, end in payload["spans"]:
        duration = end - start
        metric = _SPAN_TIME_METRIC.get(name)
        if metric is not None:
            metrics[metric] += duration
        if layer in SELF_LAYERS:
            metrics[layer + ".self_s"] += duration - child_time.get(span_id, 0.0)
    return metrics
