"""In-memory span tracer and the per-layer metrics derived from its spans.

The tracer wraps specwin's public functions from outside the package: each
wrapped call records a span (name, start, end, parent) in a list kept in
memory, and the list is written out once the traced run ends.  Functions are
patched wherever a module binds them by name (``specwin.cli`` imports the
objectives by name, ``specwin.solver`` imports ``filter_factors``, ...), and
``SpectralSystem.analyze``/``synthesize`` are wrapped on the class.  The two
searches in ``specwin.optimize`` additionally count the objective evaluations
they make and how many of those were saturated (+inf or NaN).

This module imports neither numpy nor specwin, so its arithmetic can be
tested on synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# The seven layers are the specwin modules that do work; specwin.errors only
# defines exceptions.
LAYERS = ("spectral", "problems", "windows", "solver", "estimators",
          "optimize", "cli")
OBJECTIVES = ("mse_learning", "upre_md_windowed", "upre_window_separable",
              "gcv_md_scalar", "gcv_windowed_decoupled", "gcv_windowed_true_md")
STAGES = ("train", "validate")
SEARCHES = ("minimize_scalar", "minimize_vector")
DECOMPOSE = ("spectral.dct_decompose", "spectral.gsvd")

# Spectral size probe: DCT decomposition and one analyze+synthesize pair per
# image side, and the dense GSVD per image side of the reflexive pair.
PROBE_DCT_SIDES = (64, 256, 512, 1024)
PROBE_GSVD_SIDES = (16, 24)

# span record fields
NAME, START, END, PARENT, STAGE, COUNTS = range(6)


def _span_metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for fn in ("analyze", "synthesize", "filter_factors"):
        specs += [(f"spectral.{fn}.calls", "count", "lower"),
                  (f"spectral.{fn}.ms", "ms", "lower")]
    specs.append(("spectral.decompose.ms", "ms", "lower"))
    for fn in ("synthetic_image", "make_dataset"):
        specs += [(f"problems.{fn}.calls", "count", "lower"),
                  (f"problems.{fn}.ms", "ms", "lower")]
    specs.append(("windows.build.ms", "ms", "lower"))
    for fn in ("solve_windowed", "phi_windowed"):
        specs += [(f"solver.{fn}.calls", "count", "lower"),
                  (f"solver.{fn}.ms", "ms", "lower")]
    for obj in OBJECTIVES:
        for stage in STAGES:
            specs += [(f"estimators.{obj}.{stage}.evals", "count", "lower"),
                      (f"estimators.{obj}.{stage}.ms_per_eval", "ms", "lower")]
    for fn in SEARCHES:
        specs += [(f"optimize.{fn}.calls", "count", "lower"),
                  (f"optimize.{fn}.evals", "count", "lower")]
    specs.append(("optimize.inf_frac", "ratio", "lower"))
    for stage in STAGES:
        specs.append((f"cli.{stage}.self.ms", "ms", "lower"))
    for layer in LAYERS:
        specs.append((f"{layer}.self.ms", "ms", "lower"))
    return specs


def probe_metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for side in PROBE_DCT_SIDES:
        specs += [(f"probe.dct_decompose.{side}.ms", "ms", "lower"),
                  (f"probe.pair.{side}.ms", "ms", "lower")]
    specs += [(f"probe.gsvd.{side}.ms", "ms", "lower")
              for side in PROBE_GSVD_SIDES]
    return specs


SPAN_METRICS = _span_metric_specs()
PER_LAYER = (SPAN_METRICS + probe_metric_specs()
             + [("trace.overhead_s", "s", "lower")])


class Tracer:
    """Records nested spans around wrapped calls; single-threaded use."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name.startswith("stage."):
            stage = name[len("stage."):]
        else:
            stage = self.spans[parent][STAGE] if parent is not None else None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, stage, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def wrap_search(self, fn, name: str, saturated: type[Exception]):
        """Wrap a minimizer whose first argument is the objective, counting
        evaluations and saturated (+inf, NaN or raising) evaluations."""
        @functools.wraps(fn)
        def traced(objective, *args, **kwargs):
            idx = self._enter(name)
            counts = self.spans[idx][COUNTS] = [0, 0]

            def counted(x):
                counts[0] += 1
                try:
                    val = objective(x)
                except saturated:
                    counts[1] += 1
                    raise
                if not math.isfinite(float(val)):
                    counts[1] += 1
                return val

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self, package) -> None:
        """Wrap every public (not underscored) function that a layer module
        of `package` (specwin) defines, in the package namespace and in every
        layer module that binds it, plus the SpectralSystem transforms on
        the class."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "optimize" and attr in SEARCHES:
                    wrapper = self.wrap_search(fn, name,
                                               package.SaturatedTraceError)
                else:
                    wrapper = self.wrap(fn, name)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, key, wrapper)
        cls = package.SpectralSystem
        for meth in ("analyze", "synthesize", "analyze_adjoint"):
            self._patch(cls, meth, self.wrap(getattr(cls, meth),
                                             f"spectral.{meth}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, times in microseconds from
        the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{i}\t{s[NAME]}\t{(s[START] - t0) * 1e6:.1f}\t"
                         f"{(s[END] - t0) * 1e6:.1f}\t{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential, so the children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_metrics(spans) -> dict[str, float]:
    """Every metric of SPAN_METRICS from one traced run's spans.

    `<layer>.<fn>.ms` is the inclusive time of that function's calls,
    `<layer>.self.ms` the summed self time of the layer's spans, and
    `ms_per_eval` the inclusive time per objective evaluation.
    """
    selfs = self_times(spans)
    calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
    stage_calls, stage_incl = defaultdict(int), defaultdict(float)
    layer_self = defaultdict(float)
    evals = defaultdict(int)
    outer_evals = outer_infs = 0
    for s, self_time in zip(spans, selfs):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        incl[name] += dur
        own[name] += self_time
        stage_calls[name, s[STAGE]] += 1
        stage_incl[name, s[STAGE]] += dur
        layer_self[name.split(".", 1)[0]] += self_time
        if s[COUNTS] is not None:
            evals[name] += s[COUNTS][0]
            if not _inside_search(spans, s[PARENT]):
                outer_evals += s[COUNTS][0]
                outer_infs += s[COUNTS][1]

    m: dict[str, float] = {}
    for fn in ("spectral.analyze", "spectral.synthesize",
               "spectral.filter_factors", "problems.synthetic_image",
               "problems.make_dataset", "solver.solve_windowed",
               "solver.phi_windowed"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.ms"] = 1e3 * incl[fn]
    m["spectral.decompose.ms"] = 1e3 * sum(incl[fn] for fn in DECOMPOSE)
    m["windows.build.ms"] = 1e3 * sum(
        dur for name, dur in incl.items() if name.startswith("windows."))
    for obj in OBJECTIVES:
        for stage in STAGES:
            n = stage_calls[f"estimators.{obj}", stage]
            t = stage_incl[f"estimators.{obj}", stage]
            m[f"estimators.{obj}.{stage}.evals"] = n
            m[f"estimators.{obj}.{stage}.ms_per_eval"] = 1e3 * t / n if n else 0.0
    for fn in SEARCHES:
        m[f"optimize.{fn}.calls"] = calls[f"optimize.{fn}"]
        m[f"optimize.{fn}.evals"] = evals[f"optimize.{fn}"]
    m["optimize.inf_frac"] = outer_infs / outer_evals if outer_evals else 0.0
    for stage in STAGES:
        m[f"cli.{stage}.self.ms"] = 1e3 * own[f"cli.cmd_{stage}"]
    for layer in LAYERS:
        m[f"{layer}.self.ms"] = 1e3 * layer_self[layer]
    return m


def _inside_search(spans, idx) -> bool:
    while idx is not None:
        if spans[idx][COUNTS] is not None:
            return True
        idx = spans[idx][PARENT]
    return False
