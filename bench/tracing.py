"""Layer tracing installed from outside fuzzyfp.

`Tracer` and `MemoryProbe` replace public functions and methods at each
layer boundary with wrappers for the length of a pass, then put every
original back; the program's source is never edited.  A function is
rebound under every name any fuzzyfp module holds it by, so calls through
`from .x import f` aliases are seen too.

Spans are (span_id, parent_id, trace_id, name, start_s, end_s) tuples kept
in memory; trace_id is the id of the root span (one CLI invocation).  The hottest
leaf calls (RNG draws, crisp distances, map evaluations) are counted, not
spanned, so that tracing does not swamp the work around them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict

ESTIMATORS = ("estimate_k_pair", "estimate_k_pair_dual", "estimate_k_quad", "estimate_k_self_quad")


def _fuzzyfp_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fuzzyfp"]


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, wrap):
        """Replace module.name, and every alias of it in fuzzyfp, by wrap(original)."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod in _fuzzyfp_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def method(self, cls, name, wrap):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and counts at fuzzyfp's layer boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.trace_id = 0
        self._ids = itertools.count()
        self._stack = []  # (span_id, layer) of the open spans
        self._patches = Patches()

    # -- wrappers ---------------------------------------------------------

    def _outermost(self, layer: str) -> bool:
        """True when no enclosing open span belongs to `layer`."""
        return all(open_layer != layer for _, open_layer in self._stack[:-1])

    def _span(self, name, after=None):
        layer = name.split(".")[0]
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = next(ids)
                if stack:
                    parent = stack[-1][0]
                else:  # a root span (cli.main) starts a new trace
                    parent, self.trace_id = None, span_id
                stack.append((span_id, layer))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(fn, args, kwargs, result)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span_id, parent, self.trace_id, name, start, end))
                return result

            return wrapper

        return wrap

    def _count(self, name):
        counts = self.counts

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def _count_warnings(self, fn):
        """Count the RuntimeWarnings raised inside an outermost estimator
        call, then hand each one on to the normal filters and display."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(layer == "hypotheses" for _, layer in self._stack):
                return fn(*args, **kwargs)
            caught = []
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    return fn(*args, **kwargs)
            finally:
                self.counts["hypotheses.fp_warnings"] += sum(
                    issubclass(w.category, RuntimeWarning) for w in caught
                )
                for w in caught:
                    warnings.warn_explicit(
                        w.message, w.category, w.filename, w.lineno, registry=_registry(w.filename)
                    )

        return wrapper

    # -- after-call counters ----------------------------------------------

    def _after_metrics(self, fn, args, kwargs, result):
        if self._outermost("metrics"):
            self.counts["metrics.cells"] += int(result.size)

    def _after_estimator(self, fn, args, kwargs, result):
        if not self._outermost("hypotheses"):
            return
        reports = result if isinstance(result, tuple) else (result,)
        self.counts["hypotheses.calls"] += 1
        for r in reports:
            self.counts["hypotheses.evaluated"] += r.evaluated_count
            self.counts["hypotheses.cells"] += r.evaluated_count + r.skipped_count

    def _after_solve(self, fn, args, kwargs, result):
        self.counts["solver.iterations"] += result.iterations

    def _after_axioms(self, fn, args, kwargs, result):
        self.counts["axioms.triples"] += _arg(fn, args, kwargs, "triple_count")

    def _after_sample(self, fn, args, kwargs, result):
        self.counts["spaces.sample_points"] += len(result)

    # -- installation -----------------------------------------------------

    def install(self):
        from fuzzyfp import axioms, cli, config, harness, hypotheses, mappings, metrics, rng, solver, spaces

        p = self._patches
        p.function(cli, "main", self._span("cli.main"))
        for name in _public_functions(config):
            p.function(config, name, self._span(f"config.{name}"))
        for name in _public_functions(harness):
            p.function(harness, name, self._span(f"harness.{name}"))
        p.function(solver, "solve", self._span("solver.solve", self._after_solve))
        p.function(solver, "uniqueness_probe", self._span("solver.uniqueness_probe"))
        p.function(axioms, "check_fm_axioms", self._span("axioms.check_fm_axioms", self._after_axioms))
        for name in ESTIMATORS:
            span = self._span(f"hypotheses.{name}", self._after_estimator)
            p.function(hypotheses, name, lambda fn, span=span: self._count_warnings(span(fn)))
        for cls in vars(metrics).values():
            if inspect.isclass(cls) and issubclass(cls, metrics.FuzzyMetric):
                for name in ("mu_grid", "pairwise"):
                    if name in cls.__dict__:
                        p.method(cls, name, self._span(f"metrics.{name}", self._after_metrics))
        p.method(spaces.BoxSpace, "sample", self._span("spaces.sample", self._after_sample))
        p.method(spaces.BoxSpace, "distance", self._count("spaces.distance_calls"))
        p.method(mappings.Mapping, "__call__", self._count("mappings.calls"))
        p.method(rng.SplitMix64, "next_u64", self._count("rng.draws"))

    def uninstall(self):
        self._patches.restore()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer busy and self time, and per-name span count, time and
        self time.  A layer is busy over the spans not nested in another
        span of the same layer; self time excludes child spans' time."""
        info = {span_id: (parent, name.split(".")[0]) for span_id, parent, _, name, _, _ in self.spans}
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy, self_time = defaultdict(float), defaultdict(float)
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, parent, _, name, start, end in self.spans:
            layer = info[span_id][1]
            duration = end - start
            own = duration - child_time[span_id]
            ancestor = parent
            while ancestor is not None and info[ancestor][1] != layer:
                ancestor = info[ancestor][0]
            if ancestor is None:
                busy[layer] += duration
            self_time[layer] += own
            entry = by_name[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        return {"busy": dict(busy), "self": dict(self_time), "names": {k: tuple(v) for k, v in by_name.items()}}

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,trace_id,name,start_s,end_s\n")
            for span_id, parent, trace_id, name, start, end in self.spans:
                fh.write(f"{span_id},{'' if parent is None else parent},{trace_id},{name},{start!r},{end!r}\n")


def _registry(filename):
    """The warning registry of the module a warning is attributed to, so a
    replayed warning is shown once per location, as without tracing."""
    for module in _fuzzyfp_modules():
        if getattr(module, "__file__", None) == filename:
            return module.__dict__.setdefault("__warningregistry__", {})
    return None


class MemoryProbe:
    """tracemalloc peak of every outermost estimator call, in a pass of its own."""

    def __init__(self):
        self.peaks = []
        self._patches = Patches()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def install(self):
        from fuzzyfp import hypotheses

        for name in ESTIMATORS:
            self._patches.function(hypotheses, name, self._wrap)

    def uninstall(self):
        self._patches.restore()
