"""Spans and counts at claimcheck's layer boundaries, recorded from outside.

`Tracer.install` wraps public entry points of the claimcheck package: the
six `Run.layerN` methods, the provider router and backends, and the
functions each layer is known to spend its time in. A name that another
claimcheck module imported directly (``from .jsonl import write_json``) is
replaced there too, so every caller is seen. `uninstall` restores every
original.

A span records its name, start, end, parent span and run id. Spans stay in
memory until `dump` writes them out. A layer's self time is its span minus
the union of the provider calls inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

LAYER_MODULES = {"layer1": "corpus", "layer2": "knowledge",
                 "layer3": "intradoc", "layer4": "crosssource",
                 "layer5": "signals", "layer6": "assess"}


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    kind: str = ""       # task kind, for provider.invoke spans
    layer: str = ""      # module whose layer was open when the span began


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class CallCounter:
    """Counts InferenceRouter.invoke calls; the only hook in untraced runs."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()
        self._original: Callable | None = None

    def install(self) -> None:
        from claimcheck.provider.base import InferenceRouter
        original = self._original = InferenceRouter.invoke
        counter = self

        @functools.wraps(original)
        def invoke(router, task, *args, **kwargs):
            with counter._lock:
                counter.calls += 1
            return original(router, task, *args, **kwargs)

        InferenceRouter.invoke = invoke

    def uninstall(self) -> None:
        from claimcheck.provider.base import InferenceRouter
        InferenceRouter.invoke = self._original


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []
        self._layer: tuple[int, str] | None = None   # (span id, module)
        self._in_flight = 0
        self.discovered: set[str] = set()
        self.graph_edges: dict[str, int] = {}       # module -> edge count

    # --- recording ---------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def counts(self, run_id: str) -> Counter[str]:
        return Counter({k.split("|", 1)[1]: v for k, v in self._counts.items()
                        if k.startswith(run_id + "|")})

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, kind: str = "") -> Iterator[int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: its work belongs to the open layer
            parent = self._layer[0] if self._layer else None
        span_id = next(self._ids)
        layer = self._layer[1] if self._layer else ""
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.run_id, kind, layer))

    # --- patching ----------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module: Any, attr: str,
                        make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name.split(".")[0] == "claimcheck" and \
                    vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper)

    def _timed(self, name: str,
               after: Callable[[tuple, Any], None] | None = None
               ) -> Callable[[Callable], Callable]:
        tracer = self

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        import claimcheck.assess as assess_mod
        import claimcheck.crosssource as cross
        import claimcheck.jsonl as jsonl
        import claimcheck.pipeline as pipeline
        import claimcheck.provider.schemas as schemas
        from claimcheck.corpus.embedding import EmbeddingStore
        from claimcheck.provider import (InferenceRouter, LiveProvider,
                                         ReplayProvider, ScriptedProvider)

        tracer = self
        self._patch_layers(pipeline.Run)
        self._set(pipeline.Run, "__init__",
                  self._timed("pipeline.init")(pipeline.Run.__init__))
        self._patch_router(InferenceRouter)
        for cls in (ReplayProvider, ScriptedProvider, LiveProvider):
            self._set(cls, "complete", self._backend_wrapper(cls.complete))
        self._patch_function(schemas, "validate_output",
                             self._timed("provider.validate"))
        self._patch_function(pipeline, "load_corpus_dir",
                             self._timed("corpus.load"))
        self._patch_function(pipeline, "ingest_document",
                             self._timed("corpus.ingest"))
        self._patch_function(pipeline, "score_source",
                             self._timed("corpus.score"))
        self._set(EmbeddingStore, "search",
                  self._timed("corpus.search")(EmbeddingStore.search))

        def graph_built(args: tuple, graph: Any) -> None:
            module = tracer._layer[1] if tracer._layer else ""
            with tracer._lock:
                tracer.graph_edges[f"{tracer.run_id}|{module}"] = \
                    graph.edge_count
        self._patch_function(pipeline, "build_graph",
                             self._timed("knowledge.graph_build", graph_built))

        def discovered(args: tuple, docs: list[str]) -> None:
            if tracer.run_id == "run":
                tracer.discovered.update(docs)
        self._patch_function(cross, "discover_related",
                             self._timed("crosssource.discover", discovered))

        def aligned(args: tuple, alignment: Any) -> None:
            tracer.count(f"{tracer.run_id}|align.calls")
            if alignment.relation != "unrelated":
                tracer.count(f"{tracer.run_id}|align.useful")
        self._patch_function(cross, "align_claims",
                             self._timed("crosssource.align", aligned))
        self._patch_function(assess_mod, "generate_hypotheses",
                             self._timed("assess.fanout"))

        def written(args: tuple, _: Any) -> None:
            tracer.count(f"{tracer.run_id}|bytes_written",
                         os.path.getsize(args[0]))
        for attr in ("write_records", "write_json"):
            self._patch_function(jsonl, attr,
                                 self._timed("pipeline.write", written))
        for attr in ("read_all", "read_json"):
            self._patch_function(jsonl, attr, self._timed("pipeline.read"))

        original_start = threading.Thread.start

        @functools.wraps(original_start)
        def start(thread, *args, **kwargs):
            tracer.count(f"{tracer.run_id}|threads_started")
            return original_start(thread, *args, **kwargs)
        self._set(threading.Thread, "start", start)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch_layers(self, run_cls: Any) -> None:
        tracer = self
        wrappers: dict[int, Callable] = {}
        for layer, module in LAYER_MODULES.items():
            original = getattr(run_cls, layer)

            def make(original: Callable, layer: str, module: str) -> Callable:
                @functools.wraps(original)
                def wrapper(state, *args, **kwargs):
                    with tracer.span(layer) as span_id:
                        tracer._layer = (span_id, module)
                        try:
                            return original(state, *args, **kwargs)
                        finally:
                            tracer._layer = None
                return wrapper

            wrappers[id(original)] = make(original, layer, module)
            self._set(run_cls, layer, wrappers[id(original)])
        # Run dispatches through a table of the layer functions.
        for attr, value in list(vars(run_cls).items()):
            if isinstance(value, dict) and any(id(v) in wrappers
                                               for v in value.values()):
                self._set(run_cls, attr, {k: wrappers.get(id(v), v)
                                          for k, v in value.items()})

    def _patch_router(self, router_cls: Any) -> None:
        tracer = self
        original = router_cls.invoke

        @functools.wraps(original)
        def invoke(router, task, *args, **kwargs):
            module = tracer._layer[1] if tracer._layer else "none"
            with tracer._lock:
                tracer._in_flight += 1
                key = f"{tracer.run_id}|inflight_max"
                tracer._counts[key] = max(tracer._counts[key],
                                          tracer._in_flight)
            tracer._local.attempts = 0
            try:
                with tracer.span("provider.invoke", kind=task.kind):
                    return original(router, task, *args, **kwargs)
            except BaseException:
                tracer.count(f"{tracer.run_id}|provider.failed")
                raise
            finally:
                attempts = tracer._local.attempts
                with tracer._lock:
                    tracer._in_flight -= 1
                    prefix = tracer.run_id + "|"
                    tracer._counts[prefix + f"calls.{task.kind}"] += 1
                    tracer._counts[prefix + f"calls.{module}"] += 1
                    tracer._counts[prefix + "attempts"] += attempts
                    tracer._counts[prefix + "retries"] += max(0, attempts - 1)

        self._set(router_cls, "invoke", invoke)

    def _backend_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def complete(backend, *args, **kwargs):
            tracer._local.attempts = getattr(tracer._local, "attempts", 0) + 1
            with tracer.span("provider.backend"):
                return original(backend, *args, **kwargs)
        return complete

    # --- output --------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(asdict(span)) + "\n")

    def total(self, name: str, run_id: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and s.run_id == run_id)

    def layer_times(self, run_id: str) -> dict[str, tuple[float, float]]:
        """module -> (wall, self) seconds for one run id."""
        spans = [s for s in self.spans if s.run_id == run_id]
        calls = [(s.start, s.end) for s in spans if s.name == "provider.invoke"]
        out = {}
        for span in spans:
            if span.name not in LAYER_MODULES:
                continue
            inside = [(max(a, span.start), min(b, span.end)) for a, b in calls
                      if b > span.start and a < span.end]
            wall = span.end - span.start
            out[LAYER_MODULES[span.name]] = (wall, wall - union_length(inside))
        return out

    def call_ms(self, run_id: str) -> list[float]:
        return [1e3 * (s.end - s.start) for s in self.spans
                if s.name == "provider.invoke" and s.run_id == run_id]

    def busy(self, run_id: str) -> float:
        return union_length([(s.start, s.end) for s in self.spans
                             if s.name == "provider.invoke"
                             and s.run_id == run_id])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]
