"""Spans around the library's layer entry points, recorded from outside.

``install`` rebinds the entry points that ``webimpute.pipeline`` and
``webimpute.evalharness`` call through their module globals, plus
``RuleSet.estimate``, so every call made during one worker process is
recorded as a span: name, start, end, parent span and thread.  Spans stay in
memory; the worker hands them to ``run.py``, which writes them out when the
run ends.  Layer metrics are derived here from one iteration's spans.

A span opened on a thread with no open span of its own (a query pool
thread) takes the innermost span open on the main thread as its parent,
which is the ``impute`` call that started the pool.  Self time subtracts the
union of child intervals, because pool threads run children in parallel.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter

import webimpute.evalharness as evalharness
import webimpute.pipeline as pipeline
from webimpute.rules import RuleSet

LAYERS = (
    "tabular", "rules", "bayes", "keywords", "providers", "patterns",
    "extract", "pipeline", "evalharness",
)

PIPELINE_ENTRY_POINTS = {
    "impute_internal": "bayes.internal",
    "enumerate_single_sink_graphs": "keywords.enumerate",
    "select_optimal": "keywords.select",
    "mine_patterns": "patterns.mine",
    "extract_by_pattern": "patterns.extract",
    "extract_by_keywords": "extract.keywords",
    "build_dictionary": "extract.dictionary",
}
EVALHARNESS_ENTRY_POINTS = {
    "impute": "pipeline.impute",
    "mask_random": "tabular.mask",
    "evaluate": "evalharness.evaluate",
}

KEPT_ALTERNATIVES = 8  # the pipeline keeps the best graphs[:8] per cell


class Tracer:
    """Collects spans and counts for one worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.queries: set[tuple] = set()
        self._lock = threading.Lock()
        self._next_id = 0
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, **increments: int) -> None:
        with self._lock:
            self.counts.update(increments)

    def note_query(self, key: tuple) -> None:
        with self._lock:
            self.queries.add(key)
            self.counts["queries"] += 1

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(
                        (span_id, name, start, end, parent, threading.get_ident())
                    )
            if on_result is not None:
                on_result(result)
            return result

        return traced


class TracedProvider:
    """The provider passed to the library, with each query as a span."""

    def __init__(self, provider, tracer: Tracer):
        self._tracer = tracer
        self._query = tracer.wrap("providers.query", provider.query)

    def query(self, q):
        self._tracer.note_query((q.keywords, q.pages))
        try:
            docs = self._query(q)
        except Exception:
            self._tracer.count(errors=1)
            raise
        self._tracer.count(docs_returned=len(docs))
        return docs


def install(tracer: Tracer) -> None:
    """Rebind the library's layer entry points to traced versions."""
    on_result = {
        "bayes.internal": lambda r: tracer.count(
            decided=len(r[1]), filled=sum(d.chosen is not None for d in r[1])
        ),
        "keywords.enumerate": lambda r: tracer.count(
            graphs=len(r), kept=min(len(r), KEPT_ALTERNATIVES)
        ),
        "patterns.mine": lambda r: tracer.count(mined=len(r)),
        "patterns.extract": lambda r: tracer.count(pattern_hits=r is not None),
        "extract.keywords": lambda r: tracer.count(keyword_hits=r is not None),
    }
    for attr, name in PIPELINE_ENTRY_POINTS.items():
        fn = getattr(pipeline, attr)
        setattr(pipeline, attr, tracer.wrap(name, fn, on_result.get(name)))
    for attr, name in EVALHARNESS_ENTRY_POINTS.items():
        setattr(evalharness, attr, tracer.wrap(name, getattr(evalharness, attr)))
    RuleSet.estimate = classmethod(tracer.wrap("rules.estimate", RuleSet.estimate.__func__))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        out[span_id] = (end - start) - _union_length(clipped)
    return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20)[-1]


def layer_metrics(tracer: Tracer, timed_root: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``timed_root`` is the id of the span around the timed library call;
    ``<layer>.share`` is that layer's share of the self time inside it.
    ``*_s`` are summed span times, ``providers.query_ms`` and ``_p95`` are
    the median and 95th percentile of single queries, and idle layers read
    0.  ``providers.repeat_frac`` is the share of queries asked before in
    the same iteration; ``keywords.kept_frac`` is the share of enumerated
    subgraphs the pipeline keeps (the best and its alternatives, at most 8
    per cell).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def busy(name: str) -> float:
        return sum((s[3] - s[2] for s in by_name.get(name, ())), 0.0)

    def self_of(name: str) -> float:
        return sum((selfs[s[0]] for s in by_name.get(name, ())), 0.0)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    c = tracer.counts
    query_ms = sorted((s[3] - s[2]) * 1000.0 for s in by_name.get("providers.query", ()))
    m: dict[str, float] = {
        "providers.query_s": busy("providers.query"),
        "providers.query_ms": statistics.median(query_ms) if query_ms else 0.0,
        "providers.query_ms_p95": _p95(query_ms),
        "providers.queries": c["queries"],
        "providers.distinct_queries": len(tracer.queries),
        "providers.repeat_frac": _frac(c["queries"] - len(tracer.queries), c["queries"]),
        "providers.docs_returned": c["docs_returned"],
        "providers.errors": c["errors"],
        "providers.init_s": busy("providers.init"),
        "bayes.internal_s": busy("bayes.internal"),
        "bayes.decided": c["decided"],
        "bayes.filled": c["filled"],
        "bayes.fill_frac": _frac(c["filled"], c["decided"]),
        "keywords.enumerate_s": busy("keywords.enumerate"),
        "keywords.select_s": busy("keywords.select"),
        "keywords.graphs": c["graphs"],
        "keywords.kept_frac": _frac(c["kept"], c["graphs"]),
        "patterns.mine_s": self_of("patterns.mine"),
        "patterns.mine_calls": calls("patterns.mine"),
        "patterns.mined": c["mined"],
        "patterns.extract_s": self_of("patterns.extract"),
        "patterns.extract_calls": calls("patterns.extract"),
        "patterns.extract_hit_frac": _frac(c["pattern_hits"], calls("patterns.extract")),
        "extract.keywords_s": busy("extract.keywords"),
        "extract.keywords_calls": calls("extract.keywords"),
        "extract.keywords_hit_frac": _frac(c["keyword_hits"], calls("extract.keywords")),
        "extract.dictionary_s": busy("extract.dictionary"),
        "rules.estimate_s": busy("rules.estimate"),
        "tabular.mask_s": busy("tabular.mask"),
        "tabular.load_s": busy("tabular.load"),
        "evalharness.evaluate_s": busy("evalharness.evaluate"),
        "pipeline.self_s": self_of("pipeline.impute"),
    }

    # Layer shares over the spans inside the timed call.
    inside = {timed_root}
    for span_id, _, _, _, parent, _ in sorted(spans):
        if parent in inside:
            inside.add(span_id)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span_id, name, *_ in spans:
        if span_id in inside:
            layer_self[name.split(".")[0]] += selfs[span_id]
    total = sum(layer_self.values())
    for layer in LAYERS:
        m[f"{layer}.share"] = _frac(layer_self[layer], total)
    return m
