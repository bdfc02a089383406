"""In-memory spans around the calls that cross into a layer of ``tagtopics``.

A layer is one module of the package.  :func:`instrument` replaces the
names through which one layer reaches another (the package namespace the
benchmark calls through, ``cli``'s imports, the trainers' imports of the
shared EM loop, and the model methods) with wrappers that record a span,
so the package source stays untouched.  Nothing is patched when tracing is
off, which is how the end-to-end numbers are taken.

Spans are recorded from the calling thread only: the worker threads of
``mapreduce_slices`` make no traced calls.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

LAYERS = ("sampling", "corpus", "training", "plsa", "mwa", "itm",
          "modelio", "similarity", "metrics", "cli")


class Tracer:
    """Spans held in memory: name, layer, start, end, parent and phase.

    ``phase`` tags each span with the part of the run it belongs to
    (``setup``, ``load``, ``round``, or ``check`` for the benchmark's own
    verification), so per-pass costs can be summed.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase = "setup"
        if enabled:
            instrument(self)

    def begin(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "name": name, "layer": layer, "count": None,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "phase": self.phase}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase_as(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def closed(self, name: str, layer: str, start: float, end: float, parent,
               count=None) -> dict:
        """Record a span that has already ended."""
        span = {"id": len(self.spans), "name": name, "layer": layer, "count": count,
                "start": start, "end": end, "parent": parent, "phase": self.phase}
        self.spans.append(span)
        return span

    def iteration(self, kind: str, iteration: int, prev: float | None, now: float) -> None:
        """Record one EM iteration ending at ``now`` under the open span.

        An iteration starts where the previous one ended or, for the first,
        where the last closed child of the open span (the initial
        log-likelihood pass) ended.  Spans recorded in that interval become
        children of the iteration.
        """
        parent = self._stack[-1] if self._stack else None
        first = 0 if parent is None else parent + 1
        siblings = [s for s in self.spans[first:]
                    if s["parent"] == parent and s["end"] is not None]
        if prev is None:
            before = [s["end"] for s in siblings if s["end"] <= now]
            prev = max(before) if before else now
        span = self.closed(f"{kind}.iteration", "training", prev, now, parent, iteration)
        for child in siblings:
            if child["start"] >= prev and child["end"] <= now:
                child["parent"] = span["id"]

    def patch_mapreduce(self, module, kind: str) -> None:
        """Trace ``mapreduce_slices`` as the model module ``kind`` calls it.

        The pass function it runs is the model's E-step and scatter, so each
        call of it becomes a child span in the model's layer.  Those calls
        may run on worker threads: their times are collected and recorded
        once the reduction returns.
        """
        original = module.mapreduce_slices

        @functools.wraps(original)
        def traced(pass_fn, n, workers, executor):
            calls = []

            def timed(lo, hi):
                start = time.perf_counter()
                try:
                    return pass_fn(lo, hi)
                finally:
                    calls.append((start, time.perf_counter()))

            record = self.begin("training.mapreduce_slices", "training")
            try:
                return original(timed, n, workers, executor)
            finally:
                for start, end in calls:
                    self.closed(f"{kind}.accumulate", kind, start, end, record["id"])
                self.end(record)

        module.mapreduce_slices = traced

    def _wrap(self, fn, name: str, layer: str, detail=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.begin(f"{name} {detail(args)}" if detail else name, layer)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["count"] = count(args, result)
                return result
            finally:
                self.end(record)
        return traced

    def patch(self, owner, attr: str, layer: str, detail=None, count=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``detail(args)`` is appended to the span name; ``count(args,
        result)`` is stored as the work the call did.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, classmethod) else original
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        wrapped = self._wrap(fn, name, layer, detail, count)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)


def model_values(model) -> int:
    """Number of float parameters a model file holds."""
    return sum(value.size for value in vars(model).values() if hasattr(value, "size"))


def instrument(tracer: Tracer) -> None:
    """Wrap every cross-layer entry point of ``tagtopics`` with spans.

    Meant for a process that runs one measurement: nothing is unpatched.
    """
    import tagtopics
    from tagtopics import cli, itm, metrics, mwa, plsa

    counts = {
        "ingest_triples": lambda args, corpus: corpus.total,
        "read_corpus": lambda args, corpus: corpus.num_triples,
        "load_model": lambda args, model: model_values(model),
        "rank_by_seed": lambda args, ranked: len(ranked),
    }
    for layer, names, owners in (
            ("sampling", ("sample_corpus",), (tagtopics, cli)),
            ("corpus", ("ingest_triples", "read_corpus", "save_corpus", "filter_tags"),
             (tagtopics, cli)),
            ("modelio", ("load_model",), (tagtopics, cli)),
            ("similarity", ("rank_by_seed", "write_ranking", "read_ranking"), (tagtopics, cli)),
            ("metrics", ("count_relevant_topk", "effort_to_n"), (tagtopics, cli)),
            ("training", ("em_fit", "normalize_rows"), (itm, plsa, mwa))):
        for owner in owners:
            for name in names:
                tracer.patch(owner, name, layer, count=counts.get(name))
    for kind, module in (("plsa", plsa), ("mwa", mwa), ("itm", itm)):
        tracer.patch_mapreduce(module, kind)
        tracer.patch(tagtopics, f"train_{kind}", kind)
        cli._TRAINERS[kind] = getattr(tagtopics, f"train_{kind}")
        cls = tagtopics.modelio.MODEL_TYPES[kind]
        for method in ("log_likelihood", "topic_distribution", "check_corpus", "validate"):
            tracer.patch(cls, method, kind)
        tracer.patch(cls, "save", "modelio", count=lambda args, _: model_values(args[0]))
    tracer.patch(metrics.LabelSet, "from_tsv", "metrics")
    tracer.patch(cli, "main", "cli", detail=lambda args: args[0][0])


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[dict], rounds: int) -> dict:
    """Per-pass totals of the spans of one process.

    A pass is everything outside the rounds (set-up or loading, counted
    once) plus the mean round.  Spans of the ``check`` phase are the
    benchmark's own verification and are left out.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    by_name: dict[str, dict] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span["phase"] == "check":
            continue
        share = 1.0 / rounds if span["phase"] == "round" else 1.0
        duration = span["end"] - span["start"]
        kids = children.get(span["id"], [])
        self_s[span["layer"]] += share * (
            duration - _covered([(kid["start"], kid["end"]) for kid in kids]))
        entry = by_name.setdefault(span["name"], {"s": 0.0, "count": 0.0, "round_s": [],
                                                  "round_children_s": []})
        entry["s"] += share * duration
        entry["count"] += share * (span["count"] or 0)
        if span["phase"] == "round":
            entry["round_s"].append(duration)
            entry["round_children_s"].append(sum(kid["end"] - kid["start"] for kid in kids))
    return {"by_name": by_name, "self_s": self_s}
