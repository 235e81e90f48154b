"""In-memory span recording around calls into the program's layers.

The program has no tracing of its own, so in a traced run the
benchmark wraps the public functions and methods at each layer
boundary (``install_layer_spans``) and records one span per call:
name, start, end, parent span and request id.  Spans stay in memory
and are written out once, when the run ends.  Nothing is wrapped in
an untraced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans; one per traced call.  Thread-safe: each thread
    keeps its own stack of open spans, so a span's parent is the span
    open on the same thread when it started."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[dict]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, request: Optional[str] = None,
             **attrs) -> dict:
        parent = self.current()
        if request is None and parent is not None:
            request = parent["request"]
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "request": request,
        }
        span.update(attrs)
        self._stack().append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str,
             namer: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` (a module function or a class
        method) with a span-recording wrapper until :meth:`restore`.

        ``namer(args, kwargs)`` may return ``(span_name, request,
        attrs)`` to classify a call, or ``None`` to run it without a
        span."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            decision = (name, None, {}) if namer is None \
                else namer(args, kwargs)
            if decision is None:
                return original(*args, **kwargs)
            label, request, attrs = decision
            span = self.open(label, request, **attrs)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(span)

        setattr(owner, attribute, traced)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            self._restore.pop()()

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the boundary of every layer the workloads pass through.

    Span names are ``<layer>.<what>``, the layers named after the
    program's modules.  A ``ResultStore.get`` that is the instance's
    first touch of a shard loads that shard's index, so it is recorded
    as ``store.open`` instead of ``store.get``; gets issued inside a
    query scan are part of the scan span and get no span of their own.
    """
    from repro.analysis import report as analysis_report
    from repro.experiments import latency_tolerance
    from repro.jobs import plan as jobs_plan
    from repro.jobs import tracker as jobs_tracker
    from repro.jobs.tracker import JobTracker
    from repro.service.app import ServiceApp
    from repro.store.query import Query
    from repro.store.result_store import ResultStore

    for module in (jobs_plan, jobs_tracker):
        tracer.wrap(module, "plan_requests", "jobs.plan")
        tracer.wrap(module, "execute_plan", "jobs.execute")
    tracer.wrap(latency_tolerance, "render_sweep_table",
                "experiments.render")

    # store -> (instance number, shards whose index it has loaded)
    opened: "weakref.WeakKeyDictionary[ResultStore, tuple]" = (
        weakref.WeakKeyDictionary()
    )
    opened_lock = threading.Lock()
    instances = itertools.count(1)

    def name_get(args, kwargs):
        current = tracer.current()
        if current is not None and current["name"] == "store.scan":
            return None
        store, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
        shard = store.shard_of(key)
        with opened_lock:
            if store not in opened:
                opened[store] = (next(instances), set())
            instance, seen = opened[store]
            first = shard not in seen
            seen.add(shard)
        return ("store.open" if first else "store.get"), None, \
            {"store": instance}

    tracer.wrap(ResultStore, "get", "store.get", namer=name_get)
    tracer.wrap(ResultStore, "put", "store.put")
    tracer.wrap(Query, "records", "store.scan")
    tracer.wrap(Query, "stats", "store.scan")
    tracer.wrap(analysis_report, "build_report", "analysis.report")
    tracer.wrap(analysis_report, "render_html", "analysis.html")

    def name_job(args, kwargs):
        tracker, job_id = args[0], args[1]
        return "jobs.job", tracker.get(job_id).spec.label, {}

    tracer.wrap(JobTracker, "execute", "jobs.job", namer=name_job)

    def name_handle(args, kwargs):
        method, path, body = args[1], args[2], args[4]
        request = None
        if method == "POST" and body:
            request = json.loads(body.decode("utf-8")).get("label")
        return "service.handle", request, {"route": route_of(method, path,
                                                              request)}

    tracer.wrap(ServiceApp, "handle", "service.handle", namer=name_handle)


def route_of(method: str, path: str, label: Optional[str]) -> str:
    """The request class a ``ServiceApp.handle`` call serves."""
    if method == "POST":
        return "sweep_hot" if (label or "").startswith("hot") \
            else "sweep_cold"
    return "table" if path.endswith("/table") else "results"


def spans_by_name(spans: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for span in spans:
        grouped.setdefault(span["name"], []).append(span)
    return grouped
