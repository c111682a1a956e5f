"""In-memory span tracing installed from outside the program.

A traced block wraps the public functions of each layer (see
:func:`layer_targets`) so every call records a span: name, start, end,
parent span and the request it belongs to.  Spans stay in memory and are
summarised when the run ends.  Nothing here changes what the program
computes; uninstalling restores the original attributes.

Layers and the calls that open their spans:

===================  ===================================================
``graph.build``      ``CompactGraph.from_graph``
``graph.snapshot``   ``DynamicCompactGraph.snapshot``
``graph.dense_build`` first ``neighbor_sets()`` / ``dense_adjacency()``
                     call on each snapshot object
``core.search``      ``opt_b_search_csr`` as the session calls it
``core.kernel``      ``all_ego_betweenness_csr`` as the session calls
                     it, ``CSRChunkKernel.score_chunk``
``session``          ``EgoSession.top_k / scores_batch / scores / score /
                     apply / maintained_top_k``
``parallel``         ``ExecutionRuntime.execute*`` (with the batch's
                     ``BatchStats`` and ``RuntimeStats`` deltas)
``serving``          ``ServingGateway.scores / score / top_k / apply``
``net``              ``EgoClient.scores / top_k / apply``
===================  ===================================================
"""

from __future__ import annotations

import bisect
import collections
import contextvars
import functools
import itertools
import json
import os
import time
from typing import Dict, Iterable, List, Sequence

#: Span name -> the per-layer metric its self time is reported as.
SELF_TIME_METRICS = {
    "graph.build": "graph.build_ms",
    "graph.snapshot": "graph.snapshot_ms",
    "graph.dense_build": "graph.dense_build_ms",
    "core.search": "core.search_ms",
    "core.kernel": "core.kernel_ms",
    "session": "session.self_ms",
    "serving": "serving.self_ms",
    "net": "net.overhead_ms",
}

#: Parts of an ``ExecutionRuntime`` batch, from its span's attributes.
BATCH_METRICS = (
    "dynamic.maintain_ms",
    "parallel.setup_ms",
    "parallel.compute_ms",
    "parallel.worker_busy_ms",
    "parallel.wait_ms",
)


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "attrs", "links")

    def __init__(self, span_id, name, parent, request, start, attrs) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.attrs = attrs
        self.links: List[int] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; installs and removes the layer wrappers."""

    #: How many snapshot objects the first-call detector remembers.
    SEEN_OBJECTS = 16

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.installed = False
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[tuple] = []
        self._seen: Dict[int, object] = {}
        self._seen_order: collections.deque = collections.deque()

    # -- recording -----------------------------------------------------
    def open(self, name: str, root: bool = False, **attrs) -> tuple:
        parent = None if root else self._current.get()
        span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            parent.id if parent is not None else None,
            parent.request if parent is not None else (span_id if root else None),
            time.perf_counter(),
            attrs,
        )
        return span, self._current.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    def root(self, name: str, **attrs):
        """Context manager for one harness operation (a request root)."""
        return _RootSpan(self, name, attrs)

    def first_call(self, obj) -> bool:
        """True the first time ``obj`` is seen (bounded memory of objects).

        Remembered objects are kept alive, so an id in the table always
        names the live object it was recorded for.
        """
        key = id(obj)
        if key in self._seen:
            return False
        self._seen[key] = obj
        self._seen_order.append(key)
        if len(self._seen_order) > self.SEEN_OBJECTS:
            del self._seen[self._seen_order.popleft()]
        return True

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, wrapper in layer_targets(self):
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper(original))
        self.installed = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False
        self._seen.clear()
        self._seen_order.clear()


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> Span:
        self.span, self.token = self.tracer.open(self.name, root=True, **self.attrs)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.span, self.token)


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def _sync(tracer: Tracer, name: str, before=None, after=None, attrs=None):
    def wrap(original):
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token_before = before(args, kwargs) if before else None
            span, token = tracer.open(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if after:
                after(span, token_before, args, kwargs, result)
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    return wrap


def _async(tracer: Tracer, name: str, attrs=None, root: bool = False):
    def wrap(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = tracer.open(
                name, root=root, **(attrs(args, kwargs) if attrs else {})
            )
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)

        return wrapper

    return wrap


def _first_call(tracer: Tracer, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not tracer.first_call(self):
                return fn(self, *args, **kwargs)
            span, token = tracer.open(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(span, token)

        return wrapper

    return wrap


def _maintenance_total(session) -> float:
    seconds = session.maintenance_seconds()
    return seconds["index"] + sum(seconds["lazy"].values())


def _runtime_before(args, kwargs):
    stats = args[0].stats()
    return stats.payload_ships, stats.payload_bytes_shipped, stats.max_workers


def _runtime_after(span, before, args, kwargs, result):
    ships, shipped, max_workers = before
    stats = args[0].stats()
    batch = result[1]
    span.attrs.update(
        ships=stats.payload_ships - ships,
        bytes=stats.payload_bytes_shipped - shipped,
        setup=batch.setup_seconds,
        compute=batch.compute_seconds,
        busy=sum(batch.chunk_seconds),
        tasks=batch.num_tasks,
        workers=kwargs.get("num_workers") or max_workers,
    )


def _search_after(span, before, args, kwargs, result):
    span.attrs.update(exact=result.stats.exact_computations, n=args[0].num_vertices)


def _apply_after(span, before, args, kwargs, result):
    span.attrs["maintain"] = _maintenance_total(args[0]) - before


def _key_attrs(method: str):
    """Request identity (``op``, ``key``) for matching net, serving and
    session spans; ``args`` are ``(self, tenant, payload)``."""

    def attrs(args, kwargs):
        payload = args[2] if len(args) > 2 else kwargs.get("vertices", kwargs.get("k"))
        if method == "scores":
            return {"op": "scores", "key": None if payload is None else tuple(payload)}
        if method == "score":
            return {"op": "scores", "key": (payload,)}
        if method == "top_k":
            return {"op": "top_k", "key": payload}
        return {"op": method, "key": None}

    return attrs


def layer_targets(tracer: Tracer) -> List[tuple]:
    """``(owner, attribute, wrapper factory)`` for every traced call."""
    import repro.session as session_module
    from repro.core.csr_kernels import CSRChunkKernel
    from repro.graph.csr import CompactGraph
    from repro.graph.dynamic_csr import DynamicCompactGraph
    from repro.net.client import EgoClient
    from repro.parallel.runtime import ExecutionRuntime
    from repro.serving.gateway import ServingGateway

    EgoSession = session_module.EgoSession
    targets = [
        (CompactGraph, "from_graph", _sync(tracer, "graph.build")),
        (DynamicCompactGraph, "snapshot", _sync(tracer, "graph.snapshot")),
        (CompactGraph, "neighbor_sets", _first_call(tracer, "graph.dense_build")),
        (CompactGraph, "dense_adjacency", _first_call(tracer, "graph.dense_build")),
        (session_module, "opt_b_search_csr", _sync(tracer, "core.search", after=_search_after)),
        (session_module, "all_ego_betweenness_csr", _sync(tracer, "core.kernel")),
        (CSRChunkKernel, "score_chunk", _sync(tracer, "core.kernel")),
        (
            EgoSession,
            "apply",
            _sync(
                tracer,
                "session",
                before=lambda args, kwargs: _maintenance_total(args[0]),
                after=_apply_after,
                attrs=lambda args, kwargs: {"op": "apply"},
            ),
        ),
    ]
    for method, op in (
        ("top_k", "top_k"),
        ("scores_batch", "scores"),
        ("scores", "scores"),
        ("score", "scores"),
        ("maintained_top_k", "maintained_top_k"),
    ):
        targets.append(
            (
                EgoSession,
                method,
                _sync(tracer, "session", attrs=lambda a, k, op=op: {"op": op}),
            )
        )
    for method in ("execute", "execute_top_k", "execute_sharded", "execute_top_k_sharded"):
        targets.append(
            (
                ExecutionRuntime,
                method,
                _sync(tracer, "parallel", before=_runtime_before, after=_runtime_after),
            )
        )
    for method in ("scores", "score", "top_k", "apply"):
        targets.append(
            (ServingGateway, method, _async(tracer, "serving", attrs=_key_attrs(method)))
        )
    for method in ("scores", "top_k", "apply"):
        targets.append(
            (EgoClient, method, _async(tracer, "net", attrs=_key_attrs(method), root=True))
        )
    return targets


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def write_jsonl(spans: Sequence[Span], path: str) -> None:
    """Write every span as one JSON object per line (times in seconds)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as out:
        for span in spans:
            record = {
                "id": span.id,
                "name": span.name,
                "parent": span.parent,
                "request": span.request,
                "links": span.links,
                "start": span.start,
                "end": span.end,
                "attrs": span.attrs,
            }
            out.write(json.dumps(record, default=str) + "\n")


def link_by_containment(
    spans: Sequence[Span], child: str, parent: str, one_parent: bool
) -> None:
    """Attach parentless ``child`` spans to the ``parent`` spans they sit in.

    Used where a call crosses a socket or a thread hop and the context is
    lost.  Candidates must have the same ``op`` (and ``key``, when
    ``one_parent``) and an interval containing the child's.  With
    ``one_parent`` each child takes the latest-starting free candidate
    (a client request answered by one gateway call); otherwise it links
    to every candidate (a coalesced batch answers every request waiting
    on it).
    """
    parents = sorted((s for s in spans if s.name == parent), key=lambda s: s.start)
    starts = [s.start for s in parents]
    taken = set()

    orphans = [s for s in spans if s.name == child and s.parent is None]
    for span in sorted(orphans, key=lambda s: s.start):
        op = span.attrs.get("op")
        hi = bisect.bisect_right(starts, span.start)
        candidates = []
        for candidate in reversed(parents[:hi]):
            if candidate.end < span.end or candidate.attrs.get("op") != op:
                continue
            if one_parent and (
                candidate.id in taken or candidate.attrs.get("key") != span.attrs.get("key")
            ):
                continue
            candidates.append(candidate)
            if one_parent:
                break
        for candidate in candidates:
            taken.add(candidate.id)
            span.links.append(candidate.id)
        if one_parent and candidates:
            span.parent = candidates[0].id
            span.request = candidates[0].request
            span.links.clear()


def inherit_requests(spans: Sequence[Span]) -> None:
    """Give each span still without a request id its parent's.

    Run after :func:`link_by_containment`; a batch span linked to many
    requests keeps ``request=None`` and names them in ``links``.
    """
    by_id = {span.id: span for span in spans}
    for span in sorted(spans, key=lambda s: s.id):
        if span.request is None and span.parent in by_id:
            span.request = by_id[span.parent].request


def _covered(interval, children: Iterable[Span]) -> float:
    lo, hi = interval
    pieces = sorted((max(lo, c.start), min(hi, c.end)) for c in children)
    total, cursor = 0.0, lo
    for start, end in pieces:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: Sequence[Span], roots: Sequence[Span]) -> Dict[str, float]:
    """Per-layer numbers over the request trees of ``roots``.

    ``*_ms`` values are the mean, over requests, of the layer's self time
    inside the request's tree (a coalesced batch counts in full for each
    request it answered, so the layers add up to the request's latency).
    Counts and ratios count each span once over all requests.
    """
    children: Dict[int, List[Span]] = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        for link in span.links:
            children[link].append(span)

    seconds = collections.Counter()
    distinct: Dict[int, Span] = {}
    for root in roots:
        stack, visited = [root], set()
        while stack:
            span = stack.pop()
            if span.id in visited:
                continue
            visited.add(span.id)
            distinct[span.id] = span
            kids = children.get(span.id, ())
            own = span.duration - _covered((span.start, span.end), kids)
            attrs = span.attrs
            if span.name == "session":
                maintain = attrs.get("maintain", 0.0)
                seconds["dynamic.maintain_ms"] += maintain
                own -= maintain
            elif span.name == "parallel":
                busy_share = attrs["busy"] / max(1, min(attrs["tasks"], attrs["workers"]))
                seconds["parallel.setup_ms"] += attrs["setup"]
                seconds["parallel.compute_ms"] += attrs["compute"]
                seconds["parallel.worker_busy_ms"] += attrs["busy"]
                seconds["parallel.wait_ms"] += max(0.0, attrs["compute"] - busy_share)
            if span.name in SELF_TIME_METRICS:
                seconds[SELF_TIME_METRICS[span.name]] += own
            stack.extend(kids)

    count = max(1, len(roots))
    out = {
        name: seconds[name] * 1e3 / count
        for name in (*SELF_TIME_METRICS.values(), *BATCH_METRICS)
    }
    unique = list(distinct.values())
    out["graph.snapshots"] = sum(1 for s in unique if s.name == "graph.snapshot") / count
    searches = [s for s in unique if s.name == "core.search"]
    searched = sum(s.attrs["n"] for s in searches)
    out["core.exact_frac"] = (
        sum(s.attrs["exact"] for s in searches) / searched if searched else 0.0
    )
    batches = [s for s in unique if s.name == "parallel"]
    out["parallel.ships"] = sum(s.attrs["ships"] for s in batches) / count
    out["parallel.bytes_shipped"] = sum(s.attrs["bytes"] for s in batches) / count
    return out
