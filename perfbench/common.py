"""Shared harness pieces: seeded inputs, timing windows, host probe, RSS,
answer checks and the result line every workload prints."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import random
import resource
import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: Iterations of the host-speed probe loop (about 1 ms of pure Python on
#: a 2-vCPU cloud host).
PROBE_ITERATIONS = 20_000

#: Seconds between two host-probe samples inside a run.
PROBE_EVERY_S = 0.25

#: How many times a run repeats its set-up; ``setup_s`` is their median.
SETUP_REPEATS = 7


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of ``samples`` (``0 <= q <= 1``)."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_probe_ms() -> float:
    """Time one fixed pure-Python loop; a slow host phase shows here."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


class HostProbe:
    """Samples :func:`host_probe_ms` at most every ``PROBE_EVERY_S`` seconds."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = 0.0

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(host_probe_ms())
            self._next = now + PROBE_EVERY_S

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else host_probe_ms()


def freeze_heap() -> None:
    """Collect set-up garbage, then move survivors out of the GC's reach."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB.

    Read after teardown, so every pool worker has been joined and counts
    in ``RUSAGE_CHILDREN`` (whose ``ru_maxrss`` is the largest child's).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def edge_list(graph) -> List[Tuple]:
    """Every undirected edge of a hash-set ``Graph`` once, in a fixed order."""
    order = {v: i for i, v in enumerate(graph.vertices())}
    edges = []
    for u in graph.vertices():
        for w in graph.neighbors(u):
            if order[u] < order[w]:
                edges.append((u, w))
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return edges


class EdgeChurn:
    """Seeded generator of edge updates that never fail.

    Keeps its own copy of the edge set: a delete names an existing edge,
    an insert names an absent pair, so the edge count stays level.
    """

    def __init__(self, graph, rng: random.Random) -> None:
        self.rng = rng
        self.vertices = list(graph.vertices())
        self.edges = edge_list(graph)
        self.present = set(self.edges)
        self.present.update((v, u) for u, v in self.edges)

    def delete(self) -> Tuple[str, object, object]:
        index = self.rng.randrange(len(self.edges))
        self.edges[index], self.edges[-1] = self.edges[-1], self.edges[index]
        u, v = self.edges.pop()
        self.present.discard((u, v))
        self.present.discard((v, u))
        return ("delete", u, v)

    def insert(self) -> Tuple[str, object, object]:
        while True:
            u, v = self.rng.sample(self.vertices, 2)
            if (u, v) not in self.present:
                break
        self.edges.append((u, v))
        self.present.add((u, v))
        self.present.add((v, u))
        return ("insert", u, v)


def topk_matches(entries: Sequence[Tuple], values: Dict, k: int) -> bool:
    """Exact check of a top-k answer against an oracle values map.

    Every returned score must equal the oracle's score of that vertex
    bit for bit, the vertices must be distinct, and the scores must be
    the ``k`` largest oracle values; tie order among equal scores is free.
    """
    if len(entries) != min(k, len(values)):
        return False
    if len({vertex for vertex, _ in entries}) != len(entries):
        return False
    for vertex, score in entries:
        if values.get(vertex) != score:
            return False
    expected = sorted(values.values(), reverse=True)[:k]
    return sorted((score for _, score in entries), reverse=True) == expected


class Samples:
    """Latency samples (seconds) per operation kind."""

    def __init__(self, kinds: Iterable[str]) -> None:
        self.by_kind: Dict[str, List[float]] = {kind: [] for kind in kinds}

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind[kind].append(seconds)

    def ms(self, kind: str, q: float) -> float:
        return quantile(self.by_kind[kind], q) * 1e3

    def count(self, kind: str) -> int:
        return len(self.by_kind[kind])


class Outcome:
    """What one run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(report: Dict[str, object], outcome: Outcome, metrics: Dict[str, Dict]) -> None:
    """Print the human report, then the one-line result object last."""
    print("report " + json.dumps(report, default=float))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )


def timed_setups(build, teardown) -> Tuple[object, List[float]]:
    """Run ``build`` ``SETUP_REPEATS`` times; keep the last, time each.

    Earlier instances are torn down and collected before the next is
    built, so only one instance counts in peak RSS; the returned one is
    what the run measures.  ``setup_s`` is the median of the returned
    durations.
    """
    durations = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        start = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - start)
    return state, durations


@contextlib.contextmanager
def children_stopped():
    """Run the block; on every way out, end every process it started.

    Shared-memory payloads need ``multiprocessing``'s resource-tracker
    process.  It is started here, before any pool forks, so the workers
    inherit it; a worker forked before it existed would start a tracker
    of its own, which outlives that worker.  On the way out, a pool an
    error left open is terminated through the finalizers
    ``multiprocessing`` would run at exit (so its handler thread does not
    replace the workers), every worker is joined, and the tracker, which
    would otherwise outlive this process until it noticed the closed
    pipe, is stopped and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker, util

    resource_tracker.ensure_running()
    try:
        yield
    finally:
        util._run_finalizers(0)
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        resource_tracker._resource_tracker._stop()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
