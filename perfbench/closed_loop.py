"""Runner for the closed-loop workloads (one caller, next op after the last).

A workload object provides ``kinds``, ``build()``, ``teardown(state)``,
``counters(state)`` and ``cycle(state, recorder, outcome)``: one
interleaved round of its operation kinds, each timed through
``recorder.time(kind, call)``.  ``cycle`` returns the number of
operations it attempted and records failures on the outcome.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from common import (
    HostProbe,
    Outcome,
    Samples,
    freeze_heap,
    median,
    quantile,
    timed_setups,
)
from spans import Tracer, summarize

#: Length of one traced or untraced block in a ``--trace 1`` run.
TRACE_BLOCK_S = 1.0


class Recorder:
    """Times operations; in a traced block also opens their root spans."""

    def __init__(self, kinds, tracer) -> None:
        self.untraced = Samples(kinds)
        self.traced = Samples(kinds)
        self.tracer = tracer
        self.roots: List = []
        self.gaps: List[float] = []
        self._last_end = None

    def time(self, kind: str, call):
        """Run ``call()`` as one timed operation of ``kind``; return its result."""
        tracer = self.tracer
        start = time.perf_counter()
        if self._last_end is not None:
            self.gaps.append(start - self._last_end)
        if tracer is not None and tracer.installed:
            with tracer.root("op." + kind) as span:
                result = call()
            self.roots.append(span)
            self.traced.add(kind, span.duration)
        else:
            result = call()
            self.untraced.add(kind, time.perf_counter() - start)
        self._last_end = time.perf_counter()
        return result


def run(workload, seconds: float, trace: bool) -> Dict[str, object]:
    """Set up, measure for ``seconds``, tear down; return the raw results."""
    state, setups = timed_setups(workload.build, workload.teardown)
    freeze_heap()
    tracer = Tracer() if trace else None
    recorder = Recorder(workload.kinds, tracer)
    probe = HostProbe()
    outcome = Outcome()
    try:
        counters_before = workload.counters(state)
        start = time.perf_counter()
        deadline = start + seconds
        next_switch = start + TRACE_BLOCK_S
        try:
            while time.perf_counter() < deadline:
                if tracer is not None and time.perf_counter() >= next_switch:
                    tracer.uninstall() if tracer.installed else tracer.install()
                    next_switch += TRACE_BLOCK_S
                outcome.attempted += workload.cycle(state, recorder, outcome)
                probe.maybe_sample()
        finally:
            if tracer is not None:
                tracer.uninstall()
        counters = {
            key: value - counters_before.get(key, 0)
            for key, value in workload.counters(state).items()
        }
    finally:
        workload.teardown(state)
    gc.unfreeze()
    result = {
        "setups": setups,
        "samples": recorder.untraced,
        "outcome": outcome,
        "host_probe_ms": probe.median(),
        "lag_p90_ms": quantile(recorder.gaps, 0.9) * 1e3 if recorder.gaps else 0.0,
        "counters": counters,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["layers"] = summarize(tracer.spans, recorder.roots)
        result["traced_ops"] = len(recorder.roots)
        result["trace_overhead_pct"] = overhead_pct(recorder.untraced, recorder.traced)
    return result


def overhead_pct(untraced: Samples, traced: Samples) -> float:
    """Traced-vs-untraced median latency, weighted by traced op counts."""
    total, weight = 0.0, 0
    for kind, samples in traced.by_kind.items():
        base = untraced.by_kind[kind]
        if samples and base:
            total += (median(samples) / median(base) - 1.0) * len(samples)
            weight += len(samples)
    return 100.0 * total / weight if weight else 0.0
