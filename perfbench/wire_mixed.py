"""wire-mixed: the serving path, client -> wire -> server -> gateway -> pool.

One asyncio process runs an ``EgoServer`` over a ``ServingGateway`` with
the ``repro serve --http`` defaults (process executor, 1 worker per pass
on a pool of at most 2, 2 ms window, result cache 64, encoded cache 128)
and one dblp tenant at scale 1.0 (n=1,902), and a pooled ``EgoClient``
with 2 connections on loopback.  The load is an open loop: Poisson
arrivals at ``RATE`` per second, each request timed from its scheduled
send time.  The mix (``MIX``) is 90% one-vertex ``scores`` reads
with Zipf-skewed vertices, 8% ``top_k(10)`` and 2% one-edge ``apply``
writes (alternately deleting an existing edge and inserting an absent
pair).  Writes are sent one at a time, so the graph's versions
follow the plan's write order.

After the run, every answer is checked against the serial CSR oracle on
the graph versions its request overlapped: a request may see any version
between the writes acknowledged before it was sent and the writes sent
before it was answered.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import random
import time
from typing import Dict, List

from common import (
    SETUP_REPEATS,
    EdgeChurn,
    HostProbe,
    Outcome,
    Samples,
    freeze_heap,
    quantile,
    topk_matches,
)
from closed_loop import TRACE_BLOCK_S, overhead_pct
from spans import Tracer, inherit_requests, link_by_containment, summarize

DATASET, SCALE, TENANT, K = "dblp", 1.0, "dblp", 10
RATE = 80.0
#: Requests of each kind in every block of 50 (90% / 8% / 2%).
MIX = (("read", 45), ("topk", 4), ("write", 1))
ZIPF_S = 1.0
#: Bound on waiting for the last answers after the plan is sent.
DRAIN_S = 30.0

#: Metric slot -> (operation kind, quantile).  Top-k is bimodal: a
#: result-cache hit, or a re-ship and search after a write.  The plan
#: knows which top-k are the first after a write (``topk_fresh``), so
#: each mode is its own kind and the top-k tail is the median of the
#: slow mode.
SLOTS = {
    "a_main": ("read", 0.5),
    "a_tail": ("read", 0.75),
    "b_main": ("topk", 0.5),
    "b_tail": ("topk_fresh", 0.5),
    "c_main": ("write", 0.5),
}
#: Names this workload reports at another quantile than the usual one.
REPLACED = {
    "read_p90_ms": "read_p75_ms: p90 and p95 fall on the edge of the queued-read mode",
    "topk_p90_ms": "topk_fresh_p50_ms: the slow mode's median, not a quantile across both",
}
KINDS = ("read", "topk", "topk_fresh", "write")
TOPK_KINDS = ("topk", "topk_fresh")


def make_plan(seed: int, seconds: float, graph) -> List[tuple]:
    """``(offset_s, kind, payload)`` for every request, from the seed only.

    Kinds come in shuffled blocks with the exact mix, so every run sees
    the same share of writes and top-k (only their order is random).
    The first top-k after a write is planned as ``topk_fresh``.
    """
    rng = random.Random(seed)
    ranked = list(graph.vertices())
    rng.shuffle(ranked)
    cumulative, total = [], 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    churn = EdgeChurn(graph, random.Random(rng.random()))
    plan, clock, block, writes, fresh = [], 0.0, [], 0, False
    while True:
        clock += rng.expovariate(RATE)
        if clock >= seconds:
            return plan
        if not block:
            block = [kind for kind, count in MIX for _ in range(count)]
            rng.shuffle(block)
        kind = block.pop()
        if kind == "read":
            index = bisect.bisect_left(cumulative, rng.random() * total)
            plan.append((clock, kind, ranked[min(index, len(ranked) - 1)]))
        elif kind == "topk":
            plan.append((clock, "topk_fresh" if fresh else kind, K))
            fresh = False
        else:
            plan.append((clock, kind, churn.delete() if writes % 2 == 0 else churn.insert()))
            writes, fresh = writes + 1, True


async def start_stack():
    """Gateway, server and client as ``repro serve --http`` would run them."""
    from repro.datasets.registry import load_dataset
    from repro.net import EgoClient, EgoServer
    from repro.serving import ServingGateway

    graph = load_dataset(DATASET, SCALE)
    gateway = ServingGateway(
        window_seconds=0.002,
        max_batch=64,
        parallel=1,
        executor="process",
        max_workers=2,
        result_cache_size=64,
    )
    gateway.add_tenant(TENANT, graph)
    server = EgoServer(gateway, encoded_cache_size=128)
    await server.start()
    client = EgoClient(server.host, server.port, pool_size=2)
    # Warm-up: both connections, the pool start, the first payload ship
    # and the kernel-tier import happen here.
    vertices = list(graph.vertices())
    await asyncio.gather(*(client.scores(TENANT, [v]) for v in vertices[:4]))
    await client.top_k(TENANT, K)
    return {"graph": graph, "gateway": gateway, "server": server, "client": client}


async def stop_stack(stack) -> None:
    await stack["client"].close()
    await stack["server"].close()


def counters(stack) -> Dict[str, int]:
    gateway = stack["gateway"].stats()["gateway"]
    server = stack["server"].stats.as_dict()
    names = ("coalesced_requests", "batches", "window_flushes", "cache_hits", "cache_misses")
    values = {name: gateway[name] for name in names}
    for name in ("encoded_cache_hits", "encoded_cache_misses", "shed", "errors"):
        values[name] = server[name]
    return values


class OpenLoop:
    """One open-loop pass over the plan against a started stack."""

    def __init__(self, stack, plan, tracer) -> None:
        self.stack, self.plan, self.tracer = stack, plan, tracer
        self.untraced, self.traced = Samples(KINDS), Samples(KINDS)
        self.outcome = Outcome()
        self.probe = HostProbe()
        self.lags: List[float] = []
        self.records: List[tuple] = []
        self.write_sent: List[float] = []
        self.write_acked: List[float] = []
        self.write_lock = asyncio.Lock()
        self.inflight = 0

    async def fire(self, scheduled: float, kind: str, payload) -> None:
        loop = asyncio.get_running_loop()
        client = self.stack["client"]
        sent = loop.time()
        self.lags.append(sent - scheduled)
        traced = self.tracer is not None and self.tracer.installed
        self.inflight += 1
        try:
            if kind == "read":
                answer = await client.scores(TENANT, [payload])
            elif kind in TOPK_KINDS:
                answer = await client.top_k(TENANT, payload)
            else:
                async with self.write_lock:
                    self.write_sent.append(loop.time())
                    answer = await client.apply(TENANT, [payload])
                    self.write_acked.append(loop.time())
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.outcome.fail(f"{kind}: {type(error).__name__}")
            return
        finally:
            self.inflight -= 1
        done = loop.time()
        (self.traced if traced else self.untraced).add(kind, done - scheduled)
        self.records.append((kind, payload, sent, done, answer))

    async def drive(self) -> None:
        loop = asyncio.get_running_loop()
        tracer = self.tracer
        start = loop.time() + 0.05
        next_switch = start + TRACE_BLOCK_S
        tasks = []
        for offset, kind, payload in self.plan:
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if tracer is not None and loop.time() >= next_switch:
                tracer.uninstall() if tracer.installed else tracer.install()
                next_switch += TRACE_BLOCK_S
            if not self.inflight:
                # Probe only while nothing is in flight, so the loop does
                # not compete with the gateway's threads for the CPU.
                self.probe.maybe_sample()
            tasks.append(asyncio.ensure_future(self.fire(start + offset, kind, payload)))
        self.outcome.attempted = len(tasks)
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
                self.outcome.fail("no answer within the drain bound", len(pending))
        if tracer is not None:
            tracer.uninstall()


def check_answers(load: "OpenLoop") -> None:
    """Compare every answer with the oracle on the versions it overlapped."""
    from repro.core.csr_kernels import all_ego_betweenness_csr
    from repro.datasets.registry import load_dataset
    from repro.graph.csr import CompactGraph

    writes = [payload for _, kind, payload in load.plan if kind == "write"]
    needs: Dict[int, set] = {}
    full: set = set()
    windows = []
    for kind, payload, sent, done, answer in load.records:
        if kind == "write":
            continue
        low = bisect.bisect_left(load.write_acked, sent)
        high = bisect.bisect_left(load.write_sent, done)
        windows.append((kind, payload, low, high, answer))
        for version in range(low, high + 1):
            if kind in TOPK_KINDS:
                full.add(version)
            else:
                needs.setdefault(version, set()).add(payload)
    graph = load_dataset(DATASET, SCALE)
    oracle: Dict[int, Dict] = {}
    last = max(list(needs) + list(full) + [0])
    for version in range(last + 1):
        if version in full:
            oracle[version] = all_ego_betweenness_csr(CompactGraph.from_graph(graph))
        elif version in needs:
            oracle[version] = all_ego_betweenness_csr(
                CompactGraph.from_graph(graph), sorted(needs[version])
            )
        if version < len(writes):
            operation, u, v = writes[version]
            (graph.add_edge if operation == "insert" else graph.remove_edge)(u, v)
    for kind, payload, low, high, answer in windows:
        if kind in TOPK_KINDS:
            ok = any(topk_matches(answer, oracle[k], K) for k in range(low, high + 1))
        else:
            ok = any(answer == {payload: oracle[k][payload]} for k in range(low, high + 1))
        if not ok:
            load.outcome.fail(f"{kind} differs from the oracle on every overlapped version")


async def measure(seed: int, seconds: float, trace: bool):
    setups, stack = [], None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            await stop_stack(stack)
            stack = None
            gc.collect()
        start = time.perf_counter()
        stack = await start_stack()
        setups.append(time.perf_counter() - start)
    plan = make_plan(seed, seconds, stack["graph"])
    freeze_heap()
    tracer = Tracer() if trace else None
    load = OpenLoop(stack, plan, tracer)
    before = counters(stack)
    try:
        await load.drive()
    finally:
        after = counters(stack)
        await stop_stack(stack)
    gc.unfreeze()
    return setups, load, {name: after[name] - before[name] for name in after}


def run(seed: int, seconds: float, trace: bool):
    setups, load, counter_deltas = asyncio.run(measure(seed, seconds, trace))
    check_answers(load)
    result = {
        "setups": setups,
        "samples": load.untraced,
        "outcome": load.outcome,
        "host_probe_ms": load.probe.median(),
        "lag_p90_ms": quantile(load.lags, 0.9) * 1e3 if load.lags else 0.0,
        "counters": counter_deltas,
    }
    if trace:
        spans = load.tracer.spans
        link_by_containment(spans, "serving", "net", one_parent=True)
        link_by_containment(spans, "session", "serving", one_parent=False)
        inherit_requests(spans)
        roots = [span for span in spans if span.name == "net"]
        result["spans"] = spans
        result["layers"] = summarize(spans, roots)
        result["traced_ops"] = len(roots)
        result["trace_overhead_pct"] = overhead_pct(load.untraced, load.traced)
    return result
