"""update-stream: the paper's Fig. 8 local/lazy maintenance under edge churn.

livejournal at scale 1.0 (n=2,600, below the 4,096-vertex dense-adjacency
limit), one in-memory session with no write-ahead log, one closed-loop
caller.  The seeded stream is made of bursts of 8 events, half deleting
an existing edge and half inserting an absent pair, in shuffled order.
One cycle is:

* ``update`` x4 — ``apply(burst)`` then ``maintained_top_k(10)``, timed as
  one sample;
* ``fresh_read`` — ``scores_batch([[u]])`` for an endpoint ``u`` of the
  last burst: the snapshot, its neighbour sets and bitmap are rebuilt;
* ``search`` — ``top_k(10)``, serial OptBSearch on that fresh snapshot:
  what answering without maintenance costs.

On seeded sample cycles (one in ``CHECK_EVERY`` on average), outside the
timed regions, the three answers are compared with a fresh recomputation
by the serial CSR kernels on a snapshot built from the generator's own
copy of the edge set.  Any difference, however small, is a failure.
"""

from __future__ import annotations

import random

from common import EdgeChurn, topk_matches

DATASET, SCALE, K = "livejournal", 1.0, 10
BURST, BURSTS_PER_READ, CHECK_EVERY = 8, 4, 8

#: Metric slot -> (operation kind, quantile).  On a shared
#: host each latency has a fast and a slow mode that follow the host's
#: phases, and the share of slow phase changes from run to run, so p50
#: flips between the modes; p10 stays in the fast mode (see README.md).
#: The fresh-read tail is p75: its p90 flipped too once the host was
#: quiet for whole runs.
SLOTS = {
    "a_main": ("update", 0.1),
    "a_tail": ("update", 0.9),
    "b_main": ("fresh_read", 0.1),
    "b_tail": ("fresh_read", 0.75),
    "c_main": ("search", 0.1),
}
#: Names this workload reports at another quantile than the usual one.
REPLACED = {
    "update_p50_ms": "update_p10_ms: p50 flips between the host's fast and slow modes",
    "fresh_read_p50_ms": "fresh_read_p10_ms: p50 flips between the host's fast and slow modes",
    "fresh_read_p90_ms": "fresh_read_p75_ms: p90 flips between the modes on a quiet host",
}


class Workload:
    kinds = ("update", "fresh_read", "search")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self):
        from repro import EgoSession
        from repro.datasets.registry import load_dataset
        from repro.graph.csr import CompactGraph

        graph = load_dataset(DATASET, SCALE)
        session = EgoSession(CompactGraph.from_graph(graph))
        rng = random.Random(self.seed)
        # The generator owns the stream; the session only sees its events.
        state = {
            "session": session,
            "churn": EdgeChurn(graph, random.Random(rng.random())),
            "rng": random.Random(rng.random()),
        }
        # Warm-up: promotion, lazy-maintainer seeding (an all-vertex
        # sweep) and one of each timed operation.
        session.maintained_top_k(K)
        self._cycle_ops(state, lambda kind, call: call())
        return state

    @staticmethod
    def teardown(state) -> None:
        state["session"].close()

    @staticmethod
    def counters(state):
        counts = state["session"].lazy_counters(K)
        return {
            "lazy_exact": counts["exact_recomputations"],
            "lazy_skipped": counts["skipped_recomputations"],
        }

    def _burst(self, state):
        # Events are drawn in their shuffled order, so an insert never
        # precedes the delete that freed its pair.
        churn, rng = state["churn"], state["rng"]
        kinds = ["delete"] * (BURST // 2) + ["insert"] * (BURST // 2)
        rng.shuffle(kinds)
        return [churn.delete() if kind == "delete" else churn.insert() for kind in kinds]

    def _cycle_ops(self, state, timed):
        session = state["session"]
        for _ in range(BURSTS_PER_READ):
            burst = self._burst(state)
            maintained = timed(
                "update", lambda: (session.apply(burst), session.maintained_top_k(K))[1]
            )
        _, u, v = state["rng"].choice(burst)
        vertex = state["rng"].choice((u, v))
        read = timed("fresh_read", lambda: session.scores_batch([[vertex]]))
        searched = timed("search", lambda: session.top_k(K))
        return maintained, vertex, read[0], searched

    def cycle(self, state, recorder, outcome) -> int:
        maintained, vertex, read, searched = self._cycle_ops(state, recorder.time)
        if state["rng"].randrange(CHECK_EVERY) == 0:
            values = self._oracle(state)
            if not topk_matches(maintained.entries, values, K):
                outcome.fail("maintained top-k differs from a fresh recomputation")
            if read != {vertex: values[vertex]}:
                outcome.fail("fresh read differs from a fresh recomputation")
            if not topk_matches(searched.entries, values, K):
                outcome.fail("search top-k differs from a fresh recomputation")
        return BURSTS_PER_READ + 2

    @staticmethod
    def _oracle(state):
        from repro.core.csr_kernels import all_ego_betweenness_csr
        from repro.graph.csr import CompactGraph
        from repro.graph.graph import Graph

        churn = state["churn"]
        graph = Graph()
        for vertex in churn.vertices:
            graph.add_vertex(vertex)
        for u, v in churn.edges:
            graph.add_edge(u, v)
        return all_ego_betweenness_csr(CompactGraph.from_graph(graph))
