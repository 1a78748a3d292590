"""Seeded input generation for the benchmark's workloads (never timed).

A plan is a JSON-serializable dict: the graph spec, the engine's
durability settings, and one sub-plan per process of the run.  A
sub-plan is a list of closed-loop steps plus the vertices the oracle
gates sample.  Each step is at most one update batch (its ops, and the
maintenance path the batch must take: ``insert``, ``repair`` or
``rebuild``; a read-only step has no ops) followed by the reads that run
once the batch is visible and the writer is idle.  Sub-plans draw
distinct ops, so a run averages over as many distinct batches as it
executes.

The ops are the same for every seed: each process draws them from a
stream of its own that ``--seed`` does not enter, so the write work a
run measures, and its byte and entry counts, repeat exactly from run to
run, and a seed-to-seed difference in a batch metric is the host's, not
the input's.  The seed draws every read and every oracle sample.

The program receives only the generated ops and queries: pricing the
churn deletions needs an index of the initial graph, which is built
here and thrown away.
"""

from __future__ import annotations

import copy
import random

import common

WORKLOADS = ("read_mostly", "churn")

#: Fresh interpreter processes pooled per run, one after another.
PROCESSES = 3

#: Plan steps per second of ``--seconds`` (spread over the processes),
#: measured on a 2-vCPU container (Python 3.11, NumPy 2.4): a
#: read_mostly step takes ~17 ms, a churn cycle of three batches ~1.1 s
#: (the gates excluded).
#: A plan is a fixed amount of work so that counts repeat; these rates
#: size it.
STEP_RATE = {"read_mostly": 60.0, "churn": 2.8}

#: ``recover()`` calls on each process's crash image (the run reports
#: the median over all of them).
RECOVERIES = 3

#: Vertices checked against the BFS oracle after every step.
CHECKS_PER_STEP = 4
#: Ops per read_mostly insert batch.
READ_MOSTLY_BATCH = 4
#: A read_mostly step submits its batch only every this many steps, so
#: that writes stay under 5% of the run; the steps in between read the
#: same epoch, and only the first read of each epoch screens it "first".
READ_MOSTLY_WRITE_EVERY = 20
#: The low-impact churn deletion batch has exactly this many ops and an
#: affected-side fraction in [CHURN_LOW_FRACTION, 0.25], so that every
#: seed submits as many ops per cycle and repairs a similar hub count.
CHURN_LOW_OPS = 5
CHURN_LOW_FRACTION = 0.2
#: Edges priced per run; the low-impact batch is drawn from those whose
#: own deletion stays under the 0.25 cap.
LOW_POOL = 200
#: Mixed churn batch: 6 deletions to 2 insertions.
CHURN_DELETES, CHURN_INSERTS = 6, 2
#: The mixed batch must price at least this affected-side fraction,
#: twice the default rebuild threshold (0.25), so that it takes the
#: rebuild fallback with margin.
CHURN_REBUILD_FRACTION = 0.5

#: Checkpoint cadence in WAL bytes.  A WAL batch record is 30 bytes plus
#: 9 per op, so read_mostly checkpoints every 7 batches and churn every
#: two cycles (5 + 5 + 8 ops); churn runs an odd number of cycles, so its
#: crash suffix is one whole cycle and recovery replays a rebuild.
CHECKPOINT_BYTES = {"read_mostly": 450, "churn": 500}


def _new_edges(rng, n, present, count):
    """``count`` random non-edges (no self loops), added to ``present``."""
    out = []
    while len(out) < count:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (a, b) not in present:
            present.add((a, b))
            out.append(("insert", a, b))
    return out


def _reads(rng, n, sccnt, spcnt):
    verts = [rng.randrange(n) for _ in range(sccnt)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(spcnt)]
    return verts, pairs


def steps_for(workload: str, seconds: float) -> int:
    """Steps per process for ``seconds`` of measurement per run."""
    steps = max(1, round(STEP_RATE[workload] * seconds / PROCESSES))
    if workload == "churn":
        steps = 3 * (2 * (steps // 6) + 1)  # an odd number of cycles
    return steps


def make_plan(workload: str, seed: int, seconds: float,
              profile: str = "small") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    spec = {"kind": "wkt", "profile": profile}
    graph = common.make_graph(spec)
    steps_n = steps_for(workload, seconds)
    if workload == "churn":
        pricer = _Pricer(graph, random.Random("churn:pool"))
    procs = []
    for i in range(PROCESSES):
        rng = random.Random(f"{workload}:{seed}:{i}")
        ops_rng = random.Random(f"{workload}:ops:{i}")
        present = set(graph.edges())
        if workload == "read_mostly":
            steps = _read_mostly_steps(rng, ops_rng, graph.n, present,
                                       steps_n)
        else:
            steps = _churn_steps(rng, ops_rng, pricer, graph, steps_n // 3)
        procs.append({
            "steps": steps,
            "oracle": sorted(rng.sample(range(graph.n), min(graph.n, 24))),
        })
    return {
        "workload": workload,
        "seed": seed,
        "profile": profile,
        "graph": spec,
        "checkpoint_wal_bytes": CHECKPOINT_BYTES[workload],
        "replica": workload == "read_mostly",
        "recoveries": RECOVERIES,
        "procs": procs,
    }


def _read_mostly_steps(rng, ops_rng, n, present, steps_n):
    steps = []
    for i in range(steps_n):
        writes = i % READ_MOSTLY_WRITE_EVERY == 0
        verts, pairs = _reads(rng, n, 400, 200)
        steps.append({
            "ops": (_new_edges(ops_rng, n, present, READ_MOSTLY_BATCH)
                    if writes else []),
            "path": "insert" if writes else None,
            "sccnt": verts, "spcnt": pairs,
            "routed": [rng.randrange(n) for _ in range(40)],
            "check": rng.sample(range(n), CHECKS_PER_STEP) if writes else [],
        })
    return steps


class _Pricer:
    """Deletion pricing for the churn plan: an edge set's union
    deletion-affected hub sides over ``n``, from the batch engine's own
    ``deletion_affected_hubs`` (the pricing ``low_impact_delete_batch``
    uses), on the initial index or on a later graph of the plan."""

    def __init__(self, graph, rng) -> None:
        from repro.core.counter import ShortestCycleCounter

        self.index = ShortestCycleCounter.build(graph.copy()).index
        self.n = graph.n
        self._memo: tuple[dict, dict] = ({}, {})
        self._sides: dict = {}
        edges = sorted(graph.edges())
        self._unpriced = rng.sample(edges, len(edges))
        #: sampled edges whose deletion alone stays under the cap
        self.cheap: list = []

    def _grow(self) -> None:
        """Price the next ``LOW_POOL`` sampled edges."""
        pool = self._unpriced[:LOW_POOL]
        if not pool:
            raise RuntimeError("no low-impact churn batch in the fraction "
                               "window")
        del self._unpriced[:LOW_POOL]
        self.cheap += [e for e in pool if self.fraction([e]) <= 0.25]

    def sides(self, edge, graph=None, memo=None):
        """``(in_sides, out_sides)`` of deleting ``edge``."""
        from repro.core.maintenance import deletion_affected_hubs

        if graph is None:
            if edge not in self._sides:
                self._sides[edge] = deletion_affected_hubs(
                    self.index, *edge, *self._memo)
            return self._sides[edge]
        index = copy.copy(self.index)
        index.graph = graph
        return deletion_affected_hubs(index, *edge, *memo)

    def fraction(self, edges, graph=None) -> float:
        """Affected-side fraction of deleting ``edges`` together, on the
        initial graph or on ``graph``.  On a later graph the index's
        labels are stale, which can shift only the cycle-pair side of
        each edge's tail (one side per edge)."""
        memo = ({}, {})
        side_in, side_out = set(), set()
        for edge in edges:
            aff_in, aff_out = self.sides(edge, graph, memo)
            side_in |= aff_in
            side_out |= aff_out
        return (len(side_in) + len(side_out)) / self.n

    def low_impact(self, rng, ops: int, floor: float, cap: float):
        """``ops`` cheap edges whose union fraction lies in
        [``floor``, ``cap``]: greedy over a random order of the cheap
        edges, adding each edge that keeps the union under the cap (the
        rule of ``low_impact_delete_batch``), retried until it lands;
        more edges are priced when the ones so far never do."""
        if not self.cheap:
            self._grow()
        for attempt in range(1, 10**6):
            if attempt % 500 == 0:
                self._grow()
            chosen: list = []
            side_in: set = set()
            side_out: set = set()
            for edge in rng.sample(self.cheap, len(self.cheap)):
                aff_in, aff_out = self.sides(edge)
                new_in, new_out = side_in | aff_in, side_out | aff_out
                if (len(new_in) + len(new_out)) / self.n <= cap:
                    chosen.append(edge)
                    side_in, side_out = new_in, new_out
                    if len(chosen) == ops:
                        break
            fraction = (len(side_in) + len(side_out)) / self.n
            if len(chosen) == ops and fraction >= floor:
                return chosen


def _churn_steps(rng, ops_rng, pricer, graph, cycles):
    """The fixed churn cycle: (1) a low-impact deletion batch
    (incremental repair), (2) re-insertion of the same edges, (3) a
    random mixed batch outside that set that takes the rebuild fallback.

    Each cycle draws its own low-impact batch: ``CHURN_LOW_OPS`` present
    edges that each price under the 0.25 cap on the initial index, with
    a union fraction in [``CHURN_LOW_FRACTION``, 0.25] there (under the
    cap, so it stays incremental; above the floor, so every batch
    repairs a similar number of hubs), redrawn until it also prices
    under the cap on the current graph with a margin of one side per
    edge.  Fresh batches per cycle make ``visible_p50_ms`` a median over
    many repair batches rather than over one per process.  The mixed
    batch is redrawn until it prices at least ``CHURN_REBUILD_FRACTION``
    on the current graph, so every batch takes its planned path."""
    n = pricer.n
    low_cap = 0.25 - CHURN_LOW_OPS / n
    present = set(graph.edges())
    steps = []
    for _ in range(cycles):
        for _attempt in range(200):
            low_edges = pricer.low_impact(ops_rng, CHURN_LOW_OPS,
                                          CHURN_LOW_FRACTION, 0.25)
            if (present.issuperset(low_edges)
                    and pricer.fraction(low_edges, graph) <= low_cap):
                break
        else:
            raise RuntimeError("no low-impact churn batch stays "
                               "incremental")
        candidates = sorted(present - set(low_edges))
        for _attempt in range(200):
            dels = ops_rng.sample(candidates, CHURN_DELETES)
            if pricer.fraction(dels, graph) >= CHURN_REBUILD_FRACTION:
                break
        else:
            raise RuntimeError("no mixed churn batch takes the rebuild "
                               "fallback")
        adds = _new_edges(ops_rng, n, set(present), CHURN_INSERTS)
        graph = graph.copy()
        for a, b in dels:
            graph.remove_edge(a, b)
        for _, a, b in adds:
            graph.add_edge(a, b)
        present = set(graph.edges())
        low = [("delete", a, b) for a, b in low_edges]
        reinsert = [("insert", a, b) for a, b in low_edges]
        mixed = [("delete", a, b) for a, b in dels] + adds
        for ops, path in ((low, "repair"), (reinsert, "insert"),
                          (mixed, "rebuild")):
            # Enough sccnt calls that each vertex is drawn a dozen times
            # a process, for the per-vertex medians of sccnt_p99_us.
            verts, pairs = _reads(rng, n, 2000, 150)
            steps.append({"ops": [list(op) for op in ops], "path": path,
                          "sccnt": verts, "spcnt": pairs,
                          "check": rng.sample(range(n), CHECKS_PER_STEP)})
    return steps


def plan_ops(steps: list[dict]) -> list[tuple[str, int, int]]:
    """Every op of a sub-plan, in submission order."""
    return [tuple(op) for step in steps for op in step["ops"]]
