"""Helpers shared by the benchmark's runner, worker and tests.

Importing this module puts the checkout's ``src/`` on ``sys.path`` so
the benchmark always measures the ``repro`` package of the checkout it
sits in.  It starts nothing and writes no file.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Where runs keep plans, data dirs, crash images and traces (ignored by
#: git; wiped at the start of every run).
WORK_DIR = ROOT / ".perfbench-work"

#: One maintenance batch never holds more ops than this; each step's ops
#: are submitted as one batch (see ``worker.submit_batch``).
BATCH_SIZE = 64


def metric_units(kind: str) -> dict[str, str]:
    """``name -> unit`` of ``BENCHMARK.json``'s ``end_to_end`` or
    ``per_layer`` list, in its order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class GateError(AssertionError):
    """A correctness gate failed: the run must not report numbers."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def vertex_percentile(latencies, vertices, q: float) -> float:
    """Percentile ``q`` of per-call latencies after each call's time is
    replaced by the median over every call on the same vertex.

    The tail of ``sccnt`` over uniformly drawn vertices comes from the
    vertices with the most label entries.  Raw calls also carry host
    noise (interrupts, cache misses after a screen) in about 1% of them
    on a shared host, and that share moved a raw p99 by up to 30% from
    one run to the next.  Each vertex is drawn a dozen times or more in
    a process, so its median call is its cost, and the tail is that of
    the index.
    """
    calls: dict = {}
    for v, t in zip(vertices, latencies, strict=True):
        calls.setdefault(v, []).append(t)
    cost = {v: median(ts) for v, ts in calls.items()}
    return percentile([cost[v] for v in vertices], q)


def make_graph(spec: dict):
    """The workload's input graph: the WKT stand-in at the dataset's
    canonical seed, so set-up cost and index size do not swing with
    ``--seed``; the seed draws the queries (``plan.py``)."""
    from repro.graph.datasets import DATASETS

    return DATASETS[spec["kind"].upper()].build(spec["profile"], 7)


def answers_digest(answers) -> str:
    """sha256 over ``(count, length)`` of every vertex's ``SCCnt``."""
    import hashlib

    flat = [(int(c), float(length)) for c, length in answers]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def check_sccnt(backend, graph, vertices) -> int:
    """Oracle gate: ``backend.sccnt(v)`` must equal the BFS baseline
    ``bfs_cycle_count(graph, v)`` for every sampled vertex.  ``backend``
    is any :class:`repro.service.QueryAPI`.  Returns the number of
    vertices checked; raises :class:`GateError` on the first mismatch.
    """
    from repro.baselines.bfs_cycle import bfs_cycle_count

    for v in vertices:
        got = tuple(backend.sccnt(v))
        want = tuple(bfs_cycle_count(graph, v))
        if got != want:
            raise GateError(
                f"sccnt({v}) answered {got}, BFS oracle says {want}"
            )
    return len(vertices)
