"""Golden pins for construction and maintenance of both index kinds.

``label_pins.json`` records, for seeded runs on small graphs, the
sha256 of ``to_bytes()`` after every step and the counters of every
``UpdateStats`` / ``BatchStats``:

* builds of CSC and HP-SPC;
* per-edge INCCNT under both strategies, for both kinds;
* per-edge DECCNT, for both kinds;
* one CSC ``apply_batch`` that repairs and one that rebuilds.

Labels are a function of (graph, hub order), so any refactor of the
BFS kernels must leave these bytes and counters unchanged.  Regenerate
only for a deliberate behaviour change, and say which in CHANGES.md::

    PYTHONPATH=src python tests/golden/test_label_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core import maintenance
from repro.core.batch import apply_batch
from repro.core.csc import CSCIndex
from repro.graph.generators import gnm_random
from repro.labeling import dynamic
from repro.labeling.hpspc import HPSPCIndex
from repro.paperdata import figure2_graph

PIN_FILE = Path(__file__).with_name("label_pins.json")

UPDATE_FIELDS = (
    "hubs_processed",
    "repair_bfs_count",
    "vertices_visited",
    "entries_added",
    "entries_updated",
    "entries_removed",
)
BATCH_FIELDS = UPDATE_FIELDS + (
    "submitted",
    "inserted",
    "deleted",
    "cancelled",
    "affected_hub_fraction",
    "rebuilt",
)

GRAPHS = {
    "fig2": figure2_graph,
    "gnm30": lambda: gnm_random(30, 90, seed=5),
    "gnm60": lambda: gnm_random(60, 240, seed=11),
}
KINDS = {
    "csc": (CSCIndex, maintenance),
    "hpspc": (HPSPCIndex, dynamic),
}
OPS_PER_RUN = 6


def _sha(index) -> str:
    return hashlib.sha256(index.to_bytes()).hexdigest()


def _counters(stats, fields) -> dict:
    return {f: getattr(stats, f) for f in fields}


def _non_edges(graph, k: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    picked: list[tuple[int, int]] = []
    while len(picked) < k:
        a, b = rng.randrange(graph.n), rng.randrange(graph.n)
        if a != b and not graph.has_edge(a, b) and (a, b) not in picked:
            picked.append((a, b))
    return picked


def _edges(graph, k: int, seed: int) -> list[tuple[int, int]]:
    edges = sorted(graph.edges())
    return random.Random(seed).sample(edges, k)


def _run_ops(index, module, edges, op, **kw) -> list[dict]:
    steps = []
    for a, b in edges:
        stats = getattr(module, op)(index, a, b, **kw)
        steps.append(
            {"edge": [a, b], **_counters(stats, UPDATE_FIELDS),
             "sha256": _sha(index)}
        )
    return steps


def compute_pins() -> dict:
    """Every pinned value, recomputed from the current code."""
    pins: dict = {}
    for gname, make in GRAPHS.items():
        for kname, (cls, module) in KINDS.items():
            key = f"{gname}/{kname}"
            graph = make()
            pins[f"{key}/build"] = _sha(cls.build(graph))
            inserts = _non_edges(graph, OPS_PER_RUN, seed=1)
            for strategy in ("redundancy", "minimality"):
                index = cls.build(graph.copy())
                pins[f"{key}/insert/{strategy}"] = _run_ops(
                    index, module, inserts, "insert_edge", strategy=strategy
                )
            index = cls.build(graph.copy())
            pins[f"{key}/delete"] = _run_ops(
                index, module, _edges(graph, OPS_PER_RUN, seed=2),
                "delete_edge",
            )
        graph = make()
        ops = [("delete", a, b) for a, b in _edges(graph, 3, seed=3)]
        ops += [("insert", a, b) for a, b in _non_edges(graph, 2, seed=4)]
        for mode, threshold in (("repair", 10.0), ("rebuild", 0.0)):
            index = CSCIndex.build(graph.copy())
            stats = apply_batch(index, ops, rebuild_threshold=threshold)
            pins[f"{gname}/csc/batch/{mode}"] = {
                **_counters(stats, BATCH_FIELDS), "sha256": _sha(index),
            }
    return pins


@pytest.fixture(scope="module")
def current():
    return compute_pins()


_EXPECTED = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}


@pytest.mark.parametrize("key", sorted(_EXPECTED))
def test_pin(key, current):
    assert current[key] == _EXPECTED[key]


def test_pin_set_complete(current):
    assert sorted(current) == sorted(_EXPECTED)


def test_batch_pins_take_both_paths():
    for gname in GRAPHS:
        repair = _EXPECTED[f"{gname}/csc/batch/repair"]
        rebuild = _EXPECTED[f"{gname}/csc/batch/rebuild"]
        assert not repair["rebuilt"] and repair["repair_bfs_count"] > 0
        assert rebuild["rebuilt"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_label_pins.py --write")
    PIN_FILE.write_text(json.dumps(compute_pins(), indent=1) + "\n")
    print(f"wrote {PIN_FILE}")
