"""The build worker process and its label hand-off helpers.

Workers run the one construction kernel,
:func:`repro.labeling.pruned_bfs.construct_side` (through
:func:`~repro.labeling.pruned_bfs.side_delta`), against their
broadcast copy of the frozen label prefix.  The master's serial prefix
and its conflict redo run the same kernel against the authoritative
tables (:mod:`repro.build.parallel`), so a speculative result and its
redo come from one code path.  The kernel returns the entries the hub
would append and their owning vertices, in append (BFS-dequeue) order,
together with the vertices the BFS visited.  That visited list *is*
the side's label read set — every pruning query probes exactly the
dequeued vertex's labels — which is what the repair committer
(:mod:`repro.core.parallel_repair`) intersects against committed
changes to decide whether a speculative repair is still valid.

Every pruning decision the BFS takes joins ``hub_dist`` — the
*canonical* hub-side entries of the hub vertex, whose ranks all lie
strictly above the wave — against the labels of the dequeued vertex.
In-wave label writes carry in-wave hub ranks, so they can never match a
``hub_dist`` key; the one way an in-wave write can change the BFS is by
landing a canonical entry on the hub vertex's *hub side* and thereby
extending ``hub_dist`` itself.  That is the committer's entire conflict
condition (see :mod:`repro.build.parallel` for the full argument).

The kernel's output is pinned independently of the kernel: by the BFS
oracle (``bfs_cycle_count``), the true-distance checks of
``tests/properties/invariants.py``, the golden Table II/III tests and
the seeded byte pins of ``tests/golden``.

A worker process (:func:`worker_main`) speaks a tiny pickled-tuple
protocol over its pipe:

==========  ============================================  =============
message     payload                                       reply
==========  ============================================  =============
``init``    ``(graph, pos, kind)``                        —
``extend``  ``(rpls_in, rpls_out)`` packed label bytes    —
``run``     ``[(rank, hub_vertex), ...]``                 ``result``
``repair``  ``[(forward, rank, hub_vertex), ...]``        ``result``
``qinit``   ``(order, rpls_in, rpls_out)`` frozen labels  ``ready``
``query``   ``(kind, items)`` bulk-query chunk            ``result``
``quit``    —                                             —
``_test``   ``"exit"`` / ``"raise"`` (crash injection)    —
==========  ============================================  =============

``run`` serves the builder (both sides per hub, visited lists
dropped); ``repair`` serves BATCH-DECCNT (one side per task, visited
lists shipped back for the committer's conflict check).  ``qinit`` /
``query`` serve bulk-query fan-out (:mod:`repro.core.bulk`): the
frozen stores arrive in the RPLS per-vertex memcpy format, the worker
rebuilds a query-only index replica and answers each ``query`` chunk
with the same bulk kernels the master uses in-process (``kind`` is
``"sccnt"`` or ``"spcnt"``).

Any exception is shipped back as ``("error", traceback)`` before the
worker exits; a vanished worker is detected by the master as an
``EOFError`` on the pipe and surfaced as
:class:`~repro.errors.WorkerCrashError`.
"""

from __future__ import annotations

import os
import traceback

from repro.errors import ConfigurationError
from repro.labeling.labelstore import UNREACHED, LabelStore
from repro.labeling.pruned_bfs import check_kind, side_delta

__all__ = [
    "HubDelta",
    "SideDelta",
    "tables_to_rpls",
    "extend_tables_from_rpls",
    "worker_main",
]

Entry = tuple[int, int, int, bool]
#: (owners, entries) — one BFS side's appends, entries[i] to owners[i]
SideDelta = tuple[list[int], list[Entry]]
#: (forward side, backward side) of one hub
HubDelta = tuple[SideDelta, SideDelta]


# ---------------------------------------------------------------------------
# RPLS hand-off helpers
# ---------------------------------------------------------------------------


def tables_to_rpls(tables: list[list[Entry]]) -> bytes:
    """Pack a (possibly sparse) list-of-tuple-lists table into ``RPLS``
    bytes — the same container :meth:`LabelStore.to_bytes` writes, so
    the hand-off rides PR 2's one-memcpy-per-vertex serialization."""
    store = LabelStore(len(tables))
    for v, entries in enumerate(tables):
        if entries:
            store.replace_vertex(v, entries)
    return store.to_bytes()


def extend_tables_from_rpls(blob: bytes, tables: list[list[Entry]]) -> int:
    """Append a broadcast ``RPLS`` delta onto local tuple-list tables;
    returns the number of entries appended.  Waves are committed in
    rank order, so appending keeps every per-vertex list sorted by hub
    rank."""
    store = LabelStore.from_bytes(blob)
    if len(store) != len(tables):
        raise ConfigurationError(
            f"prefix delta has {len(store)} vertices, tables have "
            f"{len(tables)}"
        )
    added = 0
    packed = store.packed
    for v in range(len(tables)):
        if packed[v]:
            entries = store.entries(v)
            tables[v].extend(entries)
            added += len(entries)
    return added


# ---------------------------------------------------------------------------
# Worker process entry point
# ---------------------------------------------------------------------------


def worker_main(conn) -> None:
    """Run one build worker until ``quit`` or pipe closure.

    Spawn-safe: everything the worker needs arrives through ``conn``.
    """
    graph = None
    pos: list[int] = []
    kind = ""
    label_in: list[list[Entry]] = []
    label_out: list[list[Entry]] = []
    scratch: list[list[Entry]] = []
    dist: list[int] = []
    cnt: list[int] = []
    qindex = None  # bulk-query replica, built by "qinit"
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return  # master went away; nothing left to report to
            tag = msg[0]
            if tag == "init":
                graph, pos, kind = msg[1], msg[2], msg[3]
                check_kind(kind)
                n = graph.n
                label_in = [[] for _ in range(n)]
                label_out = [[] for _ in range(n)]
                scratch = [[] for _ in range(n)]
                dist = [UNREACHED] * n
                cnt = [0] * n
                # The ack doubles as a pipe resync point: the master
                # drains everything up to it, so a reply stranded by an
                # interrupted earlier build cannot desync this one.
                conn.send(("ready",))
            elif tag == "extend":
                extend_tables_from_rpls(msg[1], label_in)
                extend_tables_from_rpls(msg[2], label_out)
            elif tag == "run":
                results: list[tuple[int, HubDelta]] = []
                for ph, h in msg[1]:
                    fwd = side_delta(graph, pos, kind, True, h, ph, label_in,
                                     label_out, scratch, dist, cnt)
                    bwd = side_delta(graph, pos, kind, False, h, ph, label_in,
                                     label_out, scratch, dist, cnt)
                    results.append((ph, (fwd[:2], bwd[:2])))
                conn.send(("result", results))
            elif tag == "repair":
                repairs = [
                    (ph, forward, side_delta(
                        graph, pos, kind, forward, h, ph,
                        label_in, label_out, scratch, dist, cnt,
                    ))
                    for forward, ph, h in msg[1]
                ]
                conn.send(("result", repairs))
            elif tag == "qinit":
                # Bulk-query replica: rebuild the frozen stores from
                # their RPLS blobs (one memcpy per vertex) around a
                # topology-free graph shell — the query kernels only
                # touch labels, never adjacency.
                from repro.core.csc import CSCIndex
                from repro.graph.digraph import DiGraph
                from repro.labeling.ordering import positions

                order = msg[1]
                qindex = CSCIndex(
                    DiGraph(len(order)),
                    order,
                    positions(order),
                    LabelStore.from_bytes(msg[2]),
                    LabelStore.from_bytes(msg[3]),
                )
                conn.send(("ready",))
            elif tag == "query":
                from repro.core.bulk import sccnt_many, spcnt_many

                kind, items = msg[1], msg[2]
                if kind == "sccnt":
                    answers = sccnt_many(qindex, items)
                else:
                    answers = spcnt_many(qindex, items)
                conn.send(("result", answers))
            elif tag == "quit":
                return
            elif tag == "_test":
                # Crash injection for the worker-failure tests: "exit"
                # simulates a hard death (no goodbye on the pipe),
                # "raise" an internal worker bug.
                if msg[1] == "exit":
                    os._exit(3)
                raise RuntimeError("injected worker failure")
            else:
                raise ConfigurationError(f"unknown build-worker message {tag!r}")
    except BaseException:  # noqa: BLE001 - shipped to the master
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
