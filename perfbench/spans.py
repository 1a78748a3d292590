"""Span tracing from outside the program, for the ``--trace 1`` runs.

:class:`Tracer` wraps public entry points of the ``repro`` layers
(class attributes, so calls the engine's writer thread makes are seen
too) and records one span per call: id, name, start, end, parent and an
optional result summary.  A span's parent is the innermost open span on
the same thread; a span opened on another thread with nothing open there
(the engine's writer) hangs off the client's open root span, so every
span of one batch or query shares that root's id.  Spans stay in memory
and are written out when the run ends.  Untraced runs never construct a
tracer, so they install nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

_now = time.perf_counter

# Record layout: [id, name, start, end, parent, meta]
ID, NAME, START, END, PARENT, META = range(6)


def wchar() -> int:
    """Bytes this process has passed to write(2) so far."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _batch_meta(stats) -> dict:
    details = stats.details
    return {
        "rebuilt": stats.rebuilt,
        "inserted": stats.inserted,
        "deleted": stats.deleted,
        "repair_bfs": stats.repair_bfs_count,
        "affected": stats.affected_hub_fraction,
        "discovery_s": details.get("discovery_wall_s", 0.0),
        "repair_s": details.get("repair_wall_s", 0.0),
        "rebuild_s": details.get("rebuild_wall_s", 0.0),
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._root: int | None = None
        self._originals: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        rec = [next(self._ids), name, _now(), None,
               stack[-1] if stack else self._root, None]
        stack.append(rec[ID])
        if root:
            self._root = rec[ID]
        try:
            yield rec
        finally:
            rec[END] = _now()
            stack.pop()
            if root:
                self._root = None
            self.spans.append(rec)

    # ------------------------------------------------------------------
    def _wrap(self, owner: type, attr: str, name: str, meta=None,
              count_bytes: bool = False) -> None:
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        span = self.span

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with span(name) as rec:
                before = wchar() if count_bytes else 0
                out = func(*args, **kwargs)
                if count_bytes:
                    rec[META] = {"bytes": wchar() - before}
                elif meta is not None:
                    rec[META] = meta(out)
                return out

        setattr(owner, attr,
                classmethod(traced) if isinstance(raw, classmethod)
                else traced)
        self._originals.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap the layers' public entry points (idempotent)."""
        if self._originals:
            return
        from repro.cluster.router import ClusterRouter
        from repro.core.counter import ShortestCycleCounter
        from repro.core.csc import CSCIndex
        from repro.persist.checkpoint import CheckpointStore
        from repro.persist.manager import DurabilityManager
        from repro.service.snapshot import Snapshot

        w = self._wrap
        w(ShortestCycleCounter, "apply_batch", "batch.apply",
          meta=_batch_meta)
        w(DurabilityManager, "log_batch", "wal.log", count_bytes=True)
        w(DurabilityManager, "note_applied", "engine.note_applied")
        w(DurabilityManager, "checkpoint_now", "checkpoint.write")
        w(Snapshot, "capture", "snapshot.capture")
        w(CheckpointStore, "materialize", "recovery.materialize")
        w(CSCIndex, "build", "csc.build")
        w(CSCIndex, "sccnt", "csc.sccnt")
        w(CSCIndex, "sccnt_many", "bulk.sccnt_many")
        w(ClusterRouter, "sccnt", "router.sccnt")

    def uninstall(self) -> None:
        """Restore every wrapped attribute (the writer must be idle)."""
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # ------------------------------------------------------------------
    def children(self) -> dict[int, list[list]]:
        kids: dict[int, list[list]] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                kids.setdefault(s[PARENT], []).append(s)
        return kids

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_time(span: list, kids: list[list]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    start, end = span[START], span[END]
    covered = 0.0
    cursor = start
    for k in sorted(kids, key=lambda s: s[START]):
        lo, hi = max(k[START], cursor), min(k[END], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered
