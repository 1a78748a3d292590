"""The pruned counting BFS of Algorithm 3, shared by CSC and HP-SPC.

HP-SPC runs one forward and one backward pruned counting BFS per hub
``h`` (rank ``ph``) on the input graph.  CSC runs the same BFS on the
bipartite conversion ``Gb`` with couple vertices skipped (Section IV),
which changes only data, never control flow:

* levels step by 2 in ``Gb`` units (each hop crosses a couple edge);
* the forward side reads ``Lout(h_in)`` as the stored ``Lout(h_out)``
  shifted by the couple edge (+1);
* the backward side starts one hop out (``h_in``'s in-neighbours are
  the ``u_out`` of ``h``'s in-neighbours, at distance 1), admits ranks
  ``>= ph`` (``h_in ≺ u_out ⇔ pos(h) <= pos(u)``), and dequeuing the
  hub's own couple ``h_out`` records the cycle entry and prunes
  (rule (4) of Section IV-C).

:func:`side_plan` turns (index kind, direction, hub) into that data as a
:class:`Side`; :func:`construct_side` is the one construction loop.  The
serial build runs it with in-place appends; :func:`side_delta` runs it
against a frozen table state and returns the entries the hub would
append and their owning vertices, in append (BFS-dequeue) order, plus
the vertices it visited — the side's label read set — for the pool
workers, the master's conflict redo and the workers' DECCNT repairs
(:mod:`repro.build.parallel`).  The DECCNT repair BFS and the INCCNT
resumed pass (:mod:`repro.core.maintenance`) take the same
:class:`Side`.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.labeling.labelstore import UNREACHED

__all__ = [
    "KINDS",
    "Side",
    "check_kind",
    "construct_side",
    "construction_seeds",
    "side_delta",
    "side_plan",
]

Entry = tuple[int, int, int, bool]

#: Index kinds: ``csc`` labels ``Gb`` with couples skipped, ``hpspc``
#: labels the input graph.
KINDS = ("csc", "hpspc")


class Side(NamedTuple):
    """What one BFS side of one hub changes between index kinds."""

    #: a neighbour ``u`` joins the BFS only if ``pos[u] > bound``
    bound: int
    #: vertex whose entry is recorded but not expanded (-1: none)
    prune_at: int
    #: added to the hub-side label distances of the pruning query
    shift: int
    #: distance added per hop
    step: int


def check_kind(kind: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` for an unknown
    index kind."""
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown index kind {kind!r}; expected one of {sorted(KINDS)}"
        )


def side_plan(kind: str, forward: bool, h: int, ph: int) -> Side:
    """The :class:`Side` of hub ``h`` (rank ``ph``) for an index kind."""
    check_kind(kind)
    if kind == "hpspc":
        return Side(ph, -1, 0, 1)
    if forward:
        return Side(ph, -1, 1, 2)
    return Side(ph - 1, h, 0, 2)


def construction_seeds(
    side: Side, graph, h: int, pos: list[int]
) -> list[tuple[int, int, int]]:
    """``(vertex, dist, count)`` seeds of a from-scratch BFS: the hub
    itself, or — for a couple-pruned side — the hub's in-neighbours one
    hop out."""
    if side.prune_at < 0:
        return [(h, 0, 1)]
    return [(u, 1, 1) for u in graph.in_neighbors(h) if pos[u] > side.bound]


def construct_side(
    graph,
    pos: list[int],
    kind: str,
    forward: bool,
    h: int,
    ph: int,
    label_in: list[list[Entry]],
    label_out: list[list[Entry]],
    out: list[list[Entry]],
    dist: list[int],
    cnt: list[int],
) -> list[int]:
    """One side of hub ``h``'s pruned counting BFS (Algorithm 3 lines
    9–26): appends each new ``(ph, dist, count, canonical)`` entry to
    ``out[w]`` and returns every vertex the BFS queued.

    The pruning queries read ``label_in``/``label_out`` at ranks below
    ``ph`` only, so ``out`` may be the side's own target table (the
    serial build appends in place).  ``dist``/``cnt`` are per-vertex
    scratch arrays, all ``UNREACHED``/0 on entry and restored on
    return.
    """
    side = side_plan(kind, forward, h, ph)
    if forward:
        hub_labels, target = label_out[h], label_in
        neighbors = graph.out_neighbors
    else:
        hub_labels, target = label_in[h], label_out
        neighbors = graph.in_neighbors
    # Canonical distances from/to the hub via strictly higher hubs.
    shift = side.shift
    hub_dist: dict[int, int] = {}
    for q, d, _c, canonical in hub_labels:
        if q >= ph:
            break
        if canonical:
            hub_dist[q] = d + shift
    bound, prune_at, step = side.bound, side.prune_at, side.step

    queue: deque[int] = deque()
    visited: list[int] = []
    for u, d0, c0 in construction_seeds(side, graph, h, pos):
        dist[u] = d0
        cnt[u] = c0
        queue.append(u)
        visited.append(u)
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        # Pruning query (Algorithm 3 line 13): canonical entries of
        # strictly higher-ranked hubs only.
        d_via = UNREACHED
        for q, dq, _cq, canonical in target[w]:
            if q >= ph:
                break
            if canonical:
                hd = hub_dist.get(q)
                if hd is not None and hd + dq < d_via:
                    d_via = hd + dq
        if d_via < d_w:
            continue  # h is not highest-ranked on any shortest h..w path
        out[w].append((ph, d_w, cnt[w], d_via > d_w))
        if w == prune_at:
            continue  # couple-cycle: cycle entry recorded, prune
        d_next = d_w + step
        c_w = cnt[w]
        for u in neighbors(w):
            if dist[u] == UNREACHED:
                if pos[u] > bound:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                    visited.append(u)
            elif dist[u] == d_next:
                cnt[u] += c_w
    for w in visited:
        dist[w] = UNREACHED
        cnt[w] = 0
    return visited


def side_delta(
    graph,
    pos: list[int],
    kind: str,
    forward: bool,
    h: int,
    ph: int,
    label_in: list[list[Entry]],
    label_out: list[list[Entry]],
    scratch: list[list[Entry]],
    dist: list[int],
    cnt: list[int],
) -> tuple[list[int], list[Entry], list[int]]:
    """:func:`construct_side` against frozen tables: ``(owners, entries,
    visited)``, where ``entries[i]`` is the entry the hub would append
    to ``owners[i]``'s labels, in append order.  ``scratch`` is a table
    of empty lists, left empty on return."""
    visited = construct_side(graph, pos, kind, forward, h, ph, label_in,
                             label_out, scratch, dist, cnt)
    # A vertex gets at most one entry per side, and BFS dequeue order
    # is its queueing order.
    owners = [w for w in visited if scratch[w]]
    return owners, [scratch[w].pop() for w in owners], visited
