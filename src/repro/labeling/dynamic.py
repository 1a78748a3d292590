"""Dynamic maintenance for the generic HP-SPC index.

The paper's INCCNT/DECCNT (Section V) specialize dynamic 2-hop-cover
maintenance (Akiba et al. [30], D'angelo et al. [37], Qin et al. [38] in
the paper's related work) to the bipartite cycle-counting index.  This
module provides the *generic* digraph version for :class:`HPSPCIndex`, so
the HP-SPC baseline enjoys the same update model as CSC:

* :func:`insert_edge` — resumed counting BFS from each affected hub
  (hubs of ``Lin(a)`` forward from ``b``, hubs of ``Lout(b)`` backward
  from ``a``), seeded with the *label's* count (Theorem V.1), pruned by
  full-index distance queries, applying Algorithm 7's replace /
  accumulate / insert cases.
* :func:`delete_edge` — affected hubs are all vertices satisfying the
  distance conditions ``sd(v,a)+1 = sd(v,b)`` (in-side) and
  ``sd(b,u)+1 = sd(a,u)`` (out-side), computed exactly with four plain
  BFSes; each affected hub's label fingerprint is replaced by re-running
  the construction BFS (stale entries located through an inverted index).

Only the seeds and CLEAN-LABEL are HP-SPC's own.  The resumed pass, the
repair BFS and the affected-hub hop conditions are the ones
:mod:`repro.core.maintenance` runs for CSC: labels live on the original
digraph with hop distances, so the index kind's
:class:`~repro.labeling.pruned_bfs.Side` carries no couple shift, no
couple prune and a level step of 1, and there is no cycle-pair case.
"""

from __future__ import annotations

from repro.core.maintenance import (
    UpdateStats,
    _check_strategy,
    hop_affected_hubs,
    repair_deletion,
    resume_passes,
)
from repro.errors import EdgeNotFoundError
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.labelstore import join_min_dist

__all__ = ["insert_edge", "delete_edge"]


def insert_edge(
    index: HPSPCIndex, a: int, b: int, strategy: str = "redundancy"
) -> UpdateStats:
    """Insert edge ``(a, b)`` and incrementally maintain the HP-SPC index."""
    _check_strategy(strategy)
    index.graph.add_edge(a, b)
    pos = index.pos
    pa, pb = pos[a], pos[b]
    maps_in = index.store_in.ensure_maps()
    maps_out = index.store_out.ensure_maps()

    forward_seeds = {
        q: (dc[0] + 1, dc[1]) for q, dc in maps_in[a].items() if q < pb
    }
    backward_seeds = {
        q: (dc[0] + 1, dc[1]) for q, dc in maps_out[b].items() if q < pa
    }
    return resume_passes(
        index, a, b, forward_seeds, backward_seeds, strategy, _clean_vertex
    )


def _query_pair(index: HPSPCIndex, s: int, t: int) -> int:
    """Full-label distance query (internal; avoids float inf)."""
    maps_o = index.store_out.ensure_maps()
    maps_i = index.store_in.ensure_maps()
    return join_min_dist(maps_o[s], maps_i[t])


def _clean_vertex(
    index: HPSPCIndex, w: int, forward: bool, stats: UpdateStats
) -> None:
    """Algorithm 8 on the generic index."""
    inv_in, inv_out = index.ensure_inverted()
    order = index.order
    if forward:
        store = index.store_in
        entries = store.entries(w)
        keep = []
        for entry in entries:
            q2, d2, _c2, _f2 = entry
            if d2 > _query_pair(index, order[q2], w):
                inv_in[q2].discard(w)
                stats.entries_removed += 1
            else:
                keep.append(entry)
        if len(keep) != len(entries):
            store.replace_vertex(w, keep)
        hub_w = index.pos[w]
        other = index.store_out
        for v in list(inv_out[hub_w]):
            i = other.hub_index(v, hub_w)
            if i < 0:
                inv_out[hub_w].discard(v)
                continue
            if other.decode(v, i)[1] > _query_pair(index, v, w):
                other.delete_at(v, i)
                inv_out[hub_w].discard(v)
                stats.entries_removed += 1
    else:
        store = index.store_out
        entries = store.entries(w)
        keep = []
        for entry in entries:
            q2, d2, _c2, _f2 = entry
            if d2 > _query_pair(index, w, order[q2]):
                inv_out[q2].discard(w)
                stats.entries_removed += 1
            else:
                keep.append(entry)
        if len(keep) != len(entries):
            store.replace_vertex(w, keep)
        hub_w = index.pos[w]
        other = index.store_in
        for v in list(inv_in[hub_w]):
            i = other.hub_index(v, hub_w)
            if i < 0:
                inv_in[hub_w].discard(v)
                continue
            if other.decode(v, i)[1] > _query_pair(index, w, v):
                other.delete_at(v, i)
                inv_in[hub_w].discard(v)
                stats.entries_removed += 1


def delete_edge(index: HPSPCIndex, a: int, b: int) -> UpdateStats:
    """Delete edge ``(a, b)`` and repair the HP-SPC index."""
    if not index.graph.has_edge(a, b):
        raise EdgeNotFoundError(a, b)
    return repair_deletion(index, a, b, *hop_affected_hubs(index.graph, a, b))
