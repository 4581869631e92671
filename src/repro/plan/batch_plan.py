"""The per-round :class:`RoundPlan` and its builder.

Everything in a plan is a *function of the round's batches and the cluster
topology* — nothing depends on parameter values or cache state — so the
whole plan can be computed in the read stage, before any tier is touched:

* per node: the sorted unique working keys, their node-owner partition
  (who serves each key in the MEM tier), their per-GPU partition (where
  each key is staged in the HBM tier), and the sharded mini-batches;
* per (node, shard): the mini-batch's sorted unique keys, their gather
  positions inside the node's working set, and per-GPU key counts (what
  the HBM pull/push cost model charges);
* per sync round ``m``: the union of keys every node's workers touched —
  which is exactly the key set of the merged all-reduce update — with each
  node's resident/missing split against its staged working set.

A few plan fields are *not* known at build time and are filled in as
stages run (see :meth:`NodePlan.record_prepare`): the MEM cache hit/miss
split of the local partition, the resolved LRU slot rows of the pinned
working keys, and the cache's :class:`AdmissionRecord` (how the prepare
batch split into collision-free bulk runs under memory pressure).  The
write-back stage consumes the slots instead of re-probing the SlotIndex
for keys the prepare stage just located.  Conversely the plan *pre-splits*
the cache's admission work: plan key sets are sorted-unique by
construction, so every planned cache call runs with ``assume_unique=True``
and the admission planner skips its duplicate-boundary pass.

Plans are computed with exactly one ``np.unique`` per key set and one
stable argsort per partition level; every later consumer is a pure index
gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import Batch
from repro.hbm.partition import ModuloPartitioner, bucket_order
from repro.utils.keys import KEY_DTYPE, compact_unique

__all__ = [
    "AdmissionRecord",
    "MinibatchPlan",
    "NodePlan",
    "NodePrefetchPlan",
    "NodeSyncPlan",
    "SyncPlan",
    "RoundPlan",
    "build_round_plan",
    "group_indices",
]


@dataclass(frozen=True)
class AdmissionRecord:
    """How the MEM cache admitted one stage's key batch.

    Recorded by ``MemPS.prepare`` alongside the resolved slot rows: the
    number of collision-free bulk runs the admission plan applied and
    the single-key collision splits forced by the eviction frontier.
    The e2e ledger aggregates these per round.
    """

    n_runs: int
    n_collision_splits: int


def group_indices(part_of: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """Index arrays of each bucket, in ascending original position.

    Equivalent to ``[np.flatnonzero(part_of == b) for b in range(n_parts)]``
    (and to the order :meth:`ModuloPartitioner.split` produces) but with a
    single sort over the whole array, via the shared
    :func:`~repro.hbm.partition.bucket_order` primitive.
    """
    order, bounds = bucket_order(part_of, n_parts)
    return [order[bounds[b] : bounds[b + 1]] for b in range(n_parts)]


def _positions_in(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Positions of ``queries`` in ``sorted_keys`` (every query present)."""
    return sorted_keys.searchsorted(queries)


#: Largest key domain the plan builder direct-addresses (mirrors the
#: store index's :data:`~repro.store.slot_index.DENSE_DOMAIN_CAP`).
_DENSE_POS_CAP = 1 << 22


def _key_lookup(sorted_keys: np.ndarray):
    """``(positions_fn, membership_fn)`` over a sorted-unique key set.

    For a compact key domain (max key below :data:`_DENSE_POS_CAP`) one
    scatter of each key's rank into a dense array turns every lookup into
    a single gather; otherwise both functions fall back to the
    ``searchsorted`` forms.  ``positions_fn`` requires member queries
    (the :func:`_positions_in` contract); ``membership_fn`` returns
    ``(mask, positions)`` with positions meaningful under the mask.
    """
    n = sorted_keys.size
    if n and int(sorted_keys[-1]) < _DENSE_POS_CAP:
        hi = int(sorted_keys[-1]) + 1
        # Uninitialized rank + boolean membership: the bool memset is 8x
        # cheaper than sentinel-filling the int64 rank array, and rank is
        # only ever read where the membership mask is True.
        rank = np.empty(hi, dtype=np.int64)
        member = np.zeros(hi, dtype=bool)
        ki = sorted_keys.astype(np.int64)
        rank[ki] = np.arange(n, dtype=np.int64)
        member[ki] = True

        def pos_fn(q: np.ndarray) -> np.ndarray:
            return rank[q.astype(np.int64)]

        def mem_fn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            qi = q.astype(np.int64)
            ok = qi < hi
            qs = np.where(ok, qi, 0)
            mask = ok & member[qs]
            return mask, np.where(mask, rank[qs], 0)

        return pos_fn, mem_fn

    def pos_fn(q: np.ndarray) -> np.ndarray:
        return sorted_keys.searchsorted(q)

    def mem_fn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _membership(sorted_keys, q)

    return pos_fn, mem_fn


def _membership(
    sorted_keys: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(mask, positions) of sorted ``queries`` against sorted ``sorted_keys``.

    ``positions`` is only meaningful where ``mask`` is True.
    """
    pos = sorted_keys.searchsorted(queries)
    ok = pos < sorted_keys.size
    mask = np.zeros(queries.size, dtype=bool)
    if sorted_keys.size:
        mask[ok] = sorted_keys[pos[ok]] == queries[ok]
    return mask, pos


@dataclass
class MinibatchPlan:
    """Key plan of one worker mini-batch (one (node, shard) pair)."""

    #: sorted unique keys of the shard (``Batch.unique_keys()``, precomputed)
    keys: np.ndarray
    #: positions of :attr:`keys` inside the node's sorted working set
    work_idx: np.ndarray
    #: positions of :attr:`keys` inside the node's sync-round key union
    #: (the gradient-buffer row of each key)
    sync_idx: np.ndarray
    #: number of keys owned by each GPU (drives the HBM pull/push charges)
    gpu_counts: np.ndarray
    #: size of the node's sync-round key union (gradient-buffer height)
    sync_size: int
    #: positions of the shard's *flat* (per-example) keys inside
    #: :attr:`keys` — the embedding layer's gather index, precomputed so
    #: the worker skips a per-minibatch ``searchsorted`` (None when the
    #: plan builder did not materialize it)
    emb_idx: np.ndarray | None = None


@dataclass
class NodeSyncPlan:
    """One node's view of sync round ``m``'s merged all-reduce update."""

    #: the node's own drained key union for this sync round (sorted)
    keys: np.ndarray
    #: positions in the *global* update key set that are staged on this
    #: node's HBM (membership in the node's working set)
    resident_idx: np.ndarray
    #: their positions inside the node's working set
    resident_work_idx: np.ndarray
    #: per-GPU counts of the resident keys (apply-update cost charges)
    resident_gpu_counts: np.ndarray
    #: positions in the global update key set absent from this node's HBM
    missing_idx: np.ndarray
    #: subset of :attr:`missing_idx` whose keys this node *owns* in the
    #: MEM tier (the owner-queue application path)
    missing_own_idx: np.ndarray


@dataclass
class SyncPlan:
    """Cluster-wide plan of one sync round (one mini-batch index ``m``)."""

    #: union over nodes of the keys their workers touched this round —
    #: exactly the key set of the merged all-reduce update, sorted
    keys: np.ndarray
    nodes: list[NodeSyncPlan]


@dataclass
class NodePlan:
    """One node's key plan for a round."""

    node_id: int
    #: sorted unique working keys of the node's batch (Alg. 1 line 3)
    keys: np.ndarray
    #: per-node index arrays into :attr:`keys` (MEM-tier owner partition);
    #: ``node_parts[node_id]`` is the local shard
    node_parts: list[np.ndarray]
    #: GPU owner of every working key (HBM-tier partition)
    gpu_of: np.ndarray
    #: per-GPU index arrays into :attr:`keys`
    gpu_parts: list[np.ndarray]
    #: the sharded mini-batches (``Batch.shard``, precomputed)
    shards: list[Batch]
    #: per-shard plans, aligned with :attr:`shards`
    minibatches: list[MinibatchPlan]
    # -- filled in as stages run ---------------------------------------
    #: LRU slab rows of the pinned local working keys (resolved once by
    #: ``MemPS.prepare``; the write-back updates/unpins through these
    #: instead of re-probing the SlotIndex)
    local_slots: np.ndarray | None = None
    #: cache hit mask of the local partition (recorded by the prepare
    #: stage's cache probe)
    local_hits: np.ndarray | None = None
    #: of the local cache misses, which ones the SSD resolved (the rest
    #: were fresh-initialized)
    ssd_found: np.ndarray | None = None
    #: how the cache admitted the prepare stage's local batch — bulk runs
    #: vs. collision splits
    admission: AdmissionRecord | None = None

    @property
    def local_idx(self) -> np.ndarray:
        """Index array of the locally-owned working keys."""
        return self.node_parts[self.node_id]

    @property
    def local_keys(self) -> np.ndarray:
        """The locally-owned working keys themselves (sorted).

        The write-back (``MemPS.absorb_updates``) updates exactly this
        partition in the node's MEM tier, which makes it the per-round
        MEM dirty set a delta snapshot ships — reusing the plan's
        ``node_parts`` split instead of re-partitioning.
        """
        return self.keys[self.node_parts[self.node_id]]

    def record_prepare(
        self,
        *,
        local_slots: np.ndarray,
        local_hits: np.ndarray,
        ssd_found: np.ndarray,
        admission: AdmissionRecord | None = None,
    ) -> None:
        """Attach the prepare stage's resolved state (slots + splits)."""
        self.local_slots = local_slots
        self.local_hits = local_hits
        self.ssd_found = ssd_found
        self.admission = admission


@dataclass
class NodePrefetchPlan:
    """One node's MEM-tier prefetch set for a round.

    :attr:`keys` is the sorted union of every key the node's MEM-PS will
    touch this round: its local working partition, the partitions it
    serves to each peer, and the owner-queue keys of every sync round
    (the ``missing_own_idx`` application path).  The prefetch stage
    resolves this set against the cache exactly once — cache probe, SSD
    load, fresh-init, pin — and records the LRU rows; every later MEM
    access this round is a pure row gather through the ``*_pos``
    segments below (each a :func:`numpy.searchsorted` into :attr:`keys`,
    precomputed at plan-build time).
    """

    #: sorted unique union of every key the node's MEM tier touches
    keys: np.ndarray
    #: positions in :attr:`keys` of the node's local working partition
    local_pos: np.ndarray
    #: per peer node ``p``, positions in :attr:`keys` of the partition
    #: served to ``p`` (the node's own entry is empty)
    serve_pos: list[np.ndarray]
    #: per sync round ``m``, positions in :attr:`keys` of the owner-queue
    #: keys (``SyncPlan.keys[missing_own_idx]``)
    update_pos: list[np.ndarray]
    # -- filled in by the prefetch stage -------------------------------
    #: LRU slab rows of the pinned prefetched keys (stable until the
    #: round's ``end_batch`` unpins them)
    rows: np.ndarray | None = None
    #: cache hit mask over :attr:`keys`
    hit: np.ndarray | None = None
    #: which of the misses the SSD resolved (the rest fresh-initialized)
    ssd_found: np.ndarray | None = None
    #: how the cache admitted the prefetch batch (bulk runs vs. splits)
    admission: AdmissionRecord | None = None


@dataclass
class RoundPlan:
    """The complete per-round key plan, shared by every tier."""

    nodes: list[NodePlan]
    #: one :class:`SyncPlan` per mini-batch round
    sync: list[SyncPlan] = field(default_factory=list)
    #: one :class:`NodePrefetchPlan` per node when the cluster runs with
    #: the prefetch stage (None otherwise)
    prefetch: list[NodePrefetchPlan] | None = None

    @property
    def n_working_keys(self) -> int:
        return int(sum(n.keys.size for n in self.nodes))

    def dirty_keys_of(self, node_id: int) -> np.ndarray:
        """Keys node ``node_id``'s MEM tier wrote this round (sorted
        unique): its local working partition (the write-back) plus every
        sync round's owner-queue keys (the ``missing_own_idx``
        application path).  Snapshot deltas consume this instead of
        re-partitioning the round's key sets.
        """
        parts = [self.nodes[node_id].local_keys]
        for sp in self.sync:
            own = sp.nodes[node_id].missing_own_idx
            if own.size:
                parts.append(sp.keys[own])
        return np.unique(np.concatenate(parts))


def build_round_plan(
    batches: list[Batch],
    *,
    node_partitioner: ModuloPartitioner,
    gpu_partitioner: ModuloPartitioner,
    n_gpus: int,
    mb_rounds: int,
    prefetch: bool = False,
) -> RoundPlan:
    """Compute the round's full key plan from its batches.

    ``batches[i]`` is node ``i``'s global batch; partitioners are the
    cluster's shared MEM-tier (node) and HBM-tier (GPU) policies.  With
    ``prefetch=True`` the plan also carries one
    :class:`NodePrefetchPlan` per node — the union of every key that
    node's MEM tier will touch, with gather segments for each consumer.
    """
    n_nodes = len(batches)
    node_plans: list[NodePlan] = []
    # Per (node, m): positions of the sync-round key union inside the
    # node's working set — reused to build the cross-node sync plans.
    m_union_work_idx: list[list[np.ndarray]] = []
    # Per-node (positions, membership) lookups over the working sets —
    # built once and reused by the shard split and the sync-plan pass.
    work_lookups: list[tuple] = []
    for i, batch in enumerate(batches):
        working = batch.unique_keys()
        work_pos, work_mem = _key_lookup(working)
        work_lookups.append((work_pos, work_mem))
        node_parts = group_indices(node_partitioner.part_of(working), n_nodes)
        gpu_of = gpu_partitioner.part_of(working)
        gpu_parts = group_indices(gpu_of, n_gpus)
        shards = batch.shard(n_gpus * mb_rounds)
        # Shard uniques by membership against the already-sorted working
        # set (one searchsorted + mask per shard) instead of a fresh
        # O(n log n) ``np.unique`` per shard; the result is identical by
        # construction (every shard key is a working key).
        shard_keys: list[np.ndarray] = []
        shard_work_idx: list[np.ndarray] = []
        shard_emb_idx: list[np.ndarray] = []
        member = np.zeros(working.size, dtype=bool)
        # Scratch rank map working-position -> shard-unique position; safe
        # to reuse across shards because each shard only reads positions
        # it just wrote (its flat keys are a subset of its unique keys).
        rank = np.empty(working.size, dtype=np.int64)
        for s in shards:
            pos = work_pos(s.keys)
            member[pos] = True
            widx = np.flatnonzero(member)
            member[widx] = False
            shard_work_idx.append(widx)
            k = working[widx]
            shard_keys.append(k)
            s._unique = k  # seed the batch memo: same set, same order
            rank[widx] = np.arange(widx.size, dtype=np.int64)
            shard_emb_idx.append(rank[pos])
        unions: list[np.ndarray] = []
        minibatches: list[MinibatchPlan] = []
        for m in range(mb_rounds):
            idx_group = shard_work_idx[m * n_gpus : (m + 1) * n_gpus]
            if mb_rounds == 1:
                # Single sync round: every working key appears in some
                # shard, so the union is the whole working set.
                union_idx = np.arange(working.size, dtype=np.int64)
            else:
                union_idx = (
                    np.unique(np.concatenate(idx_group))
                    if any(ix.size for ix in idx_group)
                    else np.empty(0, dtype=np.int64)
                )
            unions.append(union_idx)
            for g in range(n_gpus):
                widx = idx_group[g]
                minibatches.append(
                    MinibatchPlan(
                        keys=shard_keys[m * n_gpus + g],
                        work_idx=widx,
                        # Single sync round: union_idx is the identity,
                        # so each work index is its own sync position.
                        sync_idx=widx
                        if mb_rounds == 1
                        else _positions_in(union_idx, widx),
                        gpu_counts=np.bincount(
                            gpu_of[widx], minlength=n_gpus
                        ),
                        sync_size=int(union_idx.size),
                        emb_idx=shard_emb_idx[m * n_gpus + g],
                    )
                )
        m_union_work_idx.append(unions)
        node_plans.append(
            NodePlan(
                node_id=i,
                keys=working,
                node_parts=node_parts,
                gpu_of=gpu_of,
                gpu_parts=gpu_parts,
                shards=shards,
                minibatches=minibatches,
            )
        )

    sync_plans: list[SyncPlan] = []
    for m in range(mb_rounds):
        node_keys = [
            node_plans[i].keys[m_union_work_idx[i][m]] for i in range(n_nodes)
        ]
        non_empty = [k for k in node_keys if k.size]
        global_keys = (
            compact_unique(np.concatenate(non_empty))
            if non_empty
            else np.empty(0, dtype=KEY_DTYPE)
        )
        owner_of_global = node_partitioner.part_of(global_keys)
        per_node: list[NodeSyncPlan] = []
        for i, plan in enumerate(node_plans):
            resident, pos = work_lookups[i][1](global_keys)
            resident_idx = np.flatnonzero(resident)
            resident_work_idx = pos[resident]
            missing_idx = np.flatnonzero(~resident)
            per_node.append(
                NodeSyncPlan(
                    keys=node_keys[i],
                    resident_idx=resident_idx,
                    resident_work_idx=resident_work_idx,
                    resident_gpu_counts=np.bincount(
                        plan.gpu_of[resident_work_idx], minlength=n_gpus
                    ),
                    missing_idx=missing_idx,
                    missing_own_idx=missing_idx[
                        owner_of_global[missing_idx] == i
                    ],
                )
            )
        sync_plans.append(SyncPlan(keys=global_keys, nodes=per_node))

    prefetch_plans: list[NodePrefetchPlan] | None = None
    if prefetch:
        prefetch_plans = []
        base_pos = _key_lookup(sync_plans[0].keys)[0] if mb_rounds == 1 else None
        for i, plan in enumerate(node_plans):
            # Every constituent is sorted unique by construction; the
            # union only needs the cross-part dedup.
            local_keys = plan.keys[plan.node_parts[i]]
            serve_keys = [
                node_plans[p].keys[node_plans[p].node_parts[i]]
                if p != i
                else np.empty(0, dtype=KEY_DTYPE)
                for p in range(n_nodes)
            ]
            update_keys = [
                sp.keys[sp.nodes[i].missing_own_idx] for sp in sync_plans
            ]
            parts = [
                k for k in (local_keys, *serve_keys, *update_keys) if k.size
            ]
            if mb_rounds == 1 and parts:
                # Single sync round: every part is a subset of that
                # round's global key set (each node contributes its
                # full working set, and the owner queue is drawn from
                # the global set itself), so the union is a
                # membership mask over it — no sort needed.
                base = sync_plans[0].keys
                member = np.zeros(base.size, dtype=bool)
                for k in parts:
                    member[base_pos(k)] = True
                union = base[np.flatnonzero(member)]
            elif parts:
                union = compact_unique(np.concatenate(parts))
            else:
                union = np.empty(0, dtype=KEY_DTYPE)
            union_pos = _key_lookup(union)[0]
            prefetch_plans.append(
                NodePrefetchPlan(
                    keys=union,
                    local_pos=union_pos(local_keys),
                    serve_pos=[union_pos(k) for k in serve_keys],
                    update_pos=[union_pos(k) for k in update_keys],
                )
            )
    return RoundPlan(
        nodes=node_plans,
        sync=sync_plans,
        prefetch=prefetch_plans,
    )
