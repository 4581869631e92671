"""MEM-PS — the middle layer of the hierarchy (paper Section 5).

Each node's MEM-PS owns a *shard* of the global parameter space (modulo
hashing on the key, Section 5 "Prepare parameters").  For a training
batch it:

1. partitions the batch's working keys into the local shard and per-remote
   shards;
2. serves local keys from the LRU+LFU cache, falling back to the SSD-PS,
   initializing never-seen keys from the optimizer's init rule;
3. pulls remote keys from their owning nodes' MEM-PS over the network;
4. pins every working parameter in memory until the batch completes;
5. on batch completion, absorbs updated values back into the cache and
   dumps cache overflow to the SSD-PS.

All remote traffic is charged to the node's :class:`Network`; all disk
traffic to the SSD-PS ledger.  The local/remote split is what Figure 4(b)
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hbm.partition import ModuloPartitioner
from repro.mem.cache import CombinedCache
from repro.nn.optim import SparseOptimizer
from repro.ssd.ssd_ps import SSDPS
from repro.utils.keys import all_unique, as_keys
from repro.utils.rng import spawn

__all__ = ["MemPS", "PrepareStats"]

_NODE_SALT = 0x6E6F6465  # "node"


@dataclass(frozen=True)
class PrepareStats:
    """Timing/traffic decomposition of one prepare() call."""

    n_keys: int
    n_local: int
    n_remote: int
    n_cache_hits: int
    n_ssd_loaded: int
    n_fresh: int
    local_seconds: float
    remote_seconds: float

    @property
    def seconds(self) -> float:
        """Critical-path time: local and remote pulls run in parallel
        (paper Fig. 4(b): 'the local and remote pulling operations are
        paralleled')."""
        return max(self.local_seconds, self.remote_seconds)


class MemPS:
    """One node's main-memory parameter server."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        optimizer: SparseOptimizer,
        ssd_ps: SSDPS,
        *,
        cache_capacity: int = 1_000_000,
        lru_fraction: float = 0.5,
        network: Network | None = None,
        ledger: CostLedger | None = None,
        seed: int = 0,
        cache: CombinedCache | None = None,
        key_domain: int | None = None,
    ) -> None:
        if not 0 <= node_id < n_nodes:
            raise ValueError("node_id out of range")
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.optimizer = optimizer
        self.ssd_ps = ssd_ps
        self.ledger = ledger if ledger is not None else CostLedger()
        self.network = network
        self.partitioner = ModuloPartitioner(n_nodes, salt=_NODE_SALT)
        #: any cache speaking the combined-cache surface works here — the
        #: store microbenchmark injects the seed per-key implementation.
        self.cache = cache if cache is not None else CombinedCache(
            cache_capacity,
            lru_fraction=lru_fraction,
            value_dim=optimizer.value_dim,
            key_domain=key_domain,
        )
        self._rng = spawn(seed, "mem_ps", node_id)
        #: per-key init seed — identical on every node so a key initializes
        #: the same regardless of which node first touches it.
        self._init_seed = seed
        #: peers[i] is node i's MemPS; wired by the cluster after construction.
        self.peers: list["MemPS"] = []
        #: keys pinned on behalf of remote pulls this batch (released by
        #: :meth:`end_batch`).
        self._served_keys: list[np.ndarray] = []
        #: the round's resolved :class:`~repro.plan.NodePrefetchPlan`
        #: (set by :meth:`prefetch`, cleared by :meth:`end_batch`); while
        #: set, the serve/update paths go through resolved LRU rows
        #: instead of re-probing the cache.
        self._prefetch_plan = None
        #: previous round's resolved (union keys, LRU rows) — the probe
        #: carry-over seed for the next :meth:`prefetch` (each carried
        #: row is re-verified against the slab before reuse).
        self._prev_union: tuple = (None, None)

    # ------------------------------------------------------------------
    def owner_of(self, keys: np.ndarray) -> np.ndarray:
        return self.partitioner.part_of(keys)

    def owns(self, keys: np.ndarray) -> np.ndarray:
        return self.owner_of(keys) == self.node_id

    # ------------------------------------------------------------------
    def _admission_snapshot(self) -> tuple[int, int]:
        """(runs, collision splits) counter snapshot."""
        stats = getattr(self.cache, "stats", None)
        if stats is None or not hasattr(stats, "admission_runs"):
            return (0, 0)
        return (stats.admission_runs, stats.collision_splits)

    def _admission_delta(self, before: tuple[int, int]):
        from repro.plan import AdmissionRecord

        after = self._admission_snapshot()
        return AdmissionRecord(
            n_runs=after[0] - before[0],
            n_collision_splits=after[1] - before[1],
        )

    # ------------------------------------------------------------------
    def fetch_local(
        self,
        keys: np.ndarray,
        *,
        pin: bool = True,
        out_masks: dict | None = None,
        assume_unique: bool = False,
    ) -> tuple[np.ndarray, float, int, int, int]:
        """Serve locally-owned ``keys`` from cache → SSD → fresh-init.

        Returns ``(values, seconds, cache_hits, ssd_loaded, fresh)``.
        Loaded/initialized values are inserted (and pinned) in the cache;
        cache overflow is flushed to the SSD-PS immediately.  With
        ``out_masks``, records the hit/miss split for the caller's
        :class:`~repro.plan.NodePlan`: ``out_masks["hit"]`` is the cache
        hit mask over ``keys`` and ``out_masks["ssd_found"]`` marks which
        of the misses the SSD resolved.  ``assume_unique=True`` is the
        plan's pre-split: keys known unique by construction skip the
        cache admission planner's duplicate-boundary pass.
        """
        keys = as_keys(keys)
        values, hit = self.cache.get_batch(keys, assume_unique=assume_unique)
        if out_masks is not None:
            out_masks["hit"] = hit
            out_masks["ssd_found"] = np.zeros(keys.size, dtype=bool)
        seconds = 0.0
        # LFU->LRU promotions inside get_batch may flush cold entries;
        # persist them before anything else can reference them.
        pf_k, pf_v = self.cache.take_pending_flush()
        if pf_k.size:
            seconds += self.ssd_ps.dump(pf_k, pf_v).total_seconds
        if pin:
            # Pin hits immediately — inserting the misses below may evict
            # them otherwise, breaking the in-flight working set.
            # ``get_batch`` promotes LFU hits into the LRU tier, so every
            # hit key is in the LRU by now.
            self.cache.pin_batch(keys[hit])
        n_ssd = 0
        n_fresh = 0
        miss_idx = np.flatnonzero(~hit)
        if miss_idx.size:
            miss_keys = keys[miss_idx]
            result, stats = self.ssd_ps.load(miss_keys)
            seconds += stats.total_seconds
            if out_masks is not None:
                out_masks["ssd_found"][miss_idx] = result.found
            vals = result.values
            fresh_idx = np.flatnonzero(~result.found)
            n_ssd = int(result.found.sum())
            n_fresh = fresh_idx.size
            if fresh_idx.size:
                vals[fresh_idx] = self.optimizer.init_for_keys(
                    miss_keys[fresh_idx], seed=self._init_seed
                )
            values[miss_idx] = vals
            flush_k, flush_v = self.cache.put_batch(
                miss_keys,
                vals,
                pin=pin,
                assume_unique=assume_unique,
                # A unique key stream's misses are resident in neither
                # tier (a get never inserts), so the LFU probe is moot.
                assume_absent=assume_unique,
            )
            if flush_k.size:
                seconds += self.ssd_ps.dump(flush_k, flush_v).total_seconds
        return values, seconds, int(hit.sum()), n_ssd, n_fresh

    def serve_remote(
        self,
        keys: np.ndarray,
        *,
        pre_owned: bool = False,
        requester: int | None = None,
    ) -> tuple[np.ndarray, float]:
        """Handle a pull request from a peer (keys are owned here).

        ``pre_owned=True`` skips the ownership re-hash — the caller's
        :class:`~repro.plan.NodePlan` partitioned the keys by owner
        already (validated by the plan unit tests).  When this node ran
        the prefetch stage this round and the caller identifies itself
        via ``requester``, the served partition is already resolved,
        loaded, and pinned — the pull is a pure row gather with no
        device traffic and no extra pin (the prefetch pin covers it
        until ``end_batch``).
        """
        keys = as_keys(keys)
        if not pre_owned and not np.all(self.owns(keys)):
            raise ValueError("serve_remote called with keys this node does not own")
        pplan = self._prefetch_plan
        if pplan is not None and requester is not None:
            pos = pplan.serve_pos[requester]
            if not np.array_equal(keys, pplan.keys[pos]):
                raise RuntimeError(
                    f"node {self.node_id}: remote pull from node {requester} "
                    "diverged from the prefetch plan's served partition"
                )
            return self.cache.values_at(pplan.rows[pos]), 0.0
        values, seconds, _, _, _ = self.fetch_local(
            keys, pin=True, assume_unique=pre_owned
        )
        self._served_keys.append(keys)
        return values, seconds

    def prefetch(self, pplan) -> float:
        """Resolve, load, and pin the round's full MEM working set.

        ``pplan`` is the node's :class:`~repro.plan.NodePrefetchPlan`:
        the sorted union of the local working partition, every partition
        served to a peer, and the owner-queue keys of every sync round.
        The whole set goes through cache → SSD → fresh-init exactly once
        and stays pinned until :meth:`end_batch`; the resolved LRU rows
        land on the plan, so every later MEM access this round is a pure
        row gather (no SlotIndex probe, no admission work, no eviction
        risk).  Returns simulated seconds (SSD loads plus overflow
        dumps — the same charges the unprefetched path would pay, moved
        earlier in the round).
        """
        seconds = self._resolve_current(pplan)
        self._prev_union = (pplan.keys, pplan.rows)
        self._prefetch_plan = pplan
        return seconds

    def _resolve_current(self, pplan) -> float:
        """Full cache → SSD → fresh-init resolve of the current round."""
        keys = pplan.keys
        adm_before = self._admission_snapshot()
        seconds = 0.0
        # Tier-ordered access: LRU hits first (pure recency ticks — no
        # eviction can form), then LFU promotions (every LRU batch key
        # is hot by now, so victims come from the non-batch cold tail),
        # then misses.  The sorted union interleaves the tiers, which
        # would force the admission engine to cut a run at every cold
        # batch key the promotion storm reaches; ordered this way the
        # whole union applies in O(1) collision-free runs — and the
        # cache resolves it in a single probe pass, handing back the
        # pinned rows directly.  Consecutive rounds overlap
        # heavily under a zipf head, so the previous union's resolved
        # rows ride along: still-valid keys skip the probe entirely.
        prev_k, prev_r = self._prev_union
        hit, rows = self.cache.prefetch_resolve(keys, prev_k, prev_r)
        pf_k, pf_v = self.cache.take_pending_flush()
        if pf_k.size:
            seconds += self.ssd_ps.dump(pf_k, pf_v).total_seconds
        if rows is None:
            self.cache.pin_batch(keys[hit])
        else:
            self.cache.pin_rows(rows[hit])
        ssd_found = np.zeros(keys.size, dtype=bool)
        miss_idx = np.flatnonzero(~hit)
        if miss_idx.size:
            miss_keys = keys[miss_idx]
            result, stats = self.ssd_ps.load(miss_keys)
            seconds += stats.total_seconds
            ssd_found[miss_idx] = result.found
            vals = result.values
            fresh_idx = np.flatnonzero(~result.found)
            if fresh_idx.size:
                vals[fresh_idx] = self.optimizer.init_for_keys(
                    miss_keys[fresh_idx], seed=self._init_seed
                )
            flush_k, flush_v = self.cache.put_batch(
                miss_keys, vals, pin=True, assume_absent=True
            )
            if flush_k.size:
                seconds += self.ssd_ps.dump(flush_k, flush_v).total_seconds
        if rows is None:
            pplan.rows = self.cache.resolve_pinned(keys)
        else:
            if miss_idx.size:
                rows[miss_idx] = self.cache.resolve_pinned(keys[miss_idx])
            pplan.rows = rows
        pplan.hit = hit
        pplan.ssd_found = ssd_found
        pplan.admission = self._admission_delta(adm_before)
        return seconds

    def prepare(
        self, working_keys: np.ndarray, *, plan=None
    ) -> tuple[np.ndarray, PrepareStats]:
        """Gather values for a batch's working set (Alg. 1 lines 3–4).

        Returns values aligned with ``working_keys`` plus the stats used by
        the Fig. 4(b) decomposition.  With a
        :class:`~repro.plan.NodePlan`, the owner partition comes from the
        plan's precomputed index arrays (no re-hash, no re-unique — the
        plan guarantees uniqueness by construction; ``all_unique`` still
        guards it with a ``ValueError``) and the resolved cache
        state is recorded on the plan for the write-back stage.
        """
        keys = as_keys(working_keys)
        if plan is None:
            if not all_unique(keys):
                raise ValueError("working keys must be unique")
            owners = self.owner_of(keys)
            local_idx = np.flatnonzero(owners == self.node_id)
            part_of = lambda p: np.flatnonzero(owners == p)  # noqa: E731
        else:
            if not all_unique(keys):
                raise ValueError("BatchPlan working keys must be unique")
            local_idx = plan.node_parts[self.node_id]
            part_of = lambda p: plan.node_parts[p]  # noqa: E731
        values = np.zeros((keys.size, self.optimizer.value_dim), dtype=np.float32)

        pplan = self._prefetch_plan if plan is not None else None
        if pplan is not None:
            # The prefetch stage already resolved, loaded, and pinned the
            # local partition — a pure row gather, with the hit/SSD split
            # and admission record replayed from the prefetch probe.
            local_rows = pplan.rows[pplan.local_pos]
            local_hits = pplan.hit[pplan.local_pos]
            local_found = pplan.ssd_found[pplan.local_pos]
            values[local_idx] = self.cache.values_at(local_rows)
            plan.record_prepare(
                local_slots=local_rows,
                local_hits=local_hits,
                ssd_found=local_found,
                admission=pplan.admission,
            )
            t_local = 0.0
            n_hits = int(local_hits.sum())
            n_ssd = int(local_found.sum())
            n_fresh = local_idx.size - n_hits - n_ssd
        else:
            masks: dict | None = {} if plan is not None else None
            adm_before = self._admission_snapshot()
            vals, t_local, n_hits, n_ssd, n_fresh = self.fetch_local(
                keys[local_idx], out_masks=masks, assume_unique=plan is not None
            )
            values[local_idx] = vals
            if plan is not None:
                # Resolved once here; the write-back consumes these rows
                # instead of re-probing the SlotIndex (every local working
                # key is now a pinned LRU resident).  The admission record
                # keeps how the cache split this prepare into bulk runs vs.
                # scalar collision splits — the pressure-regime
                # observability the e2e ledger and the zero-fallback
                # acceptance gate read.
                plan.record_prepare(
                    local_slots=self.cache.resolve_pinned(keys[local_idx]),
                    local_hits=masks["hit"],
                    ssd_found=masks["ssd_found"],
                    admission=self._admission_delta(adm_before),
                )

        t_remote = 0.0
        n_remote = 0
        for peer_id in range(self.n_nodes):
            if peer_id == self.node_id:
                continue
            idx = part_of(peer_id)
            if idx.size == 0:
                continue
            peer = self.peers[peer_id]
            vals, t_serve = peer.serve_remote(
                keys[idx],
                pre_owned=plan is not None,
                requester=self.node_id if plan is not None else None,
            )
            values[idx] = vals
            n_remote += idx.size
            # Request (keys out) + response (keys+values back).
            nbytes = idx.size * (8 + (8 + 4 * self.optimizer.value_dim))
            t_net = (
                self.network.send(nbytes, category="net_remote_pull")
                if self.network is not None
                else 0.0
            )
            t_remote += t_serve + t_net
        stats = PrepareStats(
            n_keys=keys.size,
            n_local=local_idx.size,
            n_remote=n_remote,
            n_cache_hits=n_hits,
            n_ssd_loaded=n_ssd,
            n_fresh=n_fresh,
            local_seconds=t_local,
            remote_seconds=t_remote,
        )
        return values, stats

    # ------------------------------------------------------------------
    def absorb_updates(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        unpin: bool = True,
        plan=None,
    ) -> float:
        """Write updated values back after a batch (Alg. 1 lines 16–18).

        Only locally-owned keys are kept (remote owners get their updates
        from their own GPUs — Section 5 "Update parameters").  Cache
        overflow is dumped to the SSD-PS; returns simulated seconds.
        With a :class:`~repro.plan.NodePlan` (carrying the LRU rows the
        prepare stage resolved), the owner split and the cache update go
        through precomputed indices — no re-hash, no SlotIndex probe.
        """
        keys = as_keys(keys)
        seconds = 0.0
        if plan is not None and plan.local_slots is not None:
            part = plan.local_idx
            vals_own = np.asarray(values, dtype=np.float32)[part]
            self.cache.update_rows(plan.local_slots, vals_own)
            if self._prefetch_plan is not None:
                # Rows stay pinned: end_batch releases the whole prefetch
                # set in one row-level unpin (the local slots are a
                # subset of its rows) and settles overflow then.
                return seconds
            if unpin:
                self.cache.unpin_rows(plan.local_slots)
                fk, fv = self.cache.settle_overflow()
                if fk.size:
                    seconds += self.ssd_ps.dump(fk, fv).total_seconds
            return seconds
        own = self.owns(keys)
        keys_own = keys[own]
        vals_own = np.asarray(values, dtype=np.float32)[own]
        self.cache.update_batch_if_present(keys_own, vals_own)
        if unpin:
            self.cache.unpin_batch(keys_own)
            # Unpinning may leave the LRU over capacity; settle it now.
            fk, fv = self.cache.settle_overflow()
            if fk.size:
                seconds += self.ssd_ps.dump(fk, fv).total_seconds
        return seconds

    def apply_gradients(
        self,
        keys: np.ndarray,
        grads: np.ndarray,
        *,
        pre_owned: bool = False,
        rows: np.ndarray | None = None,
    ) -> float:
        """Owner-side optimizer application for keys *not* staged in the
        local HBM (the update queue described in the module docstring of
        :mod:`repro.hbm.hbm_ps`).

        ``pre_owned=True`` skips the ownership filter — the caller (a
        planned round) has already partitioned the keys by owner.  With
        ``rows`` (the prefetch plan's resolved owner-queue rows), the
        keys are pinned LRU residents and the optimizer applies through
        a pure row gather/scatter — no cache probe, no admission work,
        no eviction risk, no device traffic.
        """
        keys = as_keys(keys)
        if rows is not None:
            if keys.size == 0:
                return 0.0
            # Gradients stay float64 through the optimizer (SparseUpdate
            # contract; order-independent accumulation).
            # repro: allow(f64-hot-path)
            grads = np.asarray(grads, dtype=np.float64)
            new_values = self.optimizer.apply(self.cache.values_at(rows), grads)
            self.cache.update_rows(rows, new_values)
            return 0.0
        if pre_owned:
            grads = np.asarray(grads, dtype=np.float64)  # repro: allow(f64-hot-path)
        else:
            own = self.owns(keys)
            keys = keys[own]
            # repro: allow(f64-hot-path)
            grads = np.asarray(grads, dtype=np.float64)[own]
        if keys.size == 0:
            return 0.0
        values, t_fetch, _, _, _ = self.fetch_local(
            keys, pin=False, assume_unique=pre_owned
        )
        new_values = self.optimizer.apply(values, grads)
        # Re-insert rather than update-if-present: under memory pressure a
        # key fetched above can already have been evicted again, and its
        # update must not be lost.  The admission engine keeps this exact
        # under pressure without degrading to the per-key replay — a key
        # sitting in the eviction frontier just starts a new run.
        flush_k, flush_v = self.cache.put_batch(
            keys, new_values, assume_unique=pre_owned
        )
        if flush_k.size:
            t_fetch += self.ssd_ps.dump(flush_k, flush_v).total_seconds
        return t_fetch

    def end_batch(self) -> float:
        """Release the round's pins and settle overflow.

        In prefetch mode the whole resolved working set (local + served
        + owner-queue rows) unpins in a single row-level release; the
        unprefetched path only holds the remote-pull pins taken by
        :meth:`serve_remote` here (local pins were released by
        :meth:`absorb_updates`).
        """
        seconds = 0.0
        if self._prefetch_plan is not None:
            self.cache.unpin_rows(self._prefetch_plan.rows)
            self._prefetch_plan = None
        for keys in self._served_keys:
            self.cache.unpin_batch(keys)
        self._served_keys.clear()
        fk, fv = self.cache.settle_overflow()
        if fk.size:
            seconds += self.ssd_ps.dump(fk, fv).total_seconds
        return seconds

    def abort_round(self) -> float:
        """Roll in-flight round state back to a clean boundary.

        Fault-recovery counterpart of :meth:`end_batch`: releases the
        prefetch pins and remote-serve pins of a round that will never
        reach write-back, settles any overflow the partial round queued,
        and — unlike ``end_batch`` — forgets the cross-round prefetch
        union, because the aborted round's resolved rows must not seed
        the retry's ``prefetch_resolve`` carry-over (the retry re-derives
        residency from scratch; values were never mutated, so this is
        purely a bookkeeping reset).
        """
        seconds = self.end_batch()
        self._prev_union = (None, None)
        return seconds

    def flush_to_ssd(self) -> float:
        """Drain the entire cache to the SSD-PS (checkpoint/shutdown)."""
        fk, fv = self.cache.flush_all()
        if fk.size == 0:
            return 0.0
        return self.ssd_ps.dump(fk, fv).total_seconds

    # ------------------------------------------------------------------
    def _require_boundary(self) -> None:
        if self._served_keys or self._prefetch_plan is not None:
            raise RuntimeError(
                "MEM-PS still holds in-flight pins — checkpoint only at "
                "a round boundary (after end_batch)"
            )

    def export_state(self) -> dict[str, np.ndarray]:
        """Snapshot the MEM tier for a checkpoint shard.

        Only valid at a round boundary: remote-pull pins must have been
        released by :meth:`end_batch`, otherwise the cache snapshot would
        capture in-flight working-set state that a restore cannot honour.
        """
        self._require_boundary()
        return self.cache.export_state()

    def delta_base(self) -> dict[str, np.ndarray]:
        """The lean record :meth:`export_delta` diffs against
        (:meth:`CombinedCache.delta_base`); read-only, same contract as
        :meth:`export_state`."""
        self._require_boundary()
        return self.cache.delta_base()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore the MEM tier from an :meth:`export_state` snapshot."""
        self.cache.load_state(state)
        self._served_keys.clear()
        self._prefetch_plan = None
        self._prev_union = (None, None)

    def export_delta(
        self,
        base: dict[str, np.ndarray],
        *,
        dirty_keys: np.ndarray | None = None,
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Diff the MEM tier against a prior :meth:`delta_base`.

        Returns ``(delta, next_base)`` from one pass over the cache
        (:meth:`CombinedCache.export_delta`); same round-boundary
        contract as :meth:`export_state`.
        """
        self._require_boundary()
        return self.cache.export_delta(base, dirty_keys=dirty_keys)

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply an :meth:`export_delta` diff on top of the base state."""
        self.cache.load_delta(delta)
        self._served_keys.clear()
        self._prefetch_plan = None
        self._prev_union = (None, None)
