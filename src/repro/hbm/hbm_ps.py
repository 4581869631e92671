"""HBM-PS — the top layer of the hierarchy (paper Section 4).

One :class:`HBMPS` instance manages a node's GPUs.  It holds two
distributed hash tables:

* ``params`` — the staged working parameters (value = embedding +
  optimizer state, as defined by the sparse optimizer's value layout);
* ``grads`` — a gradient buffer the workers ``accumulate`` into after each
  backward pass (Algorithm 1 line 14).

Per mini-batch the trainer drains the gradient buffer, all-reduces it
across nodes, and calls :meth:`apply_update`, which applies the optimizer
transform to every resident key and reports the keys this node does *not*
have staged (the MEM-PS owner applies those — Section 5 "Update
parameters").

Planned rounds
--------------
When the caller threads a :class:`~repro.plan.NodePlan` through
:meth:`load_working_set` (and the matching mini-batch / sync plans through
the worker-facing calls), the working set is staged as a dense value array
aligned with the plan's sorted keys and every operation becomes a pure
index gather/scatter — no hashing, no probing, no per-stage ``np.unique``.
The simulated cost model charges *exactly* what the hash-table path would
(same per-GPU key counts, same devices, same NVLink objects, same ledger
categories), and the float arithmetic is performed in the same order, so
planned rounds are bit-identical to unplanned ones in both parameters and
simulated seconds.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import GPUSpec, NVLinkSpec
from repro.hbm.allreduce import SparseUpdate
from repro.hbm.distributed_table import DistributedHashTable
from repro.nn.optim import SparseOptimizer
from repro.plan.batch_plan import MinibatchPlan, NodePlan, NodeSyncPlan
from repro.utils.keys import as_keys

__all__ = ["HBMPS"]


class _PlannedRound:
    """Dense working-set staging for one planned round."""

    __slots__ = ("plan", "values", "grad_buf")

    def __init__(self, plan: NodePlan, values: np.ndarray) -> None:
        self.plan = plan
        #: (n_working, value_dim) float32, mutated in place by apply_update
        self.values = values
        #: (sync_size, dim) float32 gradient buffer of the current sync
        #: round; allocated lazily at the first push, dropped at drain
        self.grad_buf: np.ndarray | None = None


class HBMPS:
    """Node-level High-Bandwidth-Memory parameter server."""

    def __init__(
        self,
        n_gpus: int,
        capacity_per_gpu: int,
        optimizer: SparseOptimizer,
        *,
        gpu_spec: GPUSpec | None = None,
        nvlink_spec: NVLinkSpec | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        self.optimizer = optimizer
        self.ledger = ledger if ledger is not None else CostLedger()
        self.capacity_per_gpu = capacity_per_gpu
        self.params = DistributedHashTable(
            n_gpus,
            capacity_per_gpu,
            optimizer.value_dim,
            gpu_spec=gpu_spec,
            nvlink_spec=nvlink_spec,
            ledger=self.ledger,
        )
        self.grads = DistributedHashTable(
            n_gpus,
            capacity_per_gpu,
            optimizer.dim,
            gpu_spec=gpu_spec,
            nvlink_spec=nvlink_spec,
            ledger=self.ledger,
        )
        self._planned: _PlannedRound | None = None
        #: fault-injection guard for cross-GPU pull/push dispatch, armed
        #: here (not on the hash tables) so the planned fast path and the
        #: unplanned table path draw the identical fault sequence
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None

    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return self.params.n_gpus

    @property
    def nvlink(self):
        return self.params.nvlink

    def _charge_table_ops(
        self,
        dht: DistributedHashTable,
        counts,
        category: str,
        *,
        source_gpu: int | None = None,
        include_empty: bool = False,
    ) -> float:
        """Charge per-GPU table ops from precomputed key counts.

        This is the single cost-charging primitive of every planned path;
        it mirrors the unplanned :class:`DistributedHashTable` exactly —
        same devices, same NVLink object, same ledger categories, and the
        same skip rules (``insert`` charges empty partitions, the others
        skip them; cross-GPU traffic only with a ``source_gpu``).
        """
        vb = 4 * dht.value_dim
        t_table = 0.0
        link_bytes = 0
        link_msgs = 0
        for g in range(self.n_gpus):
            c = int(counts[g])
            if c == 0 and not include_empty:
                continue
            t_table = max(t_table, dht.devices[g].table_op(c, vb, category))
            if source_gpu is not None and g != source_gpu and c:
                link_bytes += c * (8 + vb)
                link_msgs += 1
        t_link = (
            dht.nvlink.send(link_bytes, n_messages=link_msgs)
            if link_msgs
            else 0.0
        )
        return t_table + t_link

    def load_working_set(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        plan: NodePlan | None = None,
    ) -> float:
        """Stage the batch's working parameters (Alg. 1 lines 6–10).

        With a :class:`~repro.plan.NodePlan`, the working set is staged as
        a dense array aligned with ``plan.keys`` and per-GPU insert costs
        are charged from the plan's precomputed partition sizes.
        """
        if plan is None:
            self._planned = None
            self.params.clear()
            self.grads.clear()
            return self.params.insert(keys, values)
        # Planned fast path: drop any stale hash-table staging once (the
        # tables stay empty across consecutive planned rounds, so this
        # clear is free in steady state), then stage densely.
        if self.params.size:
            self.params.clear()
        if self.grads.size:
            self.grads.clear()
        for g in range(self.n_gpus):
            if plan.gpu_parts[g].size > self.capacity_per_gpu:
                raise RuntimeError(
                    f"hash table capacity exceeded: 0+{plan.gpu_parts[g].size}"
                    f" > {self.capacity_per_gpu} (room for "
                    f"{self.capacity_per_gpu})"
                )
        self._planned = _PlannedRound(
            plan, np.array(values, dtype=np.float32, copy=True)
        )
        return self._charge_table_ops(
            self.params,
            [p.size for p in plan.gpu_parts],
            "hbm_insert",
            include_empty=True,
        )

    def pull_embeddings(
        self,
        keys: np.ndarray,
        *,
        gpu: int = 0,
        mb: MinibatchPlan | None = None,
    ) -> tuple[np.ndarray, float]:
        """Embedding rows for a worker's mini-batch keys (line 12)."""
        extra = 0.0
        if self.faults is not None:
            # Transient dispatch fault: a retried fetch costs only
            # backoff (it restarts before any table was touched);
            # exhaustion escapes with global scope — mid-train HBM state
            # is only recoverable by a full restore.
            extra = self.faults.guard({"hbm_dispatch": 0.0}, scope="global")
        if self._planned is None or mb is None:
            values, t = self.params.get(keys, source_gpu=gpu)
            return self.optimizer.embedding(values), t + extra
        st = self._planned
        values = st.values[mb.work_idx]
        t = self._charge_table_ops(
            self.params, mb.gpu_counts, "hbm_pull", source_gpu=gpu
        )
        return self.optimizer.embedding(values), t + extra

    def push_gradients(
        self,
        keys: np.ndarray,
        grads: np.ndarray,
        *,
        gpu: int = 0,
        mb: MinibatchPlan | None = None,
    ) -> float:
        """Worker pushes its sparse gradient (line 14, Algorithm 2)."""
        extra = 0.0
        if self.faults is not None:
            # Guard before any gradient is applied, so a retried push
            # never double-applies a delta and an exhausted one escapes
            # with the tables/buffers still consistent.
            extra = self.faults.guard({"hbm_dispatch": 0.0}, scope="global")
        if self._planned is None or mb is None:
            return extra + self.grads.accumulate(
                keys, grads, source_gpu=gpu, upsert=True
            )
        st = self._planned
        if st.grad_buf is None:
            st.grad_buf = np.zeros(
                (mb.sync_size, self.optimizer.dim), dtype=np.float32
            )
        # Mini-batch keys are unique, so this scatter-add matches the hash
        # table's insert-then-accumulate bit for bit (0 + d == d, and
        # float32 -> float64 -> float32 round-trips exactly).
        st.grad_buf[mb.sync_idx] += np.asarray(grads, dtype=np.float32)
        return extra + self._charge_table_ops(
            self.grads, mb.gpu_counts, "hbm_push", source_gpu=gpu
        )

    def drain_gradients(self, *, sync: NodeSyncPlan | None = None) -> SparseUpdate:
        """Collect and clear the gradient buffer for the all-reduce."""
        if self._planned is None or sync is None:
            keys, grads = self.grads.items()
            self.grads.clear()
            # SparseUpdate carries float64 gradients by contract (see
            # allreduce.SparseUpdate).
            # repro: allow(f64-hot-path)
            return SparseUpdate(keys, grads.astype(np.float64))
        st = self._planned
        buf = st.grad_buf
        st.grad_buf = None
        if buf is None:
            buf = np.zeros((sync.keys.size, self.optimizer.dim), dtype=np.float32)
        # Plan keys are sorted-unique by construction; skip re-validation.
        return SparseUpdate.trusted(
            sync.keys, buf.astype(np.float64)  # repro: allow(f64-hot-path)
        )

    def apply_update(
        self, update: SparseUpdate, *, sync: NodeSyncPlan | None = None
    ) -> tuple[np.ndarray, float]:
        """Apply a (post-all-reduce) global update to resident keys.

        Returns ``(missing_keys, seconds)`` — keys in ``update`` that are
        not staged on this node; the caller forwards those to the MEM-PS
        owner queue.
        """
        if update.n_keys == 0:
            return as_keys([]), 0.0
        if self._planned is not None and sync is not None:
            st = self._planned
            missing = update.keys[sync.missing_idx]
            if sync.resident_idx.size == 0:
                return missing, 0.0
            rows = sync.resident_work_idx
            st.values[rows] = self.optimizer.apply(
                st.values[rows], update.grads[sync.resident_idx]
            )
            t = self._charge_table_ops(
                self.params, sync.resident_gpu_counts, "hbm_push"
            )
            return missing, t
        resident = self.params.contains(update.keys)
        missing = update.keys[~resident]
        keys = update.keys[resident]
        grads = update.grads[resident]
        if keys.size == 0:
            return missing, 0.0
        # The optimizer transform must see (value, grad) pairs; close over
        # the gradient rows in key order.  ``transform`` visits each GPU's
        # partition, so re-align gradients per partition via a dict-free
        # searchsorted lookup (keys are sorted and unique).
        opt = self.optimizer

        def fn_factory(part_keys: np.ndarray):
            idx = keys.searchsorted(part_keys)

            def fn(values: np.ndarray) -> np.ndarray:
                return opt.apply(values, grads[idx])

            return fn

        t = 0.0
        parts = self.params.partitioner.split(keys)
        for gpu, (k,) in enumerate(parts):
            if k.size == 0:
                continue
            self.params.tables[gpu].transform(k, fn_factory(k))
            t = max(
                t,
                self.params.devices[gpu].table_op(
                    k.size, 4 * opt.value_dim, "hbm_push"
                ),
            )
        return missing, t

    def dump(self) -> tuple[np.ndarray, np.ndarray]:
        """All staged (keys, values) — the MEM-PS pull-back (line 16)."""
        if self._planned is not None:
            return self._planned.plan.keys, self._planned.values
        return self.params.items()

    def clear(self) -> None:
        self._planned = None
        self.params.clear()
        self.grads.clear()

    # ------------------------------------------------------------------
    # Checkpoint protocol.  The HBM tier is *transient*: every round
    # restages its working set from the MEM tier and the round-end
    # write-back (``dump`` + ``MemPS.absorb_updates``) pulls the values
    # back down, so between rounds the staged tables/arrays are a
    # non-authoritative shadow (the next ``load_working_set`` clears them
    # unconditionally).  The export pair therefore ships nothing — but it
    # *asserts* the tier is actually quiescent, catching any attempt to
    # snapshot mid-round, and keeps the per-tier protocol uniform so the
    # checkpoint writer can drive every tier identically.
    def _require_quiescent(self) -> None:
        if self._planned is not None and self._planned.grad_buf is not None:
            raise RuntimeError(
                "HBM-PS gradient buffer not drained — checkpoint only at "
                "a round boundary"
            )
        if self.grads.size:
            raise RuntimeError(
                "HBM-PS gradient table not empty — checkpoint only at "
                "a round boundary"
            )

    def export_state(self) -> dict[str, np.ndarray]:
        """Checkpoint hook: asserts quiescence, exports nothing."""
        self._require_quiescent()
        return {}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Checkpoint hook: restore to the cleared (pre-round) state."""
        self.clear()

    def delta_base(self) -> dict[str, np.ndarray]:
        """Delta-base hook: the tier is transient, so a base is empty."""
        self._require_quiescent()
        return {}

    def export_delta(
        self, base: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Delta hook: same quiescence contract as :meth:`export_state`;
        ``(delta, next_base)`` are both empty."""
        self._require_quiescent()
        return {}, {}

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Delta hook: identical to a full load — the tier is transient."""
        self.clear()
