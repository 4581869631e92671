"""One compute node of the hierarchical parameter server.

Bundles the three storage layers (HBM-PS / MEM-PS / SSD-PS), the node's
fabric models, its HDFS stream, and a replica of the dense CTR tower.  The
cluster (:mod:`repro.core.cluster`) wires nodes together and drives
Algorithm 1 across them.
"""

from __future__ import annotations

import numpy as np

from repro.config import ClusterConfig, ModelSpec
from repro.data.generator import CTRDataGenerator
from repro.data.hdfs import HDFSStream
from repro.hardware.gpu import GPUDevice
from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hardware.specs import NodeHardware, default_node_hardware
from repro.hbm.hbm_ps import HBMPS
from repro.mem.mem_ps import MemPS
from repro.nn.model import CTRModel
from repro.nn.optim import DenseAdagrad, DenseOptimizer, SparseOptimizer
from repro.ssd.ssd_ps import SSDPS
from repro.utils.rng import derive_seed

__all__ = ["HPSNode"]


class HPSNode:
    """A GPU computing node: 3-layer PS + workers + data stream."""

    def __init__(
        self,
        node_id: int,
        model_spec: ModelSpec,
        cluster_config: ClusterConfig,
        sparse_optimizer: SparseOptimizer,
        generator: CTRDataGenerator,
        *,
        hardware: NodeHardware | None = None,
        dense_optimizer: DenseOptimizer | None = None,
        ssd_directory: str | None = None,
        functional_batch_size: int | None = None,
    ) -> None:
        cfg = cluster_config
        self.node_id = node_id
        self.config = cfg
        self.model_spec = model_spec
        self.hardware = hardware or default_node_hardware(
            gpus_per_node=cfg.gpus_per_node
        )
        self.ledger = CostLedger()
        self.network = Network(self.hardware.network, self.ledger)

        self.ssd_ps = SSDPS(
            sparse_optimizer.value_dim,
            file_capacity=cfg.ssd_file_capacity,
            extent_cache_files=cfg.ssd_extent_cache_files,
            ssd_spec=self.hardware.ssd,
            usage_threshold=cfg.compaction_threshold,
            stale_fraction=cfg.compaction_stale_fraction,
            directory=ssd_directory,
            ledger=self.ledger,
            key_domain=model_spec.n_sparse,
        )
        self.mem_ps = MemPS(
            node_id,
            cfg.n_nodes,
            sparse_optimizer,
            self.ssd_ps,
            cache_capacity=cfg.mem_capacity_params,
            lru_fraction=cfg.cache_lru_fraction,
            network=self.network,
            ledger=self.ledger,
            seed=cfg.seed,
            key_domain=model_spec.n_sparse,
        )
        self.hbm_ps = HBMPS(
            cfg.gpus_per_node,
            cfg.hbm_capacity_params,
            sparse_optimizer,
            gpu_spec=self.hardware.gpu,
            nvlink_spec=self.hardware.nvlink,
            ledger=self.ledger,
        )
        self.hdfs = HDFSStream(
            generator,
            self.hardware.hdfs,
            node_id=node_id,
            n_nodes=cfg.n_nodes,
            batch_size=functional_batch_size or cfg.batch_size,
            ledger=self.ledger,
        )
        # Every node starts from the same dense initialization (seeded by
        # the cluster seed, not the node id) so replicas are identical.
        self.model = CTRModel(model_spec, seed=derive_seed(cfg.seed, "dense"))
        self.dense_optimizer = dense_optimizer or DenseAdagrad(lr=0.05)
        self.gpu_compute = GPUDevice(self.hardware.gpu, self.ledger)

    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return self.config.gpus_per_node

    # ------------------------------------------------------------------
    # Checkpoint protocol: every storage tier exposes the same
    # export/load pair in both full and delta form; the node drives them
    # uniformly so the checkpoint writer never reaches into tiers.
    # ------------------------------------------------------------------
    TIERS = ("mem", "ssd", "hbm")

    def tier_states(self) -> dict[str, dict]:
        """Full per-tier snapshots (each tier's ``export_state``)."""
        return {
            "mem": self.mem_ps.export_state(),
            "ssd": self.ssd_ps.export_state(),
            "hbm": self.hbm_ps.export_state(),
        }

    def delta_bases(self) -> dict[str, dict]:
        """Per-tier delta bases (each tier's read-only ``delta_base``):
        only what :meth:`tier_deltas` reads — MEM resident keys and
        values, SSD file ids and stale counters, nothing for HBM."""
        return {
            "mem": self.mem_ps.delta_base(),
            "ssd": self.ssd_ps.delta_base(),
            "hbm": self.hbm_ps.delta_base(),
        }

    def tier_deltas(
        self, base: dict[str, dict], *, dirty_keys: np.ndarray | None = None
    ) -> tuple[dict[str, dict], dict[str, dict]]:
        """Per-tier diffs against prior :meth:`delta_bases`.

        Returns ``(deltas, next_bases)``: each tier's ``export_delta``
        yields its next base from the same pass, so a delta save never
        re-exports a tier.  ``dirty_keys`` (optional) is the union of
        keys this node's MEM tier wrote since the base — when provided,
        the cache diff selects changed rows by membership instead of
        comparing value slabs.
        """
        mem = self.mem_ps.export_delta(base["mem"], dirty_keys=dirty_keys)
        ssd = self.ssd_ps.export_delta(base["ssd"])
        hbm = self.hbm_ps.export_delta(base["hbm"])
        return (
            {"mem": mem[0], "ssd": ssd[0], "hbm": hbm[0]},
            {"mem": mem[1], "ssd": ssd[1], "hbm": hbm[1]},
        )

    def load_tier_states(self, tiers: dict[str, dict]) -> None:
        """Restore every tier from a :meth:`tier_states` snapshot."""
        self.mem_ps.load_state(tiers["mem"])
        self.ssd_ps.load_state(tiers["ssd"])
        self.hbm_ps.load_state(tiers["hbm"])

    def load_tier_deltas(self, tiers: dict[str, dict]) -> None:
        """Apply a :meth:`tier_deltas` diff on top of the loaded base."""
        self.mem_ps.load_delta(tiers["mem"])
        self.ssd_ps.load_delta(tiers["ssd"])
        self.hbm_ps.load_delta(tiers["hbm"])

    def cpu_partition_time(self, n_keys: int) -> float:
        """Simulated seconds to shard ``n_keys`` working keys across this
        node's GPUs (Alg. 1 line 5), charged to the node's ledger."""
        cpu = self.hardware.cpu
        # Half the cores shard keys while the other half run the pipeline.
        rate = cpu.keys_per_second_per_core * max(1, cpu.cores // 2)
        return self.ledger.add("cpu_partition", n_keys / rate)
