"""The benchmark's workloads and their set-up.

Every workload runs the library's default :class:`ClusterConfig`
behaviour; a workload sets only sizing fields (nodes, GPUs, capacities,
LRU fraction, batch shape) plus the data's key space and skew.  A change
that flips a library default is therefore measured by unchanged
benchmark code.

Set-up builds the cluster from the seed, generates every batch the run
will read with the library's :class:`CTRDataGenerator`, serves them to
each node through its :class:`HDFSStream` ``generator`` attribute, and
warms the caches by training the warm-up rounds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.config import ClusterConfig, ModelSpec
from repro.core.cluster import HPSCluster
from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator

__all__ = [
    "Workload",
    "WORKLOADS",
    "PregeneratedBatches",
    "Setup",
    "set_up",
]


@dataclass(frozen=True)
class Workload:
    """One input shape of the benchmark.

    ``batch_size`` is examples per node per round.  ``rounds_per_second``
    converts the ``--seconds`` argument into the window's round count:
    the window's work is then a pure function of the arguments, which
    keeps the simulated clock, the loss and the reference check
    deterministic per seed.  The rates are the workloads' untraced round
    rates on a 2-core x86-64 container, so a window lasts about
    ``--seconds`` there.
    """

    name: str
    why: str
    n_sparse: int
    zipf_exponent: float
    mem_capacity_params: int
    batch_size: int
    minibatches_per_gpu: int
    warmup_rounds: int
    rounds_per_second: float
    cache_lru_fraction: float | None = None
    #: delta snapshot after every round (``enable_snapshot_stage``)
    snapshot: bool = False
    n_nodes: int = 2
    gpus_per_node: int = 2
    #: HBM and SSD-file sizing, as in the library's functional experiments
    hbm_capacity_params: int = 100_000
    ssd_file_capacity: int = 256

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            name=f"bench-{self.name}",
            nonzeros_per_example=8,
            n_sparse=self.n_sparse,
            n_dense=1_000,
            size_gb=0.01,
            mpi_nodes=10,
            embedding_dim=4,
            hidden_layers=(16, 8),
            n_slots=4,
        )

    def config(self, seed: int) -> ClusterConfig:
        sizing: dict[str, Any] = {
            "n_nodes": self.n_nodes,
            "gpus_per_node": self.gpus_per_node,
            "batch_size": self.batch_size,
            "minibatches_per_gpu": self.minibatches_per_gpu,
            "mem_capacity_params": self.mem_capacity_params,
            "hbm_capacity_params": self.hbm_capacity_params,
            "ssd_file_capacity": self.ssd_file_capacity,
        }
        if self.cache_lru_fraction is not None:
            sizing["cache_lru_fraction"] = self.cache_lru_fraction
        return ClusterConfig(seed=seed, **sizing)

    def window_rounds(self, seconds: float) -> int:
        # round_p90_ms needs at least ten samples beyond the 90th percentile
        return max(100, math.ceil(seconds * self.rounds_per_second))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot",
            why=(
                "everything fits in MEM: nn, plan, hbm and MEM cache hits do "
                "the work, SSD none; a MEM/SSD change must not move it"
            ),
            n_sparse=25_000,
            zipf_exponent=1.15,
            mem_capacity_params=200_000,
            batch_size=2_048,
            minibatches_per_gpu=2,
            warmup_rounds=20,
            rounds_per_second=45.0,
        ),
        Workload(
            name="spill",
            why=(
                "MEM far below the working set, warmed past the first "
                "compaction: eviction to SSD, miss reads, extent cache and "
                "compaction run in the window"
            ),
            n_sparse=25_000,
            zipf_exponent=1.15,
            mem_capacity_params=9_000,
            cache_lru_fraction=0.32,
            batch_size=768,
            minibatches_per_gpu=1,
            warmup_rounds=150,
            rounds_per_second=50.0,
        ),
        Workload(
            name="snapshot",
            why=(
                "a fsync'd delta checkpoint every round beside training: ckpt "
                "dominates and the simulated bottleneck moves from read to "
                "snapshot"
            ),
            n_sparse=200_000,
            zipf_exponent=1.02,
            mem_capacity_params=4_000,
            batch_size=256,
            minibatches_per_gpu=2,
            warmup_rounds=20,
            rounds_per_second=30.0,
            snapshot=True,
        ),
    )
}


class PregeneratedBatches:
    """Serves batches generated ahead of time, in place of a generator.

    :class:`~repro.data.hdfs.HDFSStream` only calls ``generator.batch(i,
    n)``; this object answers that call from batches made during set-up,
    so data generation is paid outside the timed window.  Asking for a
    batch that was not generated is an error, not a silent fallback.
    """

    def __init__(
        self, generator: CTRDataGenerator, n_batches: int, n_examples: int
    ) -> None:
        self.n_examples = n_examples
        self._batches = [generator.batch(i, n_examples) for i in range(n_batches)]

    def __len__(self) -> int:
        return len(self._batches)

    def batch(self, batch_index: int, n_examples: int) -> Batch:
        if n_examples != self.n_examples:
            raise ValueError(
                f"batches were generated with {self.n_examples} examples, "
                f"not {n_examples}"
            )
        if not 0 <= batch_index < len(self._batches):
            raise LookupError(f"batch {batch_index} was not pre-generated")
        return self._batches[batch_index]


@dataclass
class Setup:
    cluster: HPSCluster
    inputs: PregeneratedBatches
    #: wall seconds the set-up took
    seconds: float
    #: the snapshot stage function (``history`` holds its CheckpointStats)
    snapshot_stage: Callable | None = None


def build_cluster(workload: Workload, seed: int) -> HPSCluster:
    return HPSCluster(
        workload.model_spec(),
        workload.config(seed),
        data_seed=seed,
        functional_batch_size=workload.batch_size,
        zipf_exponent=workload.zipf_exponent,
    )


def set_up(
    workload: Workload, seed: int, window_rounds: int, work_dir: str
) -> Setup:
    """Build, pre-generate and warm one cluster; ``seconds`` is the cost."""
    t0 = perf_counter()
    cluster = build_cluster(workload, seed)
    rounds = workload.warmup_rounds + window_rounds
    inputs = PregeneratedBatches(
        cluster.generator, rounds * workload.n_nodes, workload.batch_size
    )
    for node in cluster.nodes:
        node.hdfs.generator = inputs
    stage = None
    if workload.snapshot:
        stage = cluster.enable_snapshot_stage(
            os.path.join(work_dir, "snapshots"), every=1
        )
    cluster.train_pipelined(workload.warmup_rounds)
    return Setup(cluster, inputs, perf_counter() - t0, stage)
