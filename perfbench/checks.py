"""Output correctness, checked after the timed window.

* Served inputs equal what the library's generator makes for the seed.
* The cluster's parameters are bit-identical to :class:`ReferenceTrainer`
  (the plain single-store trainer) after the same seed and rounds,
  warm-up included: every node's dense tower, and the embedding row of
  every key in the key space.
* On a snapshot workload, restoring the newest delta chain gives a
  cluster whose parameters are bit-identical to the live one.

Each check returns a list of problems (empty = correct).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.cluster import HPSCluster
from repro.core.trainer import ReferenceTrainer
from repro.data.generator import CTRDataGenerator
from repro.utils.keys import as_keys

from perfbench.workloads import PregeneratedBatches, Workload

__all__ = ["input_problems", "reference_problems", "restore_problems"]

_BATCH_FIELDS = ("keys", "offsets", "labels")


def input_problems(
    workload: Workload, seed: int, inputs: PregeneratedBatches, n_probe: int = 8
) -> list[str]:
    """Compare served batches with freshly generated ones, first to last."""
    fresh = CTRDataGenerator(
        workload.model_spec(), seed=seed, zipf_exponent=workload.zipf_exponent
    )
    n = len(inputs)
    probe = sorted({round(i * (n - 1) / (n_probe - 1)) for i in range(n_probe)})
    out = []
    for i in probe:
        served = inputs.batch(i, workload.batch_size)
        made = fresh.batch(i, workload.batch_size)
        for name in _BATCH_FIELDS:
            if not np.array_equal(getattr(served, name), getattr(made, name)):
                out.append(f"served batch {i} differs from generator.batch in {name}")
    return out


def probe_keys(workload: Workload) -> np.ndarray:
    """Every key the generator can emit (slot ranges tile ``[0, n_sparse)``)."""
    return as_keys(np.arange(workload.n_sparse))


def _parameter_problems(
    what: str, cluster: HPSCluster, dense: list[np.ndarray], emb: np.ndarray, keys
) -> list[str]:
    out = []
    for node in cluster.nodes:
        got = node.model.dense_state()
        if len(got) != len(dense) or not all(
            np.array_equal(a, b) for a, b in zip(got, dense)
        ):
            out.append(f"node {node.node_id} dense state differs from {what}")
    mine = cluster.lookup_embeddings(keys)
    if not np.array_equal(mine, emb):
        bad = int(np.any(mine != emb, axis=1).sum())
        diff = float(np.max(np.abs(mine.astype(np.float64) - emb)))
        out.append(
            f"{bad} of {keys.size} embedding rows differ from {what}"
            f" (max abs diff {diff:.3g})"
        )
    return out


def reference_problems(workload: Workload, seed: int, cluster: HPSCluster) -> list[str]:
    """Train the reference on the same seed and rounds; require equality."""
    ref = ReferenceTrainer(
        workload.model_spec(),
        workload.config(seed),
        data_seed=seed,
        functional_batch_size=workload.batch_size,
        zipf_exponent=workload.zipf_exponent,
    )
    ref.train(cluster.rounds_completed)
    keys = probe_keys(workload)
    return _parameter_problems(
        "the reference trainer",
        cluster,
        ref.model.dense_state(),
        ref.embedding_of(keys),
        keys,
    )


def restore_problems(
    workload: Workload, cluster: HPSCluster, snapshot_stage: Any
) -> list[str]:
    """Restore the newest snapshot's delta chain and compare parameters."""
    history = snapshot_stage.history
    if not history:
        return ["no snapshot was taken"]
    last = history[-1]
    if last.rounds_completed != cluster.rounds_completed:
        return [
            f"newest snapshot is at round {last.rounds_completed},"
            f" the cluster at {cluster.rounds_completed}"
        ]
    restored = HPSCluster.restore(last.directory)
    keys = probe_keys(workload)
    return _parameter_problems(
        "the live cluster",
        restored,
        cluster.nodes[0].model.dense_state(),
        cluster.lookup_embeddings(keys),
        keys,
    )
