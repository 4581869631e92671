"""Plan-driven MEM prefetch: stage registration, parity, pinning.

The prefetch stage resolves each node's full MEM working set (local
partition + peer-served partitions + owner-queue keys) in one cache
pass before prepare, pins it for the round, and every later MEM access
is a pure row gather.  Parameter values are cache-policy-independent,
so prefetch mode must train **bit-identical parameters** to every other
mode and to the single-store :class:`ReferenceTrainer`; simulated
seconds form their own parity group (lockstep-prefetch and
pipelined-prefetch must agree exactly).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.cluster import HPSCluster, RoundContext
from repro.core.trainer import ReferenceTrainer
from repro.plan import build_round_plan

N_ROUNDS = 16


def _build(spec, config, **kwargs):
    return HPSCluster(spec, config, functional_batch_size=192, **kwargs)


def _probe(cluster):
    return cluster.generator.batch(10_000, 1024).unique_keys()


def _assert_param_parity(a, b):
    probe = _probe(a)
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)


def _assert_stats_parity(stats_a, stats_b):
    assert len(stats_a) == len(stats_b)
    for sa, sb in zip(stats_a, stats_b):
        for f in dataclasses.fields(sa):
            va, vb = getattr(sa, f.name), getattr(sb, f.name)
            assert va == vb, f"BatchStats.{f.name}: {va} != {vb}"


@pytest.fixture
def pressured(small_config):
    # Small enough MEM tier that misses, evictions, and the SSD engage.
    return dataclasses.replace(small_config, mem_capacity_params=1_400)


@pytest.fixture
def pressured_prefetch(pressured):
    return dataclasses.replace(pressured, prefetch=True)


class TestStageRegistration:
    def test_prefetch_splices_into_the_pipeline(
        self, tiny_spec, pressured_prefetch
    ):
        cluster = _build(tiny_spec, pressured_prefetch)
        names = [n for n, _ in cluster.stage_functions()]
        assert names == ["read", "prefetch", "prepare", "load", "train"]

    def test_base_pipeline_unchanged_without_prefetch(
        self, tiny_spec, pressured
    ):
        cluster = _build(tiny_spec, pressured)
        names = [n for n, _ in cluster.stage_functions()]
        assert names == ["read", "prepare", "load", "train"]

    def test_register_validates(self, tiny_spec, pressured):
        cluster = _build(tiny_spec, pressured)
        with pytest.raises(ValueError, match="already registered"):
            cluster.register_stage("read", lambda ctx: 0.0, after="train")
        with pytest.raises(ValueError, match="unknown stage"):
            cluster.register_stage("extra", lambda ctx: 0.0, after="nope")
        # A registered stage really is driven by both execution modes.
        fired = []
        cluster.register_stage(
            "probe", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="load",
        )
        cluster.train(1)
        cluster.train_pipelined(2)
        assert fired == [0, 1, 2]

    def test_prefetch_requires_planned_execution(self, tiny_spec, pressured_prefetch):
        with pytest.raises(ValueError, match="use_plan"):
            _build(tiny_spec, pressured_prefetch, use_plan=False)


class TestPrefetchPlan:
    def test_segments_gather_their_constituents(self, tiny_spec, pressured):
        cluster = _build(tiny_spec, pressured)
        batches = [
            cluster.generator.batch(i, 192) for i in range(cluster.n_nodes)
        ]
        plan = build_round_plan(
            batches,
            node_partitioner=cluster.nodes[0].mem_ps.partitioner,
            gpu_partitioner=cluster.nodes[0].hbm_ps.params.partitioner,
            n_gpus=cluster.config.gpus_per_node,
            mb_rounds=cluster.config.minibatches_per_gpu,
            prefetch=True,
        )
        assert plan.prefetch is not None
        for i, pf in enumerate(plan.prefetch):
            node_plan = plan.nodes[i]
            # Sorted unique union.
            assert np.array_equal(pf.keys, np.unique(pf.keys))
            # Each segment gathers exactly its constituent key set.
            assert np.array_equal(
                pf.keys[pf.local_pos], node_plan.keys[node_plan.local_idx]
            )
            covered = [pf.local_pos]
            for p, pos in enumerate(pf.serve_pos):
                if p == i:
                    assert pos.size == 0
                    continue
                peer = plan.nodes[p]
                assert np.array_equal(
                    pf.keys[pos], peer.keys[peer.node_parts[i]]
                )
                covered.append(pos)
            for m, pos in enumerate(pf.update_pos):
                sp = plan.sync[m]
                assert np.array_equal(
                    pf.keys[pos], sp.keys[sp.nodes[i].missing_own_idx]
                )
                covered.append(pos)
            # The union holds nothing else.
            assert np.array_equal(
                np.unique(np.concatenate(covered)),
                np.arange(pf.keys.size, dtype=np.int64),
            )

    def test_unplanned_build_carries_no_prefetch(self, tiny_spec, pressured):
        cluster = _build(tiny_spec, pressured)
        batches = [
            cluster.generator.batch(i, 192) for i in range(cluster.n_nodes)
        ]
        plan = build_round_plan(
            batches,
            node_partitioner=cluster.nodes[0].mem_ps.partitioner,
            gpu_partitioner=cluster.nodes[0].hbm_ps.params.partitioner,
            n_gpus=cluster.config.gpus_per_node,
            mb_rounds=cluster.config.minibatches_per_gpu,
        )
        assert plan.prefetch is None


class TestPrefetchParity:
    def test_parameters_bit_identical_to_unprefetched(
        self, tiny_spec, pressured, pressured_prefetch
    ):
        base = _build(tiny_spec, pressured)
        pf = _build(tiny_spec, pressured_prefetch)
        stats_base = base.train(N_ROUNDS)
        stats_pf = pf.train(N_ROUNDS)
        # The workload must exercise the SSD tier for parity to bite.
        assert any(s.ssd_io_seconds > 0 for s in stats_base)
        _assert_param_parity(base, pf)
        # Losses ride on parameters, so they agree too; simulated seconds
        # legitimately differ (prefetch is its own sim-clock mode).
        assert [s.mean_loss for s in stats_base] == [
            s.mean_loss for s in stats_pf
        ]

    def test_pipelined_prefetch_matches_lockstep_exactly(
        self, tiny_spec, pressured_prefetch
    ):
        lock = _build(tiny_spec, pressured_prefetch)
        piped = _build(tiny_spec, pressured_prefetch)
        stats_lock = lock.train(N_ROUNDS)
        run = piped.train_pipelined(N_ROUNDS)
        _assert_stats_parity(stats_lock, run.stats)
        _assert_param_parity(lock, piped)

    def test_parameters_bit_identical_to_reference_trainer(
        self, tiny_spec, pressured_prefetch
    ):
        """The pressured prefetch cluster (misses, evictions, SSD spill)
        trains exactly what the plain single-store trainer trains."""
        pf = _build(tiny_spec, pressured_prefetch)
        ref = ReferenceTrainer(
            tiny_spec, pressured_prefetch, functional_batch_size=192
        )
        stats = pf.train(N_ROUNDS)
        ref.train(N_ROUNDS)
        assert any(s.ssd_io_seconds > 0 for s in stats)
        probe = _probe(pf)
        assert np.array_equal(
            pf.lookup_embeddings(probe), ref.embedding_of(probe)
        )
        for a, b in zip(
            pf.nodes[0].model.dense_state(), ref.model.dense_state()
        ):
            assert np.array_equal(a, b)

    def test_prefetch_admission_stays_collision_free(
        self, tiny_spec, pressured_prefetch
    ):
        """Under eviction pressure the prefetch-shaped batches (hot
        residents mixed with miss storms) must run collision-free: the
        LFU mixed-run planner handles the resident bumps in bulk."""
        pf = _build(tiny_spec, pressured_prefetch)
        stats = pf.train(N_ROUNDS)
        assert all(s.cache_collision_splits == 0 for s in stats)


class TestPrefetchMechanics:
    def test_round_boundary_releases_every_pin(
        self, tiny_spec, pressured_prefetch
    ):
        pf = _build(tiny_spec, pressured_prefetch)
        pf.train(3)
        for node in pf.nodes:
            assert node.mem_ps.cache.lru.pinned_count() == 0
            assert node.mem_ps._prefetch_plan is None

    def test_abort_after_prefetch_releases_pins_and_retries_exactly(
        self, tiny_spec, pressured_prefetch
    ):
        """A round aborted after its prefetch stage (the fault-recovery
        path for a failure in prepare) releases every prefetch pin, and
        the retried round trains bit-identically to a fault-free twin."""
        pf = _build(tiny_spec, pressured_prefetch)
        pf.train(2)
        ctx = RoundContext(round_index=2)
        pf.stage_read(ctx)
        pf.stage_prefetch(ctx)
        assert all(n.mem_ps.cache.pinned_count() > 0 for n in pf.nodes)
        pf.abort_round()
        for node in pf.nodes:
            assert node.mem_ps.cache.pinned_count() == 0
            assert node.mem_ps._prefetch_plan is None
        pf.train(2)
        twin = _build(tiny_spec, pressured_prefetch)
        twin.train(4)
        _assert_param_parity(pf, twin)

    def test_prefetch_seconds_reported_and_folded(
        self, tiny_spec, pressured_prefetch
    ):
        pf = _build(tiny_spec, pressured_prefetch)
        stats = pf.train(N_ROUNDS)
        # Under pressure the prefetch stage pays real SSD load time...
        assert any(s.prefetch_seconds > 0 for s in stats)
        for s in stats:
            # ...it is part of the MEM/SSD stage total...
            assert s.pull_push_seconds >= s.prefetch_seconds
            # ...and the 4-way stage decomposition still sums to the
            # serial makespan (prefetch folds into the prepare element).
            assert s.pipeline_stage_seconds[1] >= s.prefetch_seconds

    def test_checkpoint_restore_replays_bit_identically(
        self, tiny_spec, pressured_prefetch, tmp_path
    ):
        pf = _build(tiny_spec, pressured_prefetch)
        pf.train(4)
        pf.save_checkpoint(str(tmp_path))
        restored = HPSCluster.restore(str(tmp_path))
        assert restored.config.prefetch is True
        straight = _build(tiny_spec, pressured_prefetch)
        straight.train(6)
        restored.train(2)
        _assert_param_parity(straight, restored)


class TestExtentCachePlumbing:
    def test_config_reaches_the_file_store(self, tiny_spec, small_config):
        cfg = dataclasses.replace(small_config, ssd_extent_cache_files=3)
        cluster = _build(tiny_spec, cfg)
        for node in cluster.nodes:
            assert node.ssd_ps.store.extent_cache.max_files == 3
            assert node.ssd_ps.store.extent_cache.enabled

    def test_enabled_by_default(self, tiny_spec, small_config):
        # Default on since hits are priced at the warm host-copy rate —
        # the cache no longer forks sim-seconds parity groups.
        cluster = _build(tiny_spec, small_config)
        for node in cluster.nodes:
            assert node.ssd_ps.store.extent_cache.enabled
        off = _build(
            tiny_spec,
            dataclasses.replace(small_config, ssd_extent_cache_files=0),
        )
        for node in off.nodes:
            assert not node.ssd_ps.store.extent_cache.enabled

    def test_validation(self):
        from repro.config import ClusterConfig

        with pytest.raises(ValueError, match="ssd_extent_cache_files"):
            ClusterConfig(ssd_extent_cache_files=-1)
