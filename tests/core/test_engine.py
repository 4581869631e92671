"""Tests for the discrete-event pipelined executor (core/engine.py)."""

import weakref

import numpy as np
import pytest

from repro.core.cluster import HPSCluster
from repro.core.engine import PipelinedEngine, StageDef
from repro.core.pipeline import PipelineSimulator


def recording_stages(durations, calls=None):
    """StageDefs whose closures replay ``durations[b, s]`` and log calls."""
    durations = np.asarray(durations, dtype=np.float64)
    calls = calls if calls is not None else []

    def make(s):
        def fn(b):
            calls.append((b, s))
            return float(durations[b, s])

        return fn

    return [
        StageDef(f"s{s}", make(s)) for s in range(durations.shape[1])
    ], calls


class TestValidation:
    def test_no_stages(self):
        with pytest.raises(ValueError):
            PipelinedEngine([])

    def test_queue_capacity_count(self):
        stages, _ = recording_stages(np.ones((1, 3)))
        with pytest.raises(ValueError):
            PipelinedEngine(stages, queue_capacity=(1,))

    def test_queue_capacity_positive(self):
        stages, _ = recording_stages(np.ones((1, 2)))
        with pytest.raises(ValueError):
            PipelinedEngine(stages, queue_capacity=0)

    def test_negative_duration_rejected(self):
        engine = PipelinedEngine([StageDef("bad", lambda b: -1.0)])
        with pytest.raises(ValueError, match="invalid duration"):
            engine.run(1)

    def test_nan_duration_rejected(self):
        engine = PipelinedEngine([StageDef("bad", lambda b: float("nan"))])
        with pytest.raises(ValueError, match="invalid duration"):
            engine.run(1)

    def test_negative_batches_rejected(self):
        stages, _ = recording_stages(np.ones((1, 2)))
        with pytest.raises(ValueError):
            PipelinedEngine(stages).run(-1)


class TestScheduleParity:
    """The engine and the analytic simulator share one recurrence, so a run
    over closures must produce the exact schedule the simulator computes
    from the recorded durations."""

    @pytest.mark.parametrize("queue_capacity", [1, 2, 4])
    def test_matches_simulator_exactly(self, queue_capacity):
        rng = np.random.default_rng(17)
        durations = rng.uniform(0.1, 5.0, size=(12, 4))
        stages, _ = recording_stages(durations)
        run = PipelinedEngine(stages, queue_capacity=queue_capacity).run(12)
        sim = PipelineSimulator(
            n_stages=4,
            queue_capacity=queue_capacity,
            stage_names=tuple(s.name for s in stages),
        )
        expected = sim.schedule(run.stage_times)
        assert np.array_equal(run.schedule.start, expected.start)
        assert np.array_equal(run.schedule.finish, expected.finish)
        assert np.array_equal(run.stage_times, durations)

    def test_execution_order_is_batch_major(self):
        """Closures fire in canonical dependency order — the parity
        guarantee for stateful stage work."""
        stages, calls = recording_stages(np.ones((4, 3)))
        run = PipelinedEngine(stages).run(4)
        expected = [(b, s) for b in range(4) for s in range(3)]
        assert calls == expected
        assert list(run.execution_order) == expected


class TestOverlap:
    def test_makespan_beats_serial(self):
        stages, _ = recording_stages(np.tile([2.0, 2.0, 2.0, 2.0], (8, 1)))
        run = PipelinedEngine(stages).run(8)
        assert run.makespan < run.serial_makespan
        assert run.speedup > 1.0

    def test_makespan_bounded_below_by_bottleneck(self):
        durations = np.tile([1.0, 5.0, 2.0, 3.0], (10, 1))
        stages, _ = recording_stages(durations)
        run = PipelinedEngine(stages).run(10)
        assert run.makespan >= durations.sum(axis=0).max()

    def test_single_batch_is_serial(self):
        stages, _ = recording_stages(np.array([[1.0, 2.0, 3.0, 4.0]]))
        run = PipelinedEngine(stages).run(1)
        assert run.makespan == pytest.approx(10.0)
        assert run.speedup == pytest.approx(1.0)

    def test_empty_run(self):
        stages, calls = recording_stages(np.ones((1, 4)))
        run = PipelinedEngine(stages).run(0)
        assert run.makespan == 0.0
        assert calls == []

    def test_events_sorted_by_start(self):
        rng = np.random.default_rng(3)
        stages, _ = recording_stages(rng.uniform(0.1, 2.0, size=(6, 4)))
        run = PipelinedEngine(stages).run(6)
        events = run.events()
        assert len(events) == 6 * 4
        starts = [e.start for e in events]
        assert starts == sorted(starts)
        assert all(e.duration >= 0 for e in events)


class TestBackpressure:
    def test_queue_capacity_one_stalls_producer(self):
        """A slow downstream stage stalls the producer once its queue of
        one is full: stage 0 of batch 2 waits for stage 1 to start batch 1."""
        stages, _ = recording_stages(np.tile([1.0, 10.0], (4, 1)))
        run = PipelinedEngine(stages, queue_capacity=1).run(4)
        assert run.schedule.start[2, 0] >= run.schedule.start[1, 1]
        assert run.queue_stall_seconds(0) > 0.0

    def test_deeper_queues_reduce_stalls(self):
        durations = np.tile([1.0, 3.0, 1.0, 1.0], (12, 1))
        shallow = PipelinedEngine(
            recording_stages(durations)[0], queue_capacity=1
        ).run(12)
        deep = PipelinedEngine(
            recording_stages(durations)[0], queue_capacity=4
        ).run(12)
        assert deep.makespan <= shallow.makespan
        assert deep.queue_stall_seconds(0) <= shallow.queue_stall_seconds(0)

    def test_no_stalls_without_bottleneck(self):
        stages, _ = recording_stages(np.tile([2.0, 1.0, 1.0, 1.0], (6, 1)))
        run = PipelinedEngine(stages).run(6)
        for s in range(4):
            assert run.queue_stall_seconds(s) == pytest.approx(0.0)

    def test_shadow_idle_is_span_minus_busy(self):
        """A fast stage behind a slow one idles; the bottleneck never does.

        With a 2s stage 0 feeding a 1s stage 1, stage 1 waits 1s between
        every pair of its 5 consecutive events — capacity stage 1 could
        absorb without extending the makespan.
        """
        stages, _ = recording_stages(np.tile([2.0, 1.0, 1.0, 1.0], (6, 1)))
        run = PipelinedEngine(stages).run(6)
        assert run.shadow_idle_seconds(0) == pytest.approx(0.0)
        assert run.shadow_idle_seconds(1) == pytest.approx(5.0)

    def test_shadow_idle_empty_run(self):
        stages, _ = recording_stages(np.ones((1, 4)))
        run = PipelinedEngine(stages).run(0)
        assert run.shadow_idle_seconds(0) == 0.0


class TestClusterPipelined:
    """Lockstep-vs-pipelined parity on the real training stack."""

    @pytest.fixture
    def pair(self, tiny_spec, small_config):
        def build():
            return HPSCluster(
                tiny_spec, small_config, functional_batch_size=256
            )

        return build(), build()

    def test_parameters_bit_identical(self, pair):
        lockstep, pipelined = pair
        lockstep.train(4)
        pipelined.train_pipelined(4)
        probe = lockstep.generator.batch(77, 512).unique_keys()
        assert np.array_equal(
            lockstep.lookup_embeddings(probe),
            pipelined.lookup_embeddings(probe),
        )
        for node_a, node_b in zip(lockstep.nodes, pipelined.nodes):
            for a, b in zip(
                node_a.model.dense_state(), node_b.model.dense_state()
            ):
                assert np.array_equal(a, b)

    def test_stats_match_lockstep(self, pair):
        lockstep, pipelined = pair
        lock_stats = lockstep.train(3)
        run = pipelined.train_pipelined(3)
        assert [s.mean_loss for s in run.stats] == [
            s.mean_loss for s in lock_stats
        ]
        assert [s.cache_hit_rate for s in run.stats] == [
            s.cache_hit_rate for s in lock_stats
        ]
        derived = np.array([s.pipeline_stage_seconds for s in lock_stats])
        assert np.allclose(derived, run.stage_times, rtol=1e-12, atol=0)

    def test_makespan_strictly_below_serial(self, pair):
        _, pipelined = pair
        run = pipelined.train_pipelined(4)
        assert np.all(run.stage_times > 0)  # non-degenerate stages
        assert run.makespan < run.serial_makespan
        assert run.speedup > 1.0

    def test_rounds_and_history_advance(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        cluster.train_round()
        run = cluster.train_pipelined(2)
        assert cluster.rounds_completed == 3
        assert len(cluster.history) == 3
        assert [s.round_index for s in run.stats] == [1, 2]
        assert cluster.history[1:] == run.stats

    def test_finished_rounds_release_their_context(
        self, tiny_spec, small_config
    ):
        """Only rounds in flight keep their RoundContext (batches, plan,
        working sets); a round past its last stage keeps just its stats,
        so a long pipelined call does not grow with its round count."""
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        contexts: list[weakref.ref] = []
        live: list[int] = []

        def probe(ctx):
            contexts.append(weakref.ref(ctx))
            live.append(sum(ref() is not None for ref in contexts))
            return 0.0

        cluster.register_stage("probe", probe, after="train")
        run = cluster.train_pipelined(12)
        assert [s.round_index for s in run.stats] == list(range(12))
        assert len(live) == 12
        assert max(live) <= 2

    def test_queue_capacity_changes_schedule_not_params(
        self, tiny_spec, small_config
    ):
        def build():
            return HPSCluster(
                tiny_spec, small_config, functional_batch_size=256
            )

        shallow, deep = build(), build()
        run_shallow = shallow.train_pipelined(4, queue_capacity=1)
        run_deep = deep.train_pipelined(4, queue_capacity=3)
        assert run_deep.makespan <= run_shallow.makespan
        probe = shallow.generator.batch(5, 256).unique_keys()
        assert np.array_equal(
            shallow.lookup_embeddings(probe), deep.lookup_embeddings(probe)
        )


class TestStageRegistry:
    """Hygiene of the cluster's pluggable stage registry."""

    @pytest.fixture
    def cluster(self, tiny_spec, small_config):
        return HPSCluster(tiny_spec, small_config, functional_batch_size=256)

    def test_unregister_removes_a_registered_stage(self, cluster):
        fired = []
        cluster.register_stage(
            "probe", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="train",
        )
        cluster.train(1)
        cluster.unregister_stage("probe")
        cluster.train(1)
        assert fired == [0]  # not fired after removal
        assert [n for n, _ in cluster.stage_functions()] == [
            "read", "prepare", "load", "train",
        ]
        # The name is free for re-registration after removal.
        cluster.register_stage("probe", lambda ctx: 0.0, after="train")

    def test_unregister_refuses_base_stages(self, cluster):
        for name in ("read", "prepare", "load", "train"):
            with pytest.raises(ValueError, match="base"):
                cluster.unregister_stage(name)

    def test_unregister_unknown_stage_is_an_error(self, cluster):
        with pytest.raises(ValueError, match="not registered"):
            cluster.unregister_stage("nope")

    def test_rewrapping_wrapped_stages_is_an_error(self, cluster):
        cluster.wrap_stages(lambda name, fn: fn)
        with pytest.raises(RuntimeError, match="already wrapped"):
            cluster.wrap_stages(lambda name, fn: fn)

    def test_unwrap_restores_the_original_registry(self, cluster):
        before = list(cluster.stage_functions())
        seen = []

        def wrap(name, fn):
            def wrapped(ctx):
                seen.append(name)
                return fn(ctx)

            return wrapped

        cluster.wrap_stages(wrap)
        assert list(cluster.stage_functions()) != before
        cluster.train(1)
        assert seen == ["read", "prepare", "load", "train"]
        cluster.unwrap_stages()
        assert list(cluster.stage_functions()) == before
        cluster.train(1)
        assert seen == ["read", "prepare", "load", "train"]  # no new entries
        # A second unwrap has nothing to undo.
        with pytest.raises(RuntimeError, match="not wrapped"):
            cluster.unwrap_stages()

    def test_unwrap_keeps_stages_registered_while_wrapped(self, cluster):
        cluster.wrap_stages(lambda name, fn: fn)
        fired = []
        cluster.register_stage(
            "late", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="train",
        )
        cluster.unwrap_stages()
        assert [n for n, _ in cluster.stage_functions()] == [
            "read", "prepare", "load", "train", "late",
        ]
        cluster.train(1)
        assert fired == [0]  # survived the unwrap, still driven

    def test_wrapped_stages_train_bit_identically(
        self, tiny_spec, small_config
    ):
        plain = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        wrapped = HPSCluster(
            tiny_spec, small_config, functional_batch_size=256
        )
        wrapped.wrap_stages(lambda name, fn: lambda ctx: fn(ctx))
        plain.train(3)
        wrapped.train(3)
        probe = plain.generator.batch(5, 256).unique_keys()
        assert np.array_equal(
            plain.lookup_embeddings(probe),
            wrapped.lookup_embeddings(probe),
        )
