"""Delta-export protocol: chained snapshots, partial restore, crash safety.

A delta snapshot ships only what changed since its base — new SSD
payload files, the mapping/stale-counter diff, and the MEM dirty-slot
export — chained to the base manifest by name and content hash.  The
acceptance bar is the same as for full snapshots: ``train(k) + save +
crash + restore + train(m)`` must be **bit-identical** to
``train(k + m)``, whether the restore replays a whole chain into a
fresh process or splices a single replacement node into a surviving
cluster.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.ckpt import checkpoint as ckpt
from repro.ckpt import format as fmt
from repro.ckpt.format import CheckpointError
from repro.core.cluster import HPSCluster


@pytest.fixture
def pressured(small_config):
    # MEM tier small enough that evictions spill real state to the SSD
    # store — every tier's delta hook carries payload, not just MEM's.
    return dataclasses.replace(small_config, mem_capacity_params=1_400)


def build(tiny_spec, config, **kwargs):
    # Batch size large enough that the pressured MEM tier spills to the
    # SSD store within a handful of rounds (content from round ~6 on).
    return HPSCluster(tiny_spec, config, functional_batch_size=512, **kwargs)


def assert_cluster_parity(a: HPSCluster, b: HPSCluster) -> None:
    """Bit-exact equality of everything training produced."""
    probe = a.generator.batch(10_000, 1024).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)
    eval_batch = a.generator.batch(20_000, 2048)
    assert a.evaluate_auc(eval_batch) == b.evaluate_auc(eval_batch)


def assert_deep_state_parity(a: HPSCluster, b: HPSCluster) -> None:
    """Replacement metadata and SSD layout match, not just values."""
    for na, nb in zip(a.nodes, b.nodes):
        for tier in type(na).TIERS:
            sa, sb = na.tier_states()[tier], nb.tier_states()[tier]
            assert set(sa) == set(sb), tier
            for key in sa:
                assert np.array_equal(sa[key], sb[key]), f"{tier} {key}"


# ----------------------------------------------------------------------
# Tier-level export_delta / load_delta round-trips
# ----------------------------------------------------------------------
class TestTierDeltaRoundTrip:
    """full + export_delta(delta_base()) replayed onto full == current
    state, for every tier that implements the protocol."""

    @pytest.mark.parametrize("tier", ["mem_ps", "ssd_ps", "hbm_ps"])
    def test_round_trip(self, tiny_spec, pressured, tmp_path, tier):
        trained = build(tiny_spec, pressured)
        trained.train(7)
        fulls = [getattr(n, tier).export_state() for n in trained.nodes]
        bases = [getattr(n, tier).delta_base() for n in trained.nodes]
        trained.train(3)

        fresh = build(tiny_spec, pressured)
        for node, fresh_node, full, base in zip(
            trained.nodes, fresh.nodes, fulls, bases
        ):
            delta, _ = getattr(node, tier).export_delta(base)
            getattr(fresh_node, tier).load_state(
                {k: v.copy() for k, v in full.items()}
            )
            getattr(fresh_node, tier).load_delta(delta)
            want = getattr(node, tier).export_state()
            got = getattr(fresh_node, tier).export_state()
            assert set(want) == set(got)
            for key in want:
                assert np.array_equal(want[key], got[key]), key

    def test_ssd_delta_ships_only_new_files(
        self, tiny_spec, pressured, tmp_path
    ):
        trained = build(tiny_spec, pressured)
        trained.train(10)
        base = trained.nodes[0].ssd_ps.delta_base()
        trained.train(1)
        delta, _ = trained.nodes[0].ssd_ps.export_delta(base)
        full = trained.nodes[0].ssd_ps.export_state()
        delta_bytes = sum(v.nbytes for v in delta.values())
        full_bytes = sum(v.nbytes for v in full.values())
        assert 0 < delta_bytes < full_bytes

    def test_empty_delta_when_nothing_changed(self, tiny_spec, pressured):
        trained = build(tiny_spec, pressured)
        trained.train(10)
        for node in trained.nodes:
            for tier in type(node).TIERS:
                ps = {"mem": node.mem_ps, "ssd": node.ssd_ps, "hbm": node.hbm_ps}[tier]
                full = ps.export_state()
                delta, _ = ps.export_delta(ps.delta_base())
                # Against itself a tier ships (at most) fixed-size
                # bookkeeping, never value payload of the full state.
                full_bytes = sum(v.nbytes for v in full.values())
                delta_bytes = sum(v.nbytes for v in delta.values())
                if full_bytes:
                    assert delta_bytes < full_bytes, tier
                else:
                    # An empty tier (HBM is unloaded between rounds)
                    # must not invent payload out of nothing.
                    assert delta_bytes == 0, tier
                ps.load_delta(delta)  # and replaying it is the identity
                after = ps.export_state()
                for key in full:
                    assert np.array_equal(full[key], after[key]), (tier, key)


def _files_of(state: dict) -> dict[int, tuple]:
    """``{file id: (keys, values, stale)}`` of a full SSD export."""
    off = state["file_offsets"]
    return {
        int(fid): (
            state["file_keys"][off[i] : off[i + 1]],
            state["file_values"][off[i] : off[i + 1]],
            int(state["file_stale"][i]),
        )
        for i, fid in enumerate(state["file_ids"])
    }


def expected_ssd_delta(s0: dict, s1: dict) -> dict:
    """The SSD delta between two full exports, by plain set logic."""
    files0, files1 = _files_of(s0), _files_of(s1)
    new = sorted(f for f in files1 if f >= int(s0["next_file_id"]))
    kept = sorted(set(files0) & set(files1))
    restaled = [f for f in kept if files1[f][2] != files0[f][2]]
    offsets = np.cumsum([0] + [files1[f][0].size for f in new], dtype=np.int64)
    keys = [files1[f][0] for f in new] or [np.zeros(0, np.uint64)]
    values = [files1[f][1] for f in new] or [s1["file_values"][:0]]
    mapping = dict(zip(s1["map_keys"].tolist(), s1["map_fids"].tolist()))
    touched = sorted({k for f in new for k in files1[f][0].tolist()})
    out = dict(s1)  # counters and extent-cache residency ship in full
    out.update(
        base_next_file_id=s0["next_file_id"],
        file_ids=np.asarray(new, dtype=np.int64),
        file_offsets=offsets,
        file_keys=np.concatenate(keys),
        file_values=np.concatenate(values),
        file_stale=np.asarray([files1[f][2] for f in new], dtype=np.int64),
        erased_ids=np.asarray(sorted(set(files0) - set(files1)), dtype=np.int64),
        stale_ids=np.asarray(restaled, dtype=np.int64),
        stale_counts=np.asarray([files1[f][2] for f in restaled], dtype=np.int64),
        map_keys=np.asarray(touched, dtype=np.uint64),
        map_fids=np.asarray([mapping[k] for k in touched], dtype=np.int64),
    )
    return out


def expected_mem_delta(s0: dict, s1: dict, dirty=None) -> dict:
    """The MEM delta between two full exports, by plain set logic: ship
    a row's value iff its key is new since ``s0`` or (value-diff mode)
    its value changed / (dirty mode) the key is dirty."""
    base = {}
    for tier in ("lru", "lfu"):
        for k, v in zip(s0[f"{tier}_keys"].tolist(), s0[f"{tier}_values"]):
            base[k] = v
    dirty_set = None if dirty is None else set(np.asarray(dirty).tolist())
    out = {"hits": s1["hits"], "misses": s1["misses"]}
    for tier, meta in (("lru", "lru_counts"), ("lfu", "lfu_freqs")):
        keys, values = s1[f"{tier}_keys"], s1[f"{tier}_values"]
        idx = [
            i
            for i, k in enumerate(keys.tolist())
            if k not in base
            or (
                k in dirty_set
                if dirty_set is not None
                else bool(np.any(values[i] != base[k]))
            )
        ]
        out[f"{tier}_keys"] = keys
        out[meta] = s1[meta]
        out[f"{tier}_val_idx"] = np.asarray(idx, dtype=np.int64)
        out[f"{tier}_values"] = values[idx]
    return out


def assert_same_arrays(want: dict, got: dict, what: str) -> None:
    assert set(want) == set(got), what
    for key in want:
        w, g = np.asarray(want[key]), np.asarray(got[key])
        assert w.dtype == g.dtype, (what, key, w.dtype, g.dtype)
        assert w.shape == g.shape, (what, key)
        assert np.array_equal(w, g), (what, key)


class TestLeanDiffIsTheSameDiff:
    """``export_delta(delta_base())`` equals the diff of two full
    exports computed with plain set logic, array for array, on a
    cluster whose window spills to SSD and compacts."""

    @pytest.fixture
    def compacting(self, tiny_spec, pressured):
        # Small files and an eager compactor: compaction starts around
        # round 11, inside the window below.
        config = dataclasses.replace(
            pressured,
            ssd_file_capacity=32,
            compaction_threshold=1.0,
            compaction_stale_fraction=0.2,
        )
        cluster = build(tiny_spec, config)
        cluster.train(8)
        return cluster

    def _window(self, cluster, rounds=6):
        nodes = cluster.nodes
        full0 = [n.tier_states() for n in nodes]
        lean0 = [n.delta_bases() for n in nodes]
        compactions0 = [n.ssd_ps.compactor.total_compactions for n in nodes]
        collected = [[] for _ in nodes]

        def collect(ctx) -> float:
            for i in range(cluster.n_nodes):
                collected[i].append(ctx.plan.dirty_keys_of(i))
            return 0.0

        cluster.register_stage("collect", collect, after="train")
        cluster.train(rounds)
        cluster.unregister_stage("collect")
        full1 = [n.tier_states() for n in nodes]
        # The window exercised every SSD diff branch.
        assert any(
            n.ssd_ps.compactor.total_compactions > c
            for n, c in zip(nodes, compactions0)
        ), "window did not compact"
        return full0, lean0, full1, [np.concatenate(p) for p in collected]

    def test_ssd_delta_matches_set_logic(self, compacting):
        full0, lean0, full1, _ = self._window(compacting)
        erased = 0
        for node, f0, b0, f1 in zip(compacting.nodes, full0, lean0, full1):
            want = expected_ssd_delta(f0["ssd"], f1["ssd"])
            got, next_base = node.ssd_ps.export_delta(b0["ssd"])
            assert_same_arrays(want, got, f"ssd node {node.node_id}")
            assert_same_arrays(
                node.ssd_ps.delta_base(), next_base, "ssd next base"
            )
            erased += got["erased_ids"].size
            assert got["stale_ids"].size
        assert erased, "no file erased between the exports"

    @pytest.mark.parametrize("mode", ["dirty_keys", "value_diff"])
    def test_mem_delta_matches_set_logic(self, compacting, mode):
        full0, lean0, full1, dirty = self._window(compacting)
        for node, f0, b0, f1, d in zip(
            compacting.nodes, full0, lean0, full1, dirty
        ):
            if mode == "dirty_keys":
                # Repeats and keys that are not resident are harmless.
                d = np.concatenate([d, d[:7], np.arange(5, dtype=np.uint64)])
                want = expected_mem_delta(f0["mem"], f1["mem"], dirty=d)
                got, next_base = node.mem_ps.export_delta(
                    b0["mem"], dirty_keys=d
                )
            else:
                want = expected_mem_delta(f0["mem"], f1["mem"])
                got, next_base = node.mem_ps.export_delta(b0["mem"])
            assert_same_arrays(want, got, f"mem node {node.node_id}")
            assert want["lru_val_idx"].size + want["lfu_val_idx"].size
            # The next base comes out of the same pass and equals a
            # fresh read of the current state.
            assert_same_arrays(
                node.mem_ps.delta_base(), next_base, "mem next base"
            )


class TestNoFullReexportOnDeltaPath:
    def test_saves_record_the_digest_they_wrote(
        self, tiny_spec, pressured, tmp_path, monkeypatch
    ):
        """A save takes its base link from the manifest bytes it just
        committed; only the delta's check of its *base* reads a
        manifest back from disk."""
        reads = []
        real = fmt.manifest_sha256

        def counting(directory):
            reads.append(os.path.basename(directory))
            return real(directory)

        monkeypatch.setattr(fmt, "manifest_sha256", counting)
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        assert reads == []
        cluster.train(1)
        cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")
        assert reads == ["s0"]
        assert cluster._ckpt_base["manifest_sha256"] == real(
            str(tmp_path / "s1")
        )

    def test_snapshot_window_never_calls_export_state(
        self, tiny_spec, pressured, tmp_path, monkeypatch
    ):
        """After the first (full) save, a snapshot-stage window diffs
        against the lean base only: a full MEM or SSD export anywhere
        on the delta path fails the run."""
        from repro.mem.mem_ps import MemPS
        from repro.ssd.ssd_ps import SSDPS

        cluster = build(tiny_spec, pressured)
        stage = cluster.enable_snapshot_stage(str(tmp_path / "snaps"))
        cluster.train(2)
        assert [s.kind for s in stage.history] == ["full", "delta"]

        def refuse(self):
            raise AssertionError("full export on the delta path")

        monkeypatch.setattr(SSDPS, "export_state", refuse)
        monkeypatch.setattr(MemPS, "export_state", refuse)
        cluster.train_pipelined(6)
        monkeypatch.undo()
        assert [s.kind for s in stage.history] == ["full"] + ["delta"] * 7
        assert sum(n.ssd_ps.store.n_files for n in cluster.nodes)

        base = cluster._ckpt_base
        for node_base in base["node_states"]:
            assert set(node_base["ssd"]) == {
                "next_file_id", "file_ids", "file_stale"
            }
            assert set(node_base["mem"]) == {"keys", "values"}
            assert node_base["hbm"] == {}
        # ...and the chain it wrote still restores bit-identically.
        twin = build(tiny_spec, pressured)
        twin.train(8)
        restored = HPSCluster.restore(base["directory"])
        assert_cluster_parity(twin, restored)
        assert_deep_state_parity(twin, restored)


# ----------------------------------------------------------------------
# Whole-cluster delta chains
# ----------------------------------------------------------------------
class TestDeltaChainRestore:
    def test_chain_restore_matches_uninterrupted_run(
        self, tiny_spec, pressured, tmp_path
    ):
        straight = build(tiny_spec, pressured)
        straight.train(7)

        chained = build(tiny_spec, pressured)
        chained.train(3)
        chained.save_checkpoint(str(tmp_path / "s0"), mode="full")
        chained.train(2)
        s1 = chained.save_checkpoint(str(tmp_path / "s1"), mode="delta")
        chained.train(2)
        s2 = chained.save_checkpoint(str(tmp_path / "s2"), mode="delta")
        assert s1.kind == s2.kind == "delta"

        restored = HPSCluster.restore(str(tmp_path / "s2"))
        assert restored.rounds_completed == 7
        assert restored.restore_stats.kind == "delta"
        assert_cluster_parity(straight, restored)
        assert_deep_state_parity(straight, restored)
        # ...and the restored cluster keeps training bit-identically.
        straight.train(3)
        restored.train(3)
        assert_cluster_parity(straight, restored)

    def test_auto_mode_is_full_then_delta(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        first = cluster.save_checkpoint(str(tmp_path / "c0"), mode="auto")
        assert first.kind == "full"
        cluster.train(2)
        second = cluster.save_checkpoint(str(tmp_path / "c1"), mode="auto")
        assert second.kind == "delta"
        chain = fmt.resolve_chain(str(tmp_path / "c1"))
        assert len(chain) == 2
        _, manifest = chain[-1]
        assert manifest["base"] == "c0"
        assert manifest["base_manifest_sha256"] == fmt.manifest_sha256(
            str(tmp_path / "c0")
        )

    def test_delta_requires_a_valid_sibling_base(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        with pytest.raises(CheckpointError, match="no.*base|base"):
            cluster.save_checkpoint(str(tmp_path / "d0"), mode="delta")
        cluster.save_checkpoint(str(tmp_path / "full"), mode="full")
        # Same round → nothing to chain; delta_base_valid refuses.
        assert not ckpt.delta_base_valid(cluster, str(tmp_path / "d1"))
        cluster.train(1)
        # A different parent directory is not a sibling of the base.
        other = tmp_path / "elsewhere"
        other.mkdir()
        assert not ckpt.delta_base_valid(cluster, str(other / "d1"))
        assert ckpt.delta_base_valid(cluster, str(tmp_path / "d1"))

    def test_dirty_keys_mode_matches_value_diff_mode(
        self, tiny_spec, pressured, tmp_path
    ):
        """Plan-supplied dirty keys and the value-diff fallback must
        produce byte-equivalent restored state (the dirty set may
        over-approximate, never under-approximate)."""
        planned = build(tiny_spec, pressured)
        diffed = build(tiny_spec, pressured)
        planned.train(3)
        diffed.train(3)
        planned.save_checkpoint(str(tmp_path / "a" / "base"), mode="full")
        diffed.save_checkpoint(str(tmp_path / "b" / "base"), mode="full")

        collected = [[] for _ in range(planned.n_nodes)]

        def collect(ctx) -> float:
            for i in range(planned.n_nodes):
                collected[i].append(ctx.plan.dirty_keys_of(i))
            return 0.0

        planned.register_stage("collect", collect, after="train")
        planned.train(3)
        diffed.train(3)
        dirty = [np.unique(np.concatenate(parts)) for parts in collected]
        sa = planned.save_checkpoint(
            str(tmp_path / "a" / "next"), mode="delta", dirty_keys=dirty
        )
        sb = diffed.save_checkpoint(str(tmp_path / "b" / "next"), mode="delta")
        assert sa.kind == sb.kind == "delta"

        ra = HPSCluster.restore(str(tmp_path / "a" / "next"))
        rb = HPSCluster.restore(str(tmp_path / "b" / "next"))
        assert_deep_state_parity(ra, rb)
        assert_cluster_parity(ra, rb)
        assert_cluster_parity(planned, ra)

    def test_snapshot_stage_chain_restores_from_pipelined_run(
        self, tiny_spec, pressured, tmp_path
    ):
        """The registered ``snapshot`` stage under pipelined execution:
        the newest chain member restores bit-identically to a run that
        never snapshotted at all."""
        straight = build(tiny_spec, pressured)
        straight.train_pipelined(6)

        snapped = build(tiny_spec, pressured)
        stage = snapped.enable_snapshot_stage(str(tmp_path), every=2)
        snapped.train_pipelined(6)
        kinds = [s.kind for s in stage.history]
        assert kinds == ["full", "delta", "delta"]
        assert_cluster_parity(straight, snapped)  # snapshotting is free

        newest = str(tmp_path / "round_000006")
        restored = HPSCluster.restore(newest)
        assert_cluster_parity(straight, restored)
        assert_deep_state_parity(straight, restored)
        straight.train(2)
        restored.train(2)
        assert_cluster_parity(straight, restored)

    def test_snapshot_stage_lockstep_matches_pipelined(
        self, tiny_spec, pressured, tmp_path
    ):
        lock = build(tiny_spec, pressured)
        lock_stage = lock.enable_snapshot_stage(str(tmp_path / "lock"), every=2)
        lock.train(6)
        piped = build(tiny_spec, pressured)
        piped_stage = piped.enable_snapshot_stage(
            str(tmp_path / "piped"), every=2
        )
        piped.train_pipelined(6)
        assert [s.kind for s in lock_stage.history] == [
            s.kind for s in piped_stage.history
        ]
        assert [s.nbytes for s in lock_stage.history] == [
            s.nbytes for s in piped_stage.history
        ]
        assert_cluster_parity(lock, piped)

    def test_full_every_forces_periodic_fulls(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        stage = cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=3
        )
        cluster.train(6)
        assert [s.kind for s in stage.history] == [
            "full", "delta", "delta", "full", "delta", "delta",
        ]

    def test_delta_much_smaller_than_full_at_steady_state(
        self, tiny_spec, pressured, tmp_path
    ):
        """Small-scale version of the bench claim: one round's delta is
        strictly smaller than a full snapshot of the same state (the
        ≥10× steady-state ratio is pinned against the committed
        BENCH_e2e.json in tests/plan/test_bench_schema.py)."""
        cluster = build(tiny_spec, pressured)
        cluster.train(6)
        cluster.save_checkpoint(str(tmp_path / "base"), mode="full")
        cluster.train(1)
        delta = cluster.save_checkpoint(str(tmp_path / "next"), mode="delta")
        full = ckpt.save_cluster(cluster, str(tmp_path / "fullnow"))
        assert delta.nbytes < full.nbytes


# ----------------------------------------------------------------------
# Partial restore: splice one replacement node into a live cluster
# ----------------------------------------------------------------------
class TestPartialRestore:
    def test_replacement_node_is_bit_identical(
        self, tiny_spec, pressured, tmp_path
    ):
        twin = build(tiny_spec, pressured)
        twin.train(4)

        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")

        dead = cluster.nodes[1]
        stats = cluster.restore_node(str(tmp_path / "s1"), 1)
        assert stats.kind == "partial"
        assert stats.rounds_completed == 4
        assert cluster.nodes[1] is not dead
        # Only the replacement node pays restore time.
        assert stats.per_node_seconds[1] > 0
        assert all(s == 0.0 for i, s in enumerate(stats.per_node_seconds) if i != 1)
        assert_cluster_parity(twin, cluster)
        assert_deep_state_parity(twin, cluster)
        # The spliced cluster keeps training bit-identically — peer
        # wiring, generator position, and plans all survived.
        twin.train(3)
        cluster.train(3)
        assert_cluster_parity(twin, cluster)
        assert_deep_state_parity(twin, cluster)

    def test_partial_restore_after_snapshot_stage_run(
        self, tiny_spec, pressured, tmp_path
    ):
        twin = build(tiny_spec, pressured)
        twin.train_pipelined(6)
        cluster = build(tiny_spec, pressured)
        cluster.enable_snapshot_stage(str(tmp_path), every=2)
        cluster.train_pipelined(6)
        stats = cluster.restore_node(str(tmp_path / "round_000006"), 0)
        assert stats.kind == "partial"
        assert_cluster_parity(twin, cluster)
        assert_deep_state_parity(twin, cluster)

    def test_validates_node_id_and_boundary(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        with pytest.raises(ValueError, match="node_id"):
            cluster.restore_node(str(tmp_path / "s0"), cluster.n_nodes)
        with pytest.raises(ValueError, match="node_id"):
            cluster.restore_node(str(tmp_path / "s0"), -1)
        # The survivors have moved past the snapshot: zero-replay splice
        # would mix rounds — must be rejected, not silently skewed.
        cluster.train(1)
        with pytest.raises(CheckpointError, match="round"):
            cluster.restore_node(str(tmp_path / "s0"), 1)


# ----------------------------------------------------------------------
# Crash consistency: kill the writer at every write boundary
# ----------------------------------------------------------------------
class TestCrashConsistency:
    def _crashing_writer(self, budget: int):
        """A stand-in for atomic_write_bytes that dies after ``budget``
        successful writes — the delete-first/commit-last discipline must
        leave the newest *committed* chain member fully restorable no
        matter which write the crash lands on."""
        real = fmt.atomic_write_bytes
        state = {"writes": 0}

        def crashing(path, payload):
            if state["writes"] >= budget:
                raise RuntimeError("injected crash")
            state["writes"] += 1
            return real(path, payload)

        return crashing

    def _count_writes(self, tiny_spec, pressured, tmp_path) -> int:
        counter = {"n": 0}
        real = fmt.atomic_write_bytes

        def counting(path, payload):
            counter["n"] += 1
            return real(path, payload)

        cluster = build(tiny_spec, pressured)
        cluster.train(3)
        cluster.save_checkpoint(str(tmp_path / "count_base"), mode="full")
        cluster.train(1)
        fmt.atomic_write_bytes, saved = counting, fmt.atomic_write_bytes
        try:
            cluster.save_checkpoint(str(tmp_path / "count_delta"), mode="delta")
        finally:
            fmt.atomic_write_bytes = saved
        return counter["n"]

    def test_every_kill_point_leaves_newest_committed_chain_restorable(
        self, tiny_spec, pressured, tmp_path, monkeypatch
    ):
        """Exhaustive kill-point sweep: crash the writer after 0, 1, …,
        n-1 writes of a delta save.  Every crash must leave (a) the
        wrecked directory uncommitted and rejected by readers, (b) the
        prior chain member restorable bit-identically, and (c) the
        failed save retryable into the *same* directory."""
        total = self._count_writes(tiny_spec, pressured, tmp_path)
        assert total >= 3  # node shards + dense + manifest at minimum

        twin = build(tiny_spec, pressured)
        twin.train(4)
        twin_now = build(tiny_spec, pressured)
        twin_now.train(5)

        for budget in range(total):
            root = tmp_path / f"kill{budget}"
            cluster = build(tiny_spec, pressured)
            cluster.train(3)
            cluster.save_checkpoint(str(root / "s0"), mode="full")
            cluster.train(1)
            cluster.save_checkpoint(str(root / "s1"), mode="delta")
            cluster.train(1)

            monkeypatch.setattr(
                fmt, "atomic_write_bytes", self._crashing_writer(budget)
            )
            with pytest.raises(RuntimeError, match="injected crash"):
                cluster.save_checkpoint(str(root / "s2"), mode="delta")
            monkeypatch.undo()

            # (a) the torn directory is not readable as a checkpoint...
            with pytest.raises(CheckpointError):
                fmt.resolve_chain(str(root / "s2"))
            # ...(b) the newest committed member restores exactly...
            restored = HPSCluster.restore(str(root / "s1"))
            assert restored.rounds_completed == 4
            assert_cluster_parity(twin, restored)
            # ...(c) and retrying the failed save succeeds in place.
            retry = cluster.save_checkpoint(str(root / "s2"), mode="auto")
            assert retry.kind == "delta"
            now = HPSCluster.restore(str(root / "s2"))
            assert now.rounds_completed == 5
            assert_cluster_parity(twin_now, now)
            assert_deep_state_parity(twin_now, now)

    def test_randomized_kill_points_across_a_snapshot_stage_run(
        self, tiny_spec, pressured, tmp_path, monkeypatch
    ):
        """Randomized variant over a whole continuous-checkpoint run:
        crash at a random write somewhere in the snapshot stream, then
        recover from whatever the newest committed snapshot is."""
        rng = np.random.default_rng(20260808)
        for trial in range(3):
            budget = int(rng.integers(1, 16))
            root = tmp_path / f"trial{trial}"
            cluster = build(tiny_spec, pressured)
            stage = cluster.enable_snapshot_stage(str(root), every=1)
            monkeypatch.setattr(
                fmt, "atomic_write_bytes", self._crashing_writer(budget)
            )
            crashed_at = None
            try:
                cluster.train(6)
            except RuntimeError:
                crashed_at = cluster.rounds_completed
            monkeypatch.undo()
            assert crashed_at is not None, "budget outlived the run"
            committed = list(stage.history)
            if not committed:
                # The crash hit inside the very first snapshot: nothing
                # committed, and the torn directory must read as such.
                with pytest.raises(CheckpointError):
                    fmt.resolve_chain(str(root / "round_000001"))
                continue
            # Recovery: the newest snapshot whose manifest committed.
            newest = max(committed, key=lambda s: s.rounds_completed)
            restored = HPSCluster.restore(newest.directory)
            twin = build(tiny_spec, pressured)
            twin.train(newest.rounds_completed)
            assert_cluster_parity(twin, restored)
            assert_deep_state_parity(twin, restored)
