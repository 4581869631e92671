"""Tests for the MEM-PS (Section 5)."""

import numpy as np
import pytest

from repro.hardware.network import Network
from repro.hardware.specs import NetworkSpec
from repro.mem.mem_ps import MemPS
from repro.nn.optim import SparseSGD
from repro.ssd.ssd_ps import SSDPS


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def make_mem(node_id=0, n_nodes=1, cache=64, seed=0):
    opt = SparseSGD(2, lr=1.0)
    ssd = SSDPS(opt.value_dim, file_capacity=8)
    return MemPS(
        node_id,
        n_nodes,
        opt,
        ssd,
        cache_capacity=cache,
        network=Network(NetworkSpec()),
        seed=seed,
    )


def make_pair(cache=64):
    a = make_mem(0, 2, cache)
    b = make_mem(1, 2, cache)
    opt = a.optimizer
    b.optimizer = opt
    peers = [a, b]
    a.peers = peers
    b.peers = peers
    return a, b


class TestOwnership:
    def test_partition_is_total(self):
        a, b = make_pair()
        keys = keys_of(range(100))
        assert np.array_equal(a.owner_of(keys), b.owner_of(keys))
        assert np.all((a.owner_of(keys) == 0) | (a.owner_of(keys) == 1))

    def test_single_node_owns_all(self):
        m = make_mem()
        assert m.owns(keys_of(range(50))).all()


class TestPrepare:
    def test_fresh_keys_initialized_deterministically(self):
        m = make_mem()
        keys = keys_of([1, 2, 3])
        vals, stats = m.prepare(keys)
        expected = m.optimizer.init_for_keys(keys, seed=0)
        assert np.array_equal(vals, expected)
        assert stats.n_fresh == 3
        m.end_batch()

    def test_second_visit_hits_cache(self):
        m = make_mem()
        keys = keys_of([1, 2, 3])
        m.prepare(keys)
        m.absorb_updates(keys, np.ones((3, 2), dtype=np.float32))
        m.end_batch()
        _, stats = m.prepare(keys)
        assert stats.n_cache_hits == 3
        assert stats.n_fresh == 0

    def test_duplicate_working_keys_rejected(self):
        m = make_mem()
        with pytest.raises(ValueError, match="unique"):
            m.prepare(keys_of([1, 1]))

    def test_remote_keys_pulled_from_peer(self):
        a, b = make_pair()
        keys = keys_of(range(40))
        vals, stats = a.prepare(keys)
        assert stats.n_local + stats.n_remote == 40
        assert stats.n_remote > 0
        # All values match the deterministic per-key init regardless of owner.
        assert np.array_equal(vals, a.optimizer.init_for_keys(keys, seed=0))
        a.end_batch()
        b.end_batch()

    def test_remote_pull_charges_network(self):
        a, b = make_pair()
        before = a.network.bytes_sent
        a.prepare(keys_of(range(40)))
        assert a.network.bytes_sent > before

    def test_prepare_stats_seconds_parallel(self):
        a, b = make_pair()
        _, stats = a.prepare(keys_of(range(40)))
        assert stats.seconds == max(stats.local_seconds, stats.remote_seconds)


class TestUpdates:
    def test_absorb_keeps_only_owned(self):
        a, b = make_pair()
        keys = keys_of(range(20))
        a.prepare(keys)
        new_vals = np.full((20, 2), 7.0, dtype=np.float32)
        a.absorb_updates(keys, new_vals)
        a.end_batch()
        b.end_batch()
        own = keys[a.owns(keys)]
        vals, _, hits, _, _ = a.fetch_local(own, pin=False)
        assert np.all(vals == 7.0)

    def test_apply_gradients_owner_path(self):
        m = make_mem()
        keys = keys_of([5])
        vals, _ = m.prepare(keys)
        m.end_batch()
        m.apply_gradients(keys, np.ones((1, 2), dtype=np.float64))
        got, _, _, _, _ = m.fetch_local(keys, pin=False)
        assert np.allclose(got, vals - 1.0)  # SGD lr=1

    def test_apply_gradients_ignores_unowned(self):
        a, b = make_pair()
        keys = keys_of(range(10))
        unowned = keys[~a.owns(keys)]
        t = a.apply_gradients(unowned, np.ones((unowned.size, 2)))
        assert t == 0.0


class TestEviction:
    def test_cache_overflow_flushes_to_ssd(self):
        m = make_mem(cache=16)
        for start in range(0, 80, 8):
            keys = keys_of(range(start, start + 8))
            m.prepare(keys)
            m.absorb_updates(keys, np.ones((8, 2), dtype=np.float32))
            m.end_batch()
        assert m.ssd_ps.n_live_params > 0

    def test_evicted_values_recoverable(self):
        m = make_mem(cache=16)
        first = keys_of(range(8))
        m.prepare(first)
        m.absorb_updates(first, np.full((8, 2), 3.0, dtype=np.float32))
        m.end_batch()
        for start in range(8, 64, 8):
            keys = keys_of(range(start, start + 8))
            m.prepare(keys)
            m.absorb_updates(keys, np.ones((8, 2), dtype=np.float32))
            m.end_batch()
        vals, _, _, _, _ = m.fetch_local(first, pin=False)
        assert np.all(vals == 3.0)

    def test_served_pins_released_at_end_batch(self):
        a, b = make_pair(cache=128)
        keys = keys_of(range(30))
        a.prepare(keys)
        # b pinned served keys; before end_batch they are pinned.
        assert b.cache.lru.pinned_count() > 0
        a.end_batch()
        b.end_batch()
        assert b.cache.lru.pinned_count() == 0

    def test_flush_to_ssd_drains_cache(self):
        m = make_mem()
        m.prepare(keys_of(range(10)))
        m.end_batch()
        m.cache.unpin_batch(keys_of(range(10)))
        m.flush_to_ssd()
        assert len(m.cache) == 0
        assert m.ssd_ps.n_live_params == 10


class TestValidation:
    def test_node_id_range(self):
        with pytest.raises(ValueError):
            make_mem(node_id=3, n_nodes=2)

    def test_serve_remote_rejects_unowned(self):
        a, b = make_pair()
        keys = keys_of(range(10))
        owned_by_b = keys[~a.owns(keys)]
        with pytest.raises(ValueError):
            a.serve_remote(owned_by_b)

    def test_planned_prepare_rejects_duplicate_keys(self):
        m = make_mem()
        with pytest.raises(ValueError, match="must be unique"):
            m.prepare(keys_of([4, 4, 5]), plan=object())

    def test_remote_pull_diverging_from_prefetch_plan_raises(self):
        from types import SimpleNamespace

        a, _ = make_pair()
        a._prefetch_plan = SimpleNamespace(
            keys=keys_of([2, 6]),
            rows=np.array([0, 1]),
            serve_pos={1: np.array([0])},
        )
        with pytest.raises(RuntimeError, match="diverged"):
            a.serve_remote(keys_of([6]), pre_owned=True, requester=1)
