"""Tests for LRU / LFU / combined caches (Appendix D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CombinedCache, LFUCache, LRUCache


def v(x):
    return np.array([float(x)], dtype=np.float32)


class TestLRU:
    def test_evicts_least_recent(self):
        c = LRUCache(2)
        c.put(1, v(1))
        c.put(2, v(2))
        evicted = c.put(3, v(3))
        assert [k for k, _ in evicted] == [1]

    def test_get_refreshes_recency(self):
        c = LRUCache(2)
        c.put(1, v(1))
        c.put(2, v(2))
        c.get(1)
        evicted = c.put(3, v(3))
        assert [k for k, _ in evicted] == [2]

    def test_peek_does_not_refresh(self):
        c = LRUCache(2)
        c.put(1, v(1))
        c.put(2, v(2))
        c.peek(1)
        evicted = c.put(3, v(3))
        assert [k for k, _ in evicted] == [1]

    def test_pinned_never_evicted(self):
        c = LRUCache(2)
        c.put(1, v(1), pin=True)
        c.put(2, v(2))
        evicted = c.put(3, v(3))
        assert [k for k, _ in evicted] == [2]
        assert 1 in c

    def test_unpin_releases(self):
        c = LRUCache(1)
        c.put(1, v(1), pin=True)
        c.unpin(1)
        evicted = c.put(2, v(2))
        assert [k for k, _ in evicted] == [1]

    def test_all_pinned_over_capacity_raises(self):
        c = LRUCache(1)
        c.put(1, v(1), pin=True)
        with pytest.raises(RuntimeError, match="pinned"):
            c.put(2, v(2), pin=True)

    def test_pin_absent_raises(self):
        with pytest.raises(KeyError):
            LRUCache(1).pin(5)

    def test_overwrite_keeps_size(self):
        c = LRUCache(2)
        c.put(1, v(1))
        c.put(1, v(10))
        assert len(c) == 1
        assert c.get(1)[0] == 10.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestLFU:
    def test_evicts_least_frequent(self):
        c = LFUCache(2)
        c.put(1, v(1))
        c.put(2, v(2))
        c.get(1)
        c.get(1)
        evicted = c.put(3, v(3))
        assert [k for k, _ in evicted] == [2]

    def test_tie_breaks_oldest(self):
        c = LFUCache(2)
        c.put(1, v(1))
        c.put(2, v(2))
        evicted = c.put(3, v(3))  # both freq 1; 1 is older
        assert [k for k, _ in evicted] == [1]

    def test_frequency_tracked(self):
        c = LFUCache(4)
        c.put(1, v(1))
        c.get(1)
        c.get(1)
        assert c.frequency(1) == 3
        assert c.frequency(99) == 0

    def test_pop_removes(self):
        c = LFUCache(2)
        c.put(1, v(1))
        out = c.pop(1)
        assert out[0] == 1.0
        assert 1 not in c
        assert c.pop(1) is None

    def test_pop_then_put_consistent(self):
        c = LFUCache(2)
        c.put(1, v(1))
        c.put(2, v(2))
        c.pop(1)
        c.put(3, v(3))
        c.put(4, v(4))  # must evict 2 or 3, not crash
        assert len(c) == 2

    def test_overwrite_bumps_frequency(self):
        c = LFUCache(2)
        c.put(1, v(1))
        c.put(1, v(2))
        assert c.frequency(1) == 2
        assert c.get(1)[0] == 2.0


class TestCombined:
    def test_paper_flow_lru_to_lfu_to_flush(self):
        """Appendix D: visited -> LRU; LRU evict -> LFU; LFU evict -> SSD."""
        c = CombinedCache(4, lru_fraction=0.5, value_dim=1)  # 2 LRU + 2 LFU
        flush = []
        for k in range(6):
            flush += c.put(k, v(k))
        # 6 inserts through 2+2 capacity: exactly 2 must have flushed out.
        assert len(flush) == 2
        assert len(c) == 4

    def test_lfu_hit_promotes_to_lru(self):
        c = CombinedCache(4, lru_fraction=0.5, value_dim=1)
        for k in range(4):
            c.put(k, v(k))
        # keys 0,1 demoted to LFU by now
        assert 0 in c.lfu
        got = c.get(0)
        assert got[0] == 0.0
        assert 0 in c.lru

    @pytest.mark.parametrize("layout", ["fortran", "column-slice"])
    def test_batch_ops_accept_non_contiguous_values(self, layout):
        """Row-strided or Fortran-ordered value arrays store and read
        back exactly like their C-ordered copy."""
        keys = np.arange(10, 30, dtype=np.uint64)
        full = np.arange(20 * 6, dtype=np.float32).reshape(20, 6)
        if layout == "fortran":
            vals = np.asfortranarray(full[:, :3])
        else:
            vals = full[:, ::2]
        for cls in (CombinedCache, LRUCache):
            c = cls(16, value_dim=3)
            ref = cls(16, value_dim=3)
            c.put_batch(keys, vals)
            ref.put_batch(keys, np.ascontiguousarray(vals))
            ks, vs = c.items()
            rks, rvs = ref.items()
            assert np.array_equal(ks, rks)
            assert np.array_equal(vs, rvs)
            got, hit = c.get_batch(keys)
            want, want_hit = ref.get_batch(keys)
            assert np.array_equal(hit, want_hit)
            assert np.array_equal(got, want)

    def test_stats_track_hits_and_misses(self):
        c = CombinedCache(4, value_dim=1)
        c.put(1, v(1))
        c.get(1)
        c.get(99)
        assert c.stats.hits == 1
        assert c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_get_batch_zero_fills_misses(self):
        c = CombinedCache(4, value_dim=1)
        c.put(2, v(5))
        vals, hit = c.get_batch(np.array([2, 3], dtype=np.uint64))
        assert hit.tolist() == [True, False]
        assert vals[0, 0] == 5.0
        assert vals[1, 0] == 0.0

    def test_put_batch_returns_flushes(self):
        c = CombinedCache(4, lru_fraction=0.5, value_dim=1)
        keys = np.arange(10, dtype=np.uint64)
        vals = np.arange(10, dtype=np.float32).reshape(-1, 1)
        fk, fv = c.put_batch(keys, vals)
        assert fk.size == 6  # 10 in, 4 retained
        assert fv.shape == (6, 1)

    def test_pinned_working_set_protected_in_batch(self):
        c = CombinedCache(6, lru_fraction=0.5, value_dim=1)
        keys = np.arange(3, dtype=np.uint64)
        vals = np.zeros((3, 1), dtype=np.float32)
        c.put_batch(keys, vals, pin=True)
        c.put_batch(np.arange(10, 16, dtype=np.uint64), np.zeros((6, 1), np.float32))
        _, hit = c.get_batch(keys)
        assert hit.all()
        c.unpin_batch(keys)

    def test_update_if_present(self):
        c = CombinedCache(4, value_dim=1)
        c.put(1, v(1))
        assert c.update_if_present(1, v(9))
        assert not c.update_if_present(42, v(0))
        assert c.lru.peek(1)[0] == 9.0

    def test_flush_all_drains(self):
        c = CombinedCache(4, value_dim=1)
        c.put(1, v(1))
        c.put(2, v(2))
        fk, fv = c.flush_all()
        assert set(fk.tolist()) == {1, 2}
        assert len(c) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CombinedCache(1)
        with pytest.raises(ValueError):
            CombinedCache(10, lru_fraction=0.0)


class TestCombinedKeepsHotKeys:
    def test_hot_keys_survive_scan(self):
        """The LFU tier retains frequently used keys through a one-off
        scan of cold keys — the paper's rationale for LRU+LFU."""
        c = CombinedCache(20, lru_fraction=0.5, value_dim=1)
        hot = list(range(5))
        for _ in range(5):
            for k in hot:
                c.put(k, v(k)) if not c.contains(k) else c.get(k)
        for k in range(100, 140):  # cold scan
            c.put(k, v(k))
        survivors = sum(1 for k in hot if c.contains(k))
        assert survivors >= 4


@given(
    st.lists(
        st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 30)),
        max_size=300,
    )
)
@settings(max_examples=40, deadline=None)
def test_combined_never_exceeds_capacity_and_flushes_are_disjoint(ops):
    c = CombinedCache(8, lru_fraction=0.5, value_dim=1)
    for op, k in ops:
        if op == "get":
            c.get(k)
        else:
            flushed = c.put(k, v(k))
            for fk, _ in flushed:
                assert not c.contains(fk)
        assert len(c) <= c.capacity


class TestCombinedCacheSnapshot:
    """export_state/load_state preserve future replacement behavior."""

    def _warmed(self, seed=0):
        rng = np.random.default_rng(seed)
        cache = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        for _ in range(6):
            keys = np.unique(rng.integers(0, 60, size=8).astype(np.uint64))
            cache.put_batch(keys, np.tile(keys[:, None], (1, 2)).astype(np.float32))
            cache.get_batch(np.unique(rng.integers(0, 60, size=5).astype(np.uint64)))
        return cache

    def test_round_trip_preserves_contents_and_stats(self):
        cache = self._warmed()
        state = cache.export_state()
        other = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        other.load_state(state)
        ka, va = cache.items()
        kb, vb = other.items()
        assert np.array_equal(ka, kb) and np.array_equal(va, vb)
        assert other.stats.hits == cache.stats.hits
        assert other.stats.misses == cache.stats.misses
        # Tier membership (not just the union) must survive.
        assert np.array_equal(
            np.sort(np.asarray(cache.lru.keys())),
            np.sort(np.asarray(other.lru.keys())),
        )

    def test_round_trip_preserves_future_evictions(self):
        """Same subsequent ops -> same hits, flushes, and final layout."""
        cache = self._warmed(seed=1)
        other = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        other.load_state(cache.export_state())
        rng = np.random.default_rng(99)
        for _ in range(8):
            keys = np.unique(rng.integers(0, 80, size=7).astype(np.uint64))
            vals = np.tile(keys[:, None], (1, 2)).astype(np.float32)
            fa = cache.put_batch(keys, vals)
            fb = other.put_batch(keys, vals)
            assert np.array_equal(fa[0], fb[0]) and np.array_equal(fa[1], fb[1])
            probe = np.unique(rng.integers(0, 80, size=6).astype(np.uint64))
            va, ha = cache.get_batch(probe)
            vb, hb = other.get_batch(probe)
            assert np.array_equal(ha, hb) and np.array_equal(va, vb)
            pa, pb = cache.take_pending_flush(), other.take_pending_flush()
            assert np.array_equal(pa[0], pb[0]) and np.array_equal(pa[1], pb[1])
        ka, va = cache.items()
        kb, vb = other.items()
        assert np.array_equal(ka, kb) and np.array_equal(va, vb)

    def test_export_refuses_pinned_entries(self):
        cache = CombinedCache(8, value_dim=1)
        keys = np.array([1, 2], dtype=np.uint64)
        cache.put_batch(keys, np.ones((2, 1), np.float32), pin=True)
        with pytest.raises(RuntimeError, match="pinned"):
            cache.export_state()
        cache.unpin_batch(keys)
        cache.export_state()

    def test_load_rejects_oversized_snapshot(self):
        cache = self._warmed()
        small = CombinedCache(4, value_dim=2)
        with pytest.raises(ValueError, match="capacit"):
            small.load_state(cache.export_state())

    def _malformed(self, **changes):
        state = self._warmed().export_state()
        assert state["lru_keys"].size >= 2 and state["lfu_keys"].size >= 1
        for name, fn in changes.items():
            state[name] = fn(state)
        return state

    def test_load_rejects_key_in_both_tiers(self):
        def shared(state):
            keys = state["lru_keys"].copy()
            keys[0] = state["lfu_keys"][0]
            return keys

        cache = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        with pytest.raises(ValueError, match="repeats a key"):
            cache.load_state(self._malformed(lru_keys=shared))

    def test_load_rejects_duplicate_key_within_a_tier(self):
        def dup(state):
            keys = state["lru_keys"].copy()
            keys[1] = keys[0]
            return keys

        cache = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        with pytest.raises(ValueError, match="repeats a key"):
            cache.load_state(self._malformed(lru_keys=dup))

    def test_load_rejects_misaligned_metadata(self):
        cache = CombinedCache(16, lru_fraction=0.5, value_dim=2)
        with pytest.raises(ValueError, match="metadata"):
            cache.load_state(
                self._malformed(lru_counts=lambda s: s["lru_counts"][:-1])
            )
