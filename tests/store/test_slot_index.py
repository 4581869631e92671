"""Tests for the vectorized open-addressing SlotIndex."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.slot_index import SlotIndex
from repro.utils.keys import EMPTY_KEY, TOMBSTONE_KEY


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


class TestBasics:
    def test_get_on_empty(self):
        idx = SlotIndex()
        vals, found = idx.get(keys_of([1, 2, 3]))
        assert not found.any()
        assert (vals == -1).all()

    def test_set_then_get(self):
        idx = SlotIndex()
        old, existed = idx.set(keys_of([5, 6]), np.array([50, 60]))
        assert not existed.any()
        assert (old == -1).all()
        vals, found = idx.get(keys_of([6, 5, 7]))
        assert vals.tolist() == [60, 50, -1]
        assert found.tolist() == [True, True, False]
        assert len(idx) == 2

    def test_overwrite_returns_old(self):
        idx = SlotIndex()
        idx.set(keys_of([5]), np.array([50]))
        old, existed = idx.set(keys_of([5]), np.array([51]))
        assert old.tolist() == [50]
        assert existed.tolist() == [True]
        assert len(idx) == 1

    def test_remove(self):
        idx = SlotIndex()
        idx.set(keys_of([1, 2]), np.array([10, 20]))
        old, existed = idx.remove(keys_of([2, 3]))
        assert old.tolist() == [20, -1]
        assert existed.tolist() == [True, False]
        assert len(idx) == 1
        _, found = idx.get(keys_of([2]))
        assert not found[0]

    def test_reinsert_after_remove_reuses_tombstone(self):
        idx = SlotIndex()
        idx.set(keys_of([1]), np.array([10]))
        idx.remove(keys_of([1]))
        idx.set(keys_of([1]), np.array([11]))
        vals, found = idx.get(keys_of([1]))
        assert found[0] and vals[0] == 11

    def test_reserved_keys_rejected(self):
        idx = SlotIndex()
        with pytest.raises(ValueError, match="reserved"):
            idx.set(keys_of([int(TOMBSTONE_KEY)]), np.array([1]))
        with pytest.raises(ValueError, match="reserved"):
            idx.set(keys_of([int(EMPTY_KEY)]), np.array([1]))

    def test_items(self):
        idx = SlotIndex()
        idx.set(keys_of([3, 1, 2]), np.array([30, 10, 20]))
        ks, vs = idx.items()
        assert dict(zip(ks.tolist(), vs.tolist())) == {1: 10, 2: 20, 3: 30}


class TestScalarPaths:
    def test_scalar_and_batch_agree(self):
        idx = SlotIndex()
        idx.set(keys_of([7, 8]), np.array([70, 80]))
        assert idx.get1(7) == 70
        assert idx.get1(9) == -1
        assert idx.set1(9, 90) == -1
        assert idx.set1(9, 91) == 90
        vals, found = idx.get(keys_of([9]))
        assert found[0] and vals[0] == 91
        assert idx.remove1(9) == 91
        assert idx.remove1(9) == -1
        assert idx.get1(9) == -1

    def test_growth_preserves_scalar_entries(self):
        idx = SlotIndex(capacity_hint=4)
        for k in range(200):
            idx.set1(k, k * 2)
        for k in range(200):
            assert idx.get1(k) == k * 2


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        idx = SlotIndex(capacity_hint=8)
        n = 5_000
        ks = np.arange(n, dtype=np.uint64)
        idx.set(ks, np.arange(n))
        vals, found = idx.get(ks)
        assert found.all()
        assert np.array_equal(vals, np.arange(n))

    def test_tombstone_churn_does_not_degrade(self):
        idx = SlotIndex(capacity_hint=8)
        for start in range(0, 2_000, 100):
            ks = np.arange(start, start + 100, dtype=np.uint64)
            idx.set(ks, np.arange(100))
            idx.remove(ks)
        assert len(idx) == 0
        # A full insert/get cycle still works after heavy churn.
        ks = np.arange(64, dtype=np.uint64)
        idx.set(ks, np.arange(64))
        _, found = idx.get(ks)
        assert found.all()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "remove", "get"]), st.integers(0, 50)
        ),
        max_size=200,
    )
)
@settings(max_examples=40, deadline=None)
def test_matches_python_dict(ops):
    idx = SlotIndex(capacity_hint=4)
    model: dict[int, int] = {}
    for i, (op, k) in enumerate(ops):
        if op == "set":
            old = idx.set1(k, i)
            assert old == model.get(k, -1)
            model[k] = i
        elif op == "remove":
            old = idx.remove1(k)
            assert old == model.pop(k, -1)
        else:
            assert idx.get1(k) == model.get(k, -1)
        assert len(idx) == len(model)
    ks, vs = idx.items()
    assert dict(zip(ks.tolist(), vs.tolist())) == model


class TestBulkInsert:
    """``install`` / ``insert_absent``: races for one slot go to the
    earliest key in batch order, as in the upsert path."""

    def _churned(self):
        idx = SlotIndex(capacity_hint=64)
        ks = np.arange(40, dtype=np.uint64)
        idx.set(ks, np.arange(40))
        idx.remove(ks[::3])
        return idx

    def test_insert_absent_matches_set_layout(self):
        new = np.arange(100, 140, dtype=np.uint64)
        bulk, upsert = self._churned(), self._churned()
        bulk.insert_absent(new, np.arange(40))
        upsert.set(new, np.arange(40))
        assert np.array_equal(bulk._hkeys, upsert._hkeys)
        assert np.array_equal(bulk._hvals, upsert._hvals)
        assert (len(bulk), bulk._n_dead) == (len(upsert), upsert._n_dead)

    def test_install_gives_a_shared_hint_to_the_first_key(self):
        idx = self._churned()
        # A batch of 18 absent keys in six triples, each triple sharing
        # one insertion hint (small enough that install cannot grow).
        pool = np.arange(100, 5_000, dtype=np.uint64)
        _, _, pool_hints = idx.locate(pool)
        groups: dict[int, list[int]] = {}
        for key, slot in zip(pool.tolist(), pool_hints.tolist()):
            groups.setdefault(slot, []).append(key)
        triples = [g[:3] for g in groups.values() if len(g) >= 3][:6]
        new = np.array([k for t in triples for k in t], dtype=np.uint64)
        assert new.size == 18
        _, found, hints = idx.locate(new)
        assert not found.any()
        idx.install(new, np.arange(18), hints)
        for j, triple in enumerate(triples):
            slot = int(hints[3 * j])
            assert int(idx._hkeys[slot]) == triple[0]
            assert int(idx._hvals[slot]) == 3 * j
        vals, found = idx.get(new)
        assert found.all()
        assert np.array_equal(vals, np.arange(18))
        assert len(idx) == 40 - 14 + 18
