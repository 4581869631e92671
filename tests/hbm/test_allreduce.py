"""Tests for the hierarchical all-reduce (Figure 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.network import Network
from repro.hardware.specs import NetworkSpec
from repro.hbm.allreduce import (
    DenseGradAccumulator,
    SparseUpdate,
    allreduce_dense,
    hierarchical_allreduce,
    merge_updates,
)


def upd(d):
    keys = np.array(sorted(d), dtype=np.uint64)
    grads = np.array([[d[int(k)]] for k in keys], dtype=np.float64)
    return SparseUpdate(keys, grads)


class TestSparseUpdate:
    def test_validates_sorted_unique(self):
        with pytest.raises(ValueError):
            SparseUpdate(np.array([2, 1], dtype=np.uint64), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            SparseUpdate(np.array([1, 1], dtype=np.uint64), np.zeros((2, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SparseUpdate(np.array([1], dtype=np.uint64), np.zeros((2, 1)))

    def test_nbytes(self):
        u = upd({1: 1.0, 2: 2.0})
        assert u.nbytes() == 2 * (8 + 4)

    def test_empty(self):
        u = SparseUpdate.empty(3)
        assert u.n_keys == 0
        assert u.grads.shape == (0, 3)


def test_union_plan_size_mismatch_raises():
    a, b = upd({1: 1.0, 2: 2.0}), upd({2: 3.0})
    keys = np.array([1, 2], dtype=np.uint64)
    good = [np.array([0, 1]), np.array([1])]
    merged, _ = hierarchical_allreduce([a, b], union_plan=(keys, good))
    assert merged.grads[:, 0].tolist() == [1.0, 5.0]
    bad = [np.array([0, 1]), np.array([0, 1])]
    with pytest.raises(ValueError, match="union plan"):
        hierarchical_allreduce([a, b], union_plan=(keys, bad))


class TestMerge:
    def test_disjoint_union(self):
        m = merge_updates(upd({1: 1.0}), upd({2: 2.0}))
        assert m.keys.tolist() == [1, 2]
        assert m.grads[:, 0].tolist() == [1.0, 2.0]

    def test_shared_keys_sum(self):
        m = merge_updates(upd({1: 1.0, 2: 5.0}), upd({2: 2.0}))
        assert m.grads[:, 0].tolist() == [1.0, 7.0]

    def test_empty_identity(self):
        u = upd({3: 1.5})
        assert merge_updates(SparseUpdate.empty(1), u) is u
        assert merge_updates(u, SparseUpdate.empty(1)) is u


class TestHierarchicalAllreduce:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 8])
    def test_equals_flat_sum(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        updates = []
        for _ in range(n_nodes):
            keys = np.unique(rng.integers(0, 50, 20).astype(np.uint64))
            grads = rng.normal(size=(keys.size, 2))
            updates.append(SparseUpdate(keys, grads))
        result, t = hierarchical_allreduce(updates)
        # Flat reference: sum everything per key.
        acc: dict[int, np.ndarray] = {}
        for u in updates:
            for k, g in zip(u.keys.tolist(), u.grads):
                acc[k] = acc.get(k, 0) + g
        assert result.keys.tolist() == sorted(acc)
        for k, g in zip(result.keys.tolist(), result.grads):
            assert np.allclose(g, acc[k])

    def test_no_networks_zero_time(self):
        result, t = hierarchical_allreduce([upd({1: 1.0}), upd({1: 2.0})])
        assert t == 0.0

    def test_time_positive_with_networks(self):
        nets = [Network(NetworkSpec()) for _ in range(4)]
        updates = [upd({i: 1.0}) for i in range(4)]
        _, t = hierarchical_allreduce(updates, networks=nets, gpus_per_node=8)
        assert t > 0
        assert sum(n.ledger.total("allreduce") for n in nets) == pytest.approx(t)

    def test_more_nodes_more_time(self):
        def run(n):
            nets = [Network(NetworkSpec()) for _ in range(n)]
            updates = [upd({i: 1.0, 100 + i: 2.0}) for i in range(n)]
            return hierarchical_allreduce(updates, networks=nets)[1]

        assert run(4) > run(2)

    def test_single_node_no_internode_time(self):
        nets = [Network(NetworkSpec())]
        _, t = hierarchical_allreduce([upd({1: 1.0})], networks=nets)
        assert t == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce([])

    def test_rdma_faster_than_cpu_bounce(self):
        """Figure 8: removing RDMA adds PCIe copies + CPU overhead."""
        def run(rdma):
            nets = [Network(NetworkSpec(rdma=rdma)) for _ in range(4)]
            updates = [
                SparseUpdate(
                    np.arange(1000, dtype=np.uint64) + i,
                    np.ones((1000, 4)),
                )
                for i in range(4)
            ]
            return hierarchical_allreduce(updates, networks=nets)[1]

        assert run(True) < run(False)


class TestAllreduceDense:
    def test_sums_across_nodes(self):
        grads = [[np.ones((2, 2)), np.ones(3)] for _ in range(4)]
        total, t = allreduce_dense(grads)
        assert np.all(total[0] == 4.0)
        assert np.all(total[1] == 4.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_dense([[np.ones(2)], [np.ones(3)]])

    def test_single_node_zero_time(self):
        nets = [Network(NetworkSpec())]
        _, t = allreduce_dense([[np.ones(5)]], networks=nets)
        assert t == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allreduce_dense([])

    def test_float32_sum_matches_float64_within_tolerance(self):
        """Regression for the reused-float32-buffer accumulation: the sum
        must agree with an exact float64 reduction to float32 precision."""
        rng = np.random.default_rng(5)
        grads = [
            [rng.normal(size=(32, 16)), rng.normal(size=48)] for _ in range(4)
        ]
        total, _ = allreduce_dense(grads)
        exact = [
            np.sum([g[j] for g in grads], axis=0, dtype=np.float64)
            for j in range(2)
        ]
        for got, want in zip(total, exact):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_out_buffers_are_reused_across_calls(self):
        """No per-call temporaries: the accumulator's arrays are written
        in place on every call."""
        acc = DenseGradAccumulator()
        grads_a = [[np.ones((3, 3))], [np.ones((3, 3))]]
        total_a, _ = allreduce_dense(grads_a, out=acc)
        first = [id(t) for t in total_a]
        grads_b = [[np.full((3, 3), 2.0)], [np.full((3, 3), 3.0)]]
        total_b, _ = allreduce_dense(grads_b, out=acc)
        assert [id(t) for t in total_b] == first
        assert np.all(total_b[0] == 5.0)

    def test_accumulator_reallocates_on_shape_change(self):
        acc = DenseGradAccumulator()
        allreduce_dense([[np.ones(4)]], out=acc)
        total, _ = allreduce_dense([[np.ones((2, 2))]], out=acc)
        assert total[0].shape == (2, 2)
        assert np.all(total[0] == 1.0)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_allreduce_total_mass_conserved(n_nodes, seed):
    rng = np.random.default_rng(seed)
    updates = []
    total = 0.0
    for _ in range(n_nodes):
        keys = np.unique(rng.integers(0, 30, 10).astype(np.uint64))
        grads = rng.normal(size=(keys.size, 1))
        total += grads.sum()
        updates.append(SparseUpdate(keys, grads))
    result, _ = hierarchical_allreduce(updates)
    assert result.grads.sum() == pytest.approx(total, abs=1e-9)
