import dataclasses

from repro.bench.harness import PRESSURE_WORKLOAD

from perfbench.regimes import (
    WindowFacts,
    hot_violations,
    snapshot_violations,
    spill_violations,
    window_facts,
)
from perfbench.window import cache_full, counters, run_window
from perfbench.workloads import WORKLOADS, set_up

SPILLING = WindowFacts(
    rounds=10,
    cache_full_at_start=True,
    ssd_read_bytes=100,
    ssd_write_bytes=10,
    compactions=1,
)


def test_spill_predicate():
    assert spill_violations(SPILLING) == []
    for change in (
        {"cache_full_at_start": False},
        {"ssd_read_bytes": 0},
        {"ssd_write_bytes": 0},
        {"compactions": 0},
    ):
        assert len(spill_violations(dataclasses.replace(SPILLING, **change))) == 1


def test_hot_predicate():
    quiet = dataclasses.replace(SPILLING, ssd_read_bytes=0, compactions=0)
    assert hot_violations(quiet) == []
    assert len(hot_violations(dataclasses.replace(quiet, ssd_read_bytes=1))) == 1
    assert len(hot_violations(dataclasses.replace(quiet, compactions=2))) == 1


def test_snapshot_predicate():
    ok = dataclasses.replace(
        SPILLING,
        rounds=3,
        snapshot_kinds=("delta",) * 3,
        mean_snapshot_bytes=10.0,
        full_snapshot_bytes=100,
    )
    assert snapshot_violations(ok) == []
    assert snapshot_violations(dataclasses.replace(ok, snapshot_kinds=("delta",) * 2))
    assert snapshot_violations(
        dataclasses.replace(ok, snapshot_kinds=("full", "delta", "delta"))
    )
    assert snapshot_violations(dataclasses.replace(ok, mean_snapshot_bytes=100.0))


def test_spill_workload_has_the_committed_pressure_shape():
    spill = WORKLOADS["spill"]
    cfg = spill.config(0)
    assert spill.n_sparse == PRESSURE_WORKLOAD["n_sparse"]
    assert spill.zipf_exponent == PRESSURE_WORKLOAD["zipf_exponent"]
    assert cfg.mem_capacity_params == PRESSURE_WORKLOAD["mem_capacity_params"]
    assert cfg.cache_lru_fraction == PRESSURE_WORKLOAD["cache_lru_fraction"]
    assert spill.batch_size == PRESSURE_WORKLOAD["batch_size"]
    assert cfg.minibatches_per_gpu == PRESSURE_WORKLOAD["minibatches_per_gpu"]


def test_spill_predicate_rejects_the_committed_pressure_window(tmp_path):
    # The committed pressure row times rounds 6-25 after 6 warm-up rounds.
    pressure = dataclasses.replace(
        WORKLOADS["spill"], warmup_rounds=PRESSURE_WORKLOAD["warmup_rounds"]
    )
    setup = set_up(pressure, 0, 20, str(tmp_path))
    cluster = setup.cluster
    full = cache_full(cluster)
    before = counters(cluster)
    window = run_window(cluster, 20)
    after = counters(cluster)
    assert window.error is None and cluster.rounds_completed == 26
    problems = spill_violations(window_facts(window.completed, full, before, after))
    assert "MEM cache was not at capacity when timing started" in problems
    assert "no SSD compaction ran in the window" in problems
