from repro.core.cluster import HPSCluster
import repro.core.cluster as cluster_module

from perfbench import bench
from perfbench.spans import SpanRecorder
from perfbench.window import run_window
from perfbench.workloads import PregeneratedBatches, set_up

from helpers import TINY


def test_a_raising_round_and_the_rounds_after_it_count_as_failed(tmp_path):
    setup = set_up(TINY, 0, 3, str(tmp_path))
    cluster = setup.cluster
    # Inputs exist for 3 window rounds only: window round 3 raises.
    window = run_window(cluster, 8)
    assert window.error is not None and "LookupError" in window.error
    assert window.completed == 3
    assert window.failed == 5
    # The stage wrappers are removed even after a failure.
    assert cluster._unwrapped_stages is None


def test_failed_window_is_reported_as_failed_without_metrics(tmp_path, monkeypatch):
    real_set_up = bench.set_up

    def short_inputs(workload, seed, rounds, work_dir):
        setup = real_set_up(workload, seed, rounds, work_dir)
        gen = setup.cluster.generator
        n = (workload.warmup_rounds + rounds // 2) * workload.n_nodes
        setup.inputs = PregeneratedBatches(gen, n, workload.batch_size)
        for node in setup.cluster.nodes:
            node.hdfs.generator = setup.inputs
        return setup

    monkeypatch.setattr(bench, "set_up", short_inputs)
    monkeypatch.setitem(bench.WORKLOADS, TINY.name, TINY)
    result = bench.run(TINY.name, 0, 100.0, False, str(tmp_path))
    assert not result.correct
    assert result.attempted == 100
    assert result.failed == 50
    assert result.metrics == {}


def test_traced_window_alternates_rounds_and_restores_the_library(tmp_path):
    setup = set_up(TINY, 1, 6, str(tmp_path))
    cluster = setup.cluster
    original_plan = cluster_module.build_round_plan
    rec = SpanRecorder()
    window = run_window(cluster, 6, recorder=rec)
    assert window.error is None and window.traced_rounds == [1, 3, 5]
    spans = rec.spans()
    rounds = [s for s in spans if s.call == "round"]
    assert [s.round_index for s in rounds] == [1, 3, 5]
    # Each traced round spans exactly its completion interval.
    for s in rounds:
        assert s.start == window.stamps[s.round_index]
        assert s.end == window.stamps[s.round_index + 1]
    layers = {s.layer for s in spans}
    assert {"core", "data", "plan", "mem", "mem.cache", "hbm", "nn"} <= layers
    # Stage spans are children of the round span, layer spans of stages.
    by_id = dict(enumerate(spans))
    for s in spans:
        if s.layer == "core" and s.call != "round":
            assert by_id[s.parent].call == "round"
        elif s.layer != "core":
            assert s.parent != -1
    assert cluster_module.build_round_plan is original_plan
    for node in cluster.nodes:
        assert "get_batch" not in vars(node.mem_ps.cache)
        assert "prepare" not in vars(node.mem_ps)
    assert "save_checkpoint" not in vars(cluster)
    assert isinstance(cluster, HPSCluster)
