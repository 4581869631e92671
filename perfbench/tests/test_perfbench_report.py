import json
import os

import pytest

from perfbench import bench
from perfbench.regimes import REGIMES
from perfbench.workloads import WORKLOADS

from helpers import TINY

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_declared_workloads_are_the_benchmarks(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert w["name"] in REGIMES


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_reports_exactly_the_declared_metrics(
    declared, trace, tmp_path, monkeypatch
):
    monkeypatch.setitem(bench.WORKLOADS, TINY.name, TINY)
    monkeypatch.setitem(REGIMES, TINY.name, lambda facts: [])
    result = bench.run(TINY.name, 4, 1.0, trace, str(tmp_path))
    assert result.correct, result.lines
    assert (result.attempted, result.failed) == (100, 0)
    section = declared["per_layer" if trace else "end_to_end"]
    assert sorted(result.metrics) == sorted(m["name"] for m in section)
    for m in section:
        assert result.metrics[m["name"]][1] == m["unit"]
    line = json.loads(result.json_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if trace:
        with open(tmp_path / ".perfbench_out" / "tiny-seed4.trace.json") as f:
            events = json.load(f)["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
    else:
        assert all(v > 0 for v, _ in result.metrics.values())
