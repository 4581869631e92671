"""The timed window: closed-loop pipelined training, optionally traced.

One training loop, :meth:`HPSCluster.train_pipelined`, is called once for
the whole window; each round starts after the previous one completes.  Round
completions are timestamped by wrapping the last pipeline stage through
:meth:`HPSCluster.wrap_stages`.

In a traced window every second round (odd window index) is traced: the
layer wrappers are installed at the round boundary before it and removed
after it, so traced and untraced rounds see the same mix of cluster
states and their wall-clock ratio is the tracing overhead.  Stage calls
of a traced round become ``core`` spans, children of one ``core/round``
span that runs from the previous round's completion to this one's.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from perfbench.layers import LayerTracer
from perfbench.spans import SpanRecorder

__all__ = ["Window", "run_window", "counters", "cache_full", "SIM_CATEGORIES"]

#: Simulated-cost ledger categories reported per round.
SIM_CATEGORIES = (
    "hdfs_read",
    "ssd_read",
    "ssd_write",
    "net_remote_pull",
    "allreduce",
    "gpu_compute",
    "hbm_pull",
    "hbm_push",
    "cpu_partition",
)


@dataclass
class Window:
    """What one timed window produced."""

    n_rounds: int
    #: window start, then one completion time per completed round
    stamps: list[float]
    run: Any = None
    error: str | None = None
    #: window indices of the traced rounds (empty when untraced)
    traced_rounds: list[int] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.stamps) - 1

    @property
    def failed(self) -> int:
        """Rounds that raised or never ran because an earlier one raised."""
        return self.n_rounds - self.completed

    def intervals(self) -> np.ndarray:
        """Wall seconds between consecutive round completions."""
        return np.diff(np.asarray(self.stamps))


def counters(cluster: Any) -> dict[str, float]:
    """Cumulative layer counters summed over nodes (diff two to get a window)."""
    nodes = cluster.nodes
    out: dict[str, float] = {
        "ssd.read_bytes": sum(n.ssd_ps.store.device.bytes_read for n in nodes),
        "ssd.write_bytes": sum(n.ssd_ps.store.device.bytes_written for n in nodes),
        "ssd.compactions": sum(n.ssd_ps.compactor.total_compactions for n in nodes),
        "ssd.extent_hits": sum(n.ssd_ps.store.extent_cache.hits for n in nodes),
        "ssd.extent_misses": sum(n.ssd_ps.store.extent_cache.misses for n in nodes),
        "mem.hits": sum(n.mem_ps.cache.stats.hits for n in nodes),
        "mem.misses": sum(n.mem_ps.cache.stats.misses for n in nodes),
    }
    for cat in SIM_CATEGORIES:
        out[f"sim.{cat}"] = sum(n.ledger.total(cat) for n in nodes)
    return out


def cache_full(cluster: Any) -> bool:
    """Whether every node's MEM cache holds as many rows as it can."""
    return all(len(n.mem_ps.cache) == n.mem_ps.cache.capacity for n in cluster.nodes)


def run_window(
    cluster: Any, n_rounds: int, *, recorder: SpanRecorder | None = None
) -> Window:
    """Train ``n_rounds`` pipelined rounds, timestamping each completion.

    A round that raises ends the window; it and the rounds after it count
    as failed, and the error is kept on the returned :class:`Window`.
    """
    tracer = LayerTracer(cluster, recorder) if recorder is not None else None
    last_stage = cluster.stage_functions()[-1][0]
    stamps: list[float] = []
    traced_rounds: list[int] = []
    round_span: list[int] = []

    def begin_round(b: int, start: float) -> None:
        if tracer is None or b % 2 == 0:
            return
        recorder.round_index = b
        traced_rounds.append(b)
        tracer.install()
        round_span.append(recorder.open("core", "round", start))

    def end_round(now: float) -> None:
        if round_span:
            recorder.close(round_span.pop(), now)
            tracer.uninstall()

    def wrap(name: str, fn: Any) -> Any:
        if tracer is None and name != last_stage:
            return fn

        def stage(ctx: Any) -> float:
            if tracer is not None and tracer.installed:
                sid = recorder.open("core", name)
                try:
                    out = fn(ctx)
                finally:
                    recorder.close(sid)
            else:
                out = fn(ctx)
            if name == last_stage:
                now = perf_counter()
                stamps.append(now)
                end_round(now)
                if len(stamps) - 1 < n_rounds:
                    begin_round(len(stamps) - 1, now)
            return out

        return stage

    cluster.wrap_stages(wrap)
    error = None
    run = None
    try:
        stamps.append(perf_counter())
        begin_round(0, stamps[0])
        run = cluster.train_pipelined(n_rounds)
    except Exception:  # a failed round is counted, not fatal to the report
        error = traceback.format_exc()
        if tracer is not None and tracer.installed:
            # Spans of the raising calls were closed by their wrappers;
            # only the round span is still open.
            end_round(perf_counter())
    cluster.unwrap_stages()
    return Window(n_rounds, stamps, run, error, traced_rounds)
