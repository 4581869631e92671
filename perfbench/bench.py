"""One benchmark run: set up, time the window, check, report.

Untraced runs report the end-to-end metrics; traced runs report the
per-layer metrics (see ``BENCHMARK.json`` for both lists).  Every run
checks its regime and its outputs after the window; a run that fails
either is counted as failed and its metrics are not reported.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks
from perfbench.layers import LAYERS, STAGES
from perfbench.regimes import violations, window_facts
from perfbench.spans import SpanRecorder, self_time_totals, write_chrome_trace
from perfbench.window import SIM_CATEGORIES, Window, cache_full, counters, run_window
from perfbench.workloads import WORKLOADS, Setup, Workload, set_up

__all__ = ["Result", "run"]

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: share of the window's last rounds ``final_loss`` averages over
FINAL_LOSS_SHARE = 0.25
#: ``examples_per_s`` and ``round_p90_ms`` are medians over this many equal
#: chunks of the window, so a burst of interference from outside the
#: process (other tenants of the machine) moves them less
WINDOW_CHUNKS = 10


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def json_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
                },
            }
        )


def _set_up_timed(
    workload: Workload, seed: int, rounds: int, work_root: str, repeats: int
) -> tuple[Setup, list[float]]:
    """Set up ``repeats`` times, each anew; keep the last cluster."""
    seconds = []
    setup = None
    for i in range(repeats):
        setup = None  # free the previous cluster before building the next
        gc.collect()
        work_dir = os.path.join(work_root, f"setup{i}")
        os.makedirs(work_dir)
        setup = set_up(workload, seed, rounds, work_dir)
        seconds.append(setup.seconds)
    gc.collect()
    gc.freeze()
    return setup, seconds


def _end_to_end(window: Window, setup_seconds: list[float]) -> dict:
    run = window.run
    stats = run.stats
    iv = window.intervals()
    examples = np.array([s.n_examples for s in stats])
    chunks = np.array_split(np.arange(len(stats)), WINDOW_CHUNKS)
    rates = [examples[c].sum() / iv[c].sum() for c in chunks]
    p90s = [np.percentile(iv[c], 90) for c in chunks]
    tail = stats[-max(1, int(len(stats) * FINAL_LOSS_SHARE)):]
    return {
        "examples_per_s": (float(np.median(rates)), "examples/s"),
        "round_p50_ms": (float(np.median(iv)) * 1e3, "ms"),
        "round_p90_ms": (float(np.median(p90s)) * 1e3, "ms"),
        "sim_examples_per_s": (run.throughput(), "examples/sim-s"),
        "final_loss": (statistics.fmean(s.mean_loss for s in tail), "nats"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def _per_layer(
    window: Window,
    spans: list,
    before: dict,
    after: dict,
    snaps: list,
    nodes: int,
) -> tuple[dict, list[str]]:
    run = window.run
    n = window.completed
    d = {k: after[k] - before[k] for k in after}
    traced = [b for b in window.traced_rounds if b < n]
    n_traced = len(traced)
    totals = self_time_totals(spans)
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        m[f"{layer}.self_ms"] = (self_s * 1e3 / n_traced, "ms/round")
        m[f"{layer}.calls"] = (calls / n_traced, "calls/round")
    accesses = d["mem.hits"] + d["mem.misses"]
    m["mem.hit_rate"] = (d["mem.hits"] / accesses if accesses else 0.0, "fraction")
    m["mem.keys_per_round"] = (
        statistics.fmean(s.n_working_params for s in run.stats),
        "keys/round",
    )
    m["ssd.read_bytes"] = (d["ssd.read_bytes"] / n, "B/round")
    m["ssd.write_bytes"] = (d["ssd.write_bytes"] / n, "B/round")
    touches = d["ssd.extent_hits"] + d["ssd.extent_misses"]
    m["ssd.extent_hit_rate"] = (
        d["ssd.extent_hits"] / touches if touches else 0.0,
        "fraction",
    )
    m["ssd.compactions"] = (d["ssd.compactions"], "count")
    m["ckpt.bytes_per_snapshot"] = (
        statistics.fmean(s.nbytes for s in snaps) if snaps else 0.0,
        "B",
    )
    names = run.schedule.stage_names
    makespan = run.makespan
    for stage in STAGES:
        sim_ms = idle = 0.0
        if stage in names:
            s = names.index(stage)
            sim_ms = float(run.stage_times[:, s].mean()) * 1e3
            idle = run.engine_run.shadow_idle_seconds(s) / makespan
        m[f"core.{stage}.sim_ms"] = (sim_ms, "sim-ms/round")
        m[f"core.{stage}.sim_idle_share"] = (idle, "fraction")
    for cat in SIM_CATEGORIES:
        m[f"sim.{cat}_ms"] = (d[f"sim.{cat}"] * 1e3 / nodes / n, "sim-ms/round")
    # Traced and untraced rounds alternate, so both see the same states.
    iv = window.intervals()
    ex = [s.n_examples for s in run.stats]
    traced_set = set(traced)
    untraced = [b for b in range(n) if b not in traced_set]

    def rate(rounds: list[int]) -> float:
        return sum(ex[b] for b in rounds) / sum(iv[b] for b in rounds)

    m["trace.overhead"] = (rate(untraced) / rate(traced) - 1.0, "fraction")

    wall_ms = sum(iv[b] for b in traced) * 1e3 / n_traced
    lines = [
        f"traced {n_traced} of {n} rounds; {wall_ms:.3f} ms/round traced wall;"
        f" tracing overhead {m['trace.overhead'][0]:.1%}",
        f"{'layer':<14}{'self ms/round':>14}{'share':>8}{'calls/round':>13}",
    ]
    for layer in LAYERS:
        v = m[f"{layer}.self_ms"][0]
        lines.append(
            f"{layer:<14}{v:>14.3f}{v / wall_ms:>8.1%}"
            f"{m[f'{layer}.calls'][0]:>13.1f}"
        )
    return m, lines


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: str,
) -> Result:
    """One run of one workload; ``root`` is the checkout it may write in."""
    workload = WORKLOADS[workload_name]
    rounds = workload.window_rounds(seconds)
    work_root = os.path.join(
        root, ".perfbench_work", f"{workload_name}-{seed}-{os.getpid()}"
    )
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)
    try:
        return _run(workload, seed, rounds, trace, root, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:  # another run is still using it
            pass


def _run(
    workload: Workload,
    seed: int,
    rounds: int,
    trace: bool,
    root: str,
    work_root: str,
) -> Result:
    setup, setup_seconds = _set_up_timed(
        workload, seed, rounds, work_root, 1 if trace else SETUP_REPEATS
    )
    cluster = setup.cluster
    lines = [
        f"workload {workload.name} seed {seed}: {workload.warmup_rounds} warm-up"
        f" + {rounds} timed rounds, set-up {statistics.median(setup_seconds):.3f} s"
        f" (median of {len(setup_seconds)})"
    ]
    snap_history = setup.snapshot_stage.history if setup.snapshot_stage else []
    snaps_before = len(snap_history)
    full_at_start = cache_full(cluster)
    before = counters(cluster)
    recorder = SpanRecorder() if trace else None
    window = run_window(cluster, rounds, recorder=recorder)
    after = counters(cluster)
    snaps = snap_history[snaps_before:]
    if window.error is not None:
        lines.append(f"round {window.completed} raised:\n{window.error}")
        return Result(False, rounds, window.failed, lines=lines)
    result_metrics = None if trace else _end_to_end(window, setup_seconds)

    problems = checks.input_problems(workload, seed, setup.inputs)
    if setup.snapshot_stage is not None:
        problems += checks.restore_problems(workload, cluster, setup.snapshot_stage)
    problems += checks.reference_problems(workload, seed, cluster)
    full_bytes = 0
    if setup.snapshot_stage is not None:
        full_bytes = cluster.save_checkpoint(
            os.path.join(work_root, "full-final"), mode="full"
        ).nbytes
    facts = window_facts(
        window.completed, full_at_start, before, after, snaps, full_bytes
    )
    problems += [f"regime: {v}" for v in violations(workload.name, facts)]
    lines.append(
        f"window: {facts.ssd_read_bytes} SSD B read, {facts.ssd_write_bytes} B"
        f" written, {facts.compactions} compactions, cache full at start:"
        f" {facts.cache_full_at_start}"
    )
    if problems:
        lines += [f"FAILED: {p}" for p in problems]
        return Result(False, rounds, rounds, lines=lines)
    lines.append("regime and correctness checks passed")

    if not trace:
        lines.append(f"round interval samples: {window.completed}")
        return Result(True, rounds, 0, result_metrics, lines)

    spans = recorder.spans()
    metrics, layer_lines = _per_layer(
        window, spans, before, after, snaps, cluster.n_nodes
    )
    lines += layer_lines
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{seed}")
    meta = {"workload": workload.name, "seed": seed, "rounds": rounds}
    write_chrome_trace(f"{stem}.trace.json", spans, metadata=meta)
    by_call = self_time_totals(spans, lambda s: f"{s.layer}/{s.call}")
    summary = {
        **meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "calls": {
            name: {"self_ms": own * 1e3, "calls": calls}
            for name, (own, calls) in sorted(by_call.items())
        },
    }
    with open(f"{stem}.layers.json", "w") as f:
        json.dump(summary, f, indent=1)
    lines.append(f"trace written to {stem}.trace.json")
    return Result(True, rounds, 0, metrics, lines)
