"""Regime preconditions: does the timed window exercise what it claims to?

Each predicate returns the list of violations (empty = the window is in
its regime).  A run that misses its regime fails and is not reported.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = ["WindowFacts", "window_facts", "REGIMES", "violations"]


@dataclass(frozen=True)
class WindowFacts:
    """What the regime predicates look at, measured over one window."""

    rounds: int
    #: every node's MEM cache held ``capacity`` rows when timing started
    cache_full_at_start: bool
    ssd_read_bytes: int
    ssd_write_bytes: int
    compactions: int
    #: ``kind`` of every snapshot taken inside the window, in order
    snapshot_kinds: tuple[str, ...] = ()
    mean_snapshot_bytes: float = 0.0
    #: size of a full snapshot of the state at the end of the window
    full_snapshot_bytes: int = 0


def window_facts(
    rounds: int,
    cache_full_at_start: bool,
    before: dict[str, float],
    after: dict[str, float],
    snapshots: Sequence = (),
    full_snapshot_bytes: int = 0,
) -> WindowFacts:
    """Facts from two :func:`perfbench.window.counters` readings and the
    window's snapshot records (``CheckpointStats``)."""

    def delta(name: str) -> int:
        return int(after[name] - before[name])

    return WindowFacts(
        rounds=rounds,
        cache_full_at_start=cache_full_at_start,
        ssd_read_bytes=delta("ssd.read_bytes"),
        ssd_write_bytes=delta("ssd.write_bytes"),
        compactions=delta("ssd.compactions"),
        snapshot_kinds=tuple(s.kind for s in snapshots),
        mean_snapshot_bytes=(
            statistics.fmean(s.nbytes for s in snapshots) if snapshots else 0.0
        ),
        full_snapshot_bytes=full_snapshot_bytes,
    )


def spill_violations(f: WindowFacts) -> list[str]:
    out = []
    if not f.cache_full_at_start:
        out.append("MEM cache was not at capacity when timing started")
    if f.ssd_read_bytes <= 0:
        out.append("no SSD device bytes were read in the window")
    if f.ssd_write_bytes <= 0:
        out.append("no SSD device bytes were written in the window")
    if f.compactions < 1:
        out.append("no SSD compaction ran in the window")
    return out


def hot_violations(f: WindowFacts) -> list[str]:
    out = []
    if f.ssd_read_bytes != 0:
        out.append(f"{f.ssd_read_bytes} SSD device bytes were read in the window")
    if f.compactions != 0:
        out.append(f"{f.compactions} SSD compaction(s) ran in the window")
    return out


def snapshot_violations(f: WindowFacts) -> list[str]:
    out = []
    if len(f.snapshot_kinds) != f.rounds:
        out.append(
            f"{len(f.snapshot_kinds)} snapshots in a {f.rounds}-round window"
        )
    kinds = sorted(set(f.snapshot_kinds) - {"delta"})
    if kinds:
        out.append(f"window snapshots of kind {kinds}, expected only delta")
    if not 0 < f.mean_snapshot_bytes < f.full_snapshot_bytes:
        out.append(
            f"mean delta snapshot {f.mean_snapshot_bytes:.0f} B is not below"
            f" a full snapshot of the final state ({f.full_snapshot_bytes} B)"
        )
    return out


REGIMES = {
    "hot": hot_violations,
    "spill": spill_violations,
    "snapshot": snapshot_violations,
}


def violations(workload: str, facts: WindowFacts) -> list[str]:
    return REGIMES[workload](facts)
