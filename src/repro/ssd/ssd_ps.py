"""SSD-PS facade — the bottom layer of the hierarchy (paper Section 6).

Couples the append-only :class:`~repro.ssd.file_store.FileStore` with the
:class:`~repro.ssd.compaction.Compactor`.  The MEM-PS calls :meth:`load`
when its cache misses and :meth:`dump` when evicting; every dump runs one
compaction check, standing in for the paper's background thread while
keeping the simulation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.ssd.compaction import CompactionStats, Compactor
from repro.ssd.file_store import FileStore, ReadResult
from repro.utils.keys import KEY_DTYPE, as_keys

__all__ = ["SSDPS", "SSDBatchStats"]


@dataclass(frozen=True)
class SSDBatchStats:
    """I/O accounting for one load or dump call."""

    seconds: float
    compaction: CompactionStats | None = None

    @property
    def total_seconds(self) -> float:
        extra = self.compaction.seconds if self.compaction else 0.0
        return self.seconds + extra


class SSDPS:
    """Materialized-parameter server on one node's SSD array."""

    def __init__(
        self,
        value_dim: int,
        *,
        file_capacity: int = 2**16,
        ssd_spec: SSDSpec | None = None,
        usage_threshold: float = 1.6,
        stale_fraction: float = 0.5,
        directory: str | None = None,
        ledger: CostLedger | None = None,
        extent_cache_files: int = 0,
        key_domain: int | None = None,
    ) -> None:
        self.ledger = ledger if ledger is not None else CostLedger()
        self.store = FileStore(
            value_dim,
            file_capacity,
            ssd_spec=ssd_spec,
            directory=directory,
            ledger=self.ledger,
            extent_cache_files=extent_cache_files,
            key_domain=key_domain,
        )
        self.compactor = Compactor(
            self.store,
            usage_threshold=usage_threshold,
            stale_fraction=stale_fraction,
        )
        self.load_seconds = 0.0
        self.dump_seconds = 0.0
        #: reads served from the cross-round extent cache (charged the
        #: cheap warm rate instead of a device read; see
        #: :class:`~repro.ssd.extent_cache.FileHandleCache`)
        self.extent_cache_hits = 0

    # ------------------------------------------------------------------
    @property
    def value_dim(self) -> int:
        return self.store.value_dim

    @property
    def n_live_params(self) -> int:
        return self.store.n_live_params

    def load(self, keys: np.ndarray) -> tuple[ReadResult, SSDBatchStats]:
        """Read values for ``keys`` (never-seen keys return found=False).

        Extent-cache hits are accounted exactly once, here: the store's
        :class:`~repro.ssd.file_store.ReadResult` already prices hit
        files at the warm rate inside its charged ``seconds``, so this
        facade must only accumulate the result — never re-price the read
        — and every protocol face (:meth:`get_batch`, :meth:`transform`)
        goes through this method so a cache hit can never be
        double-charged.
        """
        result = self.store.read(keys)
        self.load_seconds += result.seconds
        self.extent_cache_hits += result.cache_hits
        return result, SSDBatchStats(result.seconds)

    def dump(self, keys: np.ndarray, values: np.ndarray) -> SSDBatchStats:
        """Write updated parameters as new files, then check compaction."""
        seconds, _ = self.store.write(keys, values)
        comp = self.compactor.compact()
        self.dump_seconds += seconds + comp.seconds
        return SSDBatchStats(seconds, comp if comp.triggered else None)

    # ------------------------------------------------------------------
    # ParameterStore protocol (functional surface; I/O time is still
    # charged to the ledger through load/dump underneath).
    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values + found mask for ``keys`` (protocol face of :meth:`load`)."""
        result, _ = self.load(keys)
        return result.values, result.found

    def put_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Persist ``keys`` (protocol face of :meth:`dump`); the bottom
        tier never evicts, so the flush pair is always empty."""
        self.dump(keys, values)
        return (
            np.zeros(0, dtype=KEY_DTYPE),
            np.zeros((0, self.value_dim), dtype=np.float32),
        )

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Materialized-on-SSD mask (no I/O charged — mapping lookup).

        Consistent with :meth:`load` under the extent cache: membership
        comes from the mapping alone, so a key whose file happens to be
        cache-resident answers identically to one whose file is not —
        and neither touches the device or the hit counters.
        """
        return self.store.mapping_of(keys) >= 0

    def transform(self, keys: np.ndarray, fn) -> float:
        """Read-modify-write resident ``keys``; returns simulated seconds.

        ``keys`` is normalized to the canonical ``uint64`` key dtype up
        front so plain Python int lists cannot mismatch the file-store
        mapping (whose keys are always ``uint64``).
        """
        keys = as_keys(keys)
        result, stats = self.load(keys)
        if not np.all(result.found):
            missing = keys[~result.found][:5]
            raise KeyError(f"transform on absent keys, e.g. {missing.tolist()}")
        new_values = np.asarray(fn(result.values), dtype=np.float32)
        seconds = stats.total_seconds
        seconds += self.dump(keys, new_values).total_seconds
        return seconds

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, values)``, sorted by key (no I/O charged)."""
        ks, vs = [], []
        for f in self.store.files():
            k, v = self.store.live_rows(f)
            ks.append(k)
            vs.append(v)
        keys = (
            np.concatenate(ks) if ks else np.zeros(0, dtype=np.uint64)
        )
        values = (
            np.concatenate(vs, axis=0)
            if ks
            else np.zeros((0, self.value_dim), dtype=np.float32)
        )
        order = np.argsort(keys)
        return keys[order], values[order]

    def check_invariants(self) -> None:
        self.store.check_invariants()

    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Snapshot the file store plus the facade's running counters.

        Restoring the exact file layout (not just the live rows) matters:
        stale fractions drive future compaction triggers, so a resumed
        run only reproduces the original run's I/O schedule if the files
        and their counters come back verbatim.
        """
        out = self.store.export_state()
        out["load_seconds"] = np.float64(self.load_seconds)
        out["dump_seconds"] = np.float64(self.dump_seconds)
        out["total_compactions"] = np.int64(self.compactor.total_compactions)
        out["extent_cache_hits"] = np.int64(self.extent_cache_hits)
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore from an :meth:`export_state` snapshot."""
        self.store.load_state(state)
        self._load_counters(state)

    def delta_base(self) -> dict[str, np.ndarray]:
        """The lean record :meth:`export_delta` diffs against
        (:meth:`FileStore.delta_base`); read-only."""
        return self.store.delta_base()

    def export_delta(
        self, base: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Diff against a prior :meth:`delta_base` record; returns
        ``(delta, next_base)`` (:meth:`FileStore.export_delta`).

        The file store diffs exactly (immutable files, monotone ids);
        the facade's running counters are scalars, so they ship in full
        with every delta.
        """
        out, next_base = self.store.export_delta(base)
        out["load_seconds"] = np.float64(self.load_seconds)
        out["dump_seconds"] = np.float64(self.dump_seconds)
        out["total_compactions"] = np.int64(self.compactor.total_compactions)
        out["extent_cache_hits"] = np.int64(self.extent_cache_hits)
        return out, next_base

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply an :meth:`export_delta` diff on top of the base state."""
        self.store.load_delta(delta)
        self._load_counters(delta)

    def _load_counters(self, state: dict[str, np.ndarray]) -> None:
        self.load_seconds = float(state["load_seconds"])
        self.dump_seconds = float(state["dump_seconds"])
        self.compactor.total_compactions = int(state["total_compactions"])
        self.extent_cache_hits = int(state.get("extent_cache_hits", 0))
