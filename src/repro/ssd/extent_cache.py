"""Cross-round file/extent cache for the SSD miss path.

:class:`FileHandleCache` keeps the payloads of recently-read parameter
files resident across rounds, so repeated cache-miss batches that touch
the same :class:`~repro.ssd.file_store.ParameterFile` stop re-paying the
full payload-read cost every round.  The cache is bounded (``max_files``
payloads, LRU replacement) and exactly invalidated:

* ``write`` never invalidates — parameter files are immutable, new data
  always lands in *new* file ids, and a repointed mapping simply stops
  routing reads at the stale rows (the cached payload stays byte-valid
  for every key still mapped to that file);
* ``erase`` (the only operation that destroys a payload — compaction
  erases its victims through it) must drop the entry, which
  :meth:`FileStore.erase` does via :meth:`invalidate`.

A hit serves the payload at the *warm* rate — a host-DRAM copy priced by
:meth:`~repro.hardware.ssd_device.SSDDevice.read_warm`, far cheaper than
the device read it replaces but never free — so the cache can default on
(``ClusterConfig.ssd_extent_cache_files``) without forking the
sim-seconds parity groups: like-configured runs still agree bit-exactly,
and the cost model keeps an honest account of where every byte came
from.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FileHandleCache"]


class FileHandleCache:
    """Bounded LRU cache of parameter-file payloads, keyed by file id.

    ``max_files <= 0`` disables the cache entirely: every operation is a
    no-op and :meth:`get` always misses, so a disabled cache is
    bit-identical (values, found masks, *and* charged seconds) to not
    constructing one at all.
    """

    def __init__(self, max_files: int = 0) -> None:
        self.max_files = int(max_files)
        #: insertion-ordered: oldest (least recently used) first.
        self._payloads: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.max_files > 0

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, file_id: int) -> bool:
        return int(file_id) in self._payloads

    # ------------------------------------------------------------------
    def get(self, file_id: int) -> np.ndarray | None:
        """Cached payload of ``file_id`` (refreshing recency), or None."""
        if not self.enabled:
            return None
        fid = int(file_id)
        payload = self._payloads.pop(fid, None)
        if payload is None:
            self.misses += 1
            return None
        # Re-insert to move to the most-recently-used end.
        self._payloads[fid] = payload
        self.hits += 1
        return payload

    def put(self, file_id: int, payload: np.ndarray) -> None:
        """Admit ``payload``; evicts the least recently used past capacity."""
        if not self.enabled:
            return
        fid = int(file_id)
        self._payloads.pop(fid, None)
        self._payloads[fid] = payload
        while len(self._payloads) > self.max_files:
            oldest = next(iter(self._payloads))
            del self._payloads[oldest]
            self.evictions += 1

    def warm(self, file_ids, payload_of) -> None:
        """Re-warm from a snapshot's LRU-ordered resident ids.

        Admits only the *newest* ``max_files`` ids — the snapshot may
        have been taken at a larger capacity (a restore into a store
        configured with a smaller cache), and
        pushing every snapshot id through :meth:`put` would churn the
        over-capacity prefix straight through the cache, spuriously
        counting an eviction (and materializing a payload) per dropped
        id.  ``payload_of(fid)`` materializes the payload for an
        admitted id; ids the caller no longer holds must be filtered
        before calling.
        """
        if not self.enabled:
            return
        ids = [int(f) for f in file_ids]
        for fid in ids[max(0, len(ids) - self.max_files) :]:
            self.put(fid, payload_of(fid))

    def invalidate(self, file_id: int) -> bool:
        """Drop ``file_id``'s payload (file erased); True if present."""
        if self._payloads.pop(int(file_id), None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self._payloads.clear()

    # ------------------------------------------------------------------
    def resident_ids(self) -> list[int]:
        """Cached file ids, least recently used first."""
        return list(self._payloads)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "resident": len(self._payloads),
            "capacity": self.max_files,
        }
