"""File-level parameter storage (paper Section 6, Appendix E).

Parameters are materialized in immutable *parameter files*; an in-memory
parameter→file mapping locates them.  Updates never touch old files —
updated values are chunked into **new** files (sequential writes), the
mapping is repointed, and superseded rows become *stale*.  A per-file stale
counter (maintained exactly as the paper describes: bumped when the mapping
is repointed away) lets the compactor pick merge victims without reading
file contents.

Two backends: ``memory`` (default — file payloads held as NumPy arrays) and
``disk`` (payloads written as ``.npy`` files in a directory, for tests that
want real I/O).  Timing always comes from the :class:`SSDDevice` model.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

from repro.faults.errors import PayloadLostError
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.hardware.ssd_device import SSDDevice
from repro.ssd.extent_cache import FileHandleCache
from repro.store.slot_index import SlotIndex
from repro.utils.io import atomic_write_bytes
from repro.utils.keys import KEY_DTYPE, as_keys

__all__ = ["FileStore", "ParameterFile", "ReadResult"]


@dataclass
class ParameterFile:
    """One immutable on-SSD parameter file."""

    file_id: int
    keys: np.ndarray  # sorted unique keys stored in this file
    stale_count: int = 0
    #: memory backend: the payload rows, aligned with ``keys``.
    values: np.ndarray | None = None
    #: disk backend: path of the .npy payload.
    path: str | None = None

    @property
    def n_params(self) -> int:
        return int(self.keys.size)

    @property
    def n_live(self) -> int:
        return self.n_params - self.stale_count

    def stale_fraction(self) -> float:
        return self.stale_count / self.n_params if self.n_params else 1.0


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a batched read.

    ``files_read``/``bytes_read`` count what was actually charged to the
    device; ``cache_hits`` counts the touched files served from the
    :class:`~repro.ssd.extent_cache.FileHandleCache` instead, each
    charged the cheap warm (host-DRAM copy) rate rather than a device
    read.
    """

    values: np.ndarray
    found: np.ndarray
    seconds: float
    files_read: int
    bytes_read: int
    cache_hits: int = 0


class FileStore:
    """Append-only parameter-file store with key→file mapping."""

    def __init__(
        self,
        value_dim: int,
        file_capacity: int,
        *,
        ssd_spec: SSDSpec | None = None,
        directory: str | None = None,
        ledger: CostLedger | None = None,
        extent_cache_files: int = 0,
        extent_cache_resize_every: int = 0,
        extent_cache_min_files: int = 1,
        extent_cache_max_files: int | None = None,
        key_domain: int | None = None,
    ) -> None:
        if value_dim <= 0:
            raise ValueError("value_dim must be positive")
        if file_capacity <= 0:
            raise ValueError("file_capacity must be positive")
        self.value_dim = value_dim
        self.file_capacity = file_capacity
        self.ledger = ledger if ledger is not None else CostLedger()
        self.device = SSDDevice(ssd_spec or SSDSpec(), self.ledger)
        #: cross-round payload cache; disabled (0 capacity) by default so
        #: charged seconds stay identical to the pre-cache behaviour.
        #: With ``extent_cache_resize_every`` > 0 the cache self-tunes
        #: its capacity to the observed file-reuse distances.
        self.extent_cache = FileHandleCache(
            extent_cache_files,
            resize_every=extent_cache_resize_every,
            min_files=extent_cache_min_files,
            max_files_limit=extent_cache_max_files,
        )
        #: fault-injection guard for cold file reads
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._files: dict[int, ParameterFile] = {}
        self._key_domain = key_domain
        #: vectorized key -> file_id mapping (batch-first store layer).
        self._mapping = SlotIndex(1024, key_domain=key_domain)
        self._next_file_id = 0
        #: incrementally maintained disk footprint (updated on write and
        #: erase) — the compactor polls ``total_bytes`` on every dump, so
        #: recomputing it as a sum over all files would be O(files) per
        #: check.
        self._total_bytes = 0

    # ------------------------------------------------------------------
    @property
    def n_files(self) -> int:
        return len(self._files)

    @property
    def n_live_params(self) -> int:
        return len(self._mapping)

    def file_bytes(self, f: ParameterFile) -> int:
        return f.n_params * (8 + 4 * self.value_dim)

    @property
    def total_bytes(self) -> int:
        """Disk footprint including stale rows (maintained incrementally)."""
        return self._total_bytes

    @property
    def live_bytes(self) -> int:
        return self.n_live_params * (8 + 4 * self.value_dim)

    def files(self) -> list[ParameterFile]:
        return list(self._files.values())

    def mapping_of(self, keys: np.ndarray) -> np.ndarray:
        """File id per key (-1 if unmapped), vectorized."""
        fids, _ = self._mapping.get(as_keys(keys))
        return fids

    # ------------------------------------------------------------------
    def _payload(self, f: ParameterFile) -> np.ndarray:
        if f.values is not None:
            return f.values
        if f.path is None:
            raise PayloadLostError(
                f"parameter file {f.file_id} has neither an in-memory "
                "payload nor a payload path",
                file_id=f.file_id,
                keys=f.keys[self.mapping_of(f.keys) == f.file_id],
            )
        return np.load(f.path)

    def _store_payload(self, f: ParameterFile, values: np.ndarray) -> None:
        """Persist a file's payload; durable before it becomes visible.

        The disk backend writes to a temp file, fsyncs, and ``os.replace``s
        into the final name, so an interrupted write can never leave a
        truncated ``.npy`` under the path the mapping will point at —
        ``f.path`` (and with it the caller's mapping repoint) is only set
        once the payload is fully on disk.
        """
        if self.directory is None:
            f.values = values
            return
        path = os.path.join(self.directory, f"params_{f.file_id:08d}.npy")
        buf = io.BytesIO()
        np.save(buf, values)
        atomic_write_bytes(path, buf.getvalue())
        f.path = path

    # ------------------------------------------------------------------
    def write(self, keys: np.ndarray, values: np.ndarray) -> tuple[float, list[int]]:
        """Chunk (keys, values) into new files; returns (seconds, file ids).

        Keys must be unique.  Previously mapped keys leave a stale row
        behind in their old file (with its counter bumped); the mapping is
        repointed to the new file.  Writes are sequential, as in the paper.
        """
        keys = as_keys(keys)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        if keys.size == 0:
            return 0.0, []
        uniq = np.unique(keys)
        if uniq.size != keys.size:
            raise ValueError("write requires unique keys")
        order = np.argsort(keys)
        keys, values = keys[order], values[order]

        total_t = 0.0
        new_ids: list[int] = []
        for start in range(0, keys.size, self.file_capacity):
            chunk_keys = keys[start : start + self.file_capacity]
            chunk_vals = values[start : start + self.file_capacity]
            fid = self._next_file_id
            self._next_file_id += 1
            f = ParameterFile(fid, chunk_keys.copy())
            self._store_payload(f, chunk_vals.copy())
            self._files[fid] = f
            self._total_bytes += self.file_bytes(f)
            total_t += self.device.write(self.file_bytes(f))
            # Repoint the mapping; bump old files' stale counters.
            old_fids, existed = self._mapping.set(
                chunk_keys, np.full(chunk_keys.size, fid, dtype=np.int64)
            )
            stale_fids, stale_counts = np.unique(
                old_fids[existed], return_counts=True
            )
            for old, count in zip(stale_fids, stale_counts):
                self._files[int(old)].stale_count += int(count)
            new_ids.append(fid)
        return total_t, new_ids

    def read(self, keys: np.ndarray) -> ReadResult:
        """Load values for ``keys``, reading whole files (I/O unit = file).

        Unmapped keys come back zero-filled with ``found=False``.  Reading
        a file costs its *entire* size regardless of how many of its rows
        were requested — the I/O-amplification trade-off of Appendix E.
        """
        keys = as_keys(keys)
        out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        found = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return ReadResult(out, found, 0.0, 0, 0)
        fids, _ = self._mapping.get(keys)
        total_t = 0.0
        files_read = 0
        bytes_read = 0
        cache_hits = 0
        # Group requested keys by file with one sort instead of scanning
        # the whole fid array once per touched file: each touched file is
        # resolved (and charged) exactly once per read call, no matter how
        # many of the batch's rows live in it.  All per-file boundaries
        # come out of the sorted fid array in one pass.
        order = fids.argsort(kind="stable")
        sorted_fids = fids[order]
        start = int(sorted_fids.searchsorted(0))  # skip unmapped (-1)
        if start == order.size:
            return ReadResult(out, found, 0.0, 0, 0)
        sf = sorted_fids[start:]
        cuts = np.flatnonzero(sf[1:] != sf[:-1]) + 1
        starts = np.concatenate(([0], cuts)) + start
        stops = np.append(cuts, sf.size) + start
        files = self._files
        cache = self.extent_cache
        device = self.device
        for s, e in zip(starts.tolist(), stops.tolist()):
            fid = int(sorted_fids[s])
            f = files[fid]
            sel = order[s:e]
            rows = f.keys.searchsorted(keys[sel])
            payload = cache.get(fid)
            if payload is None:
                if self.faults is not None:
                    # Armed cold read: transient read errors / torn
                    # payloads (caught by the existing digests) retry
                    # with backoff; exhaustion quarantines the file and
                    # re-materializes it from the newest checkpoint
                    # chain, or raises PayloadLostError if no durable
                    # copy exists.  All extra seconds land in the
                    # ledger's fault_retry line inside the arm.
                    total_t += self.faults.ssd_read(self, f)
                # Full payload read, charged to the device; admit it so
                # the next round's misses to this file go at warm rate.
                payload = self._payload(f)
                total_t += device.read(self.file_bytes(f))
                files_read += 1
                bytes_read += self.file_bytes(f)
                cache.put(fid, payload)
            else:
                # Cache hit: a host-DRAM copy, cheap but not free, so
                # the cache can default on without rewriting the cost
                # model's parity story.
                total_t += device.read_warm(self.file_bytes(f))
                cache_hits += 1
            out[sel] = payload[rows]
            found[sel] = True
        return ReadResult(out, found, total_t, files_read, bytes_read, cache_hits)

    # ------------------------------------------------------------------
    def live_rows(self, f: ParameterFile) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values) of the non-stale rows of ``f``."""
        fids = self.mapping_of(f.keys)
        live = fids == f.file_id
        return f.keys[live], self._payload(f)[live]

    def erase(self, file_id: int) -> None:
        """Remove a file (compaction has rewritten its live rows).

        A disk-backed file whose ``.npy`` payload has vanished is *data
        loss*, not a no-op: silently proceeding would let compaction
        destroy the bookkeeping for rows whose only copy is already gone.
        The memory backend has no payload file and erases trivially.
        """
        f = self._files[file_id]
        if f.values is None and (f.path is None or not os.path.exists(f.path)):
            live = f.keys[self.mapping_of(f.keys) == file_id]
            raise PayloadLostError(
                f"parameter file {file_id} payload missing "
                f"({f.path!r}) — refusing to erase lost data",
                file_id=file_id,
                keys=live,
            )
        del self._files[file_id]
        self._total_bytes -= self.file_bytes(f)
        # Erase is the only operation that destroys a payload (compaction
        # erases its victims through here) — drop the cached copy so the
        # extent cache can never serve rows of a dead file.
        self.extent_cache.invalidate(file_id)
        if f.path is not None:
            os.remove(f.path)

    def export_state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot of files, payloads, mapping and counters.

        Variable-length per-file payloads are packed into one concatenated
        key/value pair plus an offsets array, so the snapshot can live in
        a single ``.npz`` shard.  The mapping is saved explicitly (rather
        than re-derived) so a restore can cross-check it against the stale
        counters via :meth:`check_invariants`.
        """
        fids = sorted(self._files)
        keys_parts = [self._files[fid].keys for fid in fids]
        vals_parts = [self._payload(self._files[fid]) for fid in fids]
        offsets = np.zeros(len(fids) + 1, dtype=np.int64)
        if fids:
            offsets[1:] = np.cumsum([k.size for k in keys_parts])
        map_keys, map_fids = self._mapping.items()
        order = np.argsort(map_keys)
        out = {
            "file_ids": np.asarray(fids, dtype=np.int64),
            "file_offsets": offsets,
            "file_keys": (
                np.concatenate(keys_parts)
                if fids
                else np.zeros(0, dtype=KEY_DTYPE)
            ),
            "file_values": (
                np.concatenate(vals_parts, axis=0)
                if fids
                else np.zeros((0, self.value_dim), dtype=np.float32)
            ),
            "file_stale": np.asarray(
                [self._files[fid].stale_count for fid in fids], dtype=np.int64
            ),
            "map_keys": map_keys[order].astype(KEY_DTYPE),
            "map_fids": map_fids[order].astype(np.int64),
            "next_file_id": np.int64(self._next_file_id),
            # Extent-cache residency (LRU-order file ids): hits go at the
            # warm rate instead of the device rate, so a restored run only
            # replays the original run's I/O schedule if the warm set
            # comes back too.
            "extent_cache_fids": np.asarray(
                self.extent_cache.resident_ids(), dtype=np.int64
            ),
        }
        self._export_extent_tuning(out)
        return out

    def _export_extent_tuning(self, out: dict[str, np.ndarray]) -> None:
        """Attach the adaptive extent cache's replay state (if any)."""
        if self.extent_cache.adaptive:
            for k, v in self.extent_cache.export_tuning().items():
                out[f"extent_tuning_{k}"] = v

    def delta_base(self) -> dict[str, np.ndarray]:
        """The lean record :meth:`export_delta` diffs against: the id
        watermark and every file's id (ascending) and stale counter —
        no payloads, no mapping.  Read-only."""
        n = len(self._files)
        ids = np.fromiter(self._files, dtype=np.int64, count=n)
        stale = np.fromiter(
            (f.stale_count for f in self._files.values()), dtype=np.int64, count=n
        )
        order = np.argsort(ids)
        return {
            "next_file_id": np.int64(self._next_file_id),
            "file_ids": ids[order],
            "file_stale": stale[order],
        }

    def export_delta(
        self, base: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Diff the store against a prior :meth:`delta_base` record.

        Returns ``(delta, next_base)``: the delta, and the
        :meth:`delta_base` of the current state, whose file table the
        diff itself works on.

        Files are immutable and ids monotone, so the diff is exact and
        cheap: every file with ``id >= base["next_file_id"]`` is new (its
        keys/values ship in the same packed layout as the full export);
        base files absent now were erased by compaction; surviving base
        files can only have changed their stale counter.  Mapping rows
        are shipped for exactly the keys appearing in new files — the
        only operation that repoints the mapping is :meth:`write`, which
        always lands keys in a new file, so that set covers every
        changed row.  The extent-cache residency ships in full (it is a
        handful of ids).
        """
        watermark = int(base["next_file_id"])
        next_base = self.delta_base()
        ids, stale = next_base["file_ids"], next_base["file_stale"]
        is_new = ids >= watermark
        new_fids = ids[is_new]
        keys_parts = [self._files[fid].keys for fid in new_fids.tolist()]
        vals_parts = [self._payload(self._files[fid]) for fid in new_fids.tolist()]
        offsets = np.zeros(new_fids.size + 1, dtype=np.int64)
        if keys_parts:
            offsets[1:] = np.cumsum([k.size for k in keys_parts])
        # Base files against the current table (ids ascending): absent
        # ones were erased, present ones may carry a new stale counter.
        base_fids = np.asarray(base["file_ids"], dtype=np.int64)
        base_stale = np.asarray(base["file_stale"], dtype=np.int64)
        pos = ids.searchsorted(base_fids)
        alive = pos < ids.size
        alive[alive] = ids[pos[alive]] == base_fids[alive]
        now_stale = stale[pos[alive]]
        restaled = now_stale != base_stale[alive]
        if keys_parts:
            touched = np.unique(np.concatenate(keys_parts))
        else:
            touched = np.zeros(0, dtype=KEY_DTYPE)
        out = {
            "base_next_file_id": np.int64(watermark),
            "file_ids": new_fids,
            "file_offsets": offsets,
            "file_keys": (
                np.concatenate(keys_parts)
                if keys_parts
                else np.zeros(0, dtype=KEY_DTYPE)
            ),
            "file_values": (
                np.concatenate(vals_parts, axis=0)
                if vals_parts
                else np.zeros((0, self.value_dim), dtype=np.float32)
            ),
            "file_stale": stale[is_new],
            "erased_ids": base_fids[~alive],
            "stale_ids": base_fids[alive][restaled],
            "stale_counts": now_stale[restaled],
            "map_keys": touched,
            "map_fids": self.mapping_of(touched),
            "next_file_id": np.int64(self._next_file_id),
            "extent_cache_fids": np.asarray(
                self.extent_cache.resident_ids(), dtype=np.int64
            ),
        }
        self._export_extent_tuning(out)
        return out, next_base

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply an :meth:`export_delta` diff on top of the base state.

        The store must currently hold exactly the base snapshot the
        delta was diffed against (``base_next_file_id`` is checked).
        Validation runs before any mutation; the apply order — add new
        files, repoint mapping, update stale counters, erase dead files
        — mirrors how the live store evolved, and ends in the same
        :meth:`check_invariants` sweep a full load runs.
        """
        if int(delta["base_next_file_id"]) != self._next_file_id:
            raise ValueError(
                f"delta was diffed against next_file_id="
                f"{int(delta['base_next_file_id'])}, store is at "
                f"{self._next_file_id}"
            )
        fids = np.asarray(delta["file_ids"], dtype=np.int64)
        offsets = np.asarray(delta["file_offsets"], dtype=np.int64)
        file_keys = as_keys(delta["file_keys"])
        file_values = np.asarray(delta["file_values"], dtype=np.float32)
        stale = np.asarray(delta["file_stale"], dtype=np.int64)
        erased = np.asarray(delta["erased_ids"], dtype=np.int64)
        stale_ids = np.asarray(delta["stale_ids"], dtype=np.int64)
        stale_counts = np.asarray(delta["stale_counts"], dtype=np.int64)
        map_keys_in = as_keys(delta["map_keys"])
        map_fids_in = np.asarray(delta["map_fids"], dtype=np.int64)
        next_file_id = int(delta["next_file_id"])
        if file_values.shape != (file_keys.size, self.value_dim):
            raise ValueError("file-store delta value shape mismatch")
        if offsets.shape != (fids.size + 1,) or (
            fids.size and int(offsets[-1]) != file_keys.size
        ):
            raise ValueError("file-store delta offsets mismatch")
        if fids.size and int(fids.min()) < self._next_file_id:
            raise ValueError("file-store delta contains pre-base file ids")
        if fids.size and next_file_id <= int(fids.max()):
            raise ValueError("file-store delta next_file_id is stale")
        for fid in erased.tolist():
            if int(fid) not in self._files:
                raise ValueError(
                    f"file-store delta erases unknown file {int(fid)}"
                )
        for fid in stale_ids.tolist():
            if int(fid) not in self._files:
                raise ValueError(
                    f"file-store delta updates stale counter of unknown "
                    f"file {int(fid)}"
                )
        for i, fid in enumerate(fids.tolist()):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            f = ParameterFile(
                int(fid), file_keys[lo:hi].copy(), stale_count=int(stale[i])
            )
            self._store_payload(f, file_values[lo:hi].copy())
            self._files[int(fid)] = f
            self._total_bytes += self.file_bytes(f)
        if map_keys_in.size:
            self._mapping.set(map_keys_in, map_fids_in)
        for fid, count in zip(stale_ids.tolist(), stale_counts.tolist()):
            self._files[int(fid)].stale_count = int(count)
        for fid in erased.tolist():
            self.erase(int(fid))
        self._next_file_id = next_file_id
        self._rewarm_extent_cache(delta)
        self.check_invariants()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Rebuild the store from an :meth:`export_state` snapshot.

        Replaces any current contents; payloads are re-materialized
        through the store's own backend (disk-backed stores rewrite the
        ``.npy`` files under their directory).  The snapshot is fully
        validated — shapes, ``next_file_id``, mapping-vs-stale-counter
        consistency — *before* anything is erased, so a snapshot rejected
        as invalid leaves the store untouched.  (A hard I/O failure while
        re-materializing payloads can still leave a partial rebuild;
        checkpoint restores are immune because they load into a freshly
        constructed, empty store.)
        """
        fids = np.asarray(state["file_ids"], dtype=np.int64)
        offsets = np.asarray(state["file_offsets"], dtype=np.int64)
        file_keys = as_keys(state["file_keys"])
        file_values = np.asarray(state["file_values"], dtype=np.float32)
        stale = np.asarray(state["file_stale"], dtype=np.int64)
        map_keys_in = as_keys(state["map_keys"])
        map_fids_in = np.asarray(state["map_fids"], dtype=np.int64)
        next_file_id = int(state["next_file_id"])
        if file_values.shape != (file_keys.size, self.value_dim):
            raise ValueError("file-store snapshot value shape mismatch")
        if offsets.shape != (fids.size + 1,) or (
            fids.size and int(offsets[-1]) != file_keys.size
        ):
            raise ValueError("file-store snapshot offsets mismatch")
        if fids.size and next_file_id <= int(fids.max()):
            raise ValueError("file-store snapshot next_file_id is stale")
        if map_fids_in.shape != map_keys_in.shape or (
            np.unique(map_keys_in).size != map_keys_in.size
        ):
            raise ValueError("file-store snapshot mapping malformed")
        # The mapping must agree with the stale counters file by file
        # (the on-store check_invariants contract, applied to the arrays).
        mapped_fids, mapped_counts = np.unique(map_fids_in, return_counts=True)
        if not np.isin(mapped_fids, fids).all():
            raise ValueError("file-store snapshot maps keys to unknown files")
        live_of = dict(zip(mapped_fids.tolist(), mapped_counts.tolist()))
        for i, fid in enumerate(fids.tolist()):
            n_params = int(offsets[i + 1] - offsets[i])
            if live_of.get(fid, 0) != n_params - int(stale[i]):
                raise ValueError(
                    f"file-store snapshot stale counter of file {fid} "
                    "disagrees with its mapping"
                )
        for fid in list(self._files):
            self.erase(fid)
        self._mapping = SlotIndex(
            max(1024, int(state["map_keys"].size)),
            key_domain=self._key_domain,
        )
        for i, fid in enumerate(fids):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            f = ParameterFile(
                int(fid), file_keys[lo:hi].copy(), stale_count=int(stale[i])
            )
            self._store_payload(f, file_values[lo:hi].copy())
            self._files[int(fid)] = f
            self._total_bytes += self.file_bytes(f)
        self._next_file_id = next_file_id
        if map_keys_in.size:
            self._mapping.set(map_keys_in, map_fids_in)
        self._rewarm_extent_cache(state)
        self.check_invariants()

    def _rewarm_extent_cache(self, state: dict[str, np.ndarray]) -> None:
        """Restore the warm set (and, if adaptive, the tuning state).

        The tuning state loads *first* so the capacity in force during
        the re-warm is the snapshot's — then :meth:`FileHandleCache.warm`
        admits only the newest ``max_files`` surviving ids, so a live
        capacity smaller than the snapshot's residency (a fixed-size
        restore into a smaller store, or an adaptive cache that shrank)
        can never over-warm nor spuriously count evictions.
        """
        if self.extent_cache.adaptive and "extent_tuning_capacity" in state:
            self.extent_cache.load_tuning(
                {
                    k[len("extent_tuning_") :]: v
                    for k, v in state.items()
                    if k.startswith("extent_tuning_")
                }
            )
        self.extent_cache.clear()
        fids = [
            int(fid)
            for fid in state.get("extent_cache_fids", np.zeros(0, np.int64))
            if int(fid) in self._files
        ]
        self.extent_cache.warm(
            fids, lambda fid: self._payload(self._files[fid])
        )

    def check_invariants(self) -> None:
        """Debug/test hook: mapping, stale counters, byte accounting."""
        recomputed = sum(self.file_bytes(f) for f in self._files.values())
        if recomputed != self._total_bytes:
            raise AssertionError(
                f"cached total_bytes {self._total_bytes} != recomputed "
                f"{recomputed}"
            )
        for fid, f in self._files.items():
            live = int(np.sum(self.mapping_of(f.keys) == fid))
            if live != f.n_live:
                raise AssertionError(
                    f"file {fid}: stale counter says {f.n_live} live, "
                    f"mapping says {live}"
                )
        keys, fids = self._mapping.items()
        for fid in np.unique(fids):
            if int(fid) not in self._files:
                bad = int(keys[fids == fid][0])
                raise AssertionError(f"key {bad} maps to erased file {int(fid)}")
