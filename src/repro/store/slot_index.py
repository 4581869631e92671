"""Vectorized open-addressing key→payload index.

The batch-first store layer needs one primitive the HBM hash table does
not provide: a ``uint64 key -> int64 payload`` map that supports
**deletion** (caches evict constantly) and **growth** (the SSD mapping is
unbounded), with every batch operation vectorized — the Python-level loop
runs O(max probe length) rounds, never O(n_keys).

Deletion uses tombstones (:data:`~repro.utils.keys.TOMBSTONE_KEY`); the
table rehashes itself when live + dead slots crowd the array.  Single-key
operations take a scalar fast path (plain-int probing over the same
arrays) so per-key workloads — the cache-policy ablation, the
single-key cache API behind collision splits — do not pay 1-element
array dispatch per access.
"""

from __future__ import annotations

import numpy as np

from repro.utils.keys import (
    EMPTY_KEY,
    KEY_DTYPE,
    TOMBSTONE_KEY,
    as_keys,
    mix_hash,
    splitmix64_scalar,
)

__all__ = ["SlotIndex"]

_EMPTY = int(EMPTY_KEY)
_TOMB = int(TOMBSTONE_KEY)

#: Largest key domain served direct-addressed: one int64 payload per
#: possible key (32 MiB at the cap).  Compact id spaces — the functional
#: models address ``[0, n_sparse)`` directly — skip hashing and probing
#: entirely; anything larger (or un-hinted) open-addresses as before.
DENSE_DOMAIN_CAP = 1 << 22


class SlotIndex:
    """Open-addressing ``uint64 -> int64`` map over preallocated arrays.

    Payloads are opaque non-negative int64s (a slab row for the caches, a
    file id for the SSD mapping).  ``-1`` is returned for absent keys.
    """

    def __init__(
        self,
        capacity_hint: int = 16,
        *,
        load_factor: float = 0.5,
        key_domain: int | None = None,
    ):
        if not 0.0 < load_factor < 1.0:
            raise ValueError("load_factor must be in (0, 1)")
        self._load_factor = load_factor
        #: direct-address payload array when the caller promises keys in
        #: ``[0, key_domain)`` with a domain small enough to materialize.
        #: The promise is advisory: the first out-of-domain key migrates
        #: the live entries into the probing table and stays there.
        self._dense: np.ndarray | None = None
        if key_domain is not None and 0 < key_domain <= DENSE_DOMAIN_CAP:
            self._dense = np.full(int(key_domain), -1, dtype=np.int64)
        n = 16
        while n * load_factor < max(1, capacity_hint if self._dense is None else 1):
            n *= 2
        self._alloc(n)

    def _alloc(self, n_slots: int) -> None:
        self._n_slots = n_slots
        self._mask = np.uint64(n_slots - 1)
        self._hkeys = np.full(n_slots, EMPTY_KEY, dtype=KEY_DTYPE)
        self._hvals = np.full(n_slots, -1, dtype=np.int64)
        #: first-wins scratch for insert races (kept at -1 between calls;
        #: avoids an O(n log n) ``np.unique`` per probe round).
        self._scratch = np.full(n_slots, -1, dtype=np.int64)
        self.n_live = 0
        self._n_dead = 0

    def __len__(self) -> int:
        return self.n_live

    @property
    def hash_free(self) -> bool:
        """True while the index is direct-addressed (no probing).

        Callers that precompute ``mix_hash`` to share it across several
        index operations can skip the hash entirely when this is set;
        every method accepts ``hashes=None`` and, should the index escape
        to open addressing mid-operation, computes the hash itself.
        """
        return self._dense is not None

    # ------------------------------------------------------------------
    def _base(
        self, keys: np.ndarray, hashes: np.ndarray | None = None
    ) -> np.ndarray:
        """Base probe slots; ``hashes`` lets a caller doing several index
        operations on the same key batch pay for ``mix_hash`` once."""
        return (mix_hash(keys) if hashes is None else hashes) & self._mask

    def _maybe_grow(self, incoming: int) -> None:
        if (self.n_live + self._n_dead + incoming) * 2 < self._n_slots:
            return
        n = self._n_slots
        while (self.n_live + incoming) > n * self._load_factor:
            n *= 2
        live = self._hkeys < TOMBSTONE_KEY
        keys, vals = self._hkeys[live], self._hvals[live]
        self._alloc(n)
        if keys.size:
            self.set(keys, vals, _grow_checked=True)

    def _escape_dense(self) -> None:
        """Leave direct-address mode: migrate live entries to probing."""
        dense = self._dense
        if dense is None:
            raise RuntimeError("SlotIndex is not in direct-address mode")
        idx = np.flatnonzero(dense >= 0)
        vals = dense[idx]
        self._dense = None
        self.n_live = 0
        if idx.size:
            self.set(idx.astype(KEY_DTYPE), vals)

    def _dense_ok(self, keys: np.ndarray) -> bool:
        """True while direct addressing covers ``keys`` (may migrate)."""
        if self._dense is None:
            return False
        if keys.size and int(keys.max()) >= self._dense.size:
            self._escape_dense()
            return False
        return True

    # ------------------------------------------------------------------
    def get(
        self, keys: np.ndarray, hashes: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(payloads, found)`` for ``keys``; absent payloads are -1."""
        out, found, _ = self.locate(keys, hashes, want_slots=False)
        return out, found

    def locate(
        self,
        keys: np.ndarray,
        hashes: np.ndarray | None = None,
        *,
        want_slots: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(payloads, found, probe_slots)`` for ``keys``.

        ``probe_slots`` is each key's match slot or, for misses, the empty
        slot that terminated its probe — a valid insertion hint for
        :meth:`install` as long as no other insert lands first (removals
        only create tombstones and never invalidate an empty terminal).
        """
        keys = as_keys(keys)
        n = keys.size
        if n == 0:
            out = np.empty(n, dtype=np.int64)
            out.fill(-1)
            found = np.zeros(n, dtype=bool)
            return out, found, np.empty(0, dtype=np.int64) if want_slots else None
        if self._dense_ok(keys):
            idx = keys.astype(np.int64)
            out = self._dense[idx]
            return out, out >= 0, idx if want_slots else None
        out = np.empty(n, dtype=np.int64)
        out.fill(-1)
        found = np.zeros(n, dtype=bool)
        if self.n_live == 0 and self._n_dead == 0:
            # Empty table: every base slot is a valid insertion hint.
            slots = (
                self._base(keys, hashes).astype(np.int64) if want_slots else None
            )
            return out, found, slots
        base = self._base(keys, hashes)
        # First probe round over the whole batch: no pending gathers.
        occupant = self._hkeys[base]
        hit = occupant == keys
        done = hit | (occupant == EMPTY_KEY)
        out[hit] = self._hvals[base[hit]]
        found[hit] = True
        pending = np.flatnonzero(~done)
        slots = None
        if want_slots:
            slots = base.astype(np.int64)
            slots[pending] = -1
        offset = np.uint64(1)
        while pending.size:
            s = (base[pending] + offset) & self._mask
            occupant = self._hkeys[s]
            hit = occupant == keys[pending]
            empty = occupant == EMPTY_KEY
            done = hit | empty
            out[pending[hit]] = self._hvals[s[hit]]
            found[pending[hit]] = True
            if want_slots:
                slots[pending[done]] = s[done]
            pending = pending[~done]
            offset += np.uint64(1)
            if int(offset) > self._n_slots:
                raise RuntimeError("index probe loop exceeded table size")
        return out, found, slots

    def install(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        probe_slots: np.ndarray,
        hashes: np.ndarray | None = None,
    ) -> None:
        """Insert *absent* unique ``keys`` at hints from :meth:`locate`.

        Skips the locate re-probe entirely: each key lands at its hinted
        empty slot; keys whose hint was claimed by another key in this
        batch (or filled since) fall back to the probing :meth:`set`.
        """
        keys = as_keys(keys)
        payloads = np.asarray(payloads, dtype=np.int64)
        n = keys.size
        if n == 0:
            return
        if self._dense_ok(keys):
            self._dense[keys.astype(np.int64)] = payloads
            self.n_live += n
            return
        fslots = np.asarray(probe_slots, dtype=np.int64)
        if fslots.size and int(fslots.max()) >= self._n_slots:
            # Hints minted under a different table geometry (a dense
            # migration landed between locate and install): re-probe.
            self.insert_absent(keys, payloads, hashes)
            return
        if (self.n_live + self._n_dead + n) * 2 >= self._n_slots:
            # Growth would remap every hint; take the probing path.
            self.insert_absent(keys, payloads, hashes)
            return
        ok = self._hkeys[fslots] == EMPTY_KEY
        cand = np.flatnonzero(ok)
        winners = cand
        if cand.size:
            if cand.size == n:
                fs, ck = fslots, keys
            else:
                fs, ck = fslots[cand], keys[cand]
            # Claim hints in reverse batch order, so a hint shared by
            # several keys ends up holding its first claimant's key (the
            # keys are unique, so reading the slot back names the winner).
            self._hkeys[fs[::-1]] = ck[::-1]
            won = self._hkeys[fs] == ck
            winners = cand[won]
            self._hvals[fs[won]] = payloads[winners]
            self.n_live += winners.size
        if winners.size != n:
            lost = np.ones(n, dtype=bool)
            lost[winners] = False
            self.insert_absent(
                keys[lost],
                payloads[lost],
                hashes[lost] if hashes is not None else None,
            )

    def insert_absent(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        hashes: np.ndarray | None = None,
    ) -> None:
        """Insert unique ``keys`` the caller guarantees are absent.

        Skips match probing entirely: each key claims the first vacant
        (tombstone or empty) slot on its probe path — the same slot
        :meth:`set` would pick — and races resolve first-wins with losers
        probing onward, so the layout matches the upsert path while the
        per-round work drops to a single occupancy test.
        """
        keys = as_keys(keys)
        payloads = np.asarray(payloads, dtype=np.int64)
        if payloads.shape != (keys.size,):
            raise ValueError("payloads shape mismatch")
        n = keys.size
        if n == 0:
            return
        if self._dense_ok(keys):
            self._dense[keys.astype(np.int64)] = payloads
            self.n_live += n
            return
        if keys.max() >= TOMBSTONE_KEY:
            raise ValueError("keys >= 2**64 - 2 are reserved sentinels")
        self._maybe_grow(n)
        base = self._base(keys, hashes)
        pending = np.arange(n)
        offset = np.uint64(0)
        while pending.size:
            s = (base[pending] + offset) & self._mask
            occupant = self._hkeys[s]
            vacant = (occupant == EMPTY_KEY) | (occupant == TOMBSTONE_KEY)
            cand = np.flatnonzero(vacant)
            if cand.size:
                fs = s[cand]
                ck = keys[pending[cand]]
                was_dead = occupant[cand] == TOMBSTONE_KEY
                # Reverse-order claim: a raced slot keeps its first
                # claimant's key, and reading it back names the winner.
                self._hkeys[fs[::-1]] = ck[::-1]
                win = self._hkeys[fs] == ck
                ws = fs[win]
                self._n_dead -= int(np.count_nonzero(was_dead[win]))
                self._hvals[ws] = payloads[pending[cand[win]]]
                self.n_live += ws.size
                done = np.zeros(pending.size, dtype=bool)
                done[cand[win]] = True
                pending = pending[~done]
            offset += np.uint64(1)
            if int(offset) > self._n_slots:
                raise RuntimeError("index probe loop exceeded table size")

    def set(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        hashes: np.ndarray | None = None,
        *,
        _grow_checked: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Upsert unique ``keys``; returns ``(old_payloads, existed)``.

        New keys claim the first tombstone (or empty slot) on their probe
        path; several keys racing for one slot resolve like the GPU CAS in
        :class:`~repro.hbm.hash_table.HashTable` — first wins, rest
        re-probe.
        """
        keys = as_keys(keys)
        payloads = np.asarray(payloads, dtype=np.int64)
        if payloads.shape != (keys.size,):
            raise ValueError("payloads shape mismatch")
        n = keys.size
        old = np.full(n, -1, dtype=np.int64)
        existed = np.zeros(n, dtype=bool)
        if n == 0:
            return old, existed
        if self._dense_ok(keys):
            idx = keys.astype(np.int64)
            old = self._dense[idx]
            existed = old >= 0
            self._dense[idx] = payloads
            self.n_live += n - int(existed.sum())
            return old, existed
        if keys.max() >= TOMBSTONE_KEY:
            raise ValueError("keys >= 2**64 - 2 are reserved sentinels")
        if not _grow_checked:
            self._maybe_grow(n)
        if self.n_live == 0 and self._n_dead == 0:
            # Empty table and unique keys: pure inserts, no match probing.
            self._fill_empty(keys, payloads, hashes)
            return old, existed
        if self._n_dead == 0:
            # No tombstones: the first empty slot on a probe path is also
            # the insertion point, so one single-level loop suffices (race
            # losers simply keep probing, as in the HBM table's CAS).
            self._set_no_tombstones(keys, payloads, hashes, old, existed)
            return old, existed
        pending = np.arange(n)
        while pending.size:
            base = self._base(
                keys[pending],
                hashes[pending] if hashes is not None else None,
            )
            m = pending.size
            target = np.full(m, -1, dtype=np.int64)  # match slot
            free = np.full(m, -1, dtype=np.int64)  # first tombstone/empty
            active = np.arange(m)
            offset = np.uint64(0)
            while active.size:
                s = (base[active] + offset) & self._mask
                occupant = self._hkeys[s]
                hit = occupant == keys[pending[active]]
                empty = occupant == EMPTY_KEY
                vacant = empty | (occupant == TOMBSTONE_KEY)
                unset = free[active] < 0
                free[active[vacant & unset]] = s[vacant & unset]
                target[active[hit]] = s[hit]
                active = active[~(hit | empty)]
                offset += np.uint64(1)
                if int(offset) > self._n_slots:
                    raise RuntimeError("index probe loop exceeded table size")
            # Overwrites are race-free: apply them all.
            matched = target >= 0
            midx = pending[matched]
            old[midx] = self._hvals[target[matched]]
            existed[midx] = True
            self._hvals[target[matched]] = payloads[midx]
            # Inserts race for vacant slots; first occurrence wins
            # (scatter in reverse so earlier claims overwrite later ones).
            cand = np.flatnonzero(~matched)
            done = matched.copy()
            if cand.size:
                fslots = free[cand]
                order = np.arange(cand.size, dtype=np.int64)
                self._scratch[fslots[::-1]] = order[::-1]
                winners = cand[self._scratch[fslots] == order]
                self._scratch[fslots] = -1
                ws = free[winners]
                self._n_dead -= int(np.sum(self._hkeys[ws] == TOMBSTONE_KEY))
                widx = pending[winners]
                self._hkeys[ws] = keys[widx]
                self._hvals[ws] = payloads[widx]
                self.n_live += winners.size
                done[winners] = True
            pending = pending[~done]
        return old, existed

    def _set_no_tombstones(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        hashes: np.ndarray | None,
        old: np.ndarray,
        existed: np.ndarray,
    ) -> None:
        """Upsert into a tombstone-free table with a single probe loop."""
        base = self._base(keys, hashes)
        pending = np.arange(keys.size)
        offset = np.uint64(0)
        while pending.size:
            s = (base[pending] + offset) & self._mask
            occupant = self._hkeys[s]
            hit = occupant == keys[pending]
            hidx = pending[hit]
            old[hidx] = self._hvals[s[hit]]
            existed[hidx] = True
            self._hvals[s[hit]] = payloads[hidx]
            resolved = hit
            cand = np.flatnonzero(occupant == EMPTY_KEY)
            if cand.size:
                fslots = s[cand]
                order = np.arange(cand.size, dtype=np.int64)
                self._scratch[fslots[::-1]] = order[::-1]
                winners = cand[self._scratch[fslots] == order]
                self._scratch[fslots] = -1
                widx = pending[winners]
                self._hkeys[s[winners]] = keys[widx]
                self._hvals[s[winners]] = payloads[widx]
                self.n_live += winners.size
                resolved = hit.copy()
                resolved[winners] = True
            pending = pending[~resolved]
            offset += np.uint64(1)
            if int(offset) > self._n_slots:
                raise RuntimeError("index probe loop exceeded table size")

    def _fill_empty(
        self, keys: np.ndarray, payloads: np.ndarray, hashes: np.ndarray | None
    ) -> None:
        """Insert unique keys into a known-empty table (no match probes)."""
        base = self._base(keys, hashes)
        pending = np.arange(keys.size)
        offset = np.uint64(0)
        while pending.size:
            s = (base[pending] + offset) & self._mask
            empty = self._hkeys[s] == EMPTY_KEY
            cand = np.flatnonzero(empty)
            if cand.size:
                fslots = s[cand]
                order = np.arange(cand.size, dtype=np.int64)
                self._scratch[fslots[::-1]] = order[::-1]
                winners = cand[self._scratch[fslots] == order]
                self._scratch[fslots] = -1
                widx = pending[winners]
                self._hkeys[s[winners]] = keys[widx]
                self._hvals[s[winners]] = payloads[widx]
                self.n_live += winners.size
                done = np.zeros(pending.size, dtype=bool)
                done[winners] = True
                pending = pending[~done]
            offset += np.uint64(1)
            if int(offset) > self._n_slots:
                raise RuntimeError("index probe loop exceeded table size")

    def remove(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Delete ``keys``; returns ``(old_payloads, existed)``."""
        keys = as_keys(keys)
        n = keys.size
        old = np.full(n, -1, dtype=np.int64)
        existed = np.zeros(n, dtype=bool)
        if n == 0:
            return old, existed
        if self._dense_ok(keys):
            idx = keys.astype(np.int64)
            old = self._dense[idx]
            existed = old >= 0
            if n > 1:
                # Duplicate keys: only the first occurrence sees the live
                # entry (the probe path tombstones it for the rest).
                order = np.arange(n, dtype=np.int64)
                self._dense[idx[::-1]] = order[::-1]
                existed &= self._dense[idx] == order
                old[~existed] = -1
            self._dense[idx] = -1
            self.n_live -= int(existed.sum())
            return old, existed
        base = self._base(keys)
        pending = np.arange(n)
        offset = np.uint64(0)
        while pending.size:
            s = (base[pending] + offset) & self._mask
            occupant = self._hkeys[s]
            hit = occupant == keys[pending]
            empty = occupant == EMPTY_KEY
            hidx = pending[hit]
            old[hidx] = self._hvals[s[hit]]
            existed[hidx] = True
            self._hkeys[s[hit]] = TOMBSTONE_KEY
            self._hvals[s[hit]] = -1
            pending = pending[~(hit | empty)]
            offset += np.uint64(1)
            if int(offset) > self._n_slots:
                raise RuntimeError("index probe loop exceeded table size")
        n_removed = int(existed.sum())
        self.n_live -= n_removed
        self._n_dead += n_removed
        return old, existed

    # ------------------------------------------------------------------
    # Scalar fast paths (single-key cache API, per-key ablations).
    # ------------------------------------------------------------------
    def _probe1(self, key: int) -> tuple[int, int]:
        """``(match_slot, first_vacant_slot)`` for ``key``; -1 if none."""
        hkeys = self._hkeys
        mask = int(self._mask)
        h = splitmix64_scalar(key) & mask
        free = -1
        for _ in range(self._n_slots + 1):
            occ = int(hkeys[h])
            if occ == key:
                return h, free
            if occ == _TOMB:
                if free < 0:
                    free = h
            elif occ == _EMPTY:
                return -1, (free if free >= 0 else h)
            h = (h + 1) & mask
        raise RuntimeError("index probe loop exceeded table size")

    def get1(self, key: int) -> int:
        """Payload for a single key, or -1."""
        dense = self._dense
        if dense is not None:
            if key < dense.size:
                return int(dense[key])
            self._escape_dense()
        s, _ = self._probe1(key)
        return int(self._hvals[s]) if s >= 0 else -1

    def set1(self, key: int, payload: int) -> int:
        """Upsert a single key; returns the old payload or -1."""
        if key >= _TOMB:
            raise ValueError("keys >= 2**64 - 2 are reserved sentinels")
        dense = self._dense
        if dense is not None:
            if key < dense.size:
                old = int(dense[key])
                dense[key] = payload
                if old < 0:
                    self.n_live += 1
                return old
            self._escape_dense()
        self._maybe_grow(1)
        s, free = self._probe1(key)
        if s >= 0:
            old = int(self._hvals[s])
            self._hvals[s] = payload
            return old
        if int(self._hkeys[free]) == _TOMB:
            self._n_dead -= 1
        self._hkeys[free] = np.uint64(key)
        self._hvals[free] = payload
        self.n_live += 1
        return -1

    def remove1(self, key: int) -> int:
        """Delete a single key; returns the old payload or -1."""
        dense = self._dense
        if dense is not None:
            if key < dense.size:
                old = int(dense[key])
                if old >= 0:
                    dense[key] = -1
                    self.n_live -= 1
                return old
            self._escape_dense()
        s, _ = self._probe1(key)
        if s < 0:
            return -1
        old = int(self._hvals[s])
        self._hkeys[s] = TOMBSTONE_KEY
        self._hvals[s] = -1
        self.n_live -= 1
        self._n_dead += 1
        return old

    # ------------------------------------------------------------------
    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, payloads)``, unordered."""
        if self._dense is not None:
            idx = np.flatnonzero(self._dense >= 0)
            return idx.astype(KEY_DTYPE), self._dense[idx]
        live = self._hkeys < TOMBSTONE_KEY
        return self._hkeys[live].copy(), self._hvals[live].copy()

    def clear(self) -> None:
        if self._dense is not None:
            self._dense.fill(-1)
        self._hkeys.fill(EMPTY_KEY)
        self._hvals.fill(-1)
        self.n_live = 0
        self._n_dead = 0
