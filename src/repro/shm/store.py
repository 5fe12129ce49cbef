"""The shared-memory object store and its worker-side client.

:class:`SharedObjectStore` exposes the exact contract of
:class:`~repro.objectstore.store.LocalObjectStore` — byte-capacity bound,
LRU eviction of unpinned objects, nested pinning, the same stats — but
its payloads live in sealed :class:`~repro.shm.segment.SharedSegment`
arenas, so ``get`` returns a zero-copy read-only ``memoryview`` instead
of bytes, and other processes can attach and read the same payload
without any copy at all.

Capacity semantics are byte-accounted exactly like the local store: a
put succeeds iff the bytes fit after evicting every unpinned LRU object,
regardless of arena fragmentation.  Contiguity is an allocator concern,
not a contract concern — when no segment has a large-enough hole, the
store creates a dedicated *overflow segment* for the object (still
counted against the capacity bound) rather than failing a put the byte
budget allows.  This keeps the store's observable behavior a drop-in
match for the local store's executable model (see
``tests/test_objectstore.py``).

Cross-process refcounts add one twist the local store does not have:
space whose refcount row is non-zero (some process still holds a value
that aliases it — a lease — or died holding a reference) cannot be
recycled when the object is deleted or evicted.  Such entries become
**zombies** — gone from the directory, their bytes no longer counted
against capacity, their arena space parked until the reaper
(:meth:`SharedObjectStore.reap`, run before every allocation that finds
zombies) sees the row hit zero and releases it.

:class:`ShmClient` is the other side: a worker-process helper that
attaches segments lazily (caching attachments by name), leases slots
against its own refcount cells, and reads or writes payloads through
descriptor metadata received over the pipe.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.objectstore.store import ObjectStoreFullError
from repro.shm.segment import SharedSegment
from repro.utils.ids import NodeID, ObjectID

#: Default slot-table size for the primary segment; overflow segments
#: hold exactly one object each.
DEFAULT_MAX_OBJECTS = 4096


@dataclass
class _Entry:
    """Directory record of one resident object."""

    segment: SharedSegment
    slot: int
    size: int
    sealed: bool = False


class SharedObjectStore:
    """LocalObjectStore's contract over shared-memory arenas.

    Single-writer: exactly one process (the driver) creates, seals,
    evicts, and releases; attached readers interact through
    :class:`ShmClient` using descriptor metadata.  All methods here are
    driver-side and assume the driver's own synchronization (the proc
    runtime holds its lock around every call).
    """

    def __init__(
        self,
        node_id: NodeID,
        capacity: int,
        max_clients: int = 16,
        max_objects: int = DEFAULT_MAX_OBJECTS,
        name_prefix: str = "repro_shm",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.node_id = node_id
        self.capacity = capacity
        self.max_clients = max_clients
        self.name_prefix = name_prefix
        self._primary = SharedSegment.create(
            capacity,
            max_objects=max_objects,
            max_clients=max_clients,
            name_prefix=name_prefix,
        )
        self._segments: list[SharedSegment] = [self._primary]
        self._entries: "OrderedDict[ObjectID, _Entry]" = OrderedDict()
        self._pins: dict[ObjectID, int] = {}
        #: Evicted/deleted entries whose refcount row was still non-zero.
        self._zombies: list[_Entry] = []
        self.used_bytes = 0
        self.evictions = 0
        self.puts = 0
        self.hits = 0
        self.misses = 0
        self.closed = False

    # -- basic access ---------------------------------------------------

    def contains(self, object_id: ObjectID) -> bool:
        return object_id in self._entries

    def size_of(self, object_id: ObjectID) -> Optional[int]:
        entry = self._entries.get(object_id)
        return entry.size if entry is not None else None

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def num_objects(self) -> int:
        return len(self._entries)

    def object_ids(self) -> tuple:
        """Resident object ids in LRU order, oldest first (introspection
        for invariant checks; does not touch recency)."""
        return tuple(self._entries.keys())

    @property
    def deferred_bytes(self) -> int:
        """Bytes parked in zombie allocations awaiting refcount zero."""
        return sum(entry.size for entry in self._zombies)

    def segment_names(self) -> tuple:
        return tuple(segment.name for segment in self._segments)

    # -- the write path: create → fill → seal ---------------------------

    def put(self, object_id: ObjectID, data) -> None:
        """Insert a bytes-like payload, evicting LRU unpinned objects as
        needed (the LocalObjectStore-compatible one-shot write)."""
        payload = memoryview(data)
        size = payload.nbytes

        def writer(view: memoryview) -> None:
            view[:] = payload

        self.put_with_writer(object_id, size, writer)

    def put_with_writer(
        self, object_id: ObjectID, size: int, writer: Callable[[memoryview], None]
    ) -> None:
        """Allocate ``size`` bytes, let ``writer`` fill them, seal.

        The zero-extra-copy write path: ``writer`` receives the arena
        window directly (e.g. :func:`~repro.utils.serialization.write_frame`).

        Raises
        ------
        ObjectStoreFullError
            If the object cannot fit even after evicting everything
            evictable (or is larger than the store's total capacity).
        """
        entry = self.create(object_id, size)
        if entry is None:
            return  # idempotent re-put: recency touched, bytes kept
        try:
            writer(entry.segment.slot_view(entry.slot, writable=True))
        except BaseException:
            self._abort_entry(object_id, entry)
            raise
        self.seal(object_id)

    def create(self, object_id: ObjectID, size: int) -> Optional[_Entry]:
        """Reserve an unsealed allocation for ``object_id`` (two-phase
        write: a worker fills it through its own mapping, then the
        driver seals).  Returns ``None`` for an idempotent re-put of a
        resident id."""
        if object_id in self._entries:
            self._entries.move_to_end(object_id)
            return None
        if size > self.capacity:
            raise ObjectStoreFullError(
                f"object of {size} bytes exceeds store capacity {self.capacity}"
            )
        self._evict_until(size)
        entry = self._allocate(size)
        self._entries[object_id] = entry
        self.used_bytes += size
        self.puts += 1
        return entry

    def seal(self, object_id: ObjectID) -> None:
        """Mark a created object immutable and readable."""
        entry = self._entries[object_id]
        if not entry.sealed:
            entry.segment.seal(entry.slot)
            entry.sealed = True

    def abort(self, object_id: ObjectID) -> bool:
        """Drop an unsealed allocation (writer crashed before sealing)."""
        entry = self._entries.get(object_id)
        if entry is None or entry.sealed:
            return False
        self._abort_entry(object_id, entry)
        return True

    def _abort_entry(self, object_id: ObjectID, entry: _Entry) -> None:
        self._entries.pop(object_id, None)
        self._pins.pop(object_id, None)
        self.used_bytes -= entry.size
        self.puts -= 1
        self._reclaim(entry)

    # -- the read path --------------------------------------------------

    def get(self, object_id: ObjectID) -> Optional[memoryview]:
        """Zero-copy read: a read-only memoryview of the sealed payload
        (touches LRU order).  ``None`` if not resident."""
        entry = self._entries.get(object_id)
        if entry is None or not entry.sealed:
            self.misses += 1
            return None
        self._entries.move_to_end(object_id)
        self.hits += 1
        return entry.segment.slot_view(entry.slot)

    def describe(self, object_id: ObjectID) -> Optional[tuple]:
        """Descriptor metadata ``(segment_name, slot, size)`` for a
        sealed resident object — what crosses the pipe instead of bytes.
        Touches LRU order like a read."""
        entry = self._entries.get(object_id)
        if entry is None:
            return None
        self._entries.move_to_end(object_id)
        self.hits += 1
        return entry.segment.name, entry.slot, entry.size

    def lease(self, object_id: ObjectID, client: int, dropped) -> tuple:
        """A leased zero-copy window over a sealed resident object
        (:meth:`SharedSegment.lease`; touches LRU order like a read),
        with the ``(segment name, slot)`` it holds and the object's size."""
        entry = self._entries[object_id]
        self._entries.move_to_end(object_id)
        self.hits += 1
        window = entry.segment.lease(entry.slot, client, dropped)
        return window, (entry.segment.name, entry.slot), entry.size

    def refcount(self, object_id: ObjectID) -> int:
        """Sum of all clients' refcount cells for a resident object."""
        entry = self._entries.get(object_id)
        if entry is None:
            return 0
        return entry.segment.refcount(entry.slot)

    # -- delete / eviction ----------------------------------------------

    def delete(self, object_id: ObjectID) -> bool:
        """Explicitly remove an object (no control-plane notification)."""
        entry = self._entries.pop(object_id, None)
        if entry is None:
            return False
        self.used_bytes -= entry.size
        self._pins.pop(object_id, None)
        self._reclaim(entry)
        return True

    def _reclaim(self, entry: _Entry) -> None:
        """Release an entry's arena space now, or park it for the reaper
        when a client still holds a reference."""
        if entry.segment.refcount(entry.slot) > 0:
            self._zombies.append(entry)
            return
        entry.segment.release(entry.slot)
        self._maybe_drop_segment(entry.segment)

    def reap(self) -> int:
        """Release every zombie whose refcount row has reached zero.
        Returns the number of bytes returned to the arena."""
        freed = 0
        survivors, emptied = [], []
        for entry in self._zombies:
            if entry.segment.refcount(entry.slot) == 0:
                freed += entry.size
                entry.segment.release(entry.slot)
                emptied.append(entry.segment)
            else:
                survivors.append(entry)
        # Update the zombie list *before* the drop pass: a segment whose
        # last allocation was just released must not be kept alive by
        # its own stale zombie entry.
        self._zombies = survivors
        for segment in emptied:
            self._maybe_drop_segment(segment)
        return freed

    def clear_client(self, client: int) -> int:
        """Zero a dead client's refcount column on every segment (the
        crash half of the reaper), then reap.  Returns the number of
        slots whose counts were reclaimed."""
        reclaimed = 0
        for segment in self._segments:
            reclaimed += len(segment.clear_client(client))
        self.reap()
        return reclaimed

    def _evict_until(self, needed: int) -> None:
        """Evict LRU unpinned objects until ``needed`` bytes fit the
        byte budget (identical policy to LocalObjectStore)."""
        if needed <= self.free_bytes:
            return
        for object_id in list(self._entries.keys()):
            if self.free_bytes >= needed:
                return
            if self.is_pinned(object_id):
                continue
            entry = self._entries.pop(object_id)
            self.used_bytes -= entry.size
            self.evictions += 1
            self._reclaim(entry)
        if self.free_bytes < needed:
            raise ObjectStoreFullError(
                f"need {needed} bytes but only {self.free_bytes} evictable on "
                f"{self.node_id} (pinned objects: {len(self._pins)})"
            )

    def _allocate(self, size: int) -> _Entry:
        """Find contiguous arena space: zombies whose readers are done
        first (their space is warm), then any existing segment, then a
        dedicated overflow segment."""
        if self._zombies:
            self.reap()
        for segment in self._segments:
            slot = segment.allocate(size)
            if slot is not None:
                return _Entry(segment, slot, size)
        # Fragmentation (or slot exhaustion): the byte budget says this
        # fits, so honor the contract with a dedicated overflow segment.
        try:
            overflow = SharedSegment.create(
                size,
                max_objects=1,
                max_clients=self.max_clients,
                name_prefix=f"{self.name_prefix}o",
            )
        except OSError as exc:
            # The *host* refused (shm filesystem full, fd limit, name
            # rules): surface it as the capacity failure it is, so every
            # caller's ObjectStoreFullError fallback takes the pipe
            # instead of a raw OSError being mistaken for a pipe crash.
            raise ObjectStoreFullError(
                f"cannot create a {size}-byte overflow segment: {exc}"
            ) from exc
        self._segments.append(overflow)
        slot = overflow.allocate(size)
        return _Entry(overflow, slot, size)

    def _maybe_drop_segment(self, segment: SharedSegment) -> None:
        """Unlink an emptied overflow segment (the primary stays)."""
        if segment is self._primary or segment not in self._segments:
            return
        if segment._allocated > 0:
            return
        if any(entry.segment is segment for entry in self._zombies):
            return
        self._segments.remove(segment)
        segment.close()
        segment.unlink()

    # -- pinning (driver-side, same semantics as LocalObjectStore) ------

    def pin(self, object_id: ObjectID) -> None:
        """Protect an object from eviction (argument of a running task)."""
        self._pins[object_id] = self._pins.get(object_id, 0) + 1

    def unpin(self, object_id: ObjectID) -> None:
        count = self._pins.get(object_id, 0)
        if count <= 1:
            self._pins.pop(object_id, None)
        else:
            self._pins[object_id] = count - 1

    def is_pinned(self, object_id: ObjectID) -> bool:
        return self._pins.get(object_id, 0) > 0

    # -- teardown -------------------------------------------------------

    def clear(self) -> None:
        """Hard reset: drop every object *and* every zombie (node-death
        semantics — remote refcounts are presumed dead with the node)."""
        for client in range(self.max_clients):
            for segment in self._segments:
                segment.clear_client(client)
        for object_id in list(self._entries.keys()):
            self.delete(object_id)
        self.reap()
        self._pins.clear()
        self.used_bytes = 0

    def shutdown(self) -> None:
        """Close and unlink every segment.  Guaranteed single obligation
        of the creator: after this returns no segment name we created
        remains in the system, even if workers crashed mid-read (their
        mappings die with their processes)."""
        if self.closed:
            return
        self.closed = True
        for segment in self._segments:
            segment.close()
            segment.unlink()

    def stats(self) -> dict:
        return {
            "num_objects": self.num_objects,
            "used_bytes": self.used_bytes,
            "capacity": self.capacity,
            "evictions": self.evictions,
            "puts": self.puts,
            "hits": self.hits,
            "misses": self.misses,
            "segments": len(self._segments),
            "zombie_objects": len(self._zombies),
            "deferred_bytes": self.deferred_bytes,
        }


class ShmClient:
    """A worker process's window onto the driver's shm segments.

    Attaches segments lazily by name (one mapping per segment, cached),
    holds this client's refcount cells, and turns descriptor metadata
    into zero-copy views.  All methods are process-local; the only
    cross-process effects are refcount-cell writes, which are
    single-writer by construction (this client's column).
    """

    def __init__(self, client_index: int, untrack: bool = False) -> None:
        self.client_index = client_index
        self._untrack = untrack
        self._segments: dict[str, SharedSegment] = {}
        #: ``(segment, slot)`` of leases whose last buffer died, appended
        #: by their finalizers; :meth:`settle_leases` drops the cells.
        self._dropped: deque = deque()

    def _segment(self, name: str) -> SharedSegment:
        segment = self._segments.get(name)
        if segment is None:
            segment = SharedSegment.attach(name, untrack=self._untrack)
            self._segments[name] = segment
        return segment

    def hold(self, segment_name: str, slot: int) -> None:
        """Take this client's reference on a slot (before reading)."""
        self._segment(segment_name).incref(slot, self.client_index)

    def release(self, segment_name: str, slot: int) -> None:
        """Drop this client's reference (after the last use)."""
        self._segment(segment_name).decref(slot, self.client_index)

    def read(self, segment_name: str, slot: int) -> memoryview:
        """Zero-copy read-only view of a sealed slot's payload."""
        return self._segment(segment_name).slot_view(slot)

    def lease(self, segment_name: str, slot: int) -> memoryview:
        """Zero-copy read-only view that holds this client's reference
        on the slot until the last buffer derived from it is gone (and
        :meth:`settle_leases` has run): a value may outlive the task
        that read it."""
        return self._segment(segment_name).lease(
            slot, self.client_index, self._dropped.append
        )

    def settle_leases(self) -> None:
        """Drop the references of leases that ended since the last call
        (the one writer of this client's cells; call between tasks)."""
        dropped = self._dropped
        while dropped:
            segment, slot = dropped.popleft()
            segment.decref(slot, self.client_index)

    def write_view(self, segment_name: str, slot: int) -> memoryview:
        """Writable view of an ALLOCATED (not yet sealed) slot — the
        two-phase result-write path."""
        return self._segment(segment_name).slot_view(slot, writable=True)

    def detach_all(self) -> None:
        """Close every cached mapping (worker exit)."""
        for segment in self._segments.values():
            segment.close()
        self._segments.clear()
