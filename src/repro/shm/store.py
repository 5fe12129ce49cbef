"""A node's shared-memory arena and its worker-side client.

:class:`SharedObjectStore` is the one owner of a node's arena (the
driver's on ``proc``, each node agent's on ``dist``).  It keeps:

* the **directory** — ObjectID → (segment, slot, size) of every sealed
  object, served to workers as
  :class:`~repro.proc.messages.ShmDescriptor` replies so a large object
  crosses the pipe as a ~100-byte descriptor instead of its payload;
* the **unsealed allocations** — a write is two-phase: :meth:`create`
  reserves space for one client (a worker fills it through its own
  mapping after a ``SHM_CREATE`` grant; the driver fills its own outside
  the runtime lock), :meth:`seal` publishes it, and until then it is
  invisible to readers and aborted if its writer dies;
* the owner's **leases** — a zero-copy value handed to user code keeps
  its slot, through the owner's refcount cell, until its last buffer
  dies (:meth:`lease`, :meth:`settle_leases`);
* the **reaper** and the **reclaim** after a client dies
  (:meth:`reap`, :meth:`reclaim_client`), and guaranteed unlinking of
  every segment at :meth:`shutdown`.

It is an allocator with explicit release, not a cache: an object stays
until its owner deletes it, and nothing is evicted.  Capacity is one
byte check — a create whose size, added to the live bytes, exceeds the
capacity raises :class:`~repro.objectstore.store.ObjectStoreFullError`,
and the caller takes the pipe.  Contiguity is the allocator's concern:
when no segment has a large-enough hole, the store creates a dedicated
*overflow segment* for the object (still counted against the budget).

Cross-process refcounts add one twist: space whose refcount row is
non-zero (some process still holds a value that aliases it, or died
holding a reference) cannot be recycled when its object is deleted.
Such an entry becomes a **zombie** — gone from the directory, its bytes
no longer live, its space parked until the reaper (run before every
allocation that finds zombies, and after leases are settled) sees the
row hit zero and releases it.

Single-writer: only the creating process allocates, seals and releases,
under its own synchronization (the runtime lock on the driver, the one
relay thread in an agent).  :class:`ShmClient` is the other side: a
worker-process helper that attaches segments lazily (caching
attachments by name), leases slots against its own refcount cells, and
reads or writes payloads through descriptor metadata received over the
pipe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.objectstore.store import ObjectStoreFullError
from repro.shm.segment import SharedSegment
from repro.utils.ids import NodeID, ObjectID

#: Default slot-table size for the primary segment; overflow segments
#: hold exactly one object each.
DEFAULT_MAX_OBJECTS = 4096

#: Client index the arena's owner uses for its own refcount cells
#: (workers use ``worker_index + 1``).
DRIVER_CLIENT = 0


@dataclass
class _Entry:
    """One allocation, and the client that writes it until it is sealed."""

    segment: SharedSegment
    slot: int
    size: int
    writer: int = DRIVER_CLIENT


class SharedObjectStore:
    """One node's arena: directory, allocations, leases and reaper."""

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
        #: Sealed objects (the directory), and unsealed allocations.
        self._entries: dict[ObjectID, _Entry] = {}
        self._pending: dict[ObjectID, _Entry] = {}
        #: Deleted or aborted entries whose refcount row was still non-zero.
        self._zombies: list[_Entry] = []
        #: The owner's outstanding leases, ``(segment name, slot) ->
        #: [windows out, bytes]``, and the ones whose last buffer died
        #: since the last :meth:`settle_leases` (appended by finalizers).
        self._leased: dict[tuple, list] = {}
        self._dropped: deque = deque()
        self.used_bytes = 0
        self.puts = 0
        self.closed = False

    # -- the directory --------------------------------------------------

    def contains(self, object_id: ObjectID) -> bool:
        """Whether a *sealed* object is resident (an unsealed allocation
        is not: its bytes are not readable yet)."""
        return object_id in self._entries

    def size_of(self, object_id: ObjectID) -> Optional[int]:
        entry = self._entries.get(object_id)
        return entry.size if entry is not None else None

    def describe(self, object_id: ObjectID) -> Optional[tuple]:
        """``(segment_name, slot, size)`` of a sealed object — what
        crosses the pipe instead of its bytes."""
        entry = self._entries.get(object_id)
        if entry is None:
            return None
        return entry.segment.name, entry.slot, entry.size

    def refcount(self, object_id: ObjectID) -> int:
        """Sum of all clients' refcount cells for a sealed object."""
        entry = self._entries.get(object_id)
        if entry is None:
            return 0
        return entry.segment.refcount(entry.slot)

    @property
    def deferred_bytes(self) -> int:
        """Bytes parked in zombie allocations awaiting refcount zero."""
        return sum(entry.size for entry in self._zombies)

    def segment_names(self) -> tuple:
        return tuple(segment.name for segment in self._segments)

    # -- writes: create → fill → seal -----------------------------------

    def create(
        self, object_id: ObjectID, size: int, client: int = DRIVER_CLIENT
    ) -> Optional[_Entry]:
        """Reserve an unsealed allocation of ``size`` bytes for
        ``client`` to fill.  ``None`` if the id already has one (a
        replayed task racing a surviving result: a second writer window
        is refused, and the pipe path handles the duplicate).

        Raises
        ------
        ObjectStoreFullError
            If the live bytes plus ``size`` exceed the capacity, or the
            host refuses the overflow segment the object needs.
        """
        if object_id in self._entries or object_id in self._pending:
            return None
        if self.used_bytes + size > self.capacity:
            raise ObjectStoreFullError(
                f"an object of {size} bytes on top of {self.used_bytes} live "
                f"bytes exceeds store capacity {self.capacity} on {self.node_id}"
            )
        entry = self._allocate(size, client)
        self._pending[object_id] = entry
        self.used_bytes += size
        self.puts += 1
        return entry

    def put(self, object_id: ObjectID, data) -> None:
        """Copy a contiguous bytes-like payload in and seal it (a
        re-put of a resident id keeps the bytes it has)."""
        payload = memoryview(data).cast("B")
        entry = self.create(object_id, payload.nbytes)
        if entry is not None:
            entry.segment.slot_view(entry.slot, writable=True)[:] = payload
            self.seal(object_id)

    def seal(self, object_id: ObjectID) -> bool:
        """Publish an unsealed allocation, immutable and readable from
        here on; False if it no longer exists (aborted: e.g. the writer
        crashed and the reaper won)."""
        entry = self._pending.pop(object_id, None)
        if entry is None:
            return object_id in self._entries
        entry.segment.seal(entry.slot)
        self._entries[object_id] = entry
        return True

    def abort(self, object_id: ObjectID) -> None:
        """Drop an unsealed allocation (its writer crashed or could not
        write, or its task was cancelled mid-write); a sealed object is
        left alone."""
        entry = self._pending.pop(object_id, None)
        if entry is not None:
            self.puts -= 1
            self._forget(entry)

    def delete(self, object_id: ObjectID) -> bool:
        """Nothing can ask for this sealed object again: give its space
        back — now, or once the last process holding a value that
        aliases it lets go (the zombie list).  False if not resident."""
        entry = self._entries.pop(object_id, None)
        if entry is None:
            return False
        self._forget(entry)
        return True

    def _forget(self, entry: _Entry) -> None:
        """Release an entry's space now, or park it for the reaper while
        a client still holds a reference."""
        self.used_bytes -= entry.size
        if entry.segment.refcount(entry.slot) > 0:
            self._zombies.append(entry)
            return
        entry.segment.release(entry.slot)
        self._maybe_drop_segment(entry.segment)

    # -- reads and the owner's leases -----------------------------------

    def get(self, object_id: ObjectID) -> Optional[memoryview]:
        """Zero-copy read-only window over a sealed object's payload;
        ``None`` if not resident."""
        entry = self._entries.get(object_id)
        return None if entry is None else entry.segment.slot_view(entry.slot)

    def lease(self, object_id: ObjectID) -> Optional[memoryview]:
        """Like :meth:`get`, for a value that is handed to user code:
        the window keeps the object's slot — through the owner's own
        refcount cell — until the last buffer derived from it is gone,
        whatever happens to the object meanwhile."""
        entry = self._entries.get(object_id)
        if entry is None:
            return None
        window = entry.segment.lease(entry.slot, DRIVER_CLIENT, self._dropped.append)
        held = (entry.segment.name, entry.slot)
        self._leased.setdefault(held, [0, entry.size])[0] += 1
        return window

    def settle_leases(self) -> bool:
        """Drop the owner's references of leases that ended since the
        last call; True if there were any."""
        dropped = self._dropped
        if not dropped:
            return False
        while dropped:
            segment, slot = dropped.popleft()
            segment.decref(slot, DRIVER_CLIENT)
            key = (segment.name, slot)
            out = self._leased[key]
            out[0] -= 1
            if not out[0]:
                del self._leased[key]
        self.reap()  # a deleted object may have waited on these
        return True

    # -- the reaper -----------------------------------------------------

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

    def reclaim_client(self, client: int) -> int:
        """A client process died: abort its unsealed allocations, zero
        its refcount column on every segment, and reap.  Returns the
        number of refcount cells reclaimed."""
        doomed = [
            object_id
            for object_id, entry in self._pending.items()
            if entry.writer == client
        ]
        for object_id in doomed:
            self.abort(object_id)
        reclaimed = 0
        for segment in self._segments:
            reclaimed += len(segment.clear_client(client))
        self.reap()
        return reclaimed

    def _allocate(self, size: int, writer: int) -> _Entry:
        """Find contiguous arena space: zombies whose readers are done
        first (their space is warm), then any existing segment, then a
        dedicated overflow segment."""
        if self._zombies:
            self.reap()
        for segment in self._segments:
            slot = segment.allocate(size)
            if slot is not None:
                return _Entry(segment, slot, size, writer)
        # Fragmentation (or slot exhaustion): the byte budget says this
        # fits, so honor it with a dedicated overflow segment.
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
        return _Entry(overflow, overflow.allocate(size), size, writer)

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

    # -- teardown -------------------------------------------------------

    def shutdown(self) -> None:
        """Close and unlink every segment (idempotent).  The creator's
        one guaranteed obligation: after this returns no segment name we
        created remains in the system, even if workers crashed mid-read
        (their mappings die with their processes)."""
        if self.closed:
            return
        self.closed = True
        for segment in self._segments:
            segment.close()
            segment.unlink()

    def stats(self) -> dict:
        return {
            "num_objects": len(self._entries) + len(self._pending),
            "used_bytes": self.used_bytes,
            "capacity": self.capacity,
            "puts": self.puts,
            "segments": len(self._segments),
            "zombie_objects": len(self._zombies),
            "deferred_bytes": self.deferred_bytes,
            "pending_creates": len(self._pending),
            "leased_objects": len(self._leased),
            "leased_bytes": sum(size for _out, size in self._leased.values()),
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
