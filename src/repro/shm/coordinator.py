"""Driver-side coordination of the shared-memory data plane.

The :class:`ShmCoordinator` owns the :class:`~repro.shm.store.SharedObjectStore`
and everything the proc runtime needs around it:

* the **object directory** — ObjectID → (segment, slot, offset/size)
  metadata, served to workers as :class:`~repro.proc.messages.ShmDescriptor`
  replies so large objects cross the pipe as ~100-byte descriptors
  instead of payloads;
* **two-phase worker writes** — a worker asks for an allocation
  (``SHM_CREATE``), fills it through its own mapping, and the driver
  seals on ``SHM_SEAL``/``DONE``; the coordinator tracks which client
  owns each unsealed allocation so a crash can abort it;
* **release and leases** — :meth:`release` gives a dead object's space
  back (at once, or through the zombie list while some process still
  holds a value aliasing it); the driver's own zero-copy reads take a
  :meth:`lease` against its refcount cell, settled here;
* the **reaper** — reclaims arena space whose refcount row has drained,
  and (on worker crash) zeroes the dead client's refcount column and
  aborts its unsealed allocations, so a killed worker can never strand
  an object or leak arena space;
* **guaranteed unlinking** — :meth:`shutdown` closes and unlinks every
  segment exactly once, even after worker crashes; no shm names outlive
  the runtime.

Everything here runs under the proc runtime's lock (single-writer
discipline of the store); the only cross-process state is the segments
themselves.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Optional

from repro.objectstore.store import ObjectStoreFullError
from repro.shm.store import SharedObjectStore
from repro.utils.ids import NodeID, ObjectID
from repro.utils.serialization import (
    SerializedBuffers,
    deserialize_frame,
    write_frame,
)

#: Client index the driver uses for its own refcount cells (workers use
#: ``worker_index + 1``).
DRIVER_CLIENT = 0


class ShmCoordinator:
    """Object directory + lifecycle authority for the shm data plane."""

    def __init__(
        self,
        node_id: NodeID,
        capacity: int,
        num_workers: int,
        seed: int = 0,
    ) -> None:
        # Short prefix by necessity: POSIX shm names are capped at 31
        # chars (incl. the leading slash) on macOS, and the full name is
        # "<prefix>[o]_<8 hex>".  "rs<pid hex><seed hex>" keeps the
        # whole thing under the limit while staying per-runtime unique.
        self.store = SharedObjectStore(
            node_id,
            capacity=capacity,
            max_clients=num_workers + 1,
            name_prefix=f"rs{os.getpid():x}s{seed & 0xFFFF:x}",
        )
        #: Unsealed allocations: object_id -> owning client index.
        self._pending: dict[ObjectID, int] = {}
        #: The driver's own outstanding leases, ``(segment name, slot) ->
        #: [windows out, bytes]``, and the ones whose last buffer died
        #: since the last :meth:`settle_leases` (appended by finalizers).
        self._leased: dict[tuple, list] = {}
        self._dropped: deque = deque()
        self.closed = False

    # ------------------------------------------------------------------
    # Directory
    # ------------------------------------------------------------------

    def contains(self, object_id: ObjectID) -> bool:
        """Whether a *sealed* object is resident (unsealed allocations
        are invisible: their bytes are not readable yet)."""
        return (
            self.store.contains(object_id) and object_id not in self._pending
        )

    def size_of(self, object_id: ObjectID) -> Optional[int]:
        if not self.contains(object_id):
            return None
        return self.store.size_of(object_id)

    def describe(self, object_id: ObjectID) -> Optional[tuple]:
        """``(segment_name, slot, size)`` for a sealed resident object."""
        if not self.contains(object_id):
            return None
        return self.store.describe(object_id)

    # ------------------------------------------------------------------
    # Driver-side writes and reads
    # ------------------------------------------------------------------

    def put_serialized(
        self, object_id: ObjectID, serialized: SerializedBuffers
    ) -> bool:
        """Write a split value as a frame; the value's single copy.

        Returns False (caller falls back to the pipe store) when the
        byte budget cannot take it; never raises capacity errors."""
        try:
            self.store.put_with_writer(
                object_id,
                serialized.frame_bytes,
                lambda view: write_frame(view, serialized),
            )
        except ObjectStoreFullError:
            return False
        self.store.pin(object_id)  # the only replica: never evict
        return True

    def begin_put(self, object_id: ObjectID, size: int) -> Optional[memoryview]:
        """Two-phase driver put: reserve an unsealed, pinned allocation
        (call under the runtime lock) and return its writable window.
        The multi-MB frame copy then happens *outside* the lock — the
        allocation is invisible (pending) and immovable (pinned)
        meanwhile — followed by :meth:`finish_put` under the lock.
        ``None`` when the byte budget cannot take it."""
        try:
            entry = self.store.create(object_id, size)
        except ObjectStoreFullError:
            return None
        if entry is None:
            return None
        self._pending[object_id] = DRIVER_CLIENT
        self.store.pin(object_id)
        return entry.segment.slot_view(entry.slot, writable=True)

    def finish_put(self, object_id: ObjectID) -> None:
        """Publish a :meth:`begin_put` allocation (under the lock)."""
        self.seal(object_id)

    def view(self, object_id: ObjectID) -> Optional[memoryview]:
        """Zero-copy window over a sealed object's frame (touches LRU;
        call under the lock).  Deserialization can then happen outside
        the lock — the object is pinned, so the window cannot move."""
        if not self.contains(object_id):
            return None
        return self.store.get(object_id)

    def lease(self, object_id: ObjectID) -> Optional[memoryview]:
        """Like :meth:`view`, for a value that is handed to user code:
        the window keeps the object's slot — through the driver's own
        refcount cell — until the last buffer derived from it is gone,
        whatever happens to the object meanwhile."""
        if not self.contains(object_id):
            return None
        window, held, size = self.store.lease(
            object_id, DRIVER_CLIENT, self._dropped.append
        )
        self._leased.setdefault(held, [0, size])[0] += 1
        return window

    def settle_leases(self) -> bool:
        """Drop the driver's references of leases that ended since the
        last call (under the lock); True if there were any."""
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
        self.store.reap()  # a released object may have waited on these
        return True

    def release(self, object_id: ObjectID) -> None:
        """Nothing can ask for this sealed object again: give its space
        back — now, or once the last process holding a value that
        aliases it lets go (the zombie list)."""
        self.store.unpin(object_id)
        self.store.delete(object_id)

    def load(self, object_id: ObjectID) -> Any:
        """Zero-copy reconstruction of a sealed object's value."""
        view = self.view(object_id)
        if view is None:
            raise KeyError(f"object {object_id} is not in the shm store")
        return deserialize_frame(view)

    # ------------------------------------------------------------------
    # Two-phase worker writes
    # ------------------------------------------------------------------

    def create_for_client(
        self, object_id: ObjectID, size: int, client: int
    ) -> Optional[tuple]:
        """Allocate ``size`` bytes for a worker to fill; returns the
        descriptor tuple ``(segment_name, slot, size)`` or ``None`` when
        the budget is full (the worker then ships bytes over the pipe)."""
        try:
            entry = self.store.create(object_id, size)
        except ObjectStoreFullError:
            return None
        if entry is None:
            # Already resident (a replayed task racing a surviving
            # result): refuse the grant rather than hand out a second
            # writer window — the pipe path handles the duplicate.
            return None
        self._pending[object_id] = client
        self.store.pin(object_id)
        return entry.segment.name, entry.slot, size

    def seal(self, object_id: ObjectID) -> bool:
        """Seal a worker-filled allocation; returns False if it was
        already aborted (e.g. the writer crashed and the reaper won)."""
        self._pending.pop(object_id, None)
        if not self.store.contains(object_id):
            return False
        self.store.seal(object_id)
        return True

    def abort(self, object_id: ObjectID) -> None:
        """Drop an unsealed allocation (writer crashed or task was
        cancelled mid-write)."""
        self._pending.pop(object_id, None)
        self.store.unpin(object_id)
        self.store.abort(object_id)

    def abort_if_pending(self, object_id: ObjectID) -> None:
        """Abort only if ``object_id`` has an unsealed allocation — the
        safe form for callers that may race a sealed object."""
        if object_id in self._pending:
            self.abort(object_id)

    # ------------------------------------------------------------------
    # The reaper
    # ------------------------------------------------------------------

    def reap(self) -> int:
        """Release arena space whose refcount rows have drained."""
        return self.store.reap()

    def reclaim_client(self, client: int) -> int:
        """A worker process died: zero its refcount column everywhere,
        abort its unsealed allocations, and reap.  Returns the number of
        refcount cells reclaimed."""
        doomed = [
            object_id
            for object_id, owner in self._pending.items()
            if owner == client
        ]
        for object_id in doomed:
            self.abort(object_id)
        return self.store.clear_client(client)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def segment_names(self) -> tuple:
        return self.store.segment_names()

    def shutdown(self) -> None:
        """Unlink every segment (idempotent; crash-safe)."""
        if self.closed:
            return
        self.closed = True
        self.store.shutdown()

    def stats(self) -> dict:
        stats = self.store.stats()
        stats["pending_creates"] = len(self._pending)
        stats["leased_objects"] = len(self._leased)
        stats["leased_bytes"] = sum(size for _out, size in self._leased.values())
        return stats
