"""Arena allocation over one shared-memory segment.

A :class:`SharedSegment` is one ``multiprocessing.shared_memory`` block
split into a **header region** and a **data arena**:

::

    [magic | geometry | slot table ........ | data arena ............]
                        ^ max_objects slots   ^ payloads, 64-B aligned

Each *slot* describes one object: its lifecycle state
(``FREE → ALLOCATED → SEALED → FREE``), its payload's offset/size in the
arena, and a row of **per-client refcount cells** — one 32-bit cell per
attached process.  A client only ever writes its *own* cell, so refcount
traffic needs no cross-process locks and no atomics: every cell has a
single writer, and the store reads the row's sum (a conservative,
monotone-correct view — a stale non-zero merely delays reclamation; a
zero can only be read after the owner really released).

The lifecycle discipline that makes the sum safe:

* only the **creator process** (the driver) allocates, seals, and
  releases — workers never mutate slot state, only their refcount cell;
* a reader increments its cell *after* receiving a descriptor from the
  creator and decrements when the last buffer it derived from the slot
  is gone (a **lease**, :meth:`SharedSegment.lease`).  The creator does
  not release the object while anything it can see still needs it — a
  handle, a task that was handed the descriptor and has not reported
  done — so a reader's first increment always happens while the object
  is provably live: there is no window in which space could be recycled
  under a reader that has been handed a descriptor;
* space whose row is non-zero is never reused (the store defers it to
  the reaper instead), so a value kept past its task, or a crashed
  reader, can strand bytes but never corrupt a live object.

The arena itself is a bump allocator with a coalescing free list:
release returns ``(offset, size)`` to the free list, merging adjacent
holes; when the segment empties completely the bump pointer resets.
Space that was just freed is handed out again first: its pages are
already backed and already mapped in every process that touched them,
and a copy into such pages runs several times faster than one into
pages the kernel has yet to provide, so uniform traffic cycles over a
few warm MiB instead of walking the whole arena.  Free slot-table rows
are kept on a creator-side stack.  Allocation is creator-only and
single-threaded by construction (the driver holds its runtime lock), so
none of this needs synchronization either.
"""

from __future__ import annotations

import ctypes
import os
import secrets
import struct
import weakref
from typing import Callable, Optional

from repro.errors import ReproError

try:  # pragma: no cover - absent only on exotic/embedded builds
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

#: Slot lifecycle states.
FREE, ALLOCATED, SEALED = 0, 1, 2

#: Header geometry: magic, max_objects, max_clients, data_offset, capacity.
_HEADER = struct.Struct("<IIIQQ")
_MAGIC = 0x52504C31  # "RPL1" — repro plasma layout v1

#: Per-slot fixed part: state u32, pad u32, offset u64, size u64.
_SLOT = struct.Struct("<IIQQ")
_CELL = struct.Struct("<I")

#: Payload alignment — cache-line/numpy friendly.
ALIGNMENT = 64


class SegmentError(ReproError):
    """A shared-memory segment operation violated the slot lifecycle."""


def _align(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _slot_stride(max_clients: int) -> int:
    return _SLOT.size + _CELL.size * max_clients


def header_bytes(max_objects: int, max_clients: int) -> int:
    """Total header size (geometry + slot table), data-aligned."""
    return _align(_HEADER.size + max_objects * _slot_stride(max_clients))


#: Budgets smaller than this are not worth a data plane (the inline
#: threshold already keeps objects this small on the pipe).
MIN_SHM_CAPACITY = 4 * 1024**2


def usable_shm_budget(requested: int) -> int:
    """Clamp a requested shm byte budget to what the host can back.

    POSIX shm on Linux is a size-limited tmpfs (Docker defaults
    /dev/shm to 64 MB) that enforces its limit at *page allocation*,
    not at ftruncate — an oversized segment creates fine and then kills
    the writer with SIGBUS when the arena grows past the limit.  So the
    budget is capped to half the filesystem's free space; when even
    that is below :data:`MIN_SHM_CAPACITY` the data plane is disabled
    (returns 0) and objects take the pipe.  Hosts without a statvfs
    view of shm (macOS) return the request unchanged."""
    try:
        stats = os.statvfs("/dev/shm")
    except (OSError, AttributeError):  # no tmpfs view: trust the request
        return requested
    budget = min(requested, (stats.f_bavail * stats.f_frsize) // 2)
    if budget < requested and budget < MIN_SHM_CAPACITY:
        return 0  # *host*-limited below usefulness: pipe-only
    return budget  # a deliberately tiny request is honored as asked


def shm_available() -> bool:
    """Whether this host can create POSIX shared-memory segments.

    Probes once per process by creating and unlinking a minimal segment;
    containers without /dev/shm (or with it mounted noexec/full) make
    this False, and the proc backend then falls back to the pipe path.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        if shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=ALIGNMENT)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except OSError:
                _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: Optional[bool] = None


class SharedSegment:
    """One shared-memory block: slot table + arena (see module docstring).

    Create with :meth:`create` (the owning driver) or :meth:`attach`
    (a reading/writing worker).  Only the creator may call
    :meth:`allocate`, :meth:`seal`, :meth:`release`, or
    :meth:`clear_client`; attached clients use :meth:`view`,
    :meth:`incref`, and :meth:`decref`.
    """

    def __init__(self, shm, max_objects: int, max_clients: int, owner: bool) -> None:
        self._shm = shm
        self.name = shm.name
        self.max_objects = max_objects
        self.max_clients = max_clients
        self.owner = owner
        self._data_offset = header_bytes(max_objects, max_clients)
        self.capacity = shm.size - self._data_offset
        self._unlinked = False
        self._closed = False
        if owner:
            #: Creator-side allocator state (never shared): free holes as
            #: sorted (offset, size) plus the bump high-water mark.
            self._free: list[tuple[int, int]] = []
            self._bump = self._data_offset
            #: Offset of the space most recently given back (a hole's
            #: start, or the bump mark it lowered): the warm candidate.
            self._last_freed: Optional[int] = None
            #: Slot-table rows: the free ones as a stack (lowest on
            #: top), the occupied ones as a set — no allocation and no
            #: crash sweep ever scans the table.
            self._free_slots = list(range(max_objects - 1, -1, -1))
            self._live_slots: set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        capacity: int,
        max_objects: int = 4096,
        max_clients: int = 16,
        name_prefix: str = "repro_shm",
    ) -> "SharedSegment":
        """Create a fresh segment able to hold ``capacity`` payload bytes."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_objects < 1 or max_clients < 1:
            raise ValueError("max_objects and max_clients must be >= 1")
        header = header_bytes(max_objects, max_clients)
        # token_hex(4) keeps names inside macOS's 31-char shm limit for
        # any sane prefix; 2^32 per-process collision space is plenty.
        name = f"{name_prefix}_{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=header + _align(capacity)
        )
        _HEADER.pack_into(
            shm.buf, 0, _MAGIC, max_objects, max_clients, header, capacity
        )
        # POSIX shm is zero-filled on creation: every slot already reads
        # as FREE with zero refcounts; nothing else to initialize.
        return cls(shm, max_objects, max_clients, owner=True)

    @classmethod
    def attach(cls, name: str, untrack: bool = False) -> "SharedSegment":
        """Attach to an existing segment by name (worker side).

        Proc workers are mp-*spawned children* and share the driver's
        ``resource_tracker`` daemon, so their attach-time registration
        is a set no-op and needs no compensation — the tracker keeps
        exactly one entry, removed by the creator's :meth:`unlink`
        (and acting as the leak safety net if the driver is SIGKILLed).
        Pass ``untrack=True`` only when attaching from a *foreign*
        process with its own tracker: there, before 3.13, every attach
        registers the segment for cleanup and the first such process to
        exit would unlink a segment the creator still owns.
        """
        shm = shared_memory.SharedMemory(name=name)
        if untrack and resource_tracker is not None:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker impl detail
                pass
        magic, max_objects, max_clients, _, _ = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise SegmentError(f"segment {name!r} has no repro header")
        return cls(shm, max_objects, max_clients, owner=False)

    # ------------------------------------------------------------------
    # Slot table primitives
    # ------------------------------------------------------------------

    def _slot_offset(self, slot: int) -> int:
        if not 0 <= slot < self.max_objects:
            raise SegmentError(f"slot {slot} out of range")
        return _HEADER.size + slot * _slot_stride(self.max_clients)

    def _read_slot(self, slot: int) -> tuple[int, int, int]:
        state, _, offset, size = _SLOT.unpack_from(
            self._shm.buf, self._slot_offset(slot)
        )
        return state, offset, size

    def _write_slot(self, slot: int, state: int, offset: int, size: int) -> None:
        _SLOT.pack_into(self._shm.buf, self._slot_offset(slot), state, 0, offset, size)

    def state_of(self, slot: int) -> int:
        return self._read_slot(slot)[0]

    def _cell_offset(self, slot: int, client: int) -> int:
        if not 0 <= client < self.max_clients:
            raise SegmentError(
                f"client index {client} out of range (max_clients="
                f"{self.max_clients})"
            )
        return self._slot_offset(slot) + _SLOT.size + client * _CELL.size

    # ------------------------------------------------------------------
    # Refcounts (any attached process; single writer per cell)
    # ------------------------------------------------------------------

    def incref(self, slot: int, client: int) -> int:
        """Increment ``client``'s refcount cell for ``slot``."""
        offset = self._cell_offset(slot, client)
        (count,) = _CELL.unpack_from(self._shm.buf, offset)
        _CELL.pack_into(self._shm.buf, offset, count + 1)
        return count + 1

    def decref(self, slot: int, client: int) -> int:
        """Decrement ``client``'s cell; a drop below zero is an invariant
        violation (a release without a matching hold) and raises."""
        offset = self._cell_offset(slot, client)
        (count,) = _CELL.unpack_from(self._shm.buf, offset)
        if count == 0:
            raise SegmentError(
                f"refcount underflow: slot {slot} client {client} is already 0"
            )
        _CELL.pack_into(self._shm.buf, offset, count - 1)
        return count - 1

    def refcount(self, slot: int) -> int:
        """Sum of all clients' cells (creator's conservative view)."""
        base = self._slot_offset(slot) + _SLOT.size
        return sum(
            _CELL.unpack_from(self._shm.buf, base + i * _CELL.size)[0]
            for i in range(self.max_clients)
        )

    def client_refcount(self, slot: int, client: int) -> int:
        (count,) = _CELL.unpack_from(self._shm.buf, self._cell_offset(slot, client))
        return count

    def clear_client(self, client: int) -> list[int]:
        """Zero one client's refcount column (creator-only reaping of a
        dead process).  Returns the slots that held non-zero counts."""
        self._require_owner("clear_client")
        reclaimed = []
        for slot in sorted(self._live_slots):
            if self.client_refcount(slot, client) > 0:
                _CELL.pack_into(self._shm.buf, self._cell_offset(slot, client), 0)
                reclaimed.append(slot)
        return reclaimed

    # ------------------------------------------------------------------
    # Allocation lifecycle (creator only)
    # ------------------------------------------------------------------

    def _require_owner(self, op: str) -> None:
        if not self.owner:
            raise SegmentError(f"{op} is creator-only (attached client)")

    def allocate(self, size: int) -> Optional[int]:
        """Reserve ``size`` contiguous bytes; returns a slot index, or
        ``None`` when no free slot or no contiguous hole fits (the store
        then falls back to another segment)."""
        self._require_owner("allocate")
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if not self._free_slots:
            return None
        offset = self._carve(_align(size))
        if offset is None:
            return None
        slot = self._free_slots.pop()
        self._live_slots.add(slot)
        self._write_slot(slot, ALLOCATED, offset, size)
        return slot

    @property
    def _allocated(self) -> int:
        return len(self._live_slots)

    def _carve(self, aligned: int) -> Optional[int]:
        # The space freed last if it fits (warm pages), else best-fit
        # from the free list, else the bump region.
        end = self._data_offset + self.capacity
        warm = self._last_freed
        if warm == self._bump and warm + aligned <= end:
            self._bump += aligned
            self._last_freed = None
            return warm
        best = None
        for index, (offset, size) in enumerate(self._free):
            if size < aligned:
                continue
            if offset == warm:
                best = index
                break
            if best is None or size < self._free[best][1]:
                best = index
        if best is not None:
            offset, size = self._free.pop(best)
            if size > aligned:
                self._free.append((offset + aligned, size - aligned))
                self._free.sort()
                if offset == warm:
                    self._last_freed = offset + aligned
            return offset
        if self._bump + aligned <= end:
            offset = self._bump
            self._bump += aligned
            return offset
        return None

    def seal(self, slot: int) -> None:
        """Transition ALLOCATED → SEALED: the payload is now immutable
        and readable by any attached client."""
        self._require_owner("seal")
        state, offset, size = self._read_slot(slot)
        if state != ALLOCATED:
            raise SegmentError(f"seal: slot {slot} is not ALLOCATED (state={state})")
        self._write_slot(slot, SEALED, offset, size)

    def release(self, slot: int) -> int:
        """Return a slot's space to the arena; the payload bytes become
        reusable.  Requires the refcount row to read zero — callers that
        see a non-zero row defer to the reaper instead.  Returns the
        number of payload bytes freed."""
        self._require_owner("release")
        state, offset, size = self._read_slot(slot)
        if state == FREE:
            raise SegmentError(f"release: slot {slot} is already FREE")
        count = self.refcount(slot)
        if count > 0:
            raise SegmentError(
                f"release: slot {slot} still has {count} live reference(s)"
            )
        self._write_slot(slot, FREE, 0, 0)
        self._free_space(offset, _align(size))
        self._live_slots.discard(slot)
        self._free_slots.append(slot)
        if not self._live_slots:
            # The arena emptied: forget fragmentation entirely.
            self._free.clear()
            self._bump = self._last_freed = self._data_offset
        return size

    def _free_space(self, offset: int, aligned: int) -> None:
        if offset + aligned == self._bump:
            self._bump = offset          # shrink the high-water mark...
            while self._free and sum(self._free[-1]) == self._bump:
                off, size = self._free.pop()
                self._bump = off         # ...swallowing adjacent holes
            self._last_freed = self._bump
            return
        self._free.append((offset, aligned))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, size in self._free:     # coalesce adjacent holes
            if merged and sum(merged[-1]) == off:
                prev_off, prev_size = merged.pop()
                merged.append((prev_off, prev_size + size))
            else:
                merged.append((off, size))
            if merged[-1][0] <= offset < sum(merged[-1]):
                self._last_freed = merged[-1][0]
        self._free = merged

    # ------------------------------------------------------------------
    # Payload access
    # ------------------------------------------------------------------

    def view(self, offset: int, size: int, writable: bool = False) -> memoryview:
        """A memoryview over ``size`` payload bytes at ``offset`` — the
        zero-copy read (or, for the writer filling an ALLOCATED slot,
        write) window."""
        end = self._data_offset + self.capacity
        if offset < self._data_offset or offset + size > end:
            raise SegmentError(
                f"view [{offset}, {offset + size}) outside the data arena"
            )
        window = self._shm.buf[offset : offset + size]
        return window if writable else window.toreadonly()

    def slot_view(self, slot: int, writable: bool = False) -> memoryview:
        state, offset, size = self._read_slot(slot)
        if state == FREE:
            raise SegmentError(f"slot {slot} is FREE")
        if not writable and state != SEALED:
            raise SegmentError(f"read of unsealed slot {slot}")
        return self.view(offset, size, writable=writable)

    def lease(
        self, slot: int, client: int, dropped: Callable[[tuple], None]
    ) -> memoryview:
        """A read-only window over a sealed slot that keeps the slot for
        as long as any buffer derived from it is alive.

        Takes ``client``'s reference now.  The window is exported by an
        object of its own, so every slice of it — the buffers a
        zero-copy ``deserialize_frame`` hands to numpy — keeps that
        object alive, and when the last of them dies its finalizer calls
        ``dropped((segment, slot))``.  That can happen on any thread, in
        the middle of anything, so ``dropped`` must be a bare
        ``deque.append``: the owner of the deque does the matching
        :meth:`decref` at a moment of its own choosing."""
        state, offset, size = self._read_slot(slot)
        if state != SEALED:
            raise SegmentError(f"lease of unsealed slot {slot} (state={state})")
        self.incref(slot, client)
        window = (ctypes.c_char * size).from_buffer(self._shm.buf, offset)
        weakref.finalize(window, dropped, (self, slot)).atexit = False
        return memoryview(window).cast("B").toreadonly()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping.  If user code still holds
        zero-copy views (numpy arrays aliasing the arena), the unmap is
        skipped — the OS frees the memory when the last view dies — but
        the segment is still unlinkable."""
        if self._closed:
            return
        try:
            self._shm.close()
        except BufferError:
            # Exported views keep the mapping alive; that is exactly the
            # zero-copy contract.  Disarm the SharedMemory finalizer so
            # a later GC does not re-raise from __del__; the mapping is
            # released when the last view dies (or at process exit), and
            # unlink() still removes the name either way.
            self._shm._buf = None
            self._shm._mmap = None
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment's name from the system (creator-only).

        Idempotent; existing mappings (ours or a worker's) stay valid
        until each process closes or exits, so in-flight zero-copy reads
        are never torn."""
        self._require_owner("unlink")
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already reaped externally
            pass

    def stats(self) -> dict:
        live = self._allocated if self.owner else 0
        return {
            "name": self.name,
            "capacity": self.capacity,
            "allocated_objects": live,
            "bump_bytes": (self._bump - self._data_offset) if self.owner else None,
            "free_holes": len(self._free) if self.owner else None,
        }
