"""Unit tests of the shared-memory data plane: the segment arena
allocator (create/seal/release lifecycle, per-client refcount cells,
coalescing free list), the SharedObjectStore/coordinator semantics the
proc backend relies on, and the no-leaked-segments guarantee.

The model-parity property suite (the same 500-op interleavings the
LocalObjectStore passes) lives in ``test_objectstore.py``; this file
tests what is *unique* to shared memory: refcount invariants (never
negative; zero ⇒ reclaimable), zombie deferral, crash reclamation, and
segment unlinking.
"""

import pytest

from repro.objectstore.store import ObjectStoreFullError
from repro.shm.coordinator import ShmCoordinator
from repro.shm.segment import (
    ALLOCATED,
    FREE,
    SEALED,
    SegmentError,
    SharedSegment,
    shm_available,
)
from repro.shm.store import SharedObjectStore, ShmClient
from repro.utils.ids import IDGenerator
from repro.utils.serialization import (
    deserialize_frame,
    serialize_buffers,
    write_frame,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="host has no POSIX shared memory"
)


def _segments_on_disk(names):
    """Which of the given segment names still exist system-wide —
    probed by attach (portable: /dev/shm is a Linux detail)."""
    alive = []
    for name in names:
        try:
            probe = SharedSegment.attach(name)
        except FileNotFoundError:
            continue
        probe.close()
        alive.append(name)
    return alive


@pytest.fixture
def segment():
    seg = SharedSegment.create(1 << 16, max_objects=8, max_clients=4)
    yield seg
    seg.close()
    seg.unlink()


@pytest.fixture
def store():
    gen = IDGenerator(namespace="shm-store-test")
    built = SharedObjectStore(gen.node_id(), capacity=4096, max_clients=3)
    yield built, gen
    built.shutdown()


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------


class TestSegmentLifecycle:
    def test_create_seal_read_release(self, segment):
        slot = segment.allocate(100)
        assert segment.state_of(slot) == ALLOCATED
        with pytest.raises(SegmentError, match="unsealed"):
            segment.slot_view(slot)          # readable only once sealed
        segment.slot_view(slot, writable=True)[:] = b"z" * 100
        segment.seal(slot)
        assert segment.state_of(slot) == SEALED
        assert bytes(segment.slot_view(slot)) == b"z" * 100
        assert segment.release(slot) == 100
        assert segment.state_of(slot) == FREE

    def test_sealed_views_are_read_only(self, segment):
        slot = segment.allocate(10)
        segment.seal(slot)
        view = segment.slot_view(slot)
        with pytest.raises(TypeError):
            view[0] = 1

    def test_double_seal_and_double_release_rejected(self, segment):
        slot = segment.allocate(10)
        segment.seal(slot)
        with pytest.raises(SegmentError, match="not ALLOCATED"):
            segment.seal(slot)
        segment.release(slot)
        with pytest.raises(SegmentError, match="already FREE"):
            segment.release(slot)

    def test_allocation_exhaustion_returns_none(self):
        seg = SharedSegment.create(256, max_objects=2, max_clients=1)
        try:
            assert seg.allocate(200) is not None
            assert seg.allocate(200) is None       # arena full
            small = SharedSegment.create(256, max_objects=1, max_clients=1)
            try:
                assert small.allocate(10) is not None
                assert small.allocate(10) is None  # slot table full
            finally:
                small.close()
                small.unlink()
        finally:
            seg.close()
            seg.unlink()

    def test_free_list_reuses_and_coalesces(self, segment):
        slots = [segment.allocate(100) for _ in range(3)]
        for slot in slots:
            segment.seal(slot)
        # Free the middle hole, then both neighbors: the three holes
        # must coalesce (and, emptying the arena, reset the bump).
        segment.release(slots[1])
        segment.release(slots[0])
        segment.release(slots[2])
        assert segment.stats()["bump_bytes"] == 0
        assert segment.stats()["free_holes"] == 0

    def test_just_freed_space_is_handed_out_again_first(self):
        seg = SharedSegment.create(1 << 16, max_objects=16, max_clients=1)
        try:
            def offset_of(slot):
                return seg._read_slot(slot)[1]

            small, _a, big, _b = (seg.allocate(n) for n in (64, 64, 256, 64))
            small_at, big_at = offset_of(small), offset_of(big)
            seg.release(small)               # an older, better-fitting hole
            seg.release(big)                 # the space freed last
            again = seg.allocate(64)
            assert offset_of(again) == big_at          # warm, not best-fit
            assert offset_of(seg.allocate(64)) == big_at + 64  # its remainder
            seg.release(again)
            assert offset_of(seg.allocate(64)) == big_at
            # Uniform traffic cycles over the same space: write, free, write.
            top = seg.allocate(512)
            top_at = offset_of(top)
            for _ in range(5):
                seg.release(top)
                top = seg.allocate(512)
                assert offset_of(top) == top_at
            assert offset_of(seg.allocate(32)) == small_at  # holes still serve
        finally:
            seg.close()
            seg.unlink()

    def test_allocation_does_not_scan_the_slot_table(self, monkeypatch):
        """Allocating with 4000 resident objects reads no more slot-table
        rows than allocating with one (it used to unpack every row from 0
        up to the first free one, on every allocation), and a crash sweep
        visits occupied rows only."""
        seg = SharedSegment.create(1 << 20, max_objects=4096, max_clients=2)
        reads = []
        read_slot = SharedSegment._read_slot
        monkeypatch.setattr(
            SharedSegment, "_read_slot",
            lambda self, slot: reads.append(slot) or read_slot(self, slot),
        )
        try:
            first = seg.allocate(64)
            with_one = len(reads)
            for _ in range(3999):
                seg.allocate(64)
            del reads[:]
            seg.allocate(64)
            assert len(reads) <= with_one
            # Freed rows are reused, lowest index first.
            seg.release(first)
            assert seg.allocate(64) == first
            cells = []
            client_refcount = SharedSegment.client_refcount
            monkeypatch.setattr(
                SharedSegment, "client_refcount",
                lambda self, slot, client: cells.append(slot)
                or client_refcount(self, slot, client),
            )
            seg.incref(7, 1)
            assert seg.clear_client(1) == [7]
            assert len(cells) == 4001          # the occupied rows, not 4096
        finally:
            seg.close()
            seg.unlink()

    def test_attach_sees_creators_writes(self, segment):
        slot = segment.allocate(32)
        segment.slot_view(slot, writable=True)[:] = bytes(range(32))
        segment.seal(slot)
        attached = SharedSegment.attach(segment.name)
        try:
            assert bytes(attached.slot_view(slot)) == bytes(range(32))
            with pytest.raises(SegmentError, match="creator-only"):
                attached.allocate(8)
        finally:
            attached.close()


# ----------------------------------------------------------------------
# Refcount invariants: never negative; zero ⇒ reclaimable
# ----------------------------------------------------------------------


class TestRefcounts:
    def test_per_client_cells_sum(self, segment):
        slot = segment.allocate(8)
        segment.seal(slot)
        segment.incref(slot, 1)
        segment.incref(slot, 1)
        segment.incref(slot, 2)
        assert segment.client_refcount(slot, 1) == 2
        assert segment.client_refcount(slot, 2) == 1
        assert segment.refcount(slot) == 3

    def test_underflow_raises_never_negative(self, segment):
        slot = segment.allocate(8)
        segment.seal(slot)
        segment.incref(slot, 1)
        segment.decref(slot, 1)
        with pytest.raises(SegmentError, match="underflow"):
            segment.decref(slot, 1)
        assert segment.refcount(slot) == 0

    def test_nonzero_refcount_blocks_release(self, segment):
        slot = segment.allocate(8)
        segment.seal(slot)
        segment.incref(slot, 3)
        with pytest.raises(SegmentError, match="live reference"):
            segment.release(slot)
        segment.decref(slot, 3)
        segment.release(slot)                      # zero ⇒ reclaimable

    def test_lease_holds_the_slot_until_the_last_derived_buffer_dies(self, segment):
        from collections import deque

        slot = segment.allocate(64)
        segment.slot_view(slot, writable=True)[:] = bytes(range(64))
        with pytest.raises(SegmentError, match="unsealed"):
            segment.lease(slot, 1, print)
        segment.seal(slot)
        dropped = deque()
        window = segment.lease(slot, 1, dropped.append)
        assert window.readonly and bytes(window[:4]) == bytes(range(4))
        piece = window[10:20]                      # what numpy would keep
        del window
        assert segment.client_refcount(slot, 1) == 1 and not dropped
        with pytest.raises(SegmentError, match="live reference"):
            segment.release(slot)
        del piece
        # The finalizer only reports; the cell's one writer lets go.
        assert list(dropped) == [(segment, slot)]
        assert segment.client_refcount(slot, 1) == 1
        segment.decref(slot, 1)
        segment.release(slot)

    def test_clear_client_reaps_only_that_column(self, segment):
        slot = segment.allocate(8)
        segment.seal(slot)
        segment.incref(slot, 1)
        segment.incref(slot, 2)
        assert segment.clear_client(1) == [slot]
        assert segment.refcount(slot) == 1         # client 2 untouched
        assert segment.clear_client(1) == []       # idempotent


# ----------------------------------------------------------------------
# Store semantics beyond the shared model: zombies and the reaper
# ----------------------------------------------------------------------


class TestZombiesAndReaper:
    def test_evicted_object_with_live_reader_defers_space(self, store):
        s, gen = store
        reader = ShmClient(client_index=1)
        victim = gen.object_id()
        s.put(victim, b"v" * 2000)
        name, slot, _size = s.describe(victim)
        reader.hold(name, slot)
        # Capacity pressure evicts the victim from the directory...
        s.put(gen.object_id(), b"n" * 3000)
        assert not s.contains(victim)
        assert s.used_bytes == 3000                # budget freed at once
        # ...but its bytes are deferred, not recycled, while held:
        assert s.deferred_bytes == 2000
        assert bytes(reader.read(name, slot)) == b"v" * 2000
        reader.release(name, slot)
        assert s.reap() == 2000                    # zero ⇒ reclaimable
        assert s.deferred_bytes == 0

    def test_clear_client_unblocks_zombies(self, store):
        s, gen = store
        reader = ShmClient(client_index=2)
        victim = gen.object_id()
        s.put(victim, b"v" * 1000)
        name, slot, _size = s.describe(victim)
        reader.hold(name, slot)
        s.delete(victim)
        assert s.deferred_bytes == 1000
        # The reader's process "died": the reaper reclaims its column.
        assert s.clear_client(2) == 1
        assert s.deferred_bytes == 0

    def test_overflow_segment_honors_byte_budget(self, store):
        """Fragmentation can force a dedicated segment, but capacity
        accounting (and ObjectStoreFullError) still byte-match the
        LocalObjectStore contract."""
        s, gen = store
        pinned = gen.object_id()
        s.put(pinned, b"p" * 2000)
        s.pin(pinned)
        with pytest.raises(ObjectStoreFullError, match="evictable"):
            s.put(gen.object_id(), b"x" * 3000)    # 2000 pinned + 3000 > 4096
        big = gen.object_id()
        s.put(big, b"y" * 2000)                    # fits: maybe new segment
        assert s.contains(big) and s.contains(pinned)
        assert s.used_bytes == 4000

    def test_oversized_object_rejected(self, store):
        s, gen = store
        with pytest.raises(ObjectStoreFullError, match="exceeds store capacity"):
            s.put(gen.object_id(), b"x" * 5000)

    def test_reap_unlinks_emptied_overflow_segment(self, store):
        """Regression: an overflow segment whose last allocation is
        released *by the reaper* must be unlinked immediately — not
        blocked by its own just-released zombie entry."""
        s, gen = store
        reader = ShmClient(client_index=1)
        anchor = gen.object_id()
        s.put(anchor, b"a" * 1500)
        s.pin(anchor)
        blocker = gen.object_id()
        s.put(blocker, b"b" * 1500)
        name_b, slot_b, _ = s.describe(blocker)
        reader.hold(name_b, slot_b)      # pins the arena hole open
        spiller = gen.object_id()
        s.put(spiller, b"c" * 1500)      # fragmentation ⇒ overflow segment
        assert len(s.segment_names()) == 2
        overflow = s.segment_names()[-1]
        name_c, slot_c, _ = s.describe(spiller)
        assert name_c == overflow
        reader.hold(name_c, slot_c)
        s.delete(spiller)                # zombie on the overflow segment
        reader.release(name_c, slot_c)
        assert s.reap() == 1500
        assert overflow not in s.segment_names()
        assert _segments_on_disk([overflow]) == []
        reader.release(name_b, slot_b)


# ----------------------------------------------------------------------
# Frames: zero-copy out-of-band serialization through the store
# ----------------------------------------------------------------------


class TestFrames:
    def test_numpy_roundtrip_aliases_the_arena(self, store):
        numpy = pytest.importorskip("numpy")
        s, gen = store
        array = numpy.arange(64, dtype=numpy.float64)
        serialized = serialize_buffers(array)
        # The big payload went out-of-band: the in-band stream is tiny.
        assert len(serialized.inband) < 200
        assert serialized.buffers[0].nbytes == array.nbytes
        oid = gen.object_id()
        s.put_with_writer(
            oid, serialized.frame_bytes, lambda v: write_frame(v, serialized)
        )
        out = deserialize_frame(s.get(oid))
        assert numpy.array_equal(out, array)
        assert out.base is not None                # a view, not a copy
        assert not out.flags.writeable             # sealed ⇒ read-only

    def test_plain_values_roundtrip_in_band(self, store):
        s, gen = store
        value = {"weights": list(range(50)), "tag": "model"}
        serialized = serialize_buffers(value)
        oid = gen.object_id()
        s.put_with_writer(
            oid, serialized.frame_bytes, lambda v: write_frame(v, serialized)
        )
        assert deserialize_frame(s.get(oid)) == value


# ----------------------------------------------------------------------
# Coordinator: pending creates, aborts, crash reclamation
# ----------------------------------------------------------------------


class TestCoordinator:
    @pytest.fixture
    def coordinator(self):
        gen = IDGenerator(namespace="shm-coord-test")
        built = ShmCoordinator(gen.node_id(), capacity=1 << 20, num_workers=2)
        yield built, gen
        built.shutdown()

    def test_pending_creates_are_invisible_until_sealed(self, coordinator):
        co, gen = coordinator
        oid = gen.object_id()
        granted = co.create_for_client(oid, 128, client=1)
        assert granted is not None
        assert not co.contains(oid)                # unsealed: not readable
        assert co.seal(oid)
        assert co.contains(oid)

    def test_released_object_waits_for_both_sides_leases(self, coordinator):
        """A release while values still alias the slot parks it as a
        zombie; the driver's lease and a worker's each end when their
        last buffer dies and the owner settles, and only then is the
        space handed out again — to the very next allocation."""
        import numpy as np

        co, gen = coordinator
        oid = gen.object_id()
        array = np.arange(4096, dtype=np.float64)
        assert co.put_serialized(oid, serialize_buffers(array))
        name, slot, _size = co.describe(oid)
        worker = ShmClient(client_index=1)
        ours = deserialize_frame(co.lease(oid))
        theirs = deserialize_frame(worker.lease(name, slot))
        co.release(oid)
        assert not co.contains(oid)
        stats = co.stats()
        assert (stats["zombie_objects"], stats["leased_objects"]) == (1, 1)
        assert stats["used_bytes"] == 0 and stats["leased_bytes"] > 32768
        del ours
        assert co.settle_leases() and not co.settle_leases()
        assert co.stats()["leased_objects"] == 0
        assert co.stats()["zombie_objects"] == 1     # the worker still reads
        assert bool(np.all(theirs == array))
        del theirs
        worker.settle_leases()
        other = gen.object_id()
        assert co.put_serialized(other, serialize_buffers(array + 1.0))
        assert co.stats()["zombie_objects"] == 0     # reaped by the allocation
        assert co.describe(other)[:2] == (name, slot)  # on the same warm slot
        worker.detach_all()

    def test_crash_aborts_pending_and_clears_refcounts(self, coordinator):
        co, gen = coordinator
        sealed = gen.object_id()
        assert co.put_serialized(sealed, serialize_buffers(b"k" * 512))
        name, slot, _size = co.describe(sealed)
        worker = ShmClient(client_index=1)
        worker.hold(name, slot)                    # mid-read...
        pending = gen.object_id()
        assert co.create_for_client(pending, 256, client=1) is not None
        # ...when the worker dies: its column is zeroed and its unsealed
        # allocation vanishes, while the sealed object survives.
        assert co.reclaim_client(1) >= 1
        assert co.store.refcount(sealed) == 0
        assert not co.store.contains(pending)
        assert co.contains(sealed)
        assert co.load(sealed) == b"k" * 512

    def test_seal_after_abort_reports_false(self, coordinator):
        co, gen = coordinator
        oid = gen.object_id()
        assert co.create_for_client(oid, 64, client=2) is not None
        co.abort(oid)
        assert not co.seal(oid)


# ----------------------------------------------------------------------
# The shutdown guarantee: no leaked segments, tracker clean
# ----------------------------------------------------------------------


class TestNoLeakedSegments:
    def test_store_shutdown_unlinks_everything(self):
        gen = IDGenerator(namespace="shm-leak-test")
        s = SharedObjectStore(gen.node_id(), capacity=4096, max_clients=2)
        s.put(gen.object_id(), b"a" * 2000)
        s.pin(s.object_ids()[0])
        s.put(gen.object_id(), b"b" * 2000)        # may overflow-segment
        names = s.segment_names()
        assert _segments_on_disk(names) == list(names)
        s.shutdown()
        assert _segments_on_disk(names) == []
        # Attaching by name must now fail: nothing half-unlinked.
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedSegment.attach(name)
        s.shutdown()                               # idempotent

    def test_shutdown_with_zombies_still_unlinks(self):
        """Even objects a (dead) client still holds cannot keep a
        segment name alive past shutdown."""
        gen = IDGenerator(namespace="shm-leak-zombie")
        s = SharedObjectStore(gen.node_id(), capacity=4096, max_clients=2)
        oid = gen.object_id()
        s.put(oid, b"z" * 100)
        name, slot, _size = s.describe(oid)
        ShmClient(client_index=1).hold(name, slot)  # never released
        s.delete(oid)
        assert s.deferred_bytes == 100
        s.shutdown()
        assert _segments_on_disk([name]) == []
