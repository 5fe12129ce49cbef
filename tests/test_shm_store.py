"""Unit tests of the shared-memory data plane: the segment arena
allocator (create/seal/release lifecycle, per-client refcount cells,
coalescing free list), the SharedObjectStore semantics the proc and
dist backends rely on, and the no-leaked-segments guarantee.

The store is an allocator with explicit release: refcount invariants
(never negative; zero ⇒ reclaimable), zombie deferral, crash
reclamation, the one capacity check, and segment unlinking — each
case by hand, and all of them at once in a seeded op stream checked
against a small model after every op (``TestArenaModel``).  Runs with
no worker process.
"""

import os
import random

import pytest

from repro.objectstore.store import ObjectStoreFullError
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


def _put_frame(store, object_id, value):
    """A driver put of a split value: create, write the frame, seal."""
    serialized = serialize_buffers(value)
    entry = store.create(object_id, serialized.frame_bytes)
    write_frame(entry.segment.slot_view(entry.slot, writable=True), serialized)
    assert store.seal(object_id)


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
        """A deleted object a reader still holds: its bytes stop
        counting at once, its space waits for the reader."""
        s, gen = store
        reader = ShmClient(client_index=1)
        victim = gen.object_id()
        s.put(victim, b"v" * 2000)
        name, slot, _size = s.describe(victim)
        reader.hold(name, slot)
        # The owner deletes the victim from the directory...
        assert s.delete(victim)
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
        assert s.reclaim_client(2) == 1
        assert s.deferred_bytes == 0

    def test_overflow_segment_honors_byte_budget(self, store):
        """Fragmentation can force a dedicated segment, but the
        capacity check counts live bytes only."""
        s, gen = store
        resident = gen.object_id()
        s.put(resident, b"p" * 2000)
        with pytest.raises(ObjectStoreFullError, match="exceeds store capacity"):
            s.put(gen.object_id(), b"x" * 3000)    # 2000 live + 3000 > 4096
        big = gen.object_id()
        s.put(big, b"y" * 2000)                    # fits: maybe new segment
        assert s.contains(big) and s.contains(resident)
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
        blocker = gen.object_id()
        s.put(blocker, b"b" * 1500)
        name_b, slot_b, _ = s.describe(blocker)
        reader.hold(name_b, slot_b)      # holds the arena hole open
        s.delete(blocker)                # a zombie in the primary
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
        _put_frame(s, oid, array)
        out = deserialize_frame(s.get(oid))
        assert numpy.array_equal(out, array)
        assert out.base is not None                # a view, not a copy
        assert not out.flags.writeable             # sealed ⇒ read-only

    def test_plain_values_roundtrip_in_band(self, store):
        s, gen = store
        value = {"weights": list(range(50)), "tag": "model"}
        oid = gen.object_id()
        _put_frame(s, oid, value)
        assert deserialize_frame(s.get(oid)) == value


# ----------------------------------------------------------------------
# Coordination: pending creates, aborts, leases, crash reclamation
# ----------------------------------------------------------------------


class TestCoordinator:
    """What the arena coordinates between its owner and its clients."""

    @pytest.fixture
    def arena(self):
        gen = IDGenerator(namespace="shm-coord-test")
        built = SharedObjectStore(gen.node_id(), capacity=1 << 20, max_clients=3)
        yield built, gen
        built.shutdown()

    def test_pending_creates_are_invisible_until_sealed(self, arena):
        s, gen = arena
        oid = gen.object_id()
        granted = s.create(oid, 128, client=1)
        assert granted is not None
        assert not s.contains(oid)                # unsealed: not readable
        assert s.create(oid, 128, client=2) is None  # one writer window
        assert s.seal(oid)
        assert s.contains(oid)

    def test_released_object_waits_for_both_sides_leases(self, arena):
        """A release while values still alias the slot parks it as a
        zombie; the driver's lease and a worker's each end when their
        last buffer dies and the owner settles, and only then is the
        space handed out again — to the very next allocation."""
        import numpy as np

        s, gen = arena
        oid = gen.object_id()
        array = np.arange(4096, dtype=np.float64)
        _put_frame(s, oid, array)
        name, slot, _size = s.describe(oid)
        worker = ShmClient(client_index=1)
        ours = deserialize_frame(s.lease(oid))
        theirs = deserialize_frame(worker.lease(name, slot))
        assert s.delete(oid)
        assert not s.contains(oid)
        stats = s.stats()
        assert (stats["zombie_objects"], stats["leased_objects"]) == (1, 1)
        assert stats["used_bytes"] == 0 and stats["leased_bytes"] > 32768
        del ours
        assert s.settle_leases() and not s.settle_leases()
        assert s.stats()["leased_objects"] == 0
        assert s.stats()["zombie_objects"] == 1     # the worker still reads
        assert bool(np.all(theirs == array))
        del theirs
        worker.settle_leases()
        other = gen.object_id()
        _put_frame(s, other, array + 1.0)
        assert s.stats()["zombie_objects"] == 0     # reaped by the allocation
        assert s.describe(other)[:2] == (name, slot)  # on the same warm slot
        worker.detach_all()

    def test_crash_aborts_pending_and_clears_refcounts(self, arena):
        s, gen = arena
        sealed = gen.object_id()
        _put_frame(s, sealed, b"k" * 512)
        name, slot, _size = s.describe(sealed)
        worker = ShmClient(client_index=1)
        worker.hold(name, slot)                    # mid-read...
        pending = gen.object_id()
        assert s.create(pending, 256, client=1) is not None
        # ...when the worker dies: its column is zeroed and its unsealed
        # allocation vanishes, while the sealed object survives.
        assert s.reclaim_client(1) >= 1
        assert s.refcount(sealed) == 0
        assert s.stats()["pending_creates"] == 0 and not s.seal(pending)
        assert s.contains(sealed)
        assert deserialize_frame(s.get(sealed)) == b"k" * 512

    def test_seal_after_abort_reports_false(self, arena):
        s, gen = arena
        oid = gen.object_id()
        assert s.create(oid, 64, client=2) is not None
        s.abort(oid)
        assert not s.seal(oid)


# ----------------------------------------------------------------------
# The shutdown guarantee: no leaked segments, tracker clean
# ----------------------------------------------------------------------


class TestNoLeakedSegments:
    def test_store_shutdown_unlinks_everything(self):
        gen = IDGenerator(namespace="shm-leak-test")
        s = SharedObjectStore(gen.node_id(), capacity=4096, max_clients=2)
        s.put(gen.object_id(), b"a" * 2000)
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


# ----------------------------------------------------------------------
# The arena against a model: a seeded op stream, checked after every op
# ----------------------------------------------------------------------


class _ArenaModel:
    """What the arena must look like: sealed and unsealed sizes, each
    allocation's references by client, and the deleted allocations
    still referenced (zombies) — the reaper frees those at zero."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.sealed = {}       # object_id -> size
        self.pending = {}      # object_id -> (size, writer client)
        self.refs = {}         # object_id -> {client: count}
        self.zombies = {}      # object_id -> size

    @property
    def used(self):
        return sum(self.sealed.values()) + sum(
            size for size, _writer in self.pending.values()
        )

    def held(self, object_id):
        return sum(self.refs.get(object_id, {}).values())

    def forget(self, object_id, size):
        if self.held(object_id):
            self.zombies[object_id] = size

    def reap(self):
        freed = [oid for oid in self.zombies if not self.held(oid)]
        return sum(self.zombies.pop(oid) for oid in freed)


class TestArenaModel:
    """Every entry point of the arena in one seeded stream — client
    create → fill → seal, abort, driver put, driver lease and settle,
    client hold/release and lease, delete, a client's death and the
    reaper — compared after every op with :class:`_ArenaModel`: the
    sealed ids, ``used_bytes``, ``deferred_bytes``, the zombie count,
    every payload (a slot reused under a reader would show), and the
    segments on disk, which must be exactly the live ones.  A create
    must raise ``ObjectStoreFullError`` exactly when the live bytes plus
    its size exceed the capacity."""

    CAPACITY = 8192
    CLIENTS = (1, 2)

    @staticmethod
    def _pattern(index, size):
        return bytes([index % 251 + 1]) * size

    def _on_disk(self, prefix):
        if not os.path.isdir("/dev/shm"):
            return None  # no listing on this host: the name probe below
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(prefix)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_op_stream_matches_model(self, seed):
        rng = random.Random(seed)
        gen = IDGenerator(namespace=f"shm-arena-model/{seed}")
        prefix = f"rtm{os.getpid():x}s{seed}"
        s = SharedObjectStore(
            gen.node_id(), capacity=self.CAPACITY, max_clients=3,
            max_objects=4, name_prefix=prefix,
        )
        model = _ArenaModel(self.CAPACITY)
        clients = {c: ShmClient(client_index=c) for c in self.CLIENTS}
        dead = []                # the ShmClients of "crashed" processes
        index = {}               # object_id -> payload pattern index
        holds = []               # (client, object_id, name, slot, window)
        client_leases = []       # (client, object_id, window)
        driver_leases = []       # (object_id, window)
        settled = []             # object_ids of driver leases awaiting settle
        ever = []

        def fresh():
            oid = gen.object_id()
            index[oid] = len(ever)
            ever.append(oid)
            return oid

        def expect_create(oid, size, client):
            """create; True when the model says it must fit."""
            if model.used + size > self.CAPACITY:
                with pytest.raises(ObjectStoreFullError):
                    s.create(oid, size, client=client)
                return None
            model.reap()         # an allocation reaps first
            entry = s.create(oid, size, client=client)
            assert entry is not None
            model.pending[oid] = (size, client)
            return entry

        def ref(oid, client, delta):
            counts = model.refs.setdefault(oid, {})
            counts[client] = counts.get(client, 0) + delta

        def check():
            assert {oid for oid in ever if s.contains(oid)} == set(model.sealed)
            assert s.used_bytes == model.used <= self.CAPACITY
            assert s.deferred_bytes == sum(model.zombies.values())
            stats = s.stats()
            assert stats["zombie_objects"] == len(model.zombies)
            assert stats["pending_creates"] == len(model.pending)
            assert stats["num_objects"] == len(model.sealed) + len(model.pending)
            leased = {oid for oid, _window in driver_leases} | set(settled)
            assert stats["leased_objects"] == len(leased)
            for oid, size in model.sealed.items():
                assert s.size_of(oid) == size
                assert bytes(s.get(oid)) == self._pattern(index[oid], size)
            for _c, oid, name, slot, window in holds:
                assert bytes(window) == self._pattern(index[oid], len(window))
            for _c, oid, window in client_leases:
                assert bytes(window) == self._pattern(index[oid], len(window))
            for oid, window in driver_leases:
                assert bytes(window) == self._pattern(index[oid], len(window))
            live = set(s.segment_names())
            listed = self._on_disk(prefix)
            if listed is not None:
                assert set(listed) == live
            allocations = len(model.sealed) + len(model.pending) + len(model.zombies)
            assert len(live) <= 1 + allocations  # emptied overflow goes

        ops = (
            "create", "create", "seal", "abort", "put", "put", "delete",
            "delete", "lease", "unlease", "settle", "hold", "release",
            "client_lease", "client_unlease", "crash", "reap",
        )
        try:
            for _ in range(300):
                op = rng.choice(ops)
                sealed = sorted(model.sealed, key=index.get)
                pending = sorted(model.pending, key=index.get)
                if op == "create":
                    client = rng.choice(self.CLIENTS)
                    oid, size = fresh(), rng.randint(1, 3000)
                    entry = expect_create(oid, size, client)
                    if entry is not None:
                        writer = clients[client]
                        view = writer.write_view(entry.segment.name, entry.slot)
                        view[:] = self._pattern(index[oid], size)
                        del view
                elif op == "seal" and pending:
                    oid = rng.choice(pending)
                    assert s.seal(oid)
                    model.sealed[oid] = model.pending.pop(oid)[0]
                elif op == "abort":
                    oid = rng.choice(pending + sealed) if pending + sealed else fresh()
                    s.abort(oid)     # a sealed object is left alone
                    if oid in model.pending:
                        model.forget(oid, model.pending.pop(oid)[0])
                        assert not s.seal(oid)
                elif op == "put":
                    oid, size = fresh(), rng.randint(1, 3000)
                    if model.used + size > self.CAPACITY:
                        with pytest.raises(ObjectStoreFullError):
                            s.put(oid, self._pattern(index[oid], size))
                    else:
                        model.reap()
                        s.put(oid, self._pattern(index[oid], size))
                        model.sealed[oid] = size
                elif op == "delete":
                    oid = rng.choice(sealed + pending) if sealed + pending else fresh()
                    assert s.delete(oid) == (oid in model.sealed)
                    if oid in model.sealed:
                        model.forget(oid, model.sealed.pop(oid))
                elif op == "lease" and sealed:
                    oid = rng.choice(sealed)
                    driver_leases.append((oid, s.lease(oid)))
                    ref(oid, 0, 1)
                elif op == "unlease" and driver_leases:
                    oid, window = driver_leases.pop(rng.randrange(len(driver_leases)))
                    del window       # its finalizer queues the decref
                    settled.append(oid)
                elif op == "settle":
                    assert s.settle_leases() == bool(settled)
                    if settled:
                        for oid in settled:
                            ref(oid, 0, -1)
                        settled.clear()
                        model.reap()
                elif op == "hold" and sealed:
                    client, oid = rng.choice(self.CLIENTS), rng.choice(sealed)
                    name, slot, _size = s.describe(oid)
                    clients[client].hold(name, slot)
                    window = clients[client].read(name, slot)
                    holds.append((client, oid, name, slot, window))
                    del window
                    ref(oid, client, 1)
                elif op == "release" and holds:
                    client, oid, name, slot, window = holds.pop(
                        rng.randrange(len(holds))
                    )
                    del window
                    clients[client].release(name, slot)
                    ref(oid, client, -1)
                elif op == "client_lease" and sealed:
                    client, oid = rng.choice(self.CLIENTS), rng.choice(sealed)
                    name, slot, _size = s.describe(oid)
                    window = clients[client].lease(name, slot)
                    client_leases.append((client, oid, window))
                    del window
                    ref(oid, client, 1)
                elif op == "client_unlease" and client_leases:
                    client, oid, window = client_leases.pop(
                        rng.randrange(len(client_leases))
                    )
                    del window
                    clients[client].settle_leases()
                    ref(oid, client, -1)
                elif op == "crash":
                    # The process dies with everything it held; the arena
                    # sees only its column and its unsealed allocations.
                    client = rng.choice(self.CLIENTS)
                    holds[:] = [h for h in holds if h[0] != client]
                    client_leases[:] = [h for h in client_leases if h[0] != client]
                    dead.append(clients[client])
                    clients[client] = ShmClient(client_index=client)
                    expected = sum(
                        1 for counts in model.refs.values() if counts.get(client)
                    )
                    for oid, (size, writer) in list(model.pending.items()):
                        if writer == client:
                            del model.pending[oid]
                            model.forget(oid, size)
                    for counts in model.refs.values():
                        counts.pop(client, None)
                    assert s.reclaim_client(client) == expected
                    model.reap()
                elif op == "reap":
                    assert s.reap() == model.reap()
                check()
        finally:
            del holds, client_leases, driver_leases
            for client in list(clients.values()) + dead:
                client.detach_all()
            names = s.segment_names()
            s.shutdown()
        assert _segments_on_disk(names) == []
        assert not self._on_disk(prefix)
