"""Unit tests for the per-node object store and transfer manager,
including randomized model-based property tests of the LRU/pinning
semantics every backend (sim nodes, proc driver store, proc worker
caches) relies on.  The shared-memory arena is no cache — it never
evicts — and has its own model test in ``test_shm_store.py``."""

import random

import pytest

import repro
from repro.errors import ObjectLostError
from repro.objectstore.store import LocalObjectStore, ObjectStoreFullError
from repro.utils.ids import IDGenerator

#: Store implementations held to the executable model.
STORE_KINDS = ("local",)


@pytest.fixture(params=STORE_KINDS)
def store_factory(request):
    """Build capacity-bound stores of the parametrized kind."""

    def make(node_id, capacity):
        return LocalObjectStore(node_id, capacity=capacity)

    return make


@pytest.fixture
def store():
    gen = IDGenerator()
    return LocalObjectStore(gen.node_id(), capacity=1000), gen


class TestLocalObjectStore:
    def test_put_get_roundtrip(self, store):
        s, gen = store
        oid = gen.object_id()
        s.put(oid, b"hello")
        assert s.get(oid) == b"hello"
        assert s.contains(oid)
        assert s.used_bytes == 5

    def test_get_missing_returns_none(self, store):
        s, gen = store
        assert s.get(gen.object_id()) is None
        assert s.misses == 1

    def test_size_accounting(self, store):
        s, gen = store
        a, b = gen.object_id(), gen.object_id()
        s.put(a, b"x" * 100)
        s.put(b, b"y" * 200)
        assert s.used_bytes == 300
        assert s.free_bytes == 700
        s.delete(a)
        assert s.used_bytes == 200

    def test_put_idempotent(self, store):
        s, gen = store
        oid = gen.object_id()
        s.put(oid, b"data")
        s.put(oid, b"data")
        assert s.used_bytes == 4

    def test_lru_eviction_order(self, store):
        s, gen = store
        ids = [gen.object_id() for _ in range(3)]
        for oid in ids:
            s.put(oid, b"z" * 400)  # third put must evict the first
        assert not s.contains(ids[0])
        assert s.contains(ids[1]) and s.contains(ids[2])
        assert s.evictions == 1

    def test_get_refreshes_lru(self, store):
        s, gen = store
        ids = [gen.object_id() for _ in range(3)]
        s.put(ids[0], b"a" * 400)
        s.put(ids[1], b"b" * 400)
        s.get(ids[0])                  # touch: now ids[1] is LRU
        s.put(ids[2], b"c" * 400)
        assert s.contains(ids[0])
        assert not s.contains(ids[1])

    def test_pinned_objects_survive_eviction(self, store):
        s, gen = store
        pinned = gen.object_id()
        s.put(pinned, b"p" * 400)
        s.pin(pinned)
        for _ in range(4):
            s.put(gen.object_id(), b"f" * 400)
        assert s.contains(pinned)
        s.unpin(pinned)
        assert not s.is_pinned(pinned)

    def test_pin_counts_nest(self, store):
        s, gen = store
        oid = gen.object_id()
        s.put(oid, b"x")
        s.pin(oid)
        s.pin(oid)
        s.unpin(oid)
        assert s.is_pinned(oid)
        s.unpin(oid)
        assert not s.is_pinned(oid)

    def test_oversized_object_rejected(self, store):
        s, gen = store
        with pytest.raises(ObjectStoreFullError, match="exceeds store capacity"):
            s.put(gen.object_id(), b"x" * 2000)

    def test_all_pinned_store_full(self, store):
        s, gen = store
        ids = [gen.object_id() for _ in range(2)]
        for oid in ids:
            s.put(oid, b"x" * 500)
            s.pin(oid)
        with pytest.raises(ObjectStoreFullError, match="pinned"):
            s.put(gen.object_id(), b"y" * 100)

    def test_capacity_validation(self, store):
        _s, gen = store
        with pytest.raises(ValueError):
            LocalObjectStore(gen.node_id(), capacity=0)

    def test_clear(self, store):
        s, gen = store
        s.put(gen.object_id(), b"x" * 10)
        s.clear()
        assert s.num_objects == 0
        assert s.used_bytes == 0


class _StoreModel:
    """Executable specification of LocalObjectStore's visible semantics.

    Tracks residency, sizes, LRU order, and pin counts, replaying each
    operation exactly as the contract says the store must behave —
    including the partial evictions a failed oversized put leaves behind.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.sizes = {}    # oid -> stored size (first put wins: re-puts
                           # only touch recency, never replace bytes)
        self.lru = []      # oids, least recently used first
        self.pins = {}     # oid -> pin count (independent of residency)

    @property
    def used(self):
        return sum(self.sizes.values())

    def _touch(self, oid):
        self.lru.remove(oid)
        self.lru.append(oid)

    def put(self, oid, size):
        """Returns True if the put must succeed, False if it must raise."""
        if oid in self.sizes:
            self._touch(oid)
            return True
        if size > self.capacity:
            return False
        # Evict LRU-first, skipping pinned, exactly like _evict_until —
        # evictions that happen before an eventual failure stick.
        if size > self.capacity - self.used:
            for candidate in list(self.lru):
                if self.capacity - self.used >= size:
                    break
                if self.pins.get(candidate, 0) > 0:
                    continue
                self.lru.remove(candidate)
                del self.sizes[candidate]
        if self.capacity - self.used < size:
            return False
        self.sizes[oid] = size
        self.lru.append(oid)
        return True

    def get(self, oid):
        """Returns the expected size if resident, else None."""
        if oid not in self.sizes:
            return None
        self._touch(oid)
        return self.sizes[oid]

    def delete(self, oid):
        # Deleting a non-resident id is a complete no-op: even its pin
        # counts survive (they belong to the id, not the bytes).
        if oid in self.sizes:
            self.lru.remove(oid)
            del self.sizes[oid]
            self.pins.pop(oid, None)

    def pin(self, oid):
        self.pins[oid] = self.pins.get(oid, 0) + 1

    def unpin(self, oid):
        count = self.pins.get(oid, 0)
        if count <= 1:
            self.pins.pop(oid, None)
        else:
            self.pins[oid] = count - 1


class TestObjectStoreProperties:
    """Randomized interleavings checked against the executable model
    (``store_factory``): residency, LRU order, eviction counts, size
    accounting, and pins."""

    CAPACITY = 1000

    def _assert_matches(self, store, model):
        # Residency and LRU order agree exactly...
        assert list(store.object_ids()) == model.lru
        # ...used_bytes always equals the sum of resident sizes...
        assert store.used_bytes == sum(
            store.size_of(oid) for oid in store.object_ids()
        )
        assert store.used_bytes == model.used
        assert store.used_bytes <= store.capacity
        # ...and pin state tracks the model's counts.
        for oid in set(model.pins) | set(store.object_ids()):
            assert store.is_pinned(oid) == (model.pins.get(oid, 0) > 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_match_model(self, seed, store_factory):
        rng = random.Random(seed)
        gen = IDGenerator(namespace=f"objstore-prop/{seed}")
        store = store_factory(gen.node_id(), self.CAPACITY)
        model = _StoreModel(self.CAPACITY)
        pool = [gen.object_id() for _ in range(30)]

        for _ in range(500):
            op = rng.choice(("put", "put", "get", "get", "pin", "unpin", "delete"))
            oid = rng.choice(pool)
            if op == "put":
                size = rng.randint(1, 600)
                if model.put(oid, size):
                    store.put(oid, b"x" * size)
                else:
                    with pytest.raises(ObjectStoreFullError):
                        store.put(oid, b"x" * size)
            elif op == "get":
                expected = model.get(oid)
                data = store.get(oid)
                assert (data is None) == (expected is None)
                if data is not None:
                    assert len(data) == expected
            elif op == "pin":
                model.pin(oid)
                store.pin(oid)
            elif op == "unpin":
                model.unpin(oid)
                store.unpin(oid)
            else:
                model.delete(oid)
                store.delete(oid)
            self._assert_matches(store, model)

    @pytest.mark.parametrize("seed", range(4))
    def test_pinned_args_never_evicted_under_pressure(self, seed, store_factory):
        """Pin/unpin interleavings never let eviction touch a pinned
        object — the invariant task argument safety rests on."""
        rng = random.Random(1000 + seed)
        gen = IDGenerator(namespace=f"objstore-pin/{seed}")
        store = store_factory(gen.node_id(), self.CAPACITY)
        pinned = []
        for index in range(3):
            oid = gen.object_id()
            store.put(oid, b"p" * rng.randint(50, 150))
            store.pin(oid)
            if rng.random() < 0.5:  # nested pins must nest correctly
                store.pin(oid)
                store.unpin(oid)
            pinned.append(oid)
        for _ in range(200):
            try:
                store.put(gen.object_id(), b"f" * rng.randint(100, 400))
            except ObjectStoreFullError:
                pass  # everything evictable is gone; pins must still hold
            for oid in pinned:
                assert store.contains(oid)
                assert store.is_pinned(oid)
        for oid in pinned:
            store.unpin(oid)
            assert not store.is_pinned(oid)

    @pytest.mark.parametrize("seed", range(4))
    def test_eviction_order_is_lru(self, seed, store_factory):
        """After random touches, a capacity-busting put evicts exactly the
        least-recently-used unpinned prefix."""
        rng = random.Random(2000 + seed)
        gen = IDGenerator(namespace=f"objstore-lru/{seed}")
        store = store_factory(gen.node_id(), self.CAPACITY)
        size = 100
        resident = [gen.object_id() for _ in range(10)]  # exactly fills it
        for oid in resident:
            store.put(oid, b"z" * size)
        for _ in range(20):                              # shuffle recency
            store.get(rng.choice(resident))
        order = list(store.object_ids())                 # oldest first
        evict_count = rng.randint(1, 9)
        store.put(gen.object_id(), b"n" * (size * evict_count))
        for oid in order[:evict_count]:
            assert not store.contains(oid)
        for oid in order[evict_count:]:
            assert store.contains(oid)
        assert store.evictions == evict_count


class TestTransferIntegration:
    """Transfer manager exercised through a real simulated runtime."""

    def test_remote_argument_is_transferred(self):
        runtime = repro.init(backend="sim", num_nodes=2, num_cpus=2)

        @repro.remote
        def produce():
            return list(range(1000))

        @repro.remote
        def consume(data):
            return len(data)

        other = runtime.node_ids[1]
        head = runtime.head_node_id
        data_ref = produce.options(placement_hint=other).remote()
        result = consume.options(placement_hint=head).remote(data_ref)
        assert repro.get(result) == 1000
        transfers = runtime.stats()["transfers"]
        assert transfers >= 1
        repro.shutdown()

    def test_transfer_dedup_single_flight(self):
        runtime = repro.init(backend="sim", num_nodes=2, num_cpus=4)

        @repro.remote
        def produce():
            return b"payload" * 10000

        @repro.remote
        def consume(data, tag):
            return tag

        other = runtime.node_ids[1]
        head = runtime.head_node_id
        data_ref = produce.options(placement_hint=other).remote()
        repro.wait([data_ref], num_returns=1)
        # Several head-pinned consumers of the same remote object at once:
        refs = [
            consume.options(placement_hint=head).remote(data_ref, i)
            for i in range(4)
        ]
        assert sorted(repro.get(refs)) == [0, 1, 2, 3]
        head_transfer = runtime.transfer(head)
        # Deduplication: one physical transfer despite 4 concurrent needs.
        assert head_transfer.transfers_completed == 1
        repro.shutdown()

    def test_object_lost_when_never_produced_and_no_lineage(self):
        runtime = repro.init(
            backend="sim", num_nodes=1, num_cpus=2, enable_reconstruction=False
        )
        gen = IDGenerator(namespace="other")
        bogus = gen.object_id()
        transfer = runtime.transfer(runtime.head_node_id)
        process = runtime.sim.spawn(transfer.ensure_local(bogus))
        with pytest.raises(ObjectLostError):
            runtime.sim.run_until_signal(process.done_signal)
        repro.shutdown()
