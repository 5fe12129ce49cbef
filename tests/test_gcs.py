"""Unit tests for the real sharded control store (repro.gcs).

Covers the shared table rows, shard routing stability (the property the
paper leans on: "since the keys are computed as hashes, sharding is
straightforward"), the sync/async write split, the per-shard WAL, and the
recovery planner.
"""

import itertools
import os
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs import (
    ControlStore,
    hash_key,
    plan_recovery,
    shard_of,
)
from repro.gcs.store import _LEN
from repro.utils.ids import ActorID, IDGenerator, ObjectID, TaskID


def make_ids(seed=0):
    return IDGenerator(namespace=f"test-gcs/{seed}")


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestShardRouting:
    def test_shard_of_in_range(self):
        ids = make_ids()
        for _ in range(100):
            assert 0 <= shard_of(ids.task_id(), 7) < 7

    def test_id_and_string_keys_both_route(self):
        assert isinstance(shard_of(TaskID.from_seed("x"), 4), int)
        assert isinstance(shard_of("some-actor-name", 4), int)

    def test_routing_matches_id_shard_index(self):
        # The store and the IDs themselves must agree on the hash.
        oid = ObjectID.from_seed("k")
        assert shard_of(oid, 13) == oid.shard_index(13)

    def test_routing_ignores_store_instance(self):
        a = ControlStore(num_shards=5)
        b = ControlStore(num_shards=5)
        ids = make_ids()
        keys = [ids.object_id() for _ in range(50)]
        try:
            assert [a.shard_index(k) for k in keys] == [
                b.shard_index(k) for k in keys
            ]
        finally:
            a.close()
            b.close()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.text(min_size=1, max_size=64), shards=st.integers(1, 64))
    def test_property_routing_stable_across_driver_restarts(self, seed, shards):
        """A restarted driver (fresh IDGenerator, fresh store) re-derives
        the same ids and finds them on the same shards."""
        first_gen = IDGenerator(namespace=f"repro-proc/{seed}")
        second_gen = IDGenerator(namespace=f"repro-proc/{seed}")
        for _ in range(5):
            t1, t2 = first_gen.task_id(), second_gen.task_id()
            assert t1 == t2
            assert shard_of(t1, shards) == shard_of(t2, shards)
            assert hash_key(t1) == hash_key(t2)

    @settings(max_examples=100, deadline=None)
    @given(key=st.text(min_size=1, max_size=128))
    def test_property_string_keys_route_identically(self, key):
        assert shard_of(key, 9) == shard_of(key, 9)
        assert 0 <= shard_of(key, 9) < 9


# ----------------------------------------------------------------------
# Tables and sync ops
# ----------------------------------------------------------------------


class TestControlStoreTables:
    def test_task_put_and_get(self):
        store = ControlStore(num_shards=4)
        ids = make_ids()
        tid = ids.task_id()
        store.task_put(tid, {"spec": "s"}, node="n1")
        entry = store.task_get(tid)
        assert entry.spec == {"spec": "s"}
        assert entry.state == "submitted"
        assert entry.node == "n1"
        assert "submitted" in entry.timestamps
        store.close()

    def test_task_update_transitions_and_attempts(self):
        store = ControlStore(num_shards=2)
        tid = make_ids().task_id()
        store.task_put(tid, None)
        store.task_update(tid, state="running", node="n2")
        store.task_update(tid, state="replaying", attempt=True)
        entry = store.task_get(tid)
        assert entry.state == "replaying"
        assert entry.node == "n2"
        assert entry.attempts == 1
        store.close()

    def test_task_resubmission_keeps_attempts(self):
        store = ControlStore(num_shards=2)
        tid = make_ids().task_id()
        store.task_put(tid, "v1")
        store.task_update(tid, attempt=True)
        store.task_put(tid, "v2")  # resubmission from a recovered driver
        entry = store.task_get(tid)
        assert entry.spec == "v2"
        assert entry.attempts == 1
        store.close()

    def test_object_put_merges_fields(self):
        store = ControlStore(num_shards=4)
        ids = make_ids()
        oid, tid = ids.object_id(), ids.task_id()
        store.object_put(oid, size=10, location="node-0", producer_task=tid)
        store.object_put(oid, location="driver", ready=True, payload=b"abc")
        entry = store.object_get(oid)
        assert entry.size == 10
        assert entry.locations == {"node-0", "driver"}
        assert entry.producer_task == tid
        assert entry.ready is True
        assert entry.payload == b"abc"
        store.object_put(oid, drop_location="node-0", ready=False)
        entry = store.object_get(oid)
        assert entry.locations == {"driver"}
        assert entry.ready is False
        store.close()

    def test_actor_registry_and_name_index(self):
        store = ControlStore(num_shards=4)
        aid = make_ids().actor_id()
        store.actor_register(aid, spec={"class_name": "C"}, name="counter")
        assert store.actor_by_name("counter") == aid
        store.actor_update(aid, state="alive", node="n0", method_inc=True)
        store.actor_update(aid, method_inc=True)
        entry = store.actor_get(aid)
        assert entry.state == "alive"
        assert entry.methods_submitted == 2
        store.close()

    def test_snapshot_is_a_copy(self):
        store = ControlStore(num_shards=2)
        oid = make_ids().object_id()
        store.object_put(oid, location="a", ready=True)
        snap = store.snapshot()
        snap["objects"][oid].locations.add("tampered")
        assert store.object_get(oid).locations == {"a"}
        store.close()

    def test_events_are_ordered_and_kind_filterable(self):
        store = ControlStore(num_shards=4)
        ids = make_ids()
        for _ in range(10):
            store.task_put(ids.task_id(), None)
        records = store.events("task_submitted")
        assert len(records) == 10
        stamps = [r.timestamp for r in records]
        assert stamps == sorted(stamps)
        store.close()


# ----------------------------------------------------------------------
# Async writer
# ----------------------------------------------------------------------


class TestAsyncWrites:
    def test_async_ops_apply_after_flush(self):
        store = ControlStore(num_shards=4)
        ids = make_ids()
        tid, oid = ids.task_id(), ids.object_id()
        store.async_task_put(tid, "spec")
        store.async_task_update(tid, state="finished")
        store.async_object_put(oid, ready=True, payload=b"x")
        assert store.flush(timeout=10.0)
        assert store.task_get(tid).state == "finished"
        assert store.object_get(oid).payload == b"x"
        assert store.stats()["async_backlog"] == 0
        store.close()

    def test_writer_thread_starts_on_the_first_async_write(self):
        """A store written only synchronously runs no thread; the first
        async write starts the writer, and ``close()`` joins it."""
        before = threading.active_count()
        store = ControlStore(num_shards=1)
        tid = make_ids().task_id()
        store.task_put(tid, "spec")
        store.task_update(tid, state="running")
        assert threading.active_count() == before
        assert store.flush()
        store.async_task_update(tid, state="finished")
        writer = store._writer
        assert writer is not None and writer.is_alive()
        assert threading.active_count() == before + 1
        assert store.flush(timeout=10.0)
        assert store.task_get(tid).state == "finished"
        store.close()
        assert not writer.is_alive()
        assert threading.active_count() == before

    def test_pause_freezes_async_writes_but_not_sync(self):
        """Models a driver dying with async control writes in flight: the
        sync write-ahead ``task_put`` is visible, the async update is not."""
        store = ControlStore(num_shards=4)
        tid = make_ids().task_id()
        store.pause_async_writes()
        store.task_put(tid, "spec")              # sync: applies immediately
        store.async_task_update(tid, state="finished")  # frozen in the queue
        assert store.flush(timeout=0.2) is False
        assert store.task_get(tid).state == "submitted"
        store.resume_async_writes()
        assert store.flush(timeout=10.0)
        assert store.task_get(tid).state == "finished"
        store.close()

    def test_async_batch_hands_over_one_ordered_unit(self):
        """Ops inside ``async_batch`` reach the writer together, at
        block exit, in the order they were issued."""
        store = ControlStore(num_shards=4)
        tid = make_ids().task_id()
        store.pause_async_writes()
        with store.async_batch():
            store.async_task_put(tid, "spec")
            store.async_task_update(tid, state="running")
            with store.async_batch():  # nested: joins the outer batch
                store.async_task_update(tid, state="finished")
            assert store.stats()["async_backlog"] == 0  # nothing handed over
        assert store.stats()["async_backlog"] == 3
        assert store.task_get(tid) is None
        store.resume_async_writes()
        assert store.flush(timeout=10.0)
        assert store.task_get(tid).state == "finished"
        assert store.stats()["async_backlog_max"] >= 3
        store.close()

    def test_flush_gives_up_at_once_when_paused_mid_wait(self):
        """flush() sleeps on the writer's progress, not on a poll clock;
        a pause while it waits must still wake it."""
        store = ControlStore(num_shards=2)
        tid = make_ids().task_id()
        gate = threading.Event()
        apply_update = store._update_task

        def gated_update(*args):
            gate.wait(10.0)
            return apply_update(*args)

        store._update_task = gated_update  # the writer parks inside op one
        store.async_task_update(tid, state="first")
        store.async_task_update(tid, state="second")
        pauser = threading.Timer(0.1, store.pause_async_writes)
        pauser.start()
        started = time.monotonic()
        assert store.flush(timeout=30.0) is False
        assert time.monotonic() - started < 5.0
        pauser.join()
        gate.set()
        store.resume_async_writes()
        assert store.flush(timeout=10.0)
        assert store.task_get(tid).state == "second"
        store.close()

    def test_a_misspelt_keyword_raises_at_the_call(self):
        """An async write is checked where it is made, not inside the
        writer, whose ``except`` would drop it silently."""
        store = ControlStore(num_shards=2)
        with pytest.raises(TypeError):
            store.async_object_put(make_ids().object_id(), bogus=1)
        assert store.stats()["async_backlog_max"] == 0  # nothing was queued
        store.close()

    def test_concurrent_writers_land_every_op(self):
        store = ControlStore(num_shards=8)
        per_thread = 50

        def writer(worker):
            ids = IDGenerator(namespace=f"w{worker}")
            for _ in range(per_thread):
                store.task_put(ids.task_id(), None)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.tasks()) == 4 * per_thread
        stats = store.stats()
        assert stats["ops_total"] >= 4 * per_thread
        store.close()


_IDS = make_ids("equivalence")
_KEYS = {
    "task": [_IDS.task_id() for _ in range(3)],
    "object": [_IDS.object_id() for _ in range(3)],
}
_STATES = st.sampled_from([None, "running", "finished", "failed"])
_PLACES = st.sampled_from([None, "driver", "node-1"])

#: One write that has an ``async_*`` twin: (table, method suffix, key
#: index, keyword arguments).  Actor rows have none: they are written
#: synchronously, so that no reader sees a lost actor alive.
_WRITES = st.one_of(
    st.tuples(
        st.just("task"), st.just("task_put"), st.integers(0, 2),
        st.fixed_dictionaries({
            "spec": st.sampled_from(["f", "g"]),
            "state": st.sampled_from(["submitted", "running"]),
            "node": _PLACES,
        }),
    ),
    st.tuples(
        st.just("task"), st.just("task_update"), st.integers(0, 2),
        st.fixed_dictionaries(
            {"state": _STATES, "node": _PLACES, "attempt": st.booleans()}
        ),
    ),
    st.tuples(
        st.just("object"), st.just("object_put"), st.integers(0, 2),
        st.fixed_dictionaries({
            "size": st.sampled_from([None, 0, 8]),
            "location": _PLACES,
            "drop_location": _PLACES,
            "ready": st.sampled_from([None, False, True]),
            "producer_task": st.sampled_from([None, *_KEYS["task"]]),
            "payload": st.sampled_from([None, b"", b"x"]),
        }),
    ),
)


def _rows(snapshot: dict) -> dict:
    """A snapshot with each task row's timestamps reduced to their
    states: a store rebuilt by ``open`` stamps them with its own clock."""
    for entry in snapshot["tasks"].values():
        entry.timestamps = sorted(entry.timestamps)
    return snapshot


class TestSyncAsyncEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(writes=st.lists(_WRITES, max_size=30))
    def test_async_writes_plus_flush_equal_sync_writes(self, writes):
        """Every ``async_*`` write queues the record its sync twin
        applies: the same rows, events, counts and WAL records."""
        with tempfile.TemporaryDirectory() as sync_dir, \
                tempfile.TemporaryDirectory() as async_dir:
            stores = [
                ControlStore(num_shards=3, wal_dir=d, clock=itertools.count().__next__)
                for d in (sync_dir, async_dir)
            ]
            sync, queued = stores
            for table, method, index, kwargs in writes:
                key = _KEYS[table][index]
                getattr(sync, method)(key, **kwargs)
                getattr(queued, "async_" + method)(key, **kwargs)
            assert queued.flush(timeout=10.0)
            stats = [store.stats() for store in stores]
            for counts in stats:
                del counts["async_backlog_max"]  # the sync store queues nothing
            assert stats[0] == stats[1]
            assert sync.snapshot() == queued.snapshot()
            assert sync.events() == queued.events()
            assert len(sync.events()) == len(writes)
            for store in stores:
                store.close()
            replayed = [ControlStore.open(d) for d in (sync_dir, async_dir)]
            assert _rows(replayed[0].snapshot()) == _rows(replayed[1].snapshot())
            assert replayed[0].replayed_records == replayed[1].replayed_records
            for store in replayed:
                store.close()


# ----------------------------------------------------------------------
# Durability: per-shard WAL
# ----------------------------------------------------------------------


class TestWal:
    def test_wal_replay_rebuilds_tables(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = ControlStore(num_shards=4, wal_dir=wal_dir)
        ids = make_ids()
        tid, oid, aid = ids.task_id(), ids.object_id(), ids.actor_id()
        store.task_put(tid, {"f": "g"}, node="n0")
        store.task_update(tid, state="finished")
        store.object_put(oid, size=3, location="driver", ready=True, payload=b"p")
        store.actor_register(aid, spec={"class_name": "A"}, name="a")
        gen = store.register_generation()
        store.close()

        replayed = ControlStore.open(wal_dir)
        assert replayed.replayed_records >= 5
        assert replayed.task_get(tid).state == "finished"
        assert replayed.object_get(oid).payload == b"p"
        assert replayed.actor_get(aid).spec == {"class_name": "A"}
        assert replayed.generation == gen
        replayed.close()

    def test_wal_sync_mode_writes_identically(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = ControlStore(num_shards=2, wal_dir=wal_dir, wal_sync=True)
        tid = make_ids().task_id()
        store.task_put(tid, "spec")
        store.close()
        replayed = ControlStore.open(wal_dir)
        assert replayed.task_get(tid).spec == "spec"
        replayed.close()

    def test_torn_tail_record_is_ignored(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = ControlStore(num_shards=1, wal_dir=wal_dir)
        ids = make_ids()
        first = ids.task_id()
        store.task_put(first, "ok")
        store.close()
        path = os.path.join(wal_dir, "shard-00.wal")
        with open(path, "ab") as fh:  # a crash cut the next record short
            fh.write(_LEN.pack(10_000) + b"partial")
        replayed = ControlStore.open(wal_dir)
        assert replayed.task_get(first).spec == "ok"
        assert len(replayed.tasks()) == 1
        replayed.close()

    def test_replay_does_not_reappend(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        store = ControlStore(num_shards=2, wal_dir=wal_dir)
        store.task_put(make_ids().task_id(), "x")
        store.close()
        sizes = {
            n: os.path.getsize(os.path.join(wal_dir, n))
            for n in os.listdir(wal_dir)
        }
        replayed = ControlStore.open(wal_dir, resume_wal=True)
        replayed.close()
        for name, size in sizes.items():
            assert os.path.getsize(os.path.join(wal_dir, name)) == size


# ----------------------------------------------------------------------
# Stats and generations
# ----------------------------------------------------------------------


class TestStatsAndGenerations:
    UNIFORM_KEYS = {
        "num_shards",
        "ops_total",
        "ops_per_shard",
        "max_shard_queue",
        "contended_ops",
        "event_log_len",
        "async_backlog",
        "async_backlog_max",
        "generation",
    }

    def test_stats_schema(self):
        store = ControlStore(num_shards=3)
        store.task_put(make_ids().task_id(), None)
        stats = store.stats()
        assert set(stats) == self.UNIFORM_KEYS
        assert stats["num_shards"] == 3
        assert len(stats["ops_per_shard"]) == 3
        assert sum(stats["ops_per_shard"]) == stats["ops_total"]
        store.close()

    def test_generations_are_monotonic(self):
        store = ControlStore(num_shards=2)
        assert store.register_generation() == 1
        assert store.register_generation() == 2
        assert store.generation == 2
        store.close()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ControlStore(num_shards=0)


# ----------------------------------------------------------------------
# Recovery planner
# ----------------------------------------------------------------------


class _FakeSpec:
    """Minimal stand-in exposing the TaskSpec surface the planner uses."""

    def __init__(self, task_id, returns):
        self.task_id = task_id
        self._returns = returns

    def all_return_ids(self):
        return list(self._returns)


class TestRecoveryPlanner:
    def test_recovered_vs_pending_split(self):
        store = ControlStore(num_shards=4)
        ids = make_ids()
        done_oid, lost_oid = ids.object_id(), ids.object_id()
        done = _FakeSpec(ids.task_id(), [done_oid])
        lost = _FakeSpec(ids.task_id(), [lost_oid])
        store.task_put(done.task_id, done)
        store.task_put(lost.task_id, lost)
        store.object_put(done_oid, ready=True, payload=b"42")
        # lost_oid: never became ready — its producer must be resubmitted
        plan = plan_recovery(store)
        assert plan.ready_payloads == {done_oid: b"42"}
        assert [s.task_id for s in plan.pending_specs] == [lost.task_id]
        assert plan.recovered_objects == 1
        assert plan.resubmitted_tasks == 1
        store.close()

    def test_worker_born_wrapper_is_unwrapped(self):
        store = ControlStore(num_shards=2)
        ids = make_ids()
        spec = _FakeSpec(ids.task_id(), [ids.object_id()])
        store.task_put(spec.task_id, {"spec": spec, "payload": {"wire": 1}})
        plan = plan_recovery(store)
        assert plan.pending_specs == []
        assert plan.pending_payloads == [(spec, {"wire": 1})]
        store.close()

    def test_row_written_at_adoption_is_replayed_from_its_wire_entry(self):
        """The row a ``proc``/``dist`` driver writes when it adopts a
        worker-born task: the spec decoded from the wire entry, and the
        entry with its function's row.  A task never adopted has no row:
        only its result's object row, restored like any other."""
        from repro.proc import messages as msg

        store = ControlStore(num_shards=2)
        ids = make_ids()
        functions = msg.FunctionTable()
        function_hex = ids.function_id().hex
        functions.add(function_hex, "leaf", code=b"leaf code")
        parent = ids.task_id().hex

        def entry():
            return (
                ids.task_id().hex, function_hex, (ids.object_id().hex,),
                b"call", None, {"root": parent, "parent": parent},
            )

        adopted, finished, never = entry(), entry(), entry()
        for wire in (adopted, finished):
            spec = msg.decode_entry(wire, functions)
            store.task_put(
                spec.task_id,
                {"spec": spec, "payload": (wire, functions.rows((function_hex,)))},
            )
        store.object_put(ObjectID(finished[2][0]), ready=True, payload=b"1")
        store.object_put(ObjectID(never[2][0]), ready=True, payload=b"2")
        plan = plan_recovery(store)
        ((spec, (wire, rows)),) = plan.pending_payloads
        assert wire == adopted and spec.task_id == TaskID(adopted[0])
        assert spec.parent_task_id == TaskID(parent)
        assert rows == {function_hex: ("leaf", b"leaf code")}
        assert plan.pending_specs == [] and plan.unrecoverable == []
        assert set(plan.ready_payloads) == {
            ObjectID(finished[2][0]), ObjectID(never[2][0])
        }
        store.close()

    def test_ready_without_payload_or_producer_is_unrecoverable(self):
        store = ControlStore(num_shards=2)
        oid = make_ids().object_id()
        store.object_put(oid, size=1 << 20, location="driver", ready=True)
        plan = plan_recovery(store)
        assert plan.unrecoverable == [oid]
        store.close()

    def test_partial_returns_resubmit_whole_task(self):
        store = ControlStore(num_shards=2)
        ids = make_ids()
        a, b = ids.object_id(), ids.object_id()
        spec = _FakeSpec(ids.task_id(), [a, b])
        store.task_put(spec.task_id, spec)
        store.object_put(a, ready=True, payload=b"half")
        plan = plan_recovery(store)
        assert [s.task_id for s in plan.pending_specs] == [spec.task_id]
        # ...and the half-result is NOT unrecoverable: its task re-runs.
        assert plan.unrecoverable == []
        store.close()

    def test_flush_happens_before_planning(self):
        store = ControlStore(num_shards=2)
        ids = make_ids()
        oid = ids.object_id()
        spec = _FakeSpec(ids.task_id(), [oid])
        store.task_put(spec.task_id, spec)
        store.async_object_put(oid, ready=True, payload=b"late")
        plan = plan_recovery(store)  # must see the queued async write
        assert plan.ready_payloads == {oid: b"late"}
        assert plan.pending_specs == []
        store.close()

    def test_actors_carried_into_plan(self):
        store = ControlStore(num_shards=2)
        aid = make_ids().actor_id()
        store.actor_register(aid, spec={"class_name": "A"}, name="a")
        plan = plan_recovery(store)
        assert [e.actor_id for e in plan.actor_entries] == [aid]
        store.close()
