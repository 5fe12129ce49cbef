"""The object plane by itself: no runtime, no worker process, no socket.

:class:`repro.proc.objects.ObjectPlane` is what ``proc`` and ``dist``
ask where an object lives and what holds it.  Here it is driven directly
— a fake arrival callback, a fake control store, fake nodes standing in
for ``dist``'s agent links — so the holder algebra (each holder alone
keeps an object, its end releases it, escape never ends), the node
hooks (pull once, delete exactly once where it is held, lost-with-node
ends in the one replay-or-error verdict) and the conservation law (all
handles dropped ⇒ every table empty, ``live == escaped``) are checked
in milliseconds.  ``tests/test_object_lifetime.py`` holds the same laws
end to end.  The slots a worker's ``GET`` is answered with are checked
the same way, plus one driver over a played pipe (a due ``GET`` past its
deadline) and one live ``proc`` pool (an empty slot read by ``FETCH``).
"""

import gc
import pickle
import threading
import time

import pytest

import repro
from played_pipe import PlayedPipe
from repro.core.object_ref import ObjectRef
from repro.core.task import CallTemplate, TaskOptions
from repro.dist.protocol import NodeBlob
from repro.errors import GetTimeoutError
from repro.obs import SpanCollector
from repro.proc import messages as msg
from repro.proc.messages import ObjectBytes
from repro.proc.objects import ObjectPlane
from repro.proc.runtime import ProcRuntime, _Parked, _WorkerHandle
from repro.utils.ids import FunctionID, IDGenerator
from repro.utils.serialization import deserialize, serialize

pytestmark = pytest.mark.timeout(10)


class FakeControl:
    def __init__(self):
        self.object_puts = []
        self.task_updates = []

    def async_object_put(self, object_id, **row):
        self.object_puts.append((object_id, row))

    def async_task_update(self, task_id, **row):
        self.task_updates.append((task_id, row))


class FakeNode:
    """What the plane asks of one ``dist`` node (an ``AgentLink``)."""

    shm_on = True

    def __init__(self):
        self.arena = {}
        self.fetches = []
        self.deleted = []
        self.gate = None

    def fetch_object(self, object_id):
        self.fetches.append(object_id)
        if self.gate is not None:
            assert self.gate.wait(5.0)
        return self.arena.get(object_id)

    def delete_objects(self, object_ids):
        self.deleted.extend(object_ids)


class Harness:
    def __init__(self, num_nodes=0):
        self.ids = IDGenerator(namespace="test-object-plane")
        self.cond = threading.Condition(threading.RLock())
        self.control = FakeControl()
        self.nodes = [FakeNode() for _ in range(num_nodes)]
        self.arrivals = []
        self.requeued = []
        self.cancelled = set()
        self.plane = ObjectPlane(
            self.ids.node_id(),
            self.cond,
            self.control,
            SpanCollector(enabled=False),
            store_capacity=1 << 30,
            shm_capacity=0,
            num_workers=max(1, num_nodes),
            seed=0,
            inline_threshold=1024,
            is_cancelled=self.cancelled.__contains__,
            arrived=self.arrivals.append,
            requeue=self.requeued.append,
            nodes=self.nodes,
            workers_per_node=1,
        )
        self.plane.count_handles()

    def spec(self, *args, **options):
        template = CallTemplate(
            None, FunctionID("f" * 40), "work", TaskOptions(**options)
        )
        return template.stamp(self.ids, args, {})

    def put(self, data=b"value"):
        """A stored object and the one handle on it."""
        ref = ObjectRef(self.ids.object_id())
        self.plane.store_bytes(ref.object_id, data)
        return ref

    def land_on_node(self, spec, node_index, size=4096):
        """``spec`` completed with every return left in a node's arena."""
        blobs = [
            NodeBlob(object_id, node_index, size)
            for object_id in spec.all_return_ids()
        ]
        for blob in blobs:
            self.nodes[node_index].arena[blob.object_id] = serialize("big")
        self.plane.finish(spec, blobs, node_index)

    def live(self):
        gc.collect()
        return self.plane.stats()["objects"]


@pytest.fixture
def harness():
    made = []

    def make(**kwargs):
        made.append(Harness(**kwargs))
        return made[-1]

    yield make
    for each in made:
        each.plane.shutdown()  # the process counts handles for no one again


# ----------------------------------------------------------------------
# Each holder alone keeps an object; its end releases it
# ----------------------------------------------------------------------


def test_a_handle_keeps_it_and_the_last_one_dying_releases_it(harness):
    h = harness()
    ref = h.put()
    object_id = ref.object_id
    second = ObjectRef(object_id)
    assert h.arrivals == [object_id]
    del ref
    assert h.live()["live"] == 1 and h.plane.has(object_id)
    del second
    assert h.live() == {
        "live": 0, "released": 1, "escaped": 0,
        "leased": 0, "zombies": 0, "pinned_by_tasks": 0,
    }
    assert not h.plane.has(object_id)


def test_a_task_pin_keeps_its_argument_until_the_task_is_settled(harness):
    h = harness()
    ref = h.put()
    object_id = ref.object_id
    spec = h.spec(ref)
    h.plane.pin_task(spec)
    assert spec.pins == (object_id,)
    # The spec names it, uncounted, and holds no argument value.
    assert spec.arg_refs[0]._ledger is None and spec.args == ()
    del ref
    assert h.live()["pinned_by_tasks"] == 1 and h.plane.has(object_id)
    h.plane.finish(spec, [serialize(1)], 0)  # its result is in: no replay
    assert spec.pins == () and not h.plane.has(object_id)
    assert h.plane.has(spec.return_object_id)  # nobody held it before it came


def test_a_resolved_or_cancelled_task_ends_its_pins_too(harness):
    h = harness()
    ref = h.put()
    object_id = ref.object_id
    spec = h.spec(ref, num_returns=2)
    h.plane.pin_task(spec)
    del ref
    gc.collect()
    first, second = (ObjectRef(each) for each in spec.all_return_ids())
    h.plane.store_bytes(first.object_id, b"early")
    h.plane.store_error(spec, "boom")
    assert h.live()["pinned_by_tasks"] == 0 and not h.plane.has(object_id)
    # Every empty slot got the error; the full one kept its value.
    assert h.plane.store.get(first.object_id) == b"early"
    assert deserialize(h.plane.store.get(second.object_id)) == "boom"


def test_an_id_born_in_a_task_is_held_until_that_task_is_over(harness):
    h = harness()
    object_id = h.ids.object_id()
    h.plane.hold_born("task-1", (object_id,))
    h.plane.store_bytes(object_id, b"born on a worker")
    assert h.live()["live"] == 1  # no handle here, and it stays
    h.plane.drop_born("task-2")  # someone else's end changes nothing
    assert h.plane.has(object_id)
    h.plane.drop_born("task-1")
    assert not h.plane.has(object_id) and h.live()["released"] == 1


def test_escape_never_ends(harness):
    h = harness()
    pickled = h.put()
    pickle.dumps(pickled)  # the bytes may be unpickled anywhere, any time
    kept_by_worker = h.put()
    h.plane.escape([kept_by_worker.object_id.hex])
    born_nowhere = h.ids.object_id()
    h.plane.hold_born(None, (born_nowhere,))  # no task's end would free it
    h.plane.store_bytes(born_nowhere, b"x")
    ids = [pickled.object_id, kept_by_worker.object_id, born_nowhere]
    del pickled, kept_by_worker
    stats = h.live()
    assert stats["live"] == stats["escaped"] == 3 and stats["released"] == 0
    assert all(h.plane.has(object_id) for object_id in ids)


def test_released_before_it_arrived_it_goes_as_it_arrives(harness):
    h = harness()
    spec = h.spec()
    ref = ObjectRef(spec.return_object_id)  # a fire-and-forget task's result
    del ref
    assert h.live() == {
        "live": 0, "released": 0, "escaped": 0,
        "leased": 0, "zombies": 0, "pinned_by_tasks": 0,
    }
    h.plane.finish(spec, [serialize("late")], 0)
    # Whoever waited on it was told; then nothing held it.
    assert h.arrivals == [spec.return_object_id]
    assert not h.plane.has(spec.return_object_id)
    assert h.live()["released"] == 1 and not h.plane._release_on_arrival


# ----------------------------------------------------------------------
# Residence on a node: pull, delete, lost with its node
# ----------------------------------------------------------------------


def test_a_node_resident_result_is_deleted_where_it_is_held_exactly_once(harness):
    h = harness(num_nodes=3)
    spec = h.spec()
    ref = ObjectRef(spec.return_object_id)
    object_id = ref.object_id
    h.land_on_node(spec, 0)
    assert h.plane.has(object_id) and h.plane.only_on_node(object_id)
    assert h.plane.bytes_of(object_id) is None  # described here, not held
    assert h.control.object_puts[-1][1]["location"] == "node-0"
    # A consumer on node 1 is shipped nothing for it, and never fetched
    # it: node 1 holds no copy, so the release does not reach it.
    inline = {}
    h.plane.arg_slot(object_id, 1, inline)
    assert inline == {}
    del ref
    assert h.live()["released"] == 1
    assert [node.deleted for node in h.nodes] == [[object_id], [], []]
    h.plane.drain()
    h.plane.flush_deletes()
    assert [len(node.deleted) for node in h.nodes] == [1, 0, 0]
    assert not h.plane._node_resident and not h.plane._doomed


def test_results_of_a_task_cancelled_while_it_ran_are_dropped_on_their_node(harness):
    h = harness(num_nodes=2)
    spec = h.spec()
    h.plane.discard([NodeBlob(spec.return_object_id, 1, 64), b"small"])
    assert h.nodes[1].deleted == [spec.return_object_id] and not h.nodes[0].deleted
    assert not h.plane.has(spec.return_object_id)


def test_a_task_with_a_node_resident_result_keeps_its_pins_until_a_copy_is_here(
    harness,
):
    h = harness(num_nodes=2)
    arg = h.put()
    arg_id = arg.object_id
    spec = h.spec(arg)
    h.plane.pin_task(spec)
    del arg
    ref = ObjectRef(spec.return_object_id)
    h.land_on_node(spec, 1)
    assert h.live()["pinned_by_tasks"] == 1  # losing node 1 would replay it
    assert h.plane.pull(ref.object_id)
    assert not h.plane.only_on_node(ref.object_id)
    assert h.live()["pinned_by_tasks"] == 0 and not h.plane.has(arg_id)
    # The node is lost afterwards: the driver copy survives, nothing replays.
    h.plane.node_lost(1)
    assert not h.requeued and h.plane.has(ref.object_id)


def test_a_copy_landed_on_a_node_by_a_reply_is_deleted_there(harness):
    h = harness(num_nodes=3)
    fetched, got, small = h.put(b"F" * 4096), h.put(b"G" * 4096), h.put(b"s")
    spec = h.spec()
    resident = ObjectRef(spec.return_object_id)
    h.land_on_node(spec, 0)
    # A GET reply into node 2 is slots, as a task entry's table: small
    # bytes inline, a large object and a node-only one empty (the worker
    # fetches them).  No bytes cross, so nothing lands.
    slots = {}
    for object_id in (got.object_id, small.object_id, resident.object_id):
        h.plane.arg_slot(object_id, 2, slots)
    assert slots == {small.object_id: b"s"}
    assert not h.plane._landed
    assert h.plane.acct_internode.snapshot()["internode_bytes"] == 0
    # A FETCH reply into node 1 names its object for the agent to land.
    reply = h.plane.fetch_bytes(fetched.object_id, 1)
    assert type(reply) is ObjectBytes and reply.object_id == fetched.object_id
    assert bytes(reply.data) == b"F" * 4096
    assert h.plane._landed == {fetched.object_id: {1}}
    # A node with no arena is sent the bytes, and lands nothing.
    h.nodes[0].shm_on = False
    assert h.plane.fetch_bytes(fetched.object_id, 0) == b"F" * 4096
    internode = h.plane.acct_internode.snapshot()
    assert internode["internode_bytes"] == 2 * 4096
    del fetched, got, small, resident
    assert h.live()["released"] == 4
    assert h.nodes[1].deleted == [reply.object_id]
    assert h.nodes[0].deleted == [spec.return_object_id] and not h.nodes[2].deleted
    assert not h.plane._landed and not h.plane._doomed


def test_concurrent_pulls_of_one_object_make_one_transfer(harness):
    h = harness(num_nodes=1)
    spec = h.spec()
    ref = ObjectRef(spec.return_object_id)
    h.land_on_node(spec, 0)
    node = h.nodes[0]
    node.gate = threading.Event()
    results = []
    pullers = [
        threading.Thread(target=lambda: results.append(h.plane.pull(ref.object_id)))
        for _ in range(4)
    ]
    pullers[0].start()
    while not node.fetches:  # the first one is inside the transfer
        time.sleep(0.001)
    for puller in pullers[1:]:
        puller.start()
    time.sleep(0.05)  # the others found it claimed and wait
    node.gate.set()
    for puller in pullers:
        puller.join(5.0)
    assert results == [True] * 4
    assert node.fetches == [ref.object_id]
    assert h.plane.stats()["objects"]["live"] == 1
    assert h.plane.acct_internode.snapshot()["internode_fetches"] == 1


def test_lost_with_its_node_replays_within_budget_then_errors(harness):
    h = harness(num_nodes=2)
    spec = h.spec(max_reconstructions=2, num_returns=2)
    refs = [ObjectRef(each) for each in spec.all_return_ids()]
    spec.wire = entry = ("worker-born", "entry")
    for attempt, node_index in enumerate((0, 1), start=1):
        h.land_on_node(spec, node_index)
        h.plane.node_lost(node_index)
        # Two returns lost together: one replay, carrying the wire entry.
        assert h.requeued == [spec] * attempt and spec.wire is entry
        assert h.plane.replays[spec.task_id] == attempt
        assert not any(h.plane.has(ref.object_id) for ref in refs)
        assert h.control.task_updates[-1] == (
            spec.task_id, {"state": "replaying", "attempt": True}
        )
    h.land_on_node(spec, 0)
    h.plane.node_lost(0)
    assert len(h.requeued) == 2 and h.plane.lineage_replays == 2
    for ref in refs:
        error = deserialize(h.plane.store.get(ref.object_id))
        assert error.kind == "node_lost" and error.node_index == 0
        assert error.cause_repr == (
            f"object {refs[0].object_id} was resident only on lost node 0; "
            "lineage replay budget exhausted (2/2 reconstructions)"
        )
    assert not h.plane._node_resident and spec.pins == ()


def test_the_verdict_is_the_same_one_for_a_task_that_died_with_its_worker(harness):
    h = harness()
    spec = h.spec(max_reconstructions=1)
    ref = ObjectRef(spec.return_object_id)
    assert h.plane.replay_or_fail(spec) is True
    assert h.requeued == [spec]
    assert h.plane.replay_or_fail(spec, lost_node=3) is False
    error = deserialize(h.plane.store.get(ref.object_id))
    assert error.kind == "node_lost"
    assert error.cause_repr == (
        "node 3 was lost; lineage replay budget exhausted (1/1 reconstructions)"
    )

    h = harness()
    spec = h.spec()
    h.cancelled.add(spec.task_id)  # its marker owns the slots
    assert h.plane.replay_or_fail(spec) is False
    assert not h.plane.has(spec.return_object_id) and not h.requeued


def test_a_node_that_no_longer_holds_it_turns_a_pull_into_the_verdict(harness):
    h = harness(num_nodes=1)
    spec = h.spec(max_reconstructions=0)
    ref = ObjectRef(spec.return_object_id)
    h.land_on_node(spec, 0)
    h.nodes[0].arena.clear()  # arena pressure took it
    assert h.plane.pull(ref.object_id, timeout=0.5)  # the error marker is here
    error = deserialize(h.plane.store.get(ref.object_id))
    assert "lineage replay budget exhausted (0/0" in error.cause_repr
    assert not h.plane._pulling


# ----------------------------------------------------------------------
# A worker's get: one slot per object, as a task entry's table
# ----------------------------------------------------------------------


def test_a_due_get_past_its_deadline_with_an_id_absent_times_out(monkeypatch):
    def spawn_played(runtime, index):
        slot = _WorkerHandle(index=index, node_id=runtime.ids.node_id(), conn=PlayedPipe())
        runtime._dispatch.add_worker(slot)
        return slot

    monkeypatch.setattr(ProcRuntime, "_spawn_worker", spawn_played)
    runtime = ProcRuntime(num_workers=1, shm_capacity=0)
    worker = runtime._workers[0]
    try:
        here, absent = runtime.put(b"here"), runtime.ids.object_id()
        assert runtime._answer(worker, (msg.GET, [here.object_id], None), None) == (
            msg.OK, [serialize(b"here")]
        )
        message = (msg.GET, [here.object_id, absent], 0.0)
        with pytest.raises(_Parked):  # not due yet
            runtime._answer(worker, message, time.monotonic() + 60.0)
        tag, error = runtime._answer(worker, message, time.monotonic() - 1.0)
        assert tag == msg.ERR and type(error) is GetTimeoutError
        assert str(absent) in str(error)
    finally:
        runtime.shutdown()
        worker.conn.hang_up()


@repro.remote
def _large(n):
    return b"L" * n


@repro.remote
def _get_inside(refs):
    value = repro.get(refs[0])
    return len(value), value[:1], value[-1:]


@pytest.mark.timeout(60)
def test_a_worker_gets_a_large_pipe_store_value_through_fetch():
    runtime = repro.init(backend="proc", num_workers=1, shm_capacity=0)
    try:
        size = 3 * 64 * 1024  # above the default inline threshold
        ref = _large.remote(size)
        assert len(repro.get(ref, timeout=30.0)) == size  # stored first
        fetched = runtime.stats()["args_fetched"]["count"]
        assert repro.get(_get_inside.remote([ref]), timeout=30.0) == (
            size, b"L", b"L"
        )
        # Its slot was empty: the worker fetched the bytes, once.
        assert runtime.stats()["args_fetched"]["count"] == fetched + 1
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------


def test_all_handles_dropped_leaves_every_table_empty(harness):
    h = harness(num_nodes=2)
    plane = h.plane
    handles = []
    # Driver puts, one of them pickled (escapes for good).
    puts = [h.put(bytes([i]) * 8) for i in range(6)]
    pickle.dumps(puts[0])
    handles += puts
    # Tasks over those puts: two finish into the driver store, one onto a
    # node (pulled later), one onto a node that is then lost and replays,
    # one dies with its worker past its budget, one is cancelled.
    done = [h.spec(puts[1], puts[2]), h.spec(puts[2])]
    on_node = h.spec(puts[3])
    lost = h.spec(puts[4], max_reconstructions=1)
    crashed = h.spec(puts[5], max_reconstructions=0)
    cancelled = h.spec(puts[1])
    for spec in (*done, on_node, lost, crashed, cancelled):
        plane.pin_task(spec)
        handles += [ObjectRef(each) for each in spec.all_return_ids()]
    for spec in done:
        plane.finish(spec, [serialize("r")], 0)
    h.land_on_node(on_node, 0)
    plane.arg_slot(on_node.return_object_id, 1, {})
    assert plane.pull(on_node.return_object_id)
    h.land_on_node(lost, 1)
    plane.node_lost(1)
    assert h.requeued == [lost]
    plane.finish(lost, [serialize("again")], 0)
    assert plane.replay_or_fail(crashed) is False
    h.cancelled.add(cancelled.task_id)
    plane.store_error(cancelled, "cancelled")
    # Ids born inside a task on a worker, which then ends.
    born = [h.ids.object_id() for _ in range(3)]
    plane.hold_born("parent", tuple(born))
    for object_id in born:
        plane.store_bytes(object_id, b"child")
    plane.drop_born("parent")
    # A fire-and-forget result that is not in yet.
    forgotten = h.spec()
    handles.append(ObjectRef(forgotten.return_object_id))
    del handles[:], puts
    assert h.live()["live"] == 1
    plane.finish(forgotten, [serialize(None)], 0)
    stats = h.live()
    assert stats["live"] == stats["escaped"] == 1
    assert stats["pinned_by_tasks"] == 0
    assert plane._pins == {} and plane._held == set() and plane._born_in == {}
    assert plane._release_on_arrival == set() and plane._ledger.counts == {}
    assert plane._node_resident == {}
    assert plane._reconstructing == set() and plane._pulling == set()
    assert plane._doomed == {}
    assert plane.store.num_objects == 1
