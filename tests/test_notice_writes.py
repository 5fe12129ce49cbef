"""What a task writes reaches the driver one way: an actor call, a small
``put`` and the seal of a large one made on a worker ride the
``SUBMIT_LOCAL`` notice beside the nested tasks — driven with no
process, over a played pipe.

The worker mints the ids itself and returns at once: no request is
sent and no reply read.  The driver applies one notice in one order —
puts and seals, the kept entries, the escaped ids, the routed list —
so a kept task may take a put's ref and an actor call both; it stands
the call in its actor's lane as the worker built it, under the worker's
ids and never unpickled, and turns what it cannot apply into error
values.  A full window of unacknowledged items
waits for ``PLACED`` whatever the items are.
"""

import threading
import time

import pytest

import repro
from played_pipe import PlayedPipe, start_reader
from repro.core.object_ref import ObjectRef
from repro.core.task import ResourceRequest, TaskSpec
from repro.errors import BackendError, ObjectLostError, TaskError
from repro.proc import messages as msg
from repro.proc import runtime as runtime_module
from repro.proc import worker as worker_module
from repro.proc.messages import ShmDescriptor, SlotRef
from repro.proc.runtime import ProcRuntime, _WorkerHandle
from repro.proc.worker import ProcWorker
from repro.utils.ids import IDGenerator
from repro.utils.serialization import deserialize, deserialize_portable, serialize

pytestmark = pytest.mark.timeout(60)

IDS = IDGenerator(namespace="notice-writes-test")


def double(x):
    return 2 * x


class Counter:
    def add(self, *values):
        return len(values)


def _await(predicate, what):
    deadline = time.monotonic() + 10.0
    while not predicate():
        assert time.monotonic() < deadline, f"never: {what}"
        time.sleep(0.001)


@pytest.fixture
def played(monkeypatch):
    """A worker over a played pipe, inside a task, its reader running;
    hung up after.  The reader already holds a reply nobody asked for —
    what a request would read; each case checks it is still unread.
    The reader's timer is a minute: each case says when notices go."""
    monkeypatch.setattr(worker_module, "_DONE_WATCHDOG_S", 60.0)
    pipe = PlayedPipe()
    worker = ProcWorker(pipe, index=0, seed=11, cache_capacity=1 << 20)
    worker._cur_task = IDS.task_id()
    start_reader(worker)
    stray = (msg.OK, (IDS.task_id(), [IDS.object_id()]))
    pipe.put(stray)
    _await(lambda: worker._replies, "the reader took the stray reply")
    yield worker, pipe
    pipe.hang_up()
    assert list(worker._replies) == [stray], "a reply was consumed"


@pytest.fixture
def driver(monkeypatch):
    """A ``proc`` driver whose one worker slot is a played pipe: no
    process is spawned and no service thread reads the slot."""

    def spawn_played(runtime, index):
        slot = _WorkerHandle(index=index, node_id=runtime.ids.node_id(), conn=PlayedPipe())
        runtime._dispatch.add_worker(slot)
        return slot

    monkeypatch.setattr(ProcRuntime, "_spawn_worker", spawn_played)
    runtime = ProcRuntime(num_workers=1, shm_capacity=0)
    yield runtime, runtime._workers[0]
    runtime.shutdown()
    runtime._workers[0].conn.hang_up()


def _error(runtime, object_id):
    return deserialize(runtime._objects.store.get(object_id))


def test_an_actor_call_rides_the_notice_with_no_round_trip(played):
    worker, pipe = played
    actor_id = IDS.actor_id()
    arg = ObjectRef._uncounted(IDS.object_id())

    first, second = worker.proxy.call_actor(actor_id, "add", (arg, 2), {"k": 3}, 2)

    assert pipe.sent == [] and first.producer_task == second.producer_task
    worker._flush_notices()
    (notice,) = pipe.sent
    tag, kept, table, escaped, (entry,) = notice
    assert (tag, kept, table, escaped) == (msg.SUBMIT_LOCAL, [], {}, [])
    task_hex, _function, return_hexes, call_bytes, _inline, extras = entry
    assert task_hex == first.producer_task.hex
    assert return_hexes == (first.object_id.hex, second.object_id.hex)
    assert extras["actor"] == (actor_id, "add", None, None)
    assert extras["parent"] == worker._cur_task.hex
    assert deserialize_portable(call_bytes) == ((SlotRef(arg.object_id), 2), {"k": 3})
    assert worker.unacked_local == 1


def test_a_small_put_rides_the_notice_with_no_round_trip(played):
    worker, pipe = played

    ref = worker.proxy.put({"k": [1, 2, 3]})

    assert pipe.sent == []
    assert worker.cache.contains(ref.object_id)  # resident here, as before
    worker._flush_notices()
    (notice,) = pipe.sent
    tag, kept, _table, escaped, routed, ((object_hex, data, parent),) = notice
    assert (tag, kept, escaped, routed) == (msg.SUBMIT_LOCAL, [], [], [])
    assert (object_hex, parent) == (ref.object_id.hex, worker._cur_task.hex)
    assert deserialize(data) == {"k": [1, 2, 3]}
    assert worker.unacked_local == 1


def test_a_large_puts_seal_rides_the_notice(played, monkeypatch):
    worker, pipe = played
    granted = ShmDescriptor(IDS.object_id(), "played-segment", 0, 1 << 20)
    monkeypatch.setattr(worker, "shm_enabled", True)
    # The grant (SHM_CREATE) is the one request a large put still sends.
    monkeypatch.setattr(worker, "_ship_value", lambda object_id, value: granted)

    ref = worker.proxy.put(bytes(1 << 20))

    assert ref.object_id == granted.object_id and pipe.sent == []
    worker._flush_notices()
    (notice,) = pipe.sent
    assert notice[5] == [(granted.object_id.hex, None, worker._cur_task.hex)]
    assert notice[1] == notice[4] == []


def test_one_notice_applies_the_put_then_the_kept_task_then_the_call(
    played, driver, monkeypatch
):
    worker, pipe = played
    runtime, slot = driver
    handle = runtime.create_actor(Counter, "Counter", (), {}, ResourceRequest())
    put = worker.proxy.put(21)
    template = repro.remote(double)._bind(worker.proxy)
    kept = worker.proxy.submit_call(template, (put,), {})
    assert len(worker.local_queue) == 1  # the put is resident: kept here
    call = worker.proxy.call_actor(handle.actor_id, "add", (put, kept), {})
    worker._flush_notices()
    (notice,) = pipe.sent

    order = []

    def spy(name, applied):
        def record(*args, **kwargs):
            order.append(name)
            return applied(*args, **kwargs)
        return record

    plane, dispatch = runtime._objects, runtime._dispatch
    monkeypatch.setattr(plane, "worker_put", spy("put", plane.worker_put))
    monkeypatch.setattr(dispatch, "born_on", spy("kept", dispatch.born_on))
    monkeypatch.setattr(dispatch, "join_lane", spy("call", dispatch.join_lane))
    runtime._register_local_submit(slot, *notice[1:])

    assert order == ["put", "kept", "call"]
    assert slot.conn.sent == [(msg.PLACED, 3)]
    assert deserialize(plane.store.get(put.object_id)) == 21
    assert slot.mirror.producer_of(kept.object_id) == kept.producer_task.hex
    # The call stands in its lane under the worker's ids, waiting only
    # for the kept task's result: the put was applied before it.
    record = runtime.actors.get(handle.actor_id)
    spec = record.lane.calls[-1]
    assert (spec.task_id, spec.all_return_ids()) == (call.producer_task, (call.object_id,))
    assert runtime._deps.missing_for(spec.task_id) == {kept.object_id}
    (row,) = runtime._control.actors()
    assert row.methods_submitted == 1
    assert runtime.stats()["sched"]["tasks_spilled"] == 0


def test_what_the_driver_cannot_apply_resolves_to_error_values(driver):
    runtime, slot = driver
    unknown, lost = IDS.actor_id(), IDS.object_id()
    task_id, returned = IDS.task_id(), IDS.object_id()
    spec = TaskSpec(task_id, IDS.function_id(), "add", return_object_id=returned)
    call = msg.encode_entry(spec, None, actor=(unknown, "add", None, None))

    runtime._register_local_submit(
        slot, [], {}, [], [call], [(lost.hex, None, None)]
    )

    assert slot.conn.sent == [(msg.PLACED, 2)]
    error = _error(runtime, returned)
    assert isinstance(error.to_exception(), TaskError)
    assert BackendError.__name__ in error.cause_repr and "unknown actor" in error.cause_repr
    error = _error(runtime, lost)
    assert ObjectLostError.__name__ in error.cause_repr


def test_a_full_window_of_calls_and_puts_waits_for_placed(played, monkeypatch):
    monkeypatch.setattr(worker_module, "MAX_UNACKED_LOCAL", 2)
    worker, pipe = played
    put = worker.proxy.put(1)
    call = worker.proxy.call_actor(IDS.actor_id(), "add", (1,), {})
    third = []
    caller = threading.Thread(target=lambda: third.append(worker.proxy.put(2)))
    caller.start()
    # The window is full: the put and the call go out, the next put waits.
    _await(lambda: pipe.sent, "the full window was flushed")
    time.sleep(0.05)
    assert third == [] and caller.is_alive()
    (notice,) = pipe.sent
    assert [entry[0] for entry in notice[4]] == [call.producer_task.hex]
    assert [item[0] for item in notice[5]] == [put.object_id.hex]
    pipe.put((msg.PLACED, 2))
    caller.join(timeout=10.0)
    assert not caller.is_alive() and len(third) == 1
    assert worker.unacked_local == 0
    worker._flush_notices()
    assert [item[0] for item in pipe.sent[1][5]] == [third[0].object_id.hex]


def test_a_workers_call_ships_in_its_window_as_the_worker_built_it(
    played, driver, monkeypatch
):
    """A call made on a worker is submitted like a routed task: the
    driver names it from its record of the actor, pins its ref argument
    from the entry's ``deps`` and ships the worker's own ``call_bytes``
    in the actor's window — it never unpickles the call."""
    worker, pipe = played
    runtime, slot = driver
    handle = runtime.create_actor(Counter, "Counter", (), {}, ResourceRequest())
    with runtime._cond:
        frame = runtime._dispatch.claim_frame(slot)
    assert runtime._ship_frame(slot, frame)
    (creation,) = slot.conn.sent[-1][1]
    runtime._apply_done_frame(
        slot, (msg.DONE, [(creation[0], [serialize(None)], False, 1e-4)], None)
    )
    small = runtime.put(7)
    call = worker.proxy.call_actor(handle.actor_id, "add", (small, 2), {})
    worker._flush_notices()
    (notice,) = pipe.sent
    (routed,) = notice[4]
    unpickled = []

    def spy(data):
        unpickled.append(data)
        return deserialize_portable(data)

    monkeypatch.setattr(runtime_module, "deserialize_portable", spy)
    runtime._register_local_submit(slot, *notice[1:])
    assert unpickled == []
    assert routed[5]["deps"] == (small.object_id.hex,)

    with runtime._cond:
        frame = runtime._dispatch.claim_frame(slot)
    assert runtime._ship_frame(slot, frame)
    (entry,) = slot.conn.sent[-1][1]
    assert entry[3] is routed[3] and entry[5] is routed[5] and entry[:3] == routed[:3]
    assert entry[5]["actor"] == (handle.actor_id, "add", None, None)
    assert entry[msg.ENTRY_INLINE] == {small.object_id: serialize(7)}
    (spec,) = slot.inflight.values()
    record = runtime.actors.get(handle.actor_id)
    assert (spec.task_id, spec.function_name) == (call.producer_task, "Counter.add")
    assert spec.function_id == record.method_ids["add"] and spec.wire is routed
    assert spec.pins == (small.object_id,) and spec.args == ()
    assert runtime._objects._pins[small.object_id.hex] == 1
    assert unpickled == []
    # A call made here has an entry of the same shape.
    mine = runtime.call_actor(handle.actor_id, "add", (small,), {})
    extras = runtime._lifecycle.spec_for(mine.object_id).wire[5]
    assert extras["actor"] == (handle.actor_id, "add", None, None)
    slot.inflight.clear()  # nothing runs there: nothing to kill
    slot.busy = False
