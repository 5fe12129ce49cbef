"""A task is encoded once, where it is born, on ``proc`` and ``dist`` —
driven with no process, over played pipes.

Whoever submits a task to the driver tier builds its wire entry: the
driver at ``.remote()``, a worker for what it makes.  The spec carries
that entry (``TaskSpec.wire``), and every ship of the task — its first,
a steal, a replay after its worker's loss — sends the same
``call_bytes`` with a fresh ``inline`` table, filled from where each ref
argument lives at that moment: its bytes when small, its shared-memory
descriptor when it lives in the arena.  The driver never unpickles a
stateless task's arguments, and its spec holds none of them.
"""

import numpy as np
import pytest

import repro
from played_pipe import PlayedPipe, start_reader
from repro.proc import messages as msg
from repro.proc import runtime as runtime_module
from repro.proc import worker as worker_module
from repro.proc.messages import ShmDescriptor, SlotRef
from repro.proc.runtime import ProcRuntime, _WorkerHandle
from repro.proc.worker import ProcWorker
from repro.utils.ids import IDGenerator
from repro.utils.serialization import deserialize, deserialize_portable, serialize

pytestmark = pytest.mark.timeout(60)

IDS = IDGenerator(namespace="birth-entries-test")


def double(x):
    return 2 * x


def total(values):
    return float(values.sum())


class Pickled:
    """An argument that reads differently each time it is pickled (it
    becomes the count of its picklings): the same bytes twice means one
    encode."""

    times = 0

    def __reduce__(self):
        Pickled.times += 1
        return (int, (Pickled.times,))


@pytest.fixture
def driver(monkeypatch):
    """``make(workers, shm_capacity)``: a ``proc`` driver whose worker
    slots are played pipes (a lost one is replaced by another): no
    process is spawned and no service thread claims a frame."""
    made = []

    def spawn_played(runtime, index):
        slot = _WorkerHandle(index=index, node_id=runtime.ids.node_id(), conn=PlayedPipe())
        runtime._dispatch.add_worker(slot)
        return slot

    monkeypatch.setattr(ProcRuntime, "_spawn_worker", spawn_played)

    def make(workers=2, shm_capacity=0):
        made.append(ProcRuntime(num_workers=workers, shm_capacity=shm_capacity))
        return made[-1]

    yield make
    for runtime in made:
        for slot in runtime._workers:  # nothing runs there: nothing to kill
            slot.inflight.clear()
            slot.busy = False
        runtime.shutdown()
        for slot in runtime._workers:
            slot.conn.hang_up()


def ship(runtime, slot):
    """Claim one frame for ``slot`` and ship it: the TASK message sent."""
    with runtime._cond:
        frame = runtime._dispatch.claim_frame(slot)
    assert frame, "nothing to claim"
    assert runtime._ship_frame(slot, frame)
    message = slot.conn.sent[-1]
    assert message[0] == msg.TASK
    return message


def estimate_low(runtime, template):
    """Every call of ``template`` is estimated to fit a frame's budget
    many times over, so one frame carries them all."""
    runtime._dispatch._exec_estimate[template.function_id] = 1e-5


def test_a_routed_entry_ships_with_its_workers_call_bytes(driver, monkeypatch):
    runtime = driver(workers=1)
    (slot,) = runtime._workers
    small = runtime.put(7)
    pipe = PlayedPipe()
    worker = ProcWorker(pipe, index=0, seed=13, cache_capacity=1 << 20)
    worker._cur_task = IDS.task_id()
    monkeypatch.setattr(worker_module, "_DONE_WATCHDOG_S", 60.0)
    start_reader(worker)
    try:
        template = repro.remote(double)._bind(worker.proxy)
        ref = worker.proxy.submit_call(template, (small,), {})
        assert not len(worker.local_queue)  # not resident there: routed
        worker._flush_notices()
    finally:
        pipe.hang_up()
    (notice,) = pipe.sent
    (routed,) = notice[4]
    unpickled = []

    def spy(data):
        unpickled.append(data)
        return deserialize_portable(data)

    monkeypatch.setattr(runtime_module, "deserialize_portable", spy)
    runtime._register_local_submit(slot, *notice[1:])
    assert unpickled == []
    spec = runtime._lifecycle.spec_for(ref.object_id)
    assert spec.wire is routed and spec.args == ()
    assert [each.object_id for each in spec.arg_refs] == [small.object_id]

    (entry,) = ship(runtime, slot)[1]
    # The worker's own call, and the driver-resident argument's bytes.
    assert entry[3] is routed[3] and entry[5] is routed[5]
    assert entry[:3] == routed[:3]
    assert entry[msg.ENTRY_INLINE] == {small.object_id: serialize(7)}
    assert deserialize_portable(entry[3]) == ((SlotRef(small.object_id),), {})
    assert unpickled == [] and ref.object_id.hex == entry[2][0]


def test_a_stolen_and_a_replayed_task_ship_their_first_call_bytes(driver):
    runtime = driver(workers=2)
    first, second = runtime._workers
    template = repro.remote(double)._bind(runtime)
    estimate_low(runtime, template)
    Pickled.times = 0
    first.busy = second.busy = True  # so both wait in the global queue
    with runtime._cond:
        head = runtime.submit_call(template, (Pickled(),), {})
        tail = runtime.submit_call(template, (Pickled(),), {})
    assert Pickled.times == 2  # each pickled at its .remote()
    shipped = ship(runtime, first)[1]
    assert [entry[2][0] for entry in shipped] == [head.object_id.hex, tail.object_id.hex]
    for ref, entry in zip((head, tail), shipped):
        spec = runtime._lifecycle.spec_for(ref.object_id)
        assert spec.wire is entry  # no ref argument: its birth entry
        assert spec.args == ()

    # The tail is stolen from behind the head, and runs elsewhere ...
    runtime._apply_steal_grant(first, [tail.producer_task.hex])
    (stolen,) = ship(runtime, second)[1]
    assert stolen[0] == tail.producer_task.hex
    # ... and the head dies with its worker, and is replayed.
    with runtime._cond:
        runtime._worker_lost(first)
    (replayed,) = ship(runtime, second)[1]
    assert replayed[0] == head.producer_task.hex
    assert stolen[3] == shipped[1][3] and replayed[3] == shipped[0][3]
    assert Pickled.times == 2


def test_a_shared_memory_argument_reaches_the_worker_in_the_inline_table(driver):
    runtime = driver(workers=1, shm_capacity=64 << 20)
    if runtime._objects.shm is None:
        pytest.skip("no shared-memory arena on this host")
    (slot,) = runtime._workers
    values = np.arange(100_000, dtype=np.float64)
    big = runtime.put(values)
    ref = runtime.submit_call(repro.remote(total)._bind(runtime), (big,), {})
    _tag, (entry,), table = ship(runtime, slot)
    descriptor = entry[msg.ENTRY_INLINE][big.object_id]
    assert type(descriptor) is ShmDescriptor and descriptor.object_id == big.object_id

    pipe = PlayedPipe()
    worker = ProcWorker(pipe, index=0, seed=17, cache_capacity=1 << 20, shm_enabled=True)
    try:
        worker.functions.learn(table)
        blobs, failed = worker.execute(entry)
    finally:
        pipe.hang_up()
        worker.shm.detach_all()
    assert not failed and deserialize(blobs[0]) == float(values.sum())
    assert msg.FETCH not in pipe.tags()  # attached, with no round trip
    assert ref.object_id.hex == entry[2][0]


def test_the_write_ahead_row_is_the_spec_with_its_entry(driver):
    runtime = driver(workers=1)
    small = runtime.put(3)
    ref = runtime.submit_call(repro.remote(double)._bind(runtime), (small,), {})
    row = runtime._control.task_get(ref.producer_task)
    spec = row.spec
    assert spec.wire[0] == ref.producer_task.hex and spec.args == ()
    assert [each.object_id for each in spec.arg_refs] == [small.object_id]
    assert spec.arg_refs[0]._ledger is None  # named, not held
    assert deserialize_portable(spec.wire[3]) == ((SlotRef(small.object_id),), {})
