"""A worker-born task the worker cannot keep reaches the driver one way:
as a *routed* entry on the ``SUBMIT_LOCAL`` notice, beside the entries
it keeps — driven with no process, over a played pipe.

``.remote()`` inside a task sends no request and reads no reply,
whichever way its task goes.  The worker checks the rest itself: a
task no node can hold raises at ``.remote()``, and a full window of
unacknowledged entries waits for the ``PLACED`` that brings it back
under the limit.
"""

import threading
import time

import pytest

import repro
from played_pipe import PlayedPipe, start_reader
from repro.core.object_ref import ObjectRef
from repro.errors import BackendError
from repro.proc import messages as msg
from repro.proc import worker as worker_module
from repro.proc.worker import ProcWorker
from repro.utils.ids import IDGenerator
from repro.utils.serialization import deserialize_portable

pytestmark = pytest.mark.timeout(60)


def double(x):
    return 2 * x


def _await(predicate, what):
    deadline = time.monotonic() + 10.0
    while not predicate():
        assert time.monotonic() < deadline, f"never: {what}"
        time.sleep(0.001)


@pytest.fixture
def played():
    """A worker over a played pipe, its reader running; hung up after.
    The reader already holds a reply nobody asked for — what a request
    from ``.remote()`` would read; each case checks it is still unread."""
    pipe = PlayedPipe()
    worker = ProcWorker(pipe, index=0, seed=9, cache_capacity=1 << 20)
    start_reader(worker)
    ids = IDGenerator(namespace="routed-test")
    stray = (msg.OK, (ids.task_id(), [ids.object_id()]))
    pipe.put(stray)
    _await(lambda: worker._replies, "the reader took the stray reply")
    yield worker, pipe
    pipe.hang_up()
    assert list(worker._replies) == [stray], "a reply was consumed"


def test_a_call_on_a_non_resident_argument_is_routed_with_no_round_trip(played):
    worker, pipe = played
    ids = IDGenerator(namespace="routed-test")
    missing = ObjectRef._uncounted(ids.object_id())
    template = repro.remote(double)._bind(worker.proxy)

    ref = worker.proxy.submit_call(template, (missing,), {})

    assert isinstance(ref, ObjectRef) and pipe.sent == []
    assert len(worker.local_queue) == 0  # not kept here
    worker._flush_notices()
    (notice,) = pipe.sent
    tag, kept, table, escaped, (entry,) = notice
    assert (tag, kept, escaped) == (msg.SUBMIT_LOCAL, [], [])
    function_hex = template.function_id.hex
    assert (entry[0], entry[1], entry[2]) == (
        ref.producer_task.hex, function_hex, (ref.object_id.hex,)
    )
    assert entry[5]["deps"] == (missing.object_id.hex,)
    name, code = table[function_hex]
    assert name == "double" and deserialize_portable(code)(4) == 8
    # Counted in the window like a kept entry: one PLACED acks both kinds.
    assert worker.unacked_local == 1
    pipe.put((msg.PLACED, 1))
    _await(lambda: worker.unacked_local == 0, "the PLACED was read")


def test_kept_and_routed_entries_ride_one_notice(played):
    worker, pipe = played
    ids = IDGenerator(namespace="routed-test")
    template = repro.remote(double)._bind(worker.proxy)
    kept = worker.proxy.submit_call(template, (1,), {})
    routed = worker.proxy.submit_call(
        template, (ObjectRef._uncounted(ids.object_id()),), {}
    )
    worker._flush_notices()
    (notice,) = pipe.sent
    assert [entry[0] for entry in notice[1]] == [kept.producer_task.hex]
    assert [entry[0] for entry in notice[4]] == [routed.producer_task.hex]
    assert list(notice[2]) == [template.function_id.hex]  # told once
    assert worker.unacked_local == 2


def test_a_task_no_node_can_hold_raises_at_remote(played):
    worker, pipe = played
    template = repro.remote(double).options(num_cpus=64)._bind(worker.proxy)
    with pytest.raises(BackendError, match="largest node has 4 CPUs"):
        worker.proxy.submit_call(template, (1,), {})
    worker._flush_notices()
    assert pipe.sent == [] and worker.unacked_local == 0


def test_a_full_window_waits_for_the_placed_that_frees_it(played, monkeypatch):
    monkeypatch.setattr(worker_module, "MAX_UNACKED_LOCAL", 2)
    worker, pipe = played
    template = repro.remote(double)._bind(worker.proxy)
    first = [worker.proxy.submit_call(template, (i,), {}) for i in range(2)]
    third = []
    caller = threading.Thread(
        target=lambda: third.append(worker.proxy.submit_call(template, (2,), {}))
    )
    caller.start()
    # The window is full: the two entries go out, and the third waits.
    _await(lambda: pipe.sent, "the full window was flushed")
    time.sleep(0.05)
    assert third == [] and caller.is_alive()
    (notice,) = pipe.sent
    assert [entry[0] for entry in notice[1]] == [r.producer_task.hex for r in first]
    pipe.put((msg.PLACED, 2))
    caller.join(timeout=10.0)
    assert not caller.is_alive() and len(third) == 1
    assert worker.unacked_local == 0 and len(worker._pending_notices) == 1
