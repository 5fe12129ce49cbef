"""A get answered by what it just ran.

A worker blocked in ``get`` runs the producers queued on itself inline
(``tests/test_work_first_get.py``).  Their completions are then held and
leave together at the next flush point, and when the inline runs
produced every value the get asked for, the values are read from their
results: no ``GET`` round trip.  Four guards decide when that is not
allowed (a shared-memory result, a failed child, an id that escaped, a
cancel read after the child ran); each falls back to one ``GET``.

Most cases here need no process: a :class:`ProcWorker` talks to a pipe
the test plays, as in ``test_worker_grants_the_tail_between_inline_runs_
and_never_runs_it``, so what it sends is exact.  The last test re-adds
each guard's absence by patching the worker method that holds it and
requires one of the cases to notice (ROADMAP item 1(d)).

Held notices are watched too: the first ``SUBMIT_LOCAL`` notice a task
buffers arms the worker's watchdog, which sends it within a tick if the
task computes on, and stays awake while the queue holds tasks.  Two
live cases on ``proc`` and ``dist`` show what an idle peer can then
steal: the children of a parent that fans out and then computes, and
children queued behind a long sibling.
"""

import __future__
import contextlib
import inspect
import os
import pickle
import statistics
import textwrap
import threading
import time
from collections import deque

import pytest

import repro
from repro.api import runtime_context
from repro.core import object_ref
from repro.errors import BackendError
from repro.proc import messages as msg
from repro.proc import worker as worker_module
from repro.proc.messages import ShmDescriptor
from repro.proc.transport import Transport
from repro.proc.worker import ProcWorker
from repro.utils.serialization import serialize

pytestmark = pytest.mark.timeout(180)

#: What the played driver answers a ``GET`` with, for every id.
FROM_DRIVER = "from the driver"

#: The messages a worker sends that are not requests (no reply).
ONE_WAY = (msg.DONE, msg.SUBMIT_LOCAL, msg.STEAL_GRANT, msg.SPANS)


class _Driver(Transport):
    """A worker's pipe with the driver played by the test: everything
    the worker sends lands in ``sent``; a ``GET`` is answered at once
    with :data:`FROM_DRIVER` per id, any other request with an error;
    ``inbox`` is what the driver sends unasked."""

    def __init__(self):
        self.inbox = deque()
        self.sent = []
        self.closed = False

    def send(self, message):
        if self.closed:
            raise OSError("the played driver hung up")
        self.sent.append(message)
        if message[0] == msg.GET:
            self.inbox.append((msg.OK, [serialize(FROM_DRIVER)] * len(message[1])))
        elif message[0] not in ONE_WAY:
            self.inbox.append((msg.ERR, BackendError(f"{message[0]} not played")))

    def recv(self):
        return self.inbox.popleft()

    def poll(self, timeout=0.0):
        return bool(self.inbox)

    def close(self):
        pass

    def tags(self):
        return [message[0] for message in self.sent]


@contextlib.contextmanager
def scripted_worker():
    """A worker over a played pipe, set up as its process would be
    (``ProcWorker.run``): its proxy is the current runtime, so task
    bodies call ``.remote``/``repro.get`` as user code does, and its
    ledger counts refs, so pickling one marks it escaped."""
    worker = ProcWorker(_Driver(), index=0, seed=1, cache_capacity=1 << 20)
    previous = object_ref.install_ledger(worker._refs), runtime_context._current_runtime
    runtime_context._current_runtime = worker.proxy
    try:
        yield worker
    finally:
        object_ref.install_ledger(previous[0])
        runtime_context._current_runtime = previous[1]


def here():
    """The worker a task body runs on."""
    return runtime_context.get_runtime()._worker


def submit(body, count):
    """``count`` worker-born calls ``body(i)``, queued on this worker.
    (Bodies are module-level: a notice carries the function's code.)"""
    return [repro.remote(body).remote(i) for i in range(count)]


def outcome(worker, refs):
    """What a get of ``refs`` did: the GETs it sent and what it returned
    (or the type of what it raised)."""
    before = worker.conn.tags().count(msg.GET)
    try:
        values = worker.proxy.get(refs)
    except Exception as exc:  # noqa: BLE001 - a mutant may raise anything
        values = type(exc).__name__
    return worker.conn.tags().count(msg.GET) - before, values


def square(i):
    return i * i


def square_but_2_fails(i):
    if i == 2:
        raise ValueError("boom")
    return i * i


def square_cancelled_at_4(i):
    if i == 4:  # the driver cancels the task while it runs
        here().conn.inbox.append((msg.CANCEL_NOTICE, here().cur_hex()))
    return i * i


def square_cancelled_and_read_at_4(i):
    if i == 4:  # ... and the watchdog reads the notice while it runs
        here().conn.inbox.append((msg.CANCEL_NOTICE, here().cur_hex()))
        here()._drain_control(midtask=True)
    return i * i


def square_another_cancelled_at_4(i):
    if i == 4:
        here().conn.inbox.append((msg.CANCEL_NOTICE, "not-one-of-them"))
    return i * i


# -- the cases: (gets sent, values) -----------------------------------------------

SQUARES = [0, 1, 4, 9, 16]


def case_all_bytes(worker):
    return submit(square, 5)


def case_a_shm_blob(worker):
    # Every result goes to shared memory: the grant is played here.
    worker.shm_enabled, worker.inline_threshold = True, 0
    worker._ship_value = lambda object_id, serialized: ShmDescriptor(
        object_id, "played-segment", 0, serialized.frame_bytes
    )
    return submit(square, 5)


def case_a_failed_child(worker):
    return submit(square_but_2_fails, 5)


def case_an_escaped_id(worker):
    refs = submit(square, 5)
    pickle.dumps([refs[3]])  # what passing it inside a list does
    return refs


def case_a_cancel_during_the_last_run(worker):
    return submit(square_cancelled_at_4, 5)


def case_a_cancel_read_during_the_last_run(worker):
    return submit(square_cancelled_and_read_at_4, 5)


def case_a_cancel_naming_another_task(worker):
    return submit(square_another_cancelled_at_4, 5)


CASES = {
    case_all_bytes: (0, SQUARES),
    case_a_shm_blob: (1, [FROM_DRIVER] * 5),
    case_a_failed_child: (1, [FROM_DRIVER] * 5),
    case_an_escaped_id: (1, [FROM_DRIVER] * 5),
    case_a_cancel_during_the_last_run: (1, [FROM_DRIVER] * 5),
    case_a_cancel_read_during_the_last_run: (1, [FROM_DRIVER] * 5),
    case_a_cancel_naming_another_task: (0, SQUARES),
}


def run_case(case):
    with scripted_worker() as worker:
        refs = case(worker)
        assert len(worker.local_queue) == len(refs)
        return outcome(worker, refs)


@pytest.fixture(autouse=True)
def _no_budget_flush(monkeypatch):
    """The frame-budget flush point depends on how fast this host runs
    five tiny tasks; with it out of reach, a flush is what a test makes."""
    monkeypatch.setattr(worker_module, "FRAME_BUDGET_S", 60.0)


# -- (a) the get that needs no driver ---------------------------------------------


def test_a_get_over_its_queued_producers_sends_no_get_and_one_done():
    with scripted_worker() as worker:
        refs = submit(square, 5)
        assert repro.get(refs) == SQUARES
        assert worker.conn.sent == []  # nothing yet: notices and results held
        worker._flush_done()
        tags = worker.conn.tags()
        assert msg.GET not in tags
        assert tags == [msg.SUBMIT_LOCAL, msg.DONE]
        notice, done = worker.conn.sent
        assert [entry[0] for entry in notice[1]] == [c[0] for c in done[1]]
        assert [c[0] for c in done[1]] == [ref.producer_task.hex for ref in refs]


# -- (b) every fallback is one GET ---------------------------------------------------


@pytest.mark.parametrize("case", list(CASES), ids=lambda case: case.__name__[5:])
def test_each_guard_falls_back_to_exactly_one_get(case):
    assert run_case(case) == CASES[case]


def test_a_get_answered_here_leaves_nothing_answerable_behind():
    with scripted_worker() as worker:
        for case in CASES:
            outcome(worker, case(worker))
        assert worker._answerable == set()


# -- (c) a computing chain still announces its children -----------------------------


@contextlib.contextmanager
def watched(worker):
    """The worker's watchdog thread, stopped afterwards (its next flush
    meets a closed pipe, which is how it ends with its driver)."""
    thread = threading.Thread(target=worker._watch_done, daemon=True)
    thread.start()
    try:
        yield
    finally:
        worker.conn.closed = True
        with worker._out_lock:
            worker._pending_notices.append(None)
            worker._held_since = 0.0
        worker._armed.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


#: What the deepest task of the chain saw: when every notice was out.
_announced: list = []


def descend(depth, patience):
    """Three levels of inline runs under nested gets; the deepest waits
    up to ``patience`` for all four notices to have been sent."""
    if depth > 0:
        return repro.get(repro.remote(descend).remote(depth - 1, patience)) + depth
    sent = here().conn.sent
    deadline = time.monotonic() + patience
    while time.monotonic() < deadline:
        if sum(len(m[1]) for m in list(sent) if m[0] == msg.SUBMIT_LOCAL) == 4:
            _announced.append(time.monotonic())
            break
        time.sleep(0.0005)
    return 0


def notices_out_during_a_chain(patience):
    """Seconds from the first notice of a :func:`descend` chain to all
    of them being out, or None if they waited for the chain to end."""
    _announced.clear()
    with scripted_worker() as worker, watched(worker):
        started = time.monotonic()
        assert repro.get(repro.remote(descend).remote(3, patience)) == 6
    return _announced[0] - started if _announced else None


def test_a_deep_inline_chain_holding_only_notices_gets_them_out_within_a_tick():
    """Best of three: the watchdog wakes one tick after the first notice;
    a busy host can delay a thread hand-off, it rarely delays three."""
    tick = worker_module._DONE_WATCHDOG_S
    delays = []
    for _attempt in range(3):
        delays.append(notices_out_during_a_chain(patience=1.0))
        assert delays[-1] is not None, "the notices waited for the chain to end"
        if delays[-1] < 2 * tick + 0.005:
            return
    raise AssertionError(f"notices out after {delays} s, a tick is {tick} s")


# -- a parent that fans out and then computes -----------------------------------------


@repro.remote
def napper(directory, index):
    open(os.path.join(directory, f"started-{index}"), "w").close()
    time.sleep(0.02)
    return index


@repro.remote
def fan_out_then_compute(directory, count):
    refs = [napper.remote(directory, index) for index in range(count)]
    time.sleep(0.3)
    started = sum(
        os.path.exists(os.path.join(directory, f"started-{index}"))
        for index in range(count)
    )
    return started, sum(repro.get(refs, timeout=60.0))


POOLS = {
    "proc": {"backend": "proc", "num_workers": 2},
    "dist": {"backend": "dist", "num_nodes": 2, "num_cpus": 1},
}


@pytest.mark.parametrize("backend", tuple(POOLS))
def test_children_of_a_computing_parent_are_stolen_before_it_ends(backend, tmp_path):
    """Eight 20 ms children, then 300 ms of the parent's own work on a
    two-worker pool: the idle worker must get some of them meanwhile,
    which it can only once the driver has heard of them."""
    repro.init(seed=5, **POOLS[backend])
    try:
        warm = tmp_path / "warm"
        warm.mkdir()
        assert repro.get(
            fan_out_then_compute.remote(str(warm), 1), timeout=60.0
        )[1] == 0
        started, total = repro.get(
            fan_out_then_compute.remote(str(tmp_path), 8), timeout=60.0
        )
        assert total == sum(range(8))
        assert started >= 1
    finally:
        repro.shutdown()


@repro.remote
def nap(seconds):
    time.sleep(seconds)
    return seconds


@repro.remote
def long_then_short(count):
    """Children the session loop will run after this parent ends: one
    0.5 s nap, then ``count`` that return at once."""
    return [nap.remote(0.5)] + [nap.remote(0.0) for _ in range(count)]


@pytest.mark.parametrize("backend", tuple(POOLS))
def test_children_queued_behind_a_long_sibling_are_stolen_meanwhile(backend):
    """The same notice keeps the watchdog awake while its queue is not
    empty, so an idle peer takes the 30 short children from behind the
    long one instead of waiting it out (the median of five; it was the
    nap, 500 ms, in most of them)."""
    repro.init(seed=3, **POOLS[backend])
    try:
        repro.get(repro.get(long_then_short.remote(2), timeout=60.0), timeout=60.0)
        times = []
        for _ in range(5):
            refs = repro.get(long_then_short.remote(30), timeout=60.0)
            started = time.monotonic()
            assert repro.get(refs[1:], timeout=60.0) == [0.0] * 30
            times.append(time.monotonic() - started)
            assert repro.get(refs[0], timeout=60.0) == 0.5
        assert statistics.median(times) < 0.25, times
    finally:
        repro.shutdown()


# -- (d) each guard is load-bearing -----------------------------------------------------


def mutate(monkeypatch, method_name, *edits):
    """Replace ``ProcWorker.<method_name>`` by a copy of its source with
    each ``(guard, replacement)`` of ``edits`` made (a guard must occur
    exactly once)."""
    source = textwrap.dedent(inspect.getsource(getattr(ProcWorker, method_name)))
    for guard, replacement in edits:
        assert source.count(guard) == 1, f"{guard!r} not found once in {method_name}"
        source = source.replace(guard, replacement)
    namespace = {}
    code = compile(
        source,
        worker_module.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, vars(worker_module), namespace)
    monkeypatch.setattr(ProcWorker, method_name, namespace[method_name])


#: One guard taken away each: (method, (guard, what replaces it), ...).
MUTANTS = {
    "failed results answer": (
        "run_producers",
        ("(task_hex, None if failed else blob)", "(task_hex, blob)"),
    ),
    "shm descriptors answer": (
        "answer",
        (
            "if found is None or not isinstance(found[1], bytes):",
            "if found is None:",
        ),
    ),
    "escaped ids answer": (
        "answer",
        ("if object_hex in escaped or object_hex in reported:", "if False:"),
    ),
    "cancels are not checked": (
        "answer",
        ("if blobs is not None and not tasks <= self._answerable:", "if False:"),
    ),
    "cancels are not recorded": (
        "_handle_control",
        ("self._answerable.discard(message[1])", "pass"),
    ),
    "a task becomes answerable after it ran": (
        "run_producers",
        ("if item is not None and ran is not None:", "if False:"),
        (
            "task_hex, _function, return_hexes = item[0][:3]",
            "task_hex, _function, return_hexes = item[0][:3]; "
            "self._answerable.add(task_hex)",
        ),
    ),
    "notices do not arm the watchdog": (
        "try_submit_local",
        ("if first and not self._armed.is_set():", "if False:"),
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_taking_any_guard_away_is_caught(mutant, monkeypatch):
    mutate(monkeypatch, *MUTANTS[mutant])
    caught = [case.__name__ for case in CASES if run_case(case) != CASES[case]]
    if notices_out_during_a_chain(patience=0.2) is None:
        caught.append("the deep chain")
    assert caught, f"no case noticed: {mutant}"
