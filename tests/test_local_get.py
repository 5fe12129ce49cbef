"""A get answered by what it just ran.

A worker blocked in ``get`` runs the producers queued on itself inline
(``tests/test_work_first_get.py``).  Their completions are then held and
leave together at the next flush point, and when the inline runs
produced every value the get asked for, the values are read from their
results: no ``GET`` round trip.  Four guards decide when that is not
allowed (a shared-memory result, a failed child, an id that escaped, a
cancel read after the child ran); each falls back to one ``GET``.

Most cases here need no process: a :class:`ProcWorker` talks to a pipe
the test plays (``played_pipe.py``; its reader thread reads it as it
would a real one), so what it sends is exact.  The guard tests re-add
each guard's absence by patching the worker method that holds it and
require one of the cases to notice (ROADMAP item 1(d)).

Held notices are timed too: the first ``SUBMIT_LOCAL`` notice a task
buffers starts the reader thread's timer, which sends it within
``_DONE_WATCHDOG_S`` if the task computes on.  Two live cases on
``proc`` and ``dist`` show what an idle peer can then steal: the
children of a parent that fans out and then computes, and children
queued behind a long sibling.

A get the driver cannot answer at once *parks* its task: the thread
gives the worker's token up, nothing is run on top of it, and it takes
the token back before any new task starts once the late reply arrives.
The last cases pin that down with the pipe played, and show that a
worker which stacks work on a parked task again hangs.
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

import pytest

import repro
from played_pipe import PlayedPipe, start_reader
from repro.api import runtime_context
from repro.core import object_ref
from repro.core.object_ref import ObjectRef
from repro.errors import BackendError, GetTimeoutError
from repro.proc import messages as msg
from repro.proc import runtime as runtime_module
from repro.proc import worker as worker_module
from repro.proc.messages import ShmDescriptor
from repro.proc.worker import ProcWorker, worker_main
from repro.utils.serialization import deserialize, serialize

pytestmark = pytest.mark.timeout(180)

#: What the played driver answers a ``GET`` with, for every id.
FROM_DRIVER = "from the driver"

#: The messages a worker sends that are not requests (no reply).
ONE_WAY = (msg.DONE, msg.SUBMIT_LOCAL, msg.STEAL_GRANT, msg.SPANS)


class _Driver(PlayedPipe):
    """The played driver answers a ``GET`` at once with
    :data:`FROM_DRIVER` per id, any other request with an error."""

    def send(self, message):
        super().send(message)
        if message[0] == msg.GET:
            self.put((msg.OK, [serialize(FROM_DRIVER)] * len(message[1])))
        elif message[0] not in ONE_WAY:
            self.put((msg.ERR, BackendError(f"{message[0]} not played")))


@contextlib.contextmanager
def scripted_worker(tick=60.0, pipe=None):
    """A worker over a played pipe (``_Driver`` unless ``pipe`` is
    given), set up as its process would be
    (``ProcWorker.run``): its reader thread runs, its proxy is the
    current runtime, so task bodies call ``.remote``/``repro.get`` as
    user code does, and its ledger counts refs, so pickling one marks it
    escaped.  The reader's timer is ``tick`` (far out of reach by
    default: a flush is what a case makes)."""
    saved_tick, worker_module._DONE_WATCHDOG_S = worker_module._DONE_WATCHDOG_S, tick
    worker = ProcWorker(pipe or _Driver(), index=0, seed=1, cache_capacity=1 << 20)
    reader = start_reader(worker)
    deadline = time.monotonic() + 10.0
    while not worker._untimed:  # it waits on the pipe from now on
        assert time.monotonic() < deadline, "the reader never started"
        time.sleep(0.0005)
    previous = object_ref.install_ledger(worker._refs), runtime_context._current_runtime
    runtime_context._current_runtime = worker.proxy
    try:
        yield worker
    finally:
        object_ref.install_ledger(previous[0])
        runtime_context._current_runtime = previous[1]
        worker.conn.hang_up()
        reader.join(timeout=5.0)
        worker_module._DONE_WATCHDOG_S = saved_tick
        assert not reader.is_alive()


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
    if i == 4:
        # The driver cancels the task while it waits on an rpc: the
        # reader reads the notice ahead of the reply (pipe order).
        here().conn.put((msg.CANCEL_NOTICE, here().cur_hex()))
        with contextlib.suppress(BackendError):
            here().rpc(msg.FETCH, None)
    return i * i


def square_cancelled_and_read_at_4(i):
    if i == 4:  # ... and while it computes: the reader reads it meanwhile
        here().conn.put((msg.CANCEL_NOTICE, here().cur_hex()))
        deadline = time.monotonic() + 10.0
        while here().cur_hex() in here()._answerable:
            assert time.monotonic() < deadline, "the reader never read the notice"
            time.sleep(0.0005)
    return i * i


def square_another_cancelled_at_4(i):
    if i == 4:
        here().conn.put((msg.CANCEL_NOTICE, "not-one-of-them"))
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
        with worker._lock:
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
    with scripted_worker(tick=worker_module._DONE_WATCHDOG_S):
        started = time.monotonic()
        assert repro.get(repro.remote(descend).remote(3, patience)) == 6
    return _announced[0] - started if _announced else None


def test_a_deep_inline_chain_holding_only_notices_gets_them_out_within_a_tick():
    """Best of three: the reader wakes a tick after the first notice; a
    busy host can delay a thread hand-off, it rarely delays three."""
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
    """The notices reach the driver when the parent ends, and the
    victim's reader grants while the long sibling naps, so an idle peer
    takes the 30 short children from behind it instead of waiting it out
    (the median of five; waiting it out is the nap, 500 ms).  On the
    2-core development host it reads 7-10 ms on ``proc`` and 10-14 ms
    on ``dist``."""
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
        assert statistics.median(times) < 0.03, times
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
        "_receive",
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
    "notices do not start the reader's timer": (
        "try_submit_local",
        ("self._hold()", "pass"),
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_taking_any_guard_away_is_caught(mutant, monkeypatch):
    mutate(monkeypatch, *MUTANTS[mutant])
    caught = [case.__name__ for case in CASES if run_case(case) != CASES[case]]
    if notices_out_during_a_chain(patience=0.2) is None:
        caught.append("the deep chain")
    assert caught, f"no case noticed: {mutant}"


# -- a get the driver cannot answer parks its task --------------------------------------


#: What the played tasks did, in order: ``(name, what, thread id)``.
_played: list = []


def played(name):
    """A played task: ``"parked"`` sends a GET the driver parks;
    ``"beside"`` runs until the late reply for it has been read."""
    worker = here()
    _played.append((name, "start", threading.get_ident()))
    value = None
    if name == "parked":
        value = worker.rpc(msg.GET, [], None)
    elif name == "beside":
        _until(lambda: worker._resumed, "the late reply being read")
    _played.append((name, "end", threading.get_ident()))
    return value


def _until(predicate, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"{what} never happened"
        time.sleep(0.0005)


def task_frame(worker, body, *names):
    """A ``TASK`` frame of ``body(name)`` calls, one per name, its
    function in ``worker``'s table."""
    template = repro.remote(body)._bind(worker.proxy)
    worker.functions.add(template.function_id.hex, body.__name__, body)
    specs = [template.stamp(worker.ids, (n,), {}, worker.node_id) for n in names]
    return (msg.TASK, [msg.encode_entry(spec, None) for spec in specs], {})


def idle_dones(pipe):
    """Idle DONEs sent so far (one counts the late replies read)."""
    return sum(1 for m in list(pipe.sent) if m[0] == msg.DONE and m[2] is not None)


def test_a_parked_get_lets_a_frame_run_beside_it_and_resumes_before_its_tail():
    """With the pipe played: the head of a frame sends a ``GET`` that is
    answered "pending"; the worker reports idle with it parked, runs the
    next frame's head on another thread, and the late reply that names
    the parked request resumes it before that frame's tail starts."""
    _played.clear()
    with scripted_worker(pipe=PlayedPipe()) as worker:  # it answers nothing
        pipe = worker.conn
        worker._start_executor()
        parked = task_frame(worker, played, "parked")
        pipe.put(parked)
        _until(lambda: msg.GET in pipe.tags(), "the GET")
        pipe.put((msg.PENDING, 7))
        _until(lambda: idle_dones(pipe) == 1, "the idle DONE")
        assert [m for m in pipe.sent if m[0] == msg.DONE] == [(msg.DONE, [], 0)]
        pipe.put(task_frame(worker, played, "beside", "tail-1", "tail-2"))
        _until(lambda: ("beside", "start") in [e[:2] for e in _played], "beside")
        pipe.put((msg.OK, "late", 7))
        _until(lambda: idle_dones(pipe) == 2, "the second session's end")
        assert worker._parked == {} and not worker._resumed and worker._token_free
    order = [(name, what) for name, what, _thread in _played]
    assert order == [
        ("parked", "start"), ("beside", "start"), ("beside", "end"),
        ("parked", "end"), ("tail-1", "start"), ("tail-1", "end"),
        ("tail-2", "start"), ("tail-2", "end"),
    ]
    threads = {name: thread for name, what, thread in _played if what == "start"}
    assert threads["beside"] != threads["parked"]
    results = {
        c[0]: deserialize(c[1][0]) for m in pipe.sent if m[0] == msg.DONE for c in m[1]
    }
    assert results[parked[1][0][0]] == "late" and len(results) == 4


#: What the tasks of the ledger case held (ids) and kept (a ref).
_kept: dict = {}


def holds_across_a_park(name):
    """Holds a ref of its own across a parked ``GET``; ``"Q"`` then keeps
    a new one in a global."""
    worker = here()
    held = ObjectRef(worker.ids.object_id())
    _kept[name + " held"] = held.object_id.hex
    worker.rpc(msg.GET, [], None)
    if name == "Q":
        _kept["Q kept"] = ObjectRef(worker.ids.object_id())


def test_parked_tasks_that_end_out_of_order_report_only_their_own_refs():
    """P parks, Q parks, P is resumed and ends, then Q: the ref Q keeps
    after it ends escapes, and no ref either of them held only while it
    ran does — P's end does not take Q's live ref for its own."""
    _kept.clear()
    with scripted_worker(pipe=PlayedPipe()) as worker:
        pipe = worker.conn
        worker._start_executor()
        for key, name in enumerate("PQ"):
            pipe.put(task_frame(worker, holds_across_a_park, name))
            _until(lambda: pipe.tags().count(msg.GET) == key + 1, f"{name}'s GET")
            pipe.put((msg.PENDING, key))
            _until(lambda: idle_dones(pipe) == key + 1, f"{name} parked")
        for key in range(2):  # P's late reply first
            pipe.put((msg.OK, None, key))
            _until(lambda: idle_dones(pipe) == key + 3, f"the end of task {key}")
        escaped = worker._escaped | worker._reported
    # Each idle DONE counts the late replies read so far.
    assert [m[2] for m in pipe.sent if m[0] == msg.DONE] == [0, 0, 1, 2]
    try:
        assert _kept["Q kept"].object_id.hex in escaped
        assert not {_kept["P held"], _kept["Q held"]} & escaped
    finally:
        _kept.clear()


@repro.remote
def parks_on_combine(base):
    refs = [square_remote.remote(base + i) for i in range(4)]
    # Unresolved arguments are not resident here: combine spills, and
    # the get is parked until the driver has run it.
    return repro.get(combine.remote(*refs), timeout=60.0)


@repro.remote
def waits_for(boxed):
    return repro.get(boxed[0], timeout=60.0) + 1


square_remote = repro.remote(square)


@repro.remote
def combine(*values):
    return sum(values)


@pytest.mark.parametrize("backend", tuple(POOLS))
def test_a_task_waiting_for_a_parked_one_runs_beside_it(backend):
    """One worker: the parent parks on a spilled ``combine``, and a task
    that waits for the parent is sent to its idle worker meanwhile."""
    pool = dict(POOLS[backend], **(
        {"num_workers": 1} if backend == "proc" else {"num_nodes": 1}
    ))
    runtime = repro.init(seed=2, **pool)
    try:
        parent = parks_on_combine.remote(0)
        assert repro.get(waits_for.remote([parent]), timeout=30.0) == 15
        parked = runtime.stats()["sched"]["tasks_parked"]
        assert parked >= 2
        assert f"{parked} get/wait(s) parked their task" in repro.trace_report()
    finally:
        repro.shutdown()


class _Forever:
    """``mutate``'s monkeypatch, in a process that never undoes it."""

    setattr = staticmethod(setattr)


#: Parked requests keep the token and run what arrives on their own
#: stack, reporting idle so that the driver sends it: every blocked
#: worker did that before requests were parked.
RESTACK = (
    (
        "            self._release()\n"
        "            if self._executor is threading.current_thread():\n"
        "                self._start_executor()\n",
        "",
    ),
    ("            while not waiter.granted:", "            while waiter.reply is None:"),
    (
        "                waiter.wait()\n",
        """                if self._frames or self.local_queue:
                    items = self._frames.popleft() if self._frames else (
                        self.local_queue.pop_head()[1],
                    )
                    self._lock.release()
                    try:
                        for item in items:
                            self._run_queued(item)
                    finally:
                        self._lock.acquire()
                else:
                    if self._session:
                        self._session = False
                        self._flush_done(idle=True)
                    waiter.wait(0.005)
""",
    ),
    (
        "            reply, (self._cur_task",
        "            self._resumed.remove(waiter)\n"
        "            reply, (self._cur_task",
    ),
)


def restacking_worker_main(*args):
    """``worker_main`` in a process whose workers stack (:data:`RESTACK`)."""
    mutate(_Forever(), "rpc", *RESTACK)
    worker_main(*args)


def test_a_worker_that_stacks_work_on_a_parked_task_hangs(monkeypatch):
    """The mutant runs the task that waits for the parked parent on the
    parent's own stack: neither can ever finish."""
    monkeypatch.setattr(runtime_module, "worker_main", restacking_worker_main)
    runtime = repro.init(backend="proc", num_workers=1, seed=2)
    try:
        parent = parks_on_combine.remote(0)
        with pytest.raises(GetTimeoutError):
            repro.get(waits_for.remote([parent]), timeout=5.0)
        stats = runtime.stats()
        # Hung, not dead: both parked, on one stack.
        assert stats["workers_crashed"] == 0
        assert stats["sched"]["tasks_parked"] == 2
    finally:
        repro.shutdown()
