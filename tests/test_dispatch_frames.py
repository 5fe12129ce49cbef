"""Dispatch frames on the live wire backends (proc, dist).

A TASK frame ships a window of tasks to a worker ahead of need and the
worker reports completions coalesced in DONE frames.  These tests pin
down what that must not change: exactly-once execution under a crash,
never-executes cancellation, no head-of-line blocking behind slow or
stuck tasks, and a blocked worker reaching tasks queued behind it at
once.  A frame is sized by an *estimate*, so its tail must stay
recallable while its head runs: the worker's reader thread answers
steal requests and cancel notices whatever its tasks are doing, and the
second half of this file pins that down — the frame mates of a
mispredicted head are back within milliseconds, every task still runs
exactly once, and a prompt (possibly empty) answer never turns into a
request loop.

Windows are made deterministic the same way throughout: calls are
submitted with the runtime lock held (no service thread can claim a
frame until all are queued) and the function's execution-time estimate
is pinned low (so they fit one frame budget whatever the host's speed).
"""

import os
import pickle
import random
import statistics
import sys
import threading
import time

import pytest

import repro
from repro.core.object_ref import ObjectRef
from repro.errors import NodeLostError, TaskCancelledError, TaskError
from repro.proc import messages as msg
from played_pipe import PlayedPipe
from repro.proc import worker as worker_module
from repro.proc.worker import ProcWorker
from repro.sched_plane import LocalTaskQueue
from repro.utils.ids import FunctionID

pytestmark = pytest.mark.timeout(180)

#: ``repro.init`` arguments per backend, by worker count.
POOLS = {
    "proc": {
        1: {"backend": "proc", "num_workers": 1},
        2: {"backend": "proc", "num_workers": 2},
    },
    "dist": {
        1: {"backend": "dist", "num_nodes": 1, "num_cpus": 1},
        2: {"backend": "dist", "num_nodes": 2, "num_cpus": 1},
    },
}

BACKENDS = tuple(POOLS)


@pytest.fixture
def pool(request):
    backend, workers = request.param
    runtime = repro.init(seed=11, **POOLS[backend][workers])
    yield runtime
    repro.shutdown()


def pools(workers):
    return pytest.mark.parametrize(
        "pool", [(backend, workers) for backend in BACKENDS],
        indirect=True, ids=BACKENDS,
    )


def _runs(directory, index):
    """How many times task ``index`` started executing."""
    path = os.path.join(directory, str(index))
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return len(handle.readlines())


def _await(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} never happened")
        time.sleep(0.005)


@repro.remote
def mark(directory, index, hold_index=None, nap=0.0):
    """Append one line to this task's marker file, then return.  The
    *first* run of task ``hold_index`` instead waits for the ``release``
    file (a replay after a crash finds its own marker and returns)."""
    path = os.path.join(directory, str(index))
    first_run = not os.path.exists(path)
    with open(path, "a") as handle:
        handle.write("run\n")
    if index == hold_index and first_run:
        deadline = time.monotonic() + 60.0
        release = os.path.join(directory, "release")
        while not os.path.exists(release) and time.monotonic() < deadline:
            time.sleep(0.005)
    time.sleep(nap)
    return index


@repro.remote
def tiny(x):
    return x + 1


@repro.remote
def slow(x):
    time.sleep(0.3)
    return -x


@repro.remote
def get_shipped_ref(path):
    """Blocks in ``get`` on a ref the driver hands over through a file;
    returns the value plus one, and how long that ``get`` took."""
    deadline = time.monotonic() + 60.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.005)
    with open(path, "rb") as handle:
        ref = pickle.load(handle)
    started = time.monotonic()
    value = repro.get(ref, timeout=60.0)
    return value + 1, time.monotonic() - started


@repro.remote
def wait_for_file(path):
    deadline = time.monotonic() + 60.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.005)
    return os.path.exists(path)


def submit_window(runtime, calls):
    """Submit ``(remote_function, args)`` calls so they queue up together
    and are sized as one frame's worth of work (see module docstring)."""
    with runtime._cond:
        for function, _args in calls:
            runtime._dispatch._exec_estimate[function._function_id(runtime)] = 1e-5
        return [function.remote(*args) for function, args in calls]


def sched(runtime):
    return runtime.stats()["sched"]


def warm_up(runtime):
    """Return once every worker process has run a task: a spawned child
    spends its first few hundred milliseconds importing, which a test
    that times a window must not count."""
    def all_ran():
        repro.get([tiny.remote(i) for i in range(4)], timeout=60.0)
        return all(worker.tasks_done for worker in runtime._workers)

    _await(all_ran, "every worker running a task")


@pools(1)
def test_window_ships_in_one_frame_and_reports_coalesced(pool):
    assert repro.get(tiny.remote(0), timeout=60.0) == 1  # code is shipped
    before = sched(pool)
    refs = submit_window(pool, [(tiny, (i,)) for i in range(30)])
    assert repro.get(refs, timeout=60.0) == [i + 1 for i in range(30)]
    after = sched(pool)
    assert after["frames_sent"] - before["frames_sent"] == 1
    assert after["tasks_shipped"] - before["tasks_shipped"] == 30
    # 30 no-ops cannot take 30 budgets: completions came back batched.
    assert after["done_frames"] - before["done_frames"] < 30
    # The function's code crossed the wire with the first task only.
    worker = pool._workers[0]
    assert tiny._function_id(pool).hex in worker.functions_sent


@pools(1)
def test_kill_worker_mid_frame_rehomes_shipped_tasks(pool, tmp_path):
    """The worker dies while running the head of a frame: the head
    replays, the shipped-but-unstarted tail re-homes, nothing runs more
    than ``1 + replays`` times and nothing is lost."""
    directory = str(tmp_path)
    refs = submit_window(pool, [(mark, (directory, i, 0)) for i in range(6)])
    _await(lambda: _runs(directory, 0) == 1, "task 0 starting")
    victim = pool._workers[0]
    assert list(victim.inflight) and len(victim.mirror) == 5
    pool.kill_worker(0)
    assert repro.get(refs, timeout=60.0) == list(range(6))
    stats = pool.stats()
    assert stats["workers_crashed"] == 1
    # One mid-run plus the ones shipped ahead: each came back through
    # the lineage-replay gate (a shipped task may have run unreported).
    assert stats["lineage_replays"] == 6
    assert _runs(directory, 0) == 2
    # The tail never started on the dead worker: exactly one run each.
    assert [_runs(directory, i) for i in range(1, 6)] == [1] * 5


@pools(1)
def test_cancel_of_shipped_ahead_task_never_executes(pool, tmp_path):
    directory = str(tmp_path)
    refs = submit_window(pool, [(mark, (directory, i, 0)) for i in range(3)])
    _await(lambda: _runs(directory, 0) == 1, "task 0 starting")
    assert _runs(directory, 1) == 0 and _runs(directory, 2) == 0  # queued
    assert repro.cancel(refs[2]) is True
    open(os.path.join(directory, "release"), "w").close()
    assert repro.get(refs[:2], timeout=60.0) == [0, 1]
    with pytest.raises(TaskCancelledError):
        repro.get(refs[2], timeout=60.0)
    # Anything still queued on the worker runs before this one does.
    assert repro.get(mark.remote(directory, 9), timeout=60.0) == 9
    assert _runs(directory, 2) == 0


@pools(1)
def test_tiny_tasks_do_not_wait_behind_a_slow_function(pool):
    """A function with no estimate (first round) or a slow one (second
    round) ships alone, so tasks queued before it report first."""
    assert repro.get(tiny.remote(0), timeout=60.0) == 1  # the worker is up
    for _ in range(2):
        refs = submit_window(pool, [(tiny, (i,)) for i in range(5)])
        slow_ref = slow.remote(7)
        started = time.monotonic()
        assert repro.get(refs, timeout=60.0) == [1, 2, 3, 4, 5]
        assert time.monotonic() - started < 0.2
        assert repro.get(slow_ref, timeout=60.0) == -7
    assert pool._dispatch._exec_estimate[slow._function_id(pool)] >= 0.25


@pools(1)
def test_result_is_not_held_behind_a_frame_mate_that_waits_on_it(pool, tmp_path):
    """The second task of the window only ends once the driver has seen
    the first one's result: a buffered completion must not wait for a
    task boundary that depends on its own delivery."""
    gate = str(tmp_path / "gate")
    first, second = submit_window(
        pool, [(tiny, (1,)), (wait_for_file, (gate,))]
    )
    assert repro.get(first, timeout=10.0) == 2
    open(gate, "w").close()
    assert repro.get(second, timeout=60.0) is True


@pools(1)
def test_task_blocked_on_one_shipped_behind_it_gets_it_without_delay(pool, tmp_path):
    """The head of a frame blocks in ``get`` on the task shipped behind
    it: the worker finds the producer in its own queue and runs it
    inline — no steal, and no timer's worth of waiting (this round trip
    through the driver and back used to cost a 20 ms poll tick)."""
    waits = []
    for round_ in range(5):
        path = str(tmp_path / f"ref{round_}")
        before = sched(pool)["tasks_stolen"]
        blocked, behind = submit_window(
            pool, [(get_shipped_ref, (path,)), (tiny, (41,))]
        )
        with open(path + ".tmp", "wb") as handle:
            pickle.dump(behind, handle)
        os.rename(path + ".tmp", path)
        value, waited = repro.get(blocked, timeout=60.0)
        assert value == 43
        assert repro.get(behind, timeout=60.0) == 42
        assert sched(pool)["tasks_stolen"] == before
        waits.append(waited)
    # (The best of five: a timer would be in all of them, a busy host
    # is not.)
    assert min(waits) < 0.010


@pools(2)
def test_idle_worker_steals_from_a_frame_stuck_behind_a_long_task(pool, tmp_path):
    """The head of a window mispredicts (it naps 0.3 s): its frame mates
    are on that worker's queue, and the other worker — idle — gets them
    *while the head naps*, not at the dispatch boundary that follows it."""
    warm_up(pool)
    waits = []
    for round_ in range(3):
        directory = str(tmp_path / f"round{round_}")
        os.mkdir(directory)
        calls = [(mark, (directory, 0, None, 0.3))]
        calls += [(mark, (directory, i)) for i in range(1, 10)]
        refs = submit_window(pool, calls)
        started = time.monotonic()
        assert repro.get(refs[1:], timeout=60.0) == list(range(1, 10))
        waits.append(time.monotonic() - started)
        assert repro.get(refs[0], timeout=60.0) == 0
        assert [_runs(directory, i) for i in range(10)] == [1] * 10
    # (The best of three: the nap would be in all of them, a busy host
    # is not.)
    assert min(waits) < 0.1, waits
    assert sched(pool)["tasks_stolen"] >= 1


# -- frames that give work back ---------------------------------------------------


def steal_requests(runtime):
    """Count the STEAL_REQUESTs sent from now on, per worker index
    (counted on the victims' transports)."""
    counts = {worker.index: 0 for worker in runtime._workers}
    for worker in runtime._workers:
        def counting(message, _send=worker.conn.send, _index=worker.index):
            if message[0] == msg.STEAL_REQUEST:
                counts[_index] += 1
            return _send(message)

        worker.conn.send = counting
    return counts


def occupy_one_worker(pool, gate):
    """Park ``wait_for_file(gate)`` on one worker of ``pool`` and wait
    until it runs there: whatever is submitted next goes to the others,
    and nobody is idle to steal it back."""
    ref = wait_for_file.remote(gate)
    _await(
        lambda: any(worker.inflight for worker in pool._workers),
        "the occupying task starting",
    )
    return ref


@pools(2)
def test_frame_mates_of_a_mispredicted_head_return_within_a_few_ticks(pool, tmp_path):
    """A window of ``mark(nap=0.5)`` plus 30 no-ops, all estimated at
    10 us, lands on the pool as frames.  The idle peer asks for the
    tail, the victim's reader answers while the head naps, and the 30
    mates are back in tens of milliseconds — not after the nap.  Each
    steal round is a round trip (the thief takes half of what is left
    per request), so the bound is far from 500 ms — as the median of
    five windows, in one of three attempts: the nap would be in every
    window of every attempt, a busy host is not.  (On the 2-core
    development host, where each ``mark`` costs ~0.2 ms of file I/O
    alone, it reads 8-10 ms on ``proc`` and 12-15 ms on ``dist``.)"""
    warm_up(pool)
    medians = []
    for attempt in range(3):
        times = []
        for round_ in range(5):
            directory = str(tmp_path / f"round{attempt}-{round_}")
            os.mkdir(directory)
            calls = [(mark, (directory, 0, None, 0.5))]
            calls += [(mark, (directory, i)) for i in range(1, 31)]
            refs = submit_window(pool, calls)
            started = time.monotonic()
            assert repro.get(refs[1:], timeout=60.0) == list(range(1, 31))
            times.append(time.monotonic() - started)
            assert repro.get(refs[0], timeout=60.0) == 0
            assert [_runs(directory, i) for i in range(31)] == [1] * 31
        medians.append(statistics.median(times))
        if medians[-1] < 0.025:
            break
    assert medians[-1] < 0.025, medians
    stats = sched(pool)
    assert stats["tasks_recalled"] >= 1
    assert stats["tasks_recalled"] <= stats["tasks_stolen"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_trace_says_why_a_recalled_task_moved(backend, tmp_path):
    """ "Why did this task move": the grant made during a task is marked
    on the wire, so the driver's ``task_stolen`` spans say ``midtask``,
    the counter and the spans agree, and the report prints the count."""
    directory = str(tmp_path)
    pool = repro.init(seed=11, tracing=True, **POOLS[backend][2])
    try:
        warm_up(pool)
        calls = [(mark, (directory, 0, None, 0.2))]
        calls += [(mark, (directory, i)) for i in range(1, 10)]
        assert repro.get(submit_window(pool, calls), timeout=60.0) == list(range(10))
        recalled = sched(pool)["tasks_recalled"]
        assert recalled >= 1
        stolen = pool.event_log.filter(kind="task_stolen")
        assert sum(1 for record in stolen if record.get("midtask")) == recalled
        assert f"{recalled} task(s) were recalled" in repro.trace_report()
    finally:
        repro.shutdown()


@pools(1)
def test_cancel_of_a_tail_task_while_the_head_runs(pool, tmp_path):
    """The CANCEL_NOTICE reaches the worker while the head runs: the
    reader takes the task off the queue there and then, concurrently
    with the head, and it never runs."""
    directory = str(tmp_path)
    calls = [(mark, (directory, 0, None, 0.3))]
    calls += [(mark, (directory, i)) for i in range(1, 4)]
    refs = submit_window(pool, calls)
    _await(lambda: _runs(directory, 0) == 1, "the head starting")
    assert repro.cancel(refs[2]) is True
    with pytest.raises(TaskCancelledError):
        repro.get(refs[2], timeout=60.0)
    assert repro.get([refs[0], refs[1], refs[3]], timeout=60.0) == [0, 1, 3]
    assert [_runs(directory, i) for i in range(4)] == [1, 1, 0, 1]


@pools(2)
def test_head_blocked_in_get_answers_steals_from_its_reply_loop(pool, tmp_path):
    """The head blocks in ``get`` on a ref only the *other* worker can
    produce (it is busy producing it): its get is parked, and the mates
    behind it run on its worker meanwhile, each exactly once — on
    another thread, not on the blocked task's stack."""
    directory = str(tmp_path)
    gate, path = str(tmp_path / "gate"), str(tmp_path / "ref")
    external = occupy_one_worker(pool, gate)
    with open(path, "wb") as handle:
        pickle.dump(external, handle)
    calls = [(get_shipped_ref, (path,))]
    calls += [(mark, (directory, i)) for i in range(1, 10)]
    refs = submit_window(pool, calls)
    assert repro.get(refs[1:], timeout=60.0) == list(range(1, 10))
    assert not os.path.exists(gate)  # ... while the head is still blocked
    time.sleep(0.05)  # ten more ticks of an open session inside the rpc
    open(gate, "w").close()
    value, _waited = repro.get(refs[0], timeout=60.0)
    assert value == 2  # True + 1
    assert [_runs(directory, i) for i in range(1, 10)] == [1] * 9
    assert sched(pool)["tasks_parked"] == 1


@pools(2)
def test_idle_thief_does_not_keep_asking_for_a_tail_that_is_not_there(pool, tmp_path):
    """A queued task that runs long is still in its worker's mirror (it
    is reported when it ends), so the mirror promises an idle thief a
    tail the worker does not have.  The empty grant now comes back
    within a tick — and must be the last word until the mirror grows."""
    directory = str(tmp_path)
    counts = steal_requests(pool)
    refs = submit_window(
        pool, [(mark, (directory, 0)), (mark, (directory, 1, None, 0.5))]
    )
    _await(lambda: _runs(directory, 1) == 1, "the long task starting")
    time.sleep(0.4)
    assert sum(counts.values()) <= 2, counts
    assert repro.get(refs, timeout=60.0) == [0, 1]


@pools(2)
def test_blocked_worker_does_not_keep_asking_itself_either(pool, tmp_path):
    """The same phantom for a parked task: a *queued* task blocks in
    ``get`` on an external ref and is parked, its worker reports idle,
    and nobody — itself included — asks it for work while it waits."""
    gate, path = str(tmp_path / "gate"), str(tmp_path / "ref")
    external = occupy_one_worker(pool, gate)
    with open(path, "wb") as handle:
        pickle.dump(external, handle)
    counts = steal_requests(pool)
    _head, blocked = submit_window(
        pool, [(tiny, (1,)), (get_shipped_ref, (path,))]
    )
    time.sleep(0.4)
    assert sum(counts.values()) <= 2, counts
    open(gate, "w").close()
    assert repro.get(blocked, timeout=60.0)[0] == 2


@repro.remote
def spawn_and_hold(directory, count, release):
    """Submit ``count`` children on the fast path (they queue up on this
    worker), then hold it until the ``release`` file appears — with an
    rpc per look: the first sends the buffered notices ahead of itself
    (the reader answers steal requests meanwhile)."""
    refs = [mark.remote(directory, i) for i in range(count)]
    deadline = time.monotonic() + 60.0
    while not os.path.exists(release) and time.monotonic() < deadline:
        repro.put(0)
        time.sleep(0.005)
    return repro.get(refs, timeout=60.0)


@pools(2)
def test_cancelled_tail_of_a_rehomed_window_leaves_no_wire_entry(pool, tmp_path):
    """A worker-born task that is stolen, re-homed through the global
    queue and cancelled while it waits there is dropped when a frame is
    claimed — as the frame's head or from its tail — and nothing of it
    (its spec, which carries its wire entry) stays on the driver's
    queues either way."""
    directory = str(tmp_path)
    gate, release = str(tmp_path / "gate"), str(tmp_path / "release")
    occupy_one_worker(pool, gate)
    parent = spawn_and_hold.remote(directory, 6, release)
    _await(
        lambda: sum(len(worker.mirror) for worker in pool._workers) == 6,
        "the children being announced",
    )
    # Both workers are busy, so nobody asks: play the idle thief.  The
    # holding parent's reader grants half of its queue at once, and the
    # tasks wait in the global queue for a worker to come free.
    with pool._cond:
        thief = next(worker for worker in pool._workers if not worker.mirror)
        pool._request_steal(thief)
    _await(lambda: len(pool._dispatch._queue) == 3, "the grant being re-homed")
    with pool._cond:
        stolen = list(pool._dispatch._queue)
        # Sized as one frame: head, one mate, and the cancelled one.
        function_hex = stolen[0].wire[1]
        pool._dispatch._exec_estimate[FunctionID(function_hex)] = 1e-5
    doomed = stolen[-1]
    assert repro.cancel(ObjectRef(doomed.return_object_id)) is True
    open(gate, "w").close()  # the thief-to-be comes free and claims the frame
    _await(
        lambda: sum(_runs(directory, i) for i in range(6)) >= 2,
        "the re-homed tasks running",
    )
    open(release, "w").close()
    with pytest.raises(TaskError):
        repro.get(parent, timeout=60.0)  # it gets its cancelled child
    _await(lambda: not any(w.busy for w in pool._workers), "the pool idling")
    assert sorted(_runs(directory, i) for i in range(6)) == [0, 1, 1, 1, 1, 1]
    assert not pool._dispatch._queue
    assert not any(len(w.mirror) or w.inflight or w.placed for w in pool._workers)


@pytest.fixture
def frame_on_a_node(tmp_path):
    """A 2 x 1 ``dist`` pool with a budget-sized frame of holding marks
    sitting on one node (the other node is occupied, so no idle peer
    takes the tail back): ``window(function)`` submits 60 calls and
    returns ``(pool, refs, victim, shipped)`` — ``shipped`` the raw ids
    of the tasks that went to the victim's node."""
    directory, gate = str(tmp_path), str(tmp_path / "gate")
    pool = repro.init(seed=11, **POOLS["dist"][2])

    def window(function):
        occupy_one_worker(pool, gate)
        refs = submit_window(pool, [(function, (directory, i, 0)) for i in range(60)])
        _await(lambda: _runs(directory, 0) == 1, "the head starting")
        with pool._cond:
            victim = next(worker for worker in pool._workers if worker.mirror)
            shipped = set(victim.inflight) | set(victim.mirror.task_ids())
        assert 20 <= len(shipped) < 60  # the rest never left the driver
        return pool, refs, victim, shipped

    yield window
    open(gate, "w").close()
    repro.shutdown()


def test_kill_node_under_a_budget_sized_frame(frame_on_a_node, tmp_path):
    """What a lost node costs now that frames on ``dist`` are sized by
    the budget alone: every task shipped ahead of need is charged one
    lineage replay of its *own* budget and runs again; the tasks the
    frame left on the driver are charged nothing."""
    directory = str(tmp_path)
    pool, refs, victim, shipped = frame_on_a_node(mark)
    pool.kill_node(victim.index)  # one worker per node
    open(tmp_path / "gate", "w").close()
    assert repro.get(refs, timeout=60.0) == list(range(60))
    stats = pool.stats()
    assert stats["cluster"]["nodes_lost"] == 1
    assert stats["lineage_replays"] == len(shipped)
    # The head ran twice (it was mid-run); nothing else had started.
    assert _runs(directory, 0) == 2
    assert [_runs(directory, i) for i in range(1, 60)] == [1] * 59


def test_kill_node_without_replay_budget_fails_exactly_the_shipped_tasks(
    frame_on_a_node, tmp_path
):
    pool, refs, victim, shipped = frame_on_a_node(
        mark.options(max_reconstructions=0)
    )
    pool.kill_node(victim.index)
    open(tmp_path / "gate", "w").close()
    for index, ref in enumerate(refs):
        if ref.producer_task.hex in shipped:
            with pytest.raises(NodeLostError):
                repro.get(ref, timeout=60.0)
        else:
            assert repro.get(ref, timeout=60.0) == index
    assert pool.stats()["lineage_replays"] == 0


# -- the worker's threads, with the pipe scripted -------------------------------------


class _ScriptedPipe(PlayedPipe):
    """A worker's pipe, played by the test from another thread."""

    def recv(self):
        message = super().recv()
        # A second reader, should there be one, gets its chance to take
        # the next message from under this one (which then fails loudly).
        time.sleep(0.0002)
        return message


class _GuardedQueue(LocalTaskQueue):
    """A local queue that notes when two threads are inside it at once.
    Every mutating call lingers (it yields the GIL) with its mark up, so
    a caller on the other thread that forgot the lock walks into it."""

    def __init__(self):
        super().__init__()
        self.inside = None
        self.violations = []


def _guarded(name):
    method = getattr(LocalTaskQueue, name)

    def guarded(self, *args, **kwargs):
        me = (threading.current_thread().name, name)
        if self.inside is not None:
            self.violations.append((me, self.inside))
        self.inside = me
        try:
            time.sleep(0)
            return method(self, *args, **kwargs)
        finally:
            self.inside = None

    return guarded


for _name in ("push", "pop_head", "steal_tail", "remove"):
    setattr(_GuardedQueue, _name, _guarded(_name))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_task_is_run_or_granted_or_cancelled_exactly_once(seed, monkeypatch):
    """The worker's executor runs a frame — popping, pushing children,
    running producers inline, issuing rpcs — while its reader serves a
    storm of STEAL_REQUESTs and CANCEL_NOTICEs that a second test thread
    writes to the pipe at random moments.  Whatever the interleaving:
    every task is run, or granted away, or was cancelled — exactly one
    of the three, exactly once — every run is reported exactly once, no
    rpc reply is lost, and neither thread dies."""
    monkeypatch.setattr(worker_module, "_DONE_WATCHDOG_S", 0.0005)
    rng = random.Random(seed)
    conn = _ScriptedPipe()
    worker = ProcWorker(conn, index=0, seed=seed, cache_capacity=1 << 20)
    worker.local_queue = _GuardedQueue()
    ran = []  # task indices, in run order
    hex_of = {}  # task index -> raw task id
    naps = [rng.choice((0.0, 0.0, 0.002, 0.004)) for _ in range(400)]

    def submit_child():
        index = len(hex_of)
        hex_of[index] = None  # reserve: only the executor submits
        ref = worker.try_submit_local(template, (index,), {})
        hex_of[index] = ref.producer_task.hex
        return ref

    def body(index):
        ran.append(index)
        time.sleep(naps[index % len(naps)])
        if index < 60:
            children = [submit_child() for _ in range(index % 4)]
            if index % 3 == 0:
                worker.run_producers(children, None, len(children))
            if index % 5 == 0:
                assert worker.rpc(msg.GET_ACTOR, index) == index
        return index

    template = repro.remote(body)._bind(worker.proxy)
    function_hex = template.function_id.hex
    worker.functions.add(function_hex, "body", body)
    worker.functions_sent.add(function_hex)  # as if a frame's table brought it
    entries = []
    for index in range(60):
        spec = template.stamp(worker.ids, (index,), {}, worker.node_id)
        entries.append(msg.encode_entry(spec, None))
        hex_of[index] = entries[-1][0]
    cancel_sent = set()
    storm_over = threading.Event()

    def driver():
        """Answers rpcs (late, with control interleaved), sends the
        storm, and shuts the worker down once it reports idle."""
        storm = random.Random(seed + 1000)
        answered = 0
        conn.put((msg.TASK, entries, {}))
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            sent = list(conn.sent)
            if any(m[0] == msg.DONE and m[2] is not None for m in sent):
                break
            requests = [m for m in sent if m[0] == msg.GET_ACTOR]
            kind = storm.random()
            if kind < 0.12:
                conn.put((msg.STEAL_REQUEST, storm.randint(1, 2)))
            elif kind < 0.25:
                known = [h for h in list(hex_of.values()) if h is not None]
                task_hex = storm.choice(known)
                cancel_sent.add(task_hex)
                conn.put((msg.CANCEL_NOTICE, task_hex))
            if len(requests) > answered:
                conn.put((msg.OK, requests[answered][1]))
                answered += 1
            time.sleep(storm.choice((0.0, 0.0002, 0.001)))
        conn.put((msg.SHUTDOWN,))
        storm_over.set()

    thread = threading.Thread(target=driver, daemon=True)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        worker._run_sessions()  # this thread is the worker's reader
    finally:
        sys.setswitchinterval(switch_interval)
        conn.hang_up()
    assert storm_over.wait(timeout=30.0)
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    # The session ended with an idle DONE: the executor lived to say so.
    assert any(m[0] == msg.DONE and m[2] is not None for m in conn.sent)

    run_hexes = [hex_of[index] for index in ran]
    granted = [h for m in conn.sent if m[0] == msg.STEAL_GRANT for h in m[1]]
    done = [c[0] for m in conn.sent if m[0] == msg.DONE for c in m[1]]
    announced = [e[0] for m in conn.sent if m[0] == msg.SUBMIT_LOCAL for e in m[1]]
    everything = set(hex_of.values())
    assert len(run_hexes) == len(set(run_hexes))  # nothing ran twice
    assert len(granted) == len(set(granted))  # nothing was granted twice
    assert not set(run_hexes) & set(granted)  # nothing was both
    # What neither ran nor left was cancelled; nothing is simply lost.
    assert everything - set(run_hexes) - set(granted) <= cancel_sent
    assert sorted(done) == sorted(run_hexes)  # each run reported once
    assert len(worker.local_queue) == 0
    assert worker.local_queue.violations == []
    # The mirror's premise: a grant names only tasks the driver was told
    # of, by a notice that went out first.
    known = set(e[0] for e in entries)
    for message in conn.sent:
        if message[0] == msg.SUBMIT_LOCAL:
            known.update(e[0] for e in message[1])
        elif message[0] == msg.STEAL_GRANT:
            assert set(message[1]) <= known
    assert sorted(announced) == sorted(everything - set(e[0] for e in entries))
    # The storm did reach both readers: some grants were made mid-task.
    assert any(m[0] == msg.STEAL_GRANT and len(m) > 2 for m in conn.sent)
