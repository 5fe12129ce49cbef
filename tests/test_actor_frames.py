"""Actor calls ride dispatch frames (proc, dist).

On the wire backends an actor's order comes from its *lane*: a call
enters it at submission, waits for its own arguments only, and leaves —
with the calls queued behind it, while their estimated work fits the
frame budget — in one TASK frame for the one worker that runs the actor,
which executes the window back to back.  These tests pin down what that
must keep: submission order under bursts, interleaving, slow arguments,
raising and blocking methods; one open window per actor (a blocked call
is never overtaken by its successor, while *other* actors on the blocked
worker keep running); ``ActorLostError`` — and at-most-once execution —
for every call a dead worker held; and that a window is invisible to
work stealing.

A deterministic window is made the way ``test_dispatch_frames`` makes
one: the calls are submitted with the runtime lock held (no service
thread claims a frame until all stand in the lane) and the methods'
execution-time estimates are pinned low (they fit one budget whatever
the host's speed).
"""

import os
import threading
import time

import pytest

import repro
from repro.errors import ActorLostError, TaskError
from repro.proc import messages as msg

pytestmark = pytest.mark.timeout(180)

POOLS = {
    "proc": {"backend": "proc", "num_workers": 2},
    "dist": {"backend": "dist", "num_nodes": 2, "num_cpus": 1},
}

wire = pytest.mark.parametrize("pool", tuple(POOLS), indirect=True)


@pytest.fixture
def pool(request):
    runtime = repro.init(seed=21, **POOLS[request.param])
    yield runtime
    repro.shutdown()


def _await(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} never happened")
        time.sleep(0.005)


def _runs(directory, index):
    """How many times call ``index`` started executing."""
    path = os.path.join(directory, str(index))
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return len(handle.readlines())


@repro.remote
class Log:
    """Appends what it is given; the log is the actor's observed order."""

    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)
        return len(self.items)

    def dump(self):
        return list(self.items)

    def pair(self, values):
        self.items.extend(values)
        return list(values)

    def add_or_raise(self, item):
        if item < 0:
            raise ValueError(f"refused {item}")
        return self.add(item)

    def block_add(self, boxed, item):
        """Blocks in ``get`` on a ref the caller boxed in a list (so it
        is no dependency of the call), then appends."""
        repro.get(boxed[0], timeout=60.0)
        return self.add(item)

    def ask(self, other, item):
        """Calls a second actor and waits for it, from inside a method."""
        return repro.get(other.add.remote(item), timeout=60.0)

    def block_ask_add(self, boxed, other, item):
        asked = self.ask(other, item)
        repro.get(boxed[0], timeout=60.0)
        self.add(item)
        return asked

    def mark(self, directory, index, hold_index=None):
        """One marker line per execution; call ``hold_index`` then waits
        for the ``release`` file."""
        with open(os.path.join(directory, str(index)), "a") as handle:
            handle.write("run\n")
        if index == hold_index:
            deadline = time.monotonic() + 60.0
            release = os.path.join(directory, "release")
            while not os.path.exists(release) and time.monotonic() < deadline:
                time.sleep(0.005)
        return index

    def nap_add(self, nap, item):
        time.sleep(nap)
        return self.add(item)


@repro.remote
def slow(delay, value):
    time.sleep(delay)
    return value


@repro.remote
def call_from_task(handle, items):
    """Actor calls made by a task on a worker (routed notice entries)."""
    return repro.get([handle.add.remote(item) for item in items], timeout=60.0)


def warm(handle, calls=12):
    """Run the constructor and give ``add`` a measured execution time
    (its first call ships alone: nothing estimates it yet)."""
    for _ in range(3):
        repro.get([handle.add.remote("warm") for _ in range(calls // 3)], timeout=60.0)
    return calls


def pin_estimates(runtime, handle):
    for function_id in runtime.actors.get(handle.actor_id).method_ids.values():
        runtime._dispatch._exec_estimate[function_id] = 1e-5


def submit_window(runtime, handle, calls):
    """Submit ``(method, args)`` calls of one actor so they stand in its
    lane together, sized as one frame's worth (module docstring)."""
    with runtime._cond:
        refs = [getattr(handle, method).remote(*args) for method, args in calls]
        pin_estimates(runtime, handle)
    return refs


def sched(runtime):
    return runtime.stats()["sched"]


def home_of(runtime, handle):
    return runtime._workers[runtime.worker_for_actor(handle.actor_id)]


def steal_requests(runtime):
    """Count the STEAL_REQUESTs sent from now on (on every transport)."""
    counts = {"sent": 0}
    for worker in runtime._workers:
        def counting(message, _send=worker.conn.send):
            if message[0] == msg.STEAL_REQUEST:
                counts["sent"] += 1
            return _send(message)

        worker.conn.send = counting
    return counts


# -- order and windows ------------------------------------------------------------


@wire
def test_burst_to_one_warm_actor_keeps_order_and_rides_frames(pool):
    log = Log.remote()
    warmed = warm(log)
    before = sched(pool)
    refs = [log.add.remote(i) for i in range(400)]
    assert repro.get(refs, timeout=60.0) == [warmed + i for i in range(1, 401)]
    after = sched(pool)
    assert repro.get(log.dump.remote(), timeout=60.0)[warmed:] == list(range(400))
    frames = after["frames_sent"] - before["frames_sent"]
    shipped = after["tasks_shipped"] - before["tasks_shipped"]
    assert shipped == 400
    assert shipped / frames >= 4, (shipped, frames)
    # Completions came back coalesced, too.
    assert after["done_frames"] - before["done_frames"] < 400


@wire
def test_window_ships_in_one_frame_and_is_inflight_never_mirrored(pool, tmp_path):
    log = Log.remote()
    warm(log)
    worker = home_of(pool, log)
    before = sched(pool)
    directory = str(tmp_path)
    refs = submit_window(pool, log, [("mark", (directory, i, 0)) for i in range(12)])
    _await(lambda: _runs(directory, 0) == 1, "the window's head starting")
    assert len(worker.inflight) == 12 and len(worker.mirror) == 0
    open(os.path.join(directory, "release"), "w").close()
    assert repro.get(refs, timeout=60.0) == list(range(12))
    after = sched(pool)
    assert after["frames_sent"] - before["frames_sent"] == 1
    assert after["tasks_shipped"] - before["tasks_shipped"] == 12
    assert not worker.inflight


@wire
def test_three_actors_on_two_workers_keep_their_own_sequences(pool):
    logs = [Log.remote() for _ in range(3)]
    for log in logs:
        warm(log)
    refs = []
    for i in range(150):
        for k, log in enumerate(logs):
            refs.append(log.add.remote((k, i)))
    repro.get(refs, timeout=60.0)
    for k, log in enumerate(logs):
        items = repro.get(log.dump.remote(), timeout=60.0)
        assert [item for item in items if item != "warm"] == [
            (k, i) for i in range(150)
        ]
    # Two of the three share a worker.
    homes = [pool.worker_for_actor(log.actor_id) for log in logs]
    assert len(set(homes)) == 2


@wire
def test_calls_before_the_constructor_is_reported_keep_order_and_window(pool):
    before = sched(pool)
    log = Log.remote()
    refs = [log.add.remote(i) for i in range(100)]
    assert repro.get(refs, timeout=60.0) == list(range(1, 101))
    assert repro.get(log.dump.remote(), timeout=60.0) == list(range(100))
    after = sched(pool)
    # The constructor and the method's first call ship alone; once that
    # call is timed the rest window.
    assert after["frames_sent"] - before["frames_sent"] < 100


@wire
def test_failed_constructor_fails_every_queued_call(pool):
    @repro.remote
    class Broken:
        def __init__(self):
            raise RuntimeError("no")

        def add(self, item):
            return item

    broken = Broken.remote()
    refs = [broken.add.remote(i) for i in range(20)]
    for ref in refs:
        with pytest.raises(TaskError, match="no live instance"):
            repro.get(ref, timeout=60.0)


# -- one open window per actor ------------------------------------------------------


@wire
def test_blocked_method_is_not_overtaken_by_its_successor(pool):
    log = Log.remote()
    assert repro.get(log.add.remote(0), timeout=60.0) == 1
    warm_other = Log.remote()  # warms `block_add`/`add` estimates elsewhere
    repro.get(warm_other.add.remote(0), timeout=60.0)
    awaited = slow.remote(0.3, "late")
    blocked = log.block_add.remote([awaited], 1)
    after = log.add.remote(2)
    assert repro.get([blocked, after], timeout=60.0) == [2, 3]
    assert repro.get(log.dump.remote(), timeout=60.0) == [0, 1, 2]


@wire
def test_blocked_method_in_one_window_with_its_successor(pool):
    """The same program with both calls provably in one frame: the
    worker runs a window through in order on one thread, the blocked
    call keeping its successors behind it while it is parked."""
    log = Log.remote()
    repro.get(log.add.remote(0), timeout=60.0)
    awaited = slow.remote(0.3, "late")
    refs = submit_window(
        pool, log, [("block_add", ([awaited], 1)), ("add", (2,)), ("add", (3,))]
    )
    assert repro.get(refs, timeout=60.0) == [2, 3, 4]
    assert repro.get(log.dump.remote(), timeout=60.0) == [0, 1, 2, 3]


@wire
def test_blocked_method_still_reaches_a_second_actor_on_its_worker(pool):
    """Reentrant injection survives: while a call of one actor is
    blocked, calls of *another* actor homed on the same worker run."""
    first = Log.remote()
    home = home_of(pool, first).node_id
    second = Log.options(placement_hint=home).remote()
    repro.get([first.add.remote(0), second.add.remote("s0")], timeout=60.0)
    assert pool.worker_for_actor(second.actor_id) == pool.worker_for_actor(
        first.actor_id
    )
    awaited = slow.remote(0.3, "late")
    blocked = first.block_ask_add.remote([awaited], second, 1)
    after = first.add.remote(2)
    # The nested call to `second` returns its position in *that* log.
    assert repro.get(blocked, timeout=60.0) == 2
    assert repro.get(after, timeout=60.0) == 3
    assert repro.get(first.dump.remote(), timeout=60.0) == [0, 1, 2]
    assert repro.get(second.dump.remote(), timeout=60.0) == ["s0", 1]


@wire
def test_unready_argument_holds_successors_back(pool):
    log = Log.remote()
    warm(log, calls=3)
    late = slow.remote(0.4, "late")
    refs = [log.add.remote("a"), log.add.remote(late)]
    refs += [log.add.remote(i) for i in range(30)]
    ready, _ = repro.wait(refs[2:], num_returns=1, timeout=0.2)
    assert ready == []  # nothing overtook the call parked on `late`
    repro.get(refs, timeout=60.0)
    assert repro.get(log.dump.remote(), timeout=60.0)[3:] == [
        "a", "late", *range(30)
    ]


@wire
def test_raising_call_mid_window_fails_alone(pool):
    log = Log.remote()
    repro.get(log.add_or_raise.remote(0), timeout=60.0)
    refs = submit_window(
        pool, log, [("add_or_raise", (i if i != 5 else -5,)) for i in range(1, 11)]
    )
    for position, ref in enumerate(refs, start=1):
        if position == 5:
            with pytest.raises(TaskError, match="refused -5"):
                repro.get(ref, timeout=60.0)
        else:
            # Later calls of the window ran, and saw the state.
            assert repro.get(ref, timeout=60.0) == position + (position < 5)
    assert repro.get(log.dump.remote(), timeout=60.0) == [
        0, 1, 2, 3, 4, 6, 7, 8, 9, 10
    ]


@wire
def test_unpicklable_argument_fails_its_call_and_the_lane_moves_on(pool):
    log = Log.remote()
    warm(log, calls=3)
    refs = submit_window(
        pool, log, [("add", (1,)), ("add", (threading.Lock(),)), ("add", (3,))]
    )
    assert repro.get(refs[0], timeout=60.0) == 4
    with pytest.raises(TaskError):
        repro.get(refs[1], timeout=60.0)
    assert repro.get(refs[2], timeout=60.0) == 5
    assert repro.get(log.add.remote(4), timeout=60.0) == 6


# -- batch calls and worker-born calls ---------------------------------------------


@wire
def test_multi_return_and_worker_born_calls_ride_the_same_lane(pool):
    log = Log.remote()
    warm(log, calls=3)
    repro.get(log.pair.options(num_returns=2).remote(["w", "w"]), timeout=60.0)
    before = sched(pool)
    refs = []
    for i in range(60):
        refs += log.pair.options(num_returns=2).remote([(i, 0), (i, 1)])
        refs.append(log.add.remote(i))
    values = repro.get(refs, timeout=60.0)
    assert values[:3] == [(0, 0), (0, 1), 8]
    after = sched(pool)
    shipped = after["tasks_shipped"] - before["tasks_shipped"]
    assert shipped == 120
    assert after["frames_sent"] - before["frames_sent"] < shipped
    items = repro.get(log.dump.remote(), timeout=60.0)[5:]
    assert items == [x for i in range(60) for x in ((i, 0), (i, 1), i)]
    # Calls made by a task on a worker (routed entries of its notice)
    # join the lane in the order the task made them.
    assert repro.get(
        call_from_task.remote(log, list(range(100, 140))), timeout=60.0
    ) == [len(items) + 5 + n for n in range(1, 41)]
    assert repro.get(log.dump.remote(), timeout=60.0)[-40:] == list(range(100, 140))



class RefusesDriver:
    """An argument that will not unpickle in one process — the
    driver's, whose pid it carries — and unpickles as itself elsewhere."""

    def __init__(self, pid):
        self.pid = pid

    def __reduce__(self):
        return (_refuse_in, (self.pid,))


def _refuse_in(pid):
    if os.getpid() == pid:
        raise RuntimeError("unpickled in the driver")
    return RefusesDriver(pid)


@repro.remote
def call_with(handle, arg):
    """One actor call made by a task on a worker, on ``arg``."""
    return repro.get(handle.add.remote(arg), timeout=60.0)


@wire
def test_a_call_made_in_a_task_reaches_its_actor_unread_by_the_driver(pool):
    """The driver stands a worker's call in the lane as the worker built
    it: an argument only the driver cannot unpickle reaches the actor,
    whose value comes back."""
    log = Log.remote()
    assert repro.get(log.add.remote("first"), timeout=60.0) == 1
    assert repro.get(call_with.remote(log, RefusesDriver(os.getpid())), timeout=60.0) == 2
    assert repro.get(log.add.remote("last"), timeout=60.0) == 3


# -- crashes ------------------------------------------------------------------------


def _kill(runtime, how, worker_index):
    if how == "kill_node":
        runtime.kill_node(worker_index)  # 2 nodes x 1 worker
    else:
        runtime.kill_worker(worker_index)


@pytest.mark.parametrize(
    "pool,how",
    [("proc", "kill_worker"), ("dist", "kill_worker"), ("dist", "kill_node")],
    indirect=["pool"],
)
def test_losing_the_worker_under_a_window_loses_every_call_once(pool, how, tmp_path):
    log = Log.remote()
    warm(log)
    worker = home_of(pool, log)
    directory = str(tmp_path)
    window = submit_window(
        pool, log, [("mark", (directory, i, 3)) for i in range(14)]
    )
    _await(lambda: _runs(directory, 3) == 1, "call 3 holding")
    # Calls 0..2 completed; their results arrive (the reader's timer
    # flushes what call 3 holds up) and stay theirs.
    assert repro.get(window[:3], timeout=60.0) == [0, 1, 2]
    assert len(worker.inflight) >= 10
    queued = [log.mark.remote(directory, 100 + i) for i in range(5)]
    _kill(pool, how, worker.index)
    for ref in window[3:] + queued:
        with pytest.raises(ActorLostError):
            repro.get(ref, timeout=60.0)
    with pytest.raises(ActorLostError):
        repro.get(log.add.remote("after"), timeout=60.0)
    open(os.path.join(directory, "release"), "w").close()
    time.sleep(0.3)
    assert [_runs(directory, i) for i in range(14)] == [1] * 4 + [0] * 10
    assert [_runs(directory, 100 + i) for i in range(5)] == [0] * 5
    # The pool heals: a new actor works.
    if how != "kill_node":
        assert repro.get(Log.remote().add.remote(1), timeout=60.0) == 1


@wire
def test_call_parked_on_an_argument_when_its_actor_dies_resolves_on_arrival(pool):
    log = Log.remote()
    warm(log, calls=3)
    late = slow.remote(0.5, "late")
    parked = log.add.remote(late)
    behind = log.add.remote("behind")
    pool.kill_worker(pool.worker_for_actor(log.actor_id))
    with pytest.raises(ActorLostError):
        repro.get(behind, timeout=60.0)
    with pytest.raises(ActorLostError):
        repro.get(parked, timeout=60.0)


# -- stealing -----------------------------------------------------------------------


@wire
def test_an_actor_window_is_invisible_to_an_idle_peer(pool):
    log = Log.remote()
    warm(log)
    worker = home_of(pool, log)
    before = sched(pool)
    counts = steal_requests(pool)
    refs = submit_window(
        pool, log, [("nap_add", (0.4 if i == 0 else 0.0, i)) for i in range(12)]
    )
    _await(lambda: len(worker.inflight) == 12, "the window shipping")
    time.sleep(0.4)
    assert counts["sent"] <= 2, counts
    repro.get(refs, timeout=60.0)
    after = sched(pool)
    assert after["tasks_stolen"] == before["tasks_stolen"]
    assert after["tasks_recalled"] == before["tasks_recalled"]
    assert repro.get(log.dump.remote(), timeout=60.0)[-12:] == list(range(12))


# -- the trace ----------------------------------------------------------------------


def test_trace_names_the_actor_of_a_window_and_the_report_counts_them():
    pool = repro.init(backend="proc", num_workers=2, seed=21, tracing=True)
    log = Log.remote()
    warm(log)
    refs = submit_window(pool, log, [("add", (i,)) for i in range(10)])
    repro.get(refs, timeout=60.0)
    frames = [
        record for record in pool.event_log.filter(kind="task_frame")
        if record.get("actor") == str(log.actor_id)
    ]
    assert frames and max(record.get("size") for record in frames) == 10
    # The constructor's frame is not a call's.
    assert sum(record.get("size") for record in frames) == 12 + 10
    report = repro.trace_report()
    assert f"22 actor call(s) rode {len(frames)} frame(s)" in report
