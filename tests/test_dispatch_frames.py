"""Dispatch frames on the live wire backends (proc, dist).

A TASK frame ships a window of tasks to a worker ahead of need and the
worker reports completions coalesced in DONE frames.  These tests pin
down what that must not change: exactly-once execution under a crash,
never-executes cancellation, no head-of-line blocking behind slow or
stuck tasks, and a blocked worker reaching tasks queued behind it at
once.

Windows are made deterministic the same way throughout: calls are
submitted with the runtime lock held (no service thread can claim a
frame until all are queued) and the function's execution-time estimate
is pinned low (so they fit one frame budget whatever the host's speed).
"""

import os
import pickle
import time

import pytest

import repro
from repro.errors import TaskCancelledError

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
            runtime._exec_estimate[function._function_id(runtime)] = 1e-5
        return [function.remote(*args) for function, args in calls]


def sched(runtime):
    return runtime.stats()["sched"]


@pools(1)
def test_window_ships_in_one_frame_and_reports_coalesced(pool):
    assert repro.get(tiny.remote(0), timeout=60.0) == 1  # code is shipped
    before = sched(pool)
    refs = submit_window(pool, [(tiny, (i,)) for i in range(30)])
    assert repro.get(refs, timeout=60.0) == [i + 1 for i in range(30)]
    after = sched(pool)
    # One frame, unless the backend caps a frame's size (dist does).
    frames = -(-30 // pool._FRAME_MAX_TASKS)
    assert after["frames_sent"] - before["frames_sent"] == frames
    assert after["tasks_shipped"] - before["tasks_shipped"] == 30
    # 30 no-ops cannot take 30 budgets: completions came back batched.
    assert after["done_frames"] - before["done_frames"] < 30
    # The function's code crossed the wire with the first task only.
    worker = pool._workers[0]
    assert tiny._function_id(pool) in worker.functions_sent


@pools(1)
def test_kill_worker_mid_frame_rehomes_shipped_tasks(pool, tmp_path):
    """The worker dies while running the head of a frame: the head
    replays, the shipped-but-unstarted tail re-homes, nothing runs more
    than ``1 + replays`` times and nothing is lost."""
    directory = str(tmp_path)
    refs = submit_window(pool, [(mark, (directory, i, 0)) for i in range(6)])
    _await(lambda: _runs(directory, 0) == 1, "task 0 starting")
    victim = pool._workers[0]
    shipped = min(6, pool._FRAME_MAX_TASKS)  # the rest never left the driver
    assert list(victim.inflight) and len(victim.mirror) == shipped - 1
    pool.kill_worker(0)
    assert repro.get(refs, timeout=60.0) == list(range(6))
    stats = pool.stats()
    assert stats["workers_crashed"] == 1
    # One mid-run plus the ones shipped ahead: each came back through
    # the lineage-replay gate (a shipped task may have run unreported).
    assert stats["lineage_replays"] == shipped
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
    assert pool._exec_estimate[slow._function_id(pool)] >= 0.25


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
    """One task of a window mispredicts (it naps 0.3 s): its frame mates
    are on that worker's queue, and the other worker — done long since —
    gets its share of them at the first dispatch boundary."""
    directory = str(tmp_path)
    calls = [(mark, (directory, 0, None, 0.3))]
    calls += [(mark, (directory, i)) for i in range(1, 10)]
    refs = submit_window(pool, calls)
    assert repro.get(refs, timeout=60.0) == list(range(10))
    assert [_runs(directory, i) for i in range(10)] == [1] * 10
    assert sched(pool)["tasks_stolen"] >= 1
