"""Driver HA: the control store outlives the driver and a fresh one
recovers the workload (the paper's "all components are stateless" claim,
applied to the driver itself).

The exactly-once proofs use marker files: every task execution appends one
line to a per-task file, so "zero lost" = every file exists and "zero
duplicate" = no file has more than one line.  Gate-flag files keep
pending tasks provably un-started until after the driver dies.
"""

import os
import time

import pytest

import repro
from repro.api.runtime_context import get_runtime
from repro.errors import ActorLostError, TaskError
from repro.gcs import ControlStore

pytestmark = pytest.mark.timeout(180)


@repro.remote
def mark(path, x, gate=None):
    with open(os.path.join(path, f"{x}.marker"), "a") as handle:
        handle.write("ran\n")
    return x


@repro.remote
def wait_for_flag(path):
    while not os.path.exists(path):
        time.sleep(0.01)
    return 1


@repro.remote
def double(x):
    return x * 2


@repro.remote
def gated_mark(path, x, flag):
    """``mark``, once ``flag`` exists: started, it waits inside."""
    while not os.path.exists(flag):
        time.sleep(0.01)
    with open(os.path.join(path, f"{x}.marker"), "a") as handle:
        handle.write("ran\n")
    return x


@repro.remote
def fire_and_forget(path, flag, n):
    for x in range(n):
        gated_mark.remote(path, x, flag)
    return n


@repro.remote
def gather(path, flag, n):
    return sum(repro.get([gated_mark.remote(path, x, flag) for x in range(n)]))


@repro.remote
class Counter:
    def __init__(self):
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total


def marker_counts(path):
    counts = {}
    for name in os.listdir(path):
        if name.endswith(".marker"):
            with open(os.path.join(path, name)) as handle:
                counts[int(name[:-7])] = len(handle.readlines())
    return counts


def await_sched(runtime, key, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    while runtime.stats()["sched"][key] < count:
        assert time.monotonic() < deadline, runtime.stats()["sched"]
        time.sleep(0.01)


#: One pool of each wire backend: one worker, and two.
POOLS = {
    "proc": (dict(backend="proc", num_workers=1),
             dict(backend="proc", num_workers=2)),
    "dist": (dict(backend="dist", num_nodes=1, num_cpus=1),
             dict(backend="dist", num_nodes=2, num_cpus=1)),
}


@pytest.mark.parametrize("backend", sorted(POOLS))
class TestNestedTreeRecovery:
    """A worker-born task has a control-store row only once the driver
    adopted it; these say what a restarted driver runs of a nested tree
    that the dead one never adopted all of."""

    def test_children_of_a_finished_parent_run_exactly_once(self, backend, tmp_path):
        """A fire-and-forget parent returns before its gated children
        run: their rows are written when its DONE is applied (one worker,
        so none is stolen first), and the restarted driver runs each of
        them once."""
        markers = str(tmp_path / "markers")
        os.makedirs(markers)
        flag = str(tmp_path / "flag")
        pool = POOLS[backend][0]
        repro.init(seed=31, **pool)
        runtime = get_runtime()
        store = runtime._control
        assert repro.get(fire_and_forget.remote(markers, flag, 4), timeout=60.0) == 4
        runtime.fail_driver()
        repro.shutdown()

        repro.init(seed=31, control_store=store, recover=True, **pool)
        with open(flag, "w") as handle:
            handle.write("go")
        deadline = time.monotonic() + 60.0
        while len(marker_counts(markers)) < 4:
            assert time.monotonic() < deadline, marker_counts(markers)
            time.sleep(0.02)
        time.sleep(0.3)  # room for a duplicate to show
        assert marker_counts(markers) == {x: 1 for x in range(4)}
        repro.shutdown()
        store.close()

    def test_a_replayed_root_recreates_the_children_it_gathers(self, backend, tmp_path):
        """A root blocked on its gated children dies with the driver:
        its replay recreates the children no row records, and its value
        comes out right.  (Each child may also run once more from its
        own row, ROADMAP item 3(b): worker-born ids are per spawn, so
        the replayed root's children are new tasks.)"""
        markers = str(tmp_path / "markers")
        os.makedirs(markers)
        flag = str(tmp_path / "flag")
        pool = POOLS[backend][1]
        repro.init(seed=32, **pool)
        runtime = get_runtime()
        store = runtime._control
        root = gather.remote(markers, flag, 6)
        await_sched(runtime, "tasks_placed_local", 6)
        time.sleep(0.1)  # an idle peer steals some of them
        runtime.fail_driver()
        repro.shutdown()

        repro.init(seed=32, control_store=store, recover=True, **pool)
        with open(flag, "w") as handle:
            handle.write("go")
        assert repro.get(root, timeout=60.0) == sum(range(6))
        counts = marker_counts(markers)
        assert sorted(counts) == list(range(6)) and min(counts.values()) >= 1, counts
        repro.shutdown()
        store.close()


class TestProcDriverRecovery:
    def test_fail_driver_then_recover_restores_results(self):
        repro.init(backend="proc", num_workers=2, seed=11)
        runtime = get_runtime()
        store = runtime._control
        refs = [double.remote(i) for i in range(6)]
        assert repro.get(refs) == [2 * i for i in range(6)]
        runtime.fail_driver()
        repro.shutdown()

        repro.init(
            backend="proc", num_workers=2, seed=11,
            control_store=store, recover=True,
        )
        # Restored from inline payloads: same refs answer on the new driver.
        assert repro.get(refs) == [2 * i for i in range(6)]
        assert get_runtime().stats()["control"]["generation"] == 2
        repro.shutdown()
        store.close()

    def test_pending_tasks_resubmitted_exactly_once(self, tmp_path):
        markers = str(tmp_path / "markers")
        os.makedirs(markers)
        flag = str(tmp_path / "flag")
        repro.init(backend="proc", num_workers=2, seed=12)
        runtime = get_runtime()
        store = runtime._control

        done = [mark.remote(markers, i) for i in range(4)]
        assert repro.get(done) == list(range(4))
        gate = wait_for_flag.remote(flag)
        pending = [mark.remote(markers, 100 + i, gate) for i in range(4)]
        runtime.fail_driver()
        repro.shutdown()

        with open(flag, "w") as handle:
            handle.write("go")
        repro.init(
            backend="proc", num_workers=2, seed=12,
            control_store=store, recover=True,
        )
        assert repro.get(done) == list(range(4))
        assert repro.get(pending) == [100 + i for i in range(4)]
        counts = marker_counts(markers)
        assert counts == {i: 1 for i in list(range(4)) + [100 + i for i in range(4)]}
        repro.shutdown()
        store.close()

    def test_recovered_actor_surfaces_actor_lost(self):
        repro.init(backend="proc", num_workers=2, seed=13)
        runtime = get_runtime()
        store = runtime._control
        counter = Counter.remote()
        assert repro.get(counter.add.remote(5)) == 5
        runtime.fail_driver()
        repro.shutdown()

        repro.init(
            backend="proc", num_workers=2, seed=13,
            control_store=store, recover=True,
        )
        # Provenance survives, state does not: calls on the recovered
        # handle raise rather than silently restarting from zero.
        with pytest.raises(ActorLostError):
            repro.get(counter.add.remote(1))
        repro.shutdown()
        store.close()

    def test_crash_during_async_write_keeps_write_ahead_ordering(self, tmp_path):
        """Freeze the async writer (a driver dying mid-flight), then prove
        the synchronous write-ahead ``task_put`` made every submission
        durable: the recovered driver re-runs them all — zero lost."""
        flag = str(tmp_path / "flag")
        repro.init(backend="proc", num_workers=2, seed=14)
        runtime = get_runtime()
        store = runtime._control

        store.pause_async_writes()
        gate = wait_for_flag.remote(flag)
        # Every spec is already in the task table (sync), while all state
        # and residency updates are stuck in the frozen queue.
        refs = [double.remote(i) for i in range(5)]
        runtime.fail_driver()
        repro.shutdown()
        store.resume_async_writes()

        with open(flag, "w") as handle:
            handle.write("go")
        repro.init(
            backend="proc", num_workers=2, seed=14,
            control_store=store, recover=True,
        )
        assert repro.get(refs) == [2 * i for i in range(5)]
        assert repro.get(gate) == 1
        repro.shutdown()
        store.close()

    def test_recover_requires_a_store(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="recover=True requires"):
            repro.init(backend="proc", num_workers=1, seed=1, recover=True)

    def test_unrecoverable_large_put_errors_instead_of_hanging(self):
        repro.init(backend="proc", num_workers=1, seed=15, shm_capacity=0)
        runtime = get_runtime()
        store = runtime._control
        big = repro.put(list(range(100_000)))  # far above inline_threshold
        small = repro.put({"k": 1})
        repro.get(big)
        runtime.fail_driver()
        repro.shutdown()

        repro.init(
            backend="proc", num_workers=1, seed=15, shm_capacity=0,
            control_store=store, recover=True,
        )
        assert repro.get(small) == {"k": 1}  # inline: restored verbatim
        with pytest.raises(TaskError, match="lost with the failed driver"):
            repro.get(big)
        repro.shutdown()
        store.close()


class TestDistDriverRecovery:
    def test_driver_restart_mid_workload_exactly_once(self, tmp_path):
        """The acceptance bar: tear the driver down mid-workload on the
        dist backend and finish from the recovered one with zero lost and
        zero duplicate executions, proven by marker counts."""
        markers = str(tmp_path / "markers")
        os.makedirs(markers)
        flag = str(tmp_path / "flag")
        repro.init(backend="dist", seed=21)
        runtime = get_runtime()
        store = runtime._control

        done = [mark.remote(markers, i) for i in range(6)]
        assert repro.get(done) == list(range(6))
        gate = wait_for_flag.remote(flag)
        pending = [mark.remote(markers, 100 + i, gate) for i in range(6)]
        runtime.fail_driver()  # mid-workload: 6 finished, 6 provably unstarted
        repro.shutdown()

        with open(flag, "w") as handle:
            handle.write("go")
        repro.init(backend="dist", seed=21, control_store=store, recover=True)
        assert repro.get(done, timeout=60.0) == list(range(6))
        assert repro.get(pending, timeout=60.0) == [100 + i for i in range(6)]
        assert repro.get(gate, timeout=60.0) == 1

        counts = marker_counts(markers)
        expected = {i: 1 for i in list(range(6)) + [100 + i for i in range(6)]}
        assert counts == expected, "lost or duplicated task executions"
        assert get_runtime().stats()["control"]["generation"] == 2
        repro.shutdown()
        store.close()

    def test_recovered_driver_keeps_working(self):
        repro.init(backend="dist", seed=22)
        runtime = get_runtime()
        store = runtime._control
        refs = [double.remote(i) for i in range(4)]
        repro.get(refs)
        runtime.fail_driver()
        repro.shutdown()

        repro.init(backend="dist", seed=22, control_store=store, recover=True)
        # Not just recovery: the new driver schedules fresh work too.
        fresh = [double.remote(50 + i) for i in range(4)]
        assert repro.get(fresh, timeout=60.0) == [2 * (50 + i) for i in range(4)]
        repro.shutdown()
        store.close()
