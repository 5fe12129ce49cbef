"""Tests for resource release while tasks block on Get/Wait effects.

Without this mechanism, generator tasks that hold a node's CPU slots
while waiting for their own children starve those children — a real
deadlock class in nested-task systems (the fix mirrors Ray's raylet
behaviour: blocked workers release resources; replacements backfill).
"""

import os
import threading
import time

import pytest

import repro
from repro.errors import BackendError


@repro.remote(duration=0.01)
def leaf(x):
    return x + 1


@repro.remote
def parent_waits_for_children(n):
    refs = [leaf.remote(i) for i in range(n)]
    values = yield repro.Get(refs)
    return sum(values)


def test_nested_get_on_single_cpu_node():
    """The tightest case: 1 CPU total.  The parent must release it for
    its child or nothing can ever finish."""
    repro.init(backend="sim", num_nodes=1, num_cpus=1)
    assert repro.get(parent_waits_for_children.remote(3)) == 1 + 2 + 3
    repro.shutdown()


#: The smallest pool of each backend, where a blocked parent's children
#: need its own slot: sim and local release the blocked task's CPU
#: (local's node gains a thread for that long), proc and dist park the
#: blocked task and run the children beside it.
SMALLEST_POOLS = {
    "sim": dict(num_nodes=1, num_cpus=1),
    "local": dict(num_nodes=1, num_cpus=1),
    "proc": dict(num_workers=1),
    "dist": dict(num_nodes=1, num_cpus=1, workers_per_node=1),
}


@pytest.mark.timeout(120)
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("backend", SMALLEST_POOLS)
def test_parent_waiting_for_its_children_finishes_on_the_smallest_pool(backend, n):
    """No backend has a dispatch path on which a task that spawns
    children and blocks on them starves them."""
    repro.init(backend=backend, **SMALLEST_POOLS[backend])
    try:
        result = repro.get(parent_waits_for_children.remote(n), timeout=60.0)
    finally:
        repro.shutdown()
    assert result == sum(range(1, n + 1))


@repro.remote
def never():
    time.sleep(3600)


@repro.remote
def blocks_on(refs):
    return repro.get(refs[0])


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.timeout(60)
@pytest.mark.parametrize("backend", ["proc", "dist"])
def test_shutdown_does_not_wait_out_a_worker_blocked_in_get(backend):
    """A worker whose task is parked in ``get`` (a thread of it waits
    for a late reply) does not hold shutdown up — it is not the service
    thread's 5 s join — and the pool still goes away whole."""
    pool = dict(SMALLEST_POOLS[backend], **(
        {"num_workers": 2} if backend == "proc" else {"workers_per_node": 2}
    ))
    segments = set(os.listdir("/dev/shm"))
    runtime = repro.init(backend=backend, **pool)
    try:
        blocked = blocks_on.remote([never.remote()])
        deadline = time.monotonic() + 30.0
        while not any(w.waits for w in runtime._workers):
            assert time.monotonic() < deadline, "the parent never blocked"
            time.sleep(0.01)
        pids = runtime.worker_pids()
        if backend == "dist":
            pids += runtime.agent_pids()
    finally:
        started = time.monotonic()
        repro.shutdown()
        took = time.monotonic() - started
    assert took < 1.0, f"shutdown took {took:.2f}s"
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _running(pid)]
    assert set(os.listdir("/dev/shm")) <= segments
    del blocked


@repro.remote
def nap(seconds):
    time.sleep(seconds)


@repro.remote
class Waiter:
    def wait_for(self, boxed):
        return repro.get(boxed[0], timeout=30.0)

    def ping(self):
        return "pong"


@repro.remote
class Producer:
    def make(self, seconds):
        time.sleep(seconds)
        return seconds


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", ["proc", "dist"])
def test_tasks_resumed_together_all_report_and_their_worker_serves_on(backend):
    """Two actors on one worker park on one object another worker makes,
    and its arrival resumes both at once, their worker idle.  The first
    may end, and its worker report idle, before the second's late reply
    is read: the idle report counts the late replies read, and the
    driver serves on until it has heard of both — else the second call's
    completion, and what the worker is sent next, wait for a frame that
    may never come."""
    pool = {"proc": dict(num_workers=2), "dist": dict(num_nodes=2, num_cpus=1)}
    runtime = repro.init(backend=backend, seed=4, **pool[backend])
    try:
        homes = runtime.replica_targets()
        waiters = [Waiter.options(placement_hint=homes[0]).remote() for _ in range(2)]
        producer = Producer.options(placement_hint=homes[1]).remote()
        for _ in range(20):
            made = producer.make.remote(0.02)
            calls = [waiter.wait_for.remote([made]) for waiter in waiters]
            assert repro.get(calls, timeout=10.0) == [0.02, 0.02]
            pings = [waiter.ping.remote() for waiter in waiters]
            assert repro.get(pings, timeout=10.0) == ["pong", "pong"]
    finally:
        repro.shutdown()


@pytest.mark.timeout(60)
@pytest.mark.parametrize(
    "backend,end",
    [("local", "shutdown"), ("proc", "shutdown"), ("dist", "shutdown"),
     ("proc", "fail_driver")],
)
def test_driver_threads_blocked_in_get_and_wait_end_with_the_runtime(backend, end):
    """The driver's half of never-a-hang: a thread blocked in ``get`` or
    ``wait`` when another one ends the runtime comes back with
    ``BackendError`` instead of sleeping on a cond nobody will notify."""
    runtime = repro.init(backend=backend, **SMALLEST_POOLS[backend])
    store = runtime._control  # fail_driver() leaves it to its owner
    ref = nap.remote(30.0)
    outcomes = {}

    def blocked(name, call):
        try:
            outcomes[name] = call()
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcomes[name] = exc

    threads = [
        threading.Thread(
            target=blocked, args=("get", lambda: repro.get(ref)), daemon=True
        ),
        threading.Thread(
            target=blocked, args=("wait", lambda: repro.wait([ref])), daemon=True
        ),
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.3)  # both are waiting by now (a sooner end is as good)
    try:
        getattr(runtime, end)()
        deadline = time.monotonic() + 2.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not [t for t in threads if t.is_alive()], "still blocked after 2 s"
    finally:
        repro.shutdown()
        store.close()
    for name in ("get", "wait"):
        assert isinstance(outcomes[name], BackendError), (name, outcomes[name])
        assert "shut down" in str(outcomes[name])


def test_removed_dispatch_mode_is_refused_by_name():
    with pytest.raises(BackendError, match="dispatch_mode='driver'.*removed"):
        repro.init(backend="proc", num_workers=1, dispatch_mode="driver")
    assert not repro.is_initialized()
    # The one literal the benchmark's nested_fanout workload still passes.
    runtime = repro.init(backend="proc", num_workers=1, dispatch_mode="bottom_up")
    try:
        assert "dispatch_mode" not in runtime.stats()
    finally:
        repro.shutdown()


@pytest.mark.parametrize(
    "backend,option",
    [
        (backend, option)
        for backend in ("local", "proc", "dist")
        for option in (
            "dispatch_mode", "placement_policy", "spillover_policy", "steal_policy"
        )
        if (backend, option) != ("proc", "dispatch_mode")  # the literal above
    ],
)
def test_live_backends_have_no_scheduler_options(backend, option):
    with pytest.raises(BackendError, match=rf"unknown init option\(s\) \['{option}'\]"):
        repro.init(backend=backend, **{option: None})
    assert not repro.is_initialized()


def test_deep_nesting_on_small_cluster():
    repro.init(backend="sim", num_nodes=1, num_cpus=2)

    @repro.remote
    def level(depth):
        if depth == 0:
            return 1
        ref = level.remote(depth - 1)
        below = yield repro.Get(ref)
        return below + 1

    assert repro.get(level.remote(5)) == 6
    repro.shutdown()


def test_many_blocked_parents_share_slots():
    runtime = repro.init(backend="sim", num_nodes=2, num_cpus=2)
    refs = [parent_waits_for_children.remote(4) for _ in range(6)]
    assert repro.get(refs) == [1 + 2 + 3 + 4] * 6
    # Replacement workers were spawned while parents were blocked...
    total_workers = sum(
        len(runtime.local_scheduler(n).workers) for n in runtime.node_ids
    )
    assert total_workers > runtime.cluster.total_cpus
    # ...but accounting returned to neutral afterwards.
    for node_id in runtime.node_ids:
        scheduler = runtime.local_scheduler(node_id)
        assert scheduler.blocked_workers == 0
        assert scheduler.available_cpus == scheduler.num_cpus
    repro.shutdown()


def test_wait_effect_also_releases():
    repro.init(backend="sim", num_nodes=1, num_cpus=1)

    @repro.remote
    def selective(n):
        refs = [leaf.remote(i) for i in range(n)]
        ready, pending = yield repro.Wait(refs, num_returns=n)
        values = yield repro.Get(ready)
        return sorted(values)

    assert repro.get(selective.remote(3)) == [1, 2, 3]
    repro.shutdown()


def test_resources_never_oversubscribed():
    """Even with blocking parents, concurrent *running* tasks never exceed
    node CPU capacity."""
    runtime = repro.init(backend="sim", num_nodes=2, num_cpus=2, seed=8)
    refs = [parent_waits_for_children.remote(3) for _ in range(4)]
    repro.get(refs)
    from repro.tools.timeline import task_spans

    spans = [s for s in task_spans(runtime.event_log) if s.function == "leaf"]
    events = []
    for span in spans:
        # Leaves hold a CPU for their whole span.
        events.append((span.start, span.node, 1))
        events.append((span.end, span.node, -1))
    events.sort(key=lambda e: (e[0], -e[2]))
    load: dict = {}
    for _t, node, delta in events:
        load[node] = load.get(node, 0) + delta
        assert load[node] <= 2 + 1  # cpus per node (+1 for same-instant swap)
    repro.shutdown()


def test_failed_fetch_while_blocked_keeps_accounting_sane():
    runtime = repro.init(
        backend="sim", num_nodes=2, num_cpus=2, enable_reconstruction=False
    )

    @repro.remote
    def doomed():
        ref = leaf.options(placement_hint=runtime.node_ids[1]).remote(1)
        ready, _ = yield repro.Wait([ref], num_returns=1)
        # Kill the producer node, losing the only replica, then Get it.
        runtime.kill_node(runtime.node_ids[1])
        value = yield repro.Get(ref)
        return value

    with pytest.raises(repro.TaskError):
        repro.get(doomed.remote())
    scheduler = runtime.local_scheduler(runtime.head_node_id)
    assert scheduler.blocked_workers == 0
    assert scheduler.available_cpus == scheduler.num_cpus
    repro.shutdown()
