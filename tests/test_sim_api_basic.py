"""End-to-end API tests on the simulated backend."""

import threading

import pytest

import repro
from repro.errors import BackendError, GetTimeoutError, TaskError


@repro.remote
def add(x, y):
    return x + y


@repro.remote
def square(x):
    return x * x


@repro.remote
def fail(msg):
    raise ValueError(msg)


def test_single_task_roundtrip(sim_runtime):
    ref = add.remote(1, 2)
    assert repro.get(ref) == 3


def test_virtual_time_advances(sim_runtime):
    before = repro.now()
    ref = add.remote(1, 2)
    repro.get(ref)
    after = repro.now()
    assert after > before
    # An empty task's end-to-end overhead is well under 10 ms.
    assert after - before < 0.01


def test_many_tasks(sim_runtime):
    refs = [square.remote(i) for i in range(50)]
    values = repro.get(refs)
    assert values == [i * i for i in range(50)]


def test_dataflow_dependency_chain(sim_runtime):
    a = add.remote(1, 1)       # 2
    b = add.remote(a, 1)       # 3
    c = add.remote(b, a)       # 5
    assert repro.get(c) == 5


def test_diamond_dependencies(sim_runtime):
    root = add.remote(1, 1)
    left = square.remote(root)
    right = add.remote(root, 10)
    combined = add.remote(left, right)
    assert repro.get(combined) == 4 + 12


def test_kwargs_and_ref_kwargs(sim_runtime):
    ref = add.remote(x=2, y=3)
    assert repro.get(ref) == 5
    ref2 = add.remote(x=ref, y=ref)
    assert repro.get(ref2) == 10


def test_get_list_preserves_order(sim_runtime):
    slow = square.options(duration=0.05)
    fast = square.options(duration=0.0)
    refs = [slow.remote(2), fast.remote(3)]
    assert repro.get(refs) == [4, 9]


def test_put_and_get(sim_runtime):
    ref = repro.put({"weights": [1, 2, 3]})
    assert repro.get(ref) == {"weights": [1, 2, 3]}


def test_put_feeds_tasks(sim_runtime):
    data = repro.put(21)
    assert repro.get(add.remote(data, data)) == 42


def test_task_error_raises_on_get(sim_runtime):
    ref = fail.remote("boom")
    with pytest.raises(TaskError, match="boom"):
        repro.get(ref)


def test_error_propagates_through_dependents(sim_runtime):
    bad = fail.remote("origin")
    downstream = add.remote(bad, 1)
    further = square.remote(downstream)
    with pytest.raises(TaskError, match="origin"):
        repro.get(further)


def test_get_timeout(sim_runtime):
    slow = square.options(duration=10.0)
    ref = slow.remote(2)
    with pytest.raises(GetTimeoutError):
        repro.get(ref, timeout=0.5)
    # The value still arrives later.
    assert repro.get(ref) == 4


def test_modeled_duration_advances_clock(sim_runtime):
    timed = square.options(duration=1.5)
    start = repro.now()
    repro.get(timed.remote(3))
    assert repro.now() - start >= 1.5


def test_wait_returns_early_completers(sim_runtime):
    fast = square.options(duration=0.01)
    slow = square.options(duration=5.0)
    refs = [slow.remote(1), fast.remote(2), slow.remote(3)]
    ready, pending = repro.wait(refs, num_returns=1)
    assert ready == [refs[1]]
    assert pending == [refs[0], refs[2]]


def test_wait_timeout_returns_partial(sim_runtime):
    slow = square.options(duration=5.0)
    refs = [slow.remote(i) for i in range(3)]
    start = repro.now()
    ready, pending = repro.wait(refs, num_returns=3, timeout=0.1)
    assert ready == []
    assert len(pending) == 3
    assert repro.now() - start >= 0.1


def test_wait_num_returns_validation(sim_runtime):
    refs = [square.remote(1)]
    with pytest.raises(ValueError):
        repro.wait(refs, num_returns=2)


def test_nested_task_creation(sim_runtime):
    @repro.remote
    def child(x):
        return x + 1

    @repro.remote
    def parent(x):
        # Nested non-blocking task creation (R3): return the future; the
        # dataflow resolves it downstream.
        return child.remote(x)

    outer = parent.remote(10)
    inner_ref = repro.get(outer)
    assert repro.get(inner_ref) == 11


def test_generator_task_with_effects(sim_runtime):
    @repro.remote
    def producer(x):
        return x * 2

    @repro.remote
    def consumer(x):
        refs = [producer.remote(x + i) for i in range(3)]
        yield repro.Compute(0.01)
        values = yield repro.Get(refs)
        return sum(values)

    # x=5 -> producers yield 10, 12, 14
    assert repro.get(consumer.remote(5)) == 36


def test_generator_task_wait_effect(sim_runtime):
    fast = square.options(duration=0.001)
    slow = square.options(duration=2.0)

    @repro.remote
    def coordinator():
        refs = [slow.remote(2), fast.remote(3)]
        ready, pending = yield repro.Wait(refs, num_returns=1, timeout=1.0)
        values = yield repro.Get(ready)
        return (values, len(pending))

    values, num_pending = repro.get(coordinator.remote())
    assert values == [9]
    assert num_pending == 1


def test_blocking_get_inside_plain_task_rejected(sim_runtime):
    @repro.remote
    def bad_task():
        return repro.get(square.remote(2))

    ref = bad_task.remote()
    with pytest.raises(TaskError, match="generator"):
        repro.get(ref)


def test_remote_function_direct_call_rejected(sim_runtime):
    with pytest.raises(TypeError, match="remote"):
        add(1, 2)


def test_gpu_task_requires_gpu_node():
    repro.init(backend="sim", num_nodes=2, num_cpus=2, num_gpus=0)
    gpu_fn = square.options(num_gpus=1, num_cpus=0)
    with pytest.raises(BackendError, match="GPU"):
        gpu_fn.remote(3)
    repro.shutdown()


def test_gpu_task_schedules_on_gpu_node(sim_runtime):
    gpu_fn = square.options(num_gpus=1)
    assert repro.get(gpu_fn.remote(4)) == 16


def test_heterogeneous_resources_parallelism():
    # 2 nodes x 2 CPUs: 4 concurrent 1-CPU tasks of 1s each finish in ~1s,
    # 8 of them in ~2s.
    repro.init(backend="sim", num_nodes=2, num_cpus=2)
    timed = square.options(duration=1.0)
    start = repro.now()
    refs = [timed.remote(i) for i in range(8)]
    repro.get(refs)
    elapsed = repro.now() - start
    assert 2.0 <= elapsed < 3.0
    repro.shutdown()


def test_determinism_same_seed():
    def run():
        runtime = repro.init(backend="sim", num_nodes=3, num_cpus=2, seed=7)
        refs = [square.options(duration=0.01).remote(i) for i in range(20)]
        values = repro.get(refs)
        stats = runtime.stats()
        finish = repro.now()
        repro.shutdown()
        return values, finish, stats["tasks_executed"], stats["events_processed"]

    assert run() == run()


def test_init_twice_rejected(sim_runtime):
    with pytest.raises(BackendError, match="already initialized"):
        repro.init(backend="sim")


def test_api_requires_init():
    with pytest.raises(BackendError, match="init"):
        repro.get(None)


def test_stats_counters(sim_runtime):
    refs = [square.remote(i) for i in range(10)]
    repro.get(refs)
    stats = sim_runtime.stats()
    assert stats["tasks_executed"] == 10
    assert stats["tasks_submitted"] >= 10
    assert stats["gcs_ops"] > 0


def test_sim_runs_no_thread_and_closes_its_store():
    """The sim writes its control store synchronously, so the store
    starts no writer thread; ``shutdown()`` closes it."""
    before = threading.active_count()
    runtime = repro.init(backend="sim")
    assert repro.get(add.remote(1, 2)) == 3
    repro.shutdown()
    assert runtime._control.closed
    assert threading.active_count() == before
