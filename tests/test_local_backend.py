"""End-to-end tests of the threaded backend (real execution)."""

import threading
import time

import pytest

import repro
from repro.errors import GetTimeoutError, TaskError


@repro.remote
def add(x, y):
    return x + y


@repro.remote
def slow_identity(x, delay=0.05):
    time.sleep(delay)
    return x


@repro.remote
def fail(msg):
    raise RuntimeError(msg)


@pytest.fixture
def local_runtime():
    runtime = repro.init(backend="local", num_nodes=2, num_cpus=2, num_gpus=1)
    yield runtime
    repro.shutdown()


def test_roundtrip(local_runtime):
    assert repro.get(add.remote(2, 3)) == 5


def test_many_tasks_real_parallelism(local_runtime):
    # 8 sleeping tasks on 4+2 worker slots should overlap: total well
    # under the 0.8s serial time.
    start = time.monotonic()
    refs = [slow_identity.remote(i, delay=0.1) for i in range(8)]
    values = repro.get(refs)
    elapsed = time.monotonic() - start
    assert values == list(range(8))
    assert elapsed < 0.6


def test_dependency_chain(local_runtime):
    a = add.remote(1, 1)
    b = add.remote(a, 1)
    c = add.remote(b, b)
    assert repro.get(c) == 6


def test_dependency_across_slow_producer(local_runtime):
    a = slow_identity.remote(10, delay=0.1)
    b = add.remote(a, 5)
    assert repro.get(b) == 15


def test_error_raises(local_runtime):
    with pytest.raises(TaskError, match="kaput"):
        repro.get(fail.remote("kaput"))


def test_error_propagates(local_runtime):
    bad = fail.remote("root-cause")
    downstream = add.remote(bad, 1)
    with pytest.raises(TaskError, match="root-cause"):
        repro.get(downstream)


def test_get_timeout(local_runtime):
    ref = slow_identity.remote(1, delay=2.0)
    with pytest.raises(GetTimeoutError):
        repro.get(ref, timeout=0.05)


def test_wait_early_completion(local_runtime):
    fast = slow_identity.remote("fast", delay=0.01)
    slow = slow_identity.remote("slow", delay=1.0)
    ready, pending = repro.wait([slow, fast], num_returns=1, timeout=0.5)
    assert ready == [fast]
    assert pending == [slow]


def test_wait_timeout_partial(local_runtime):
    refs = [slow_identity.remote(i, delay=1.0) for i in range(3)]
    start = time.monotonic()
    ready, pending = repro.wait(refs, num_returns=3, timeout=0.05)
    assert time.monotonic() - start < 0.5
    assert len(ready) + len(pending) == 3
    assert len(pending) >= 1


def test_put_get(local_runtime):
    ref = repro.put([1, 2, 3])
    assert repro.get(ref) == [1, 2, 3]


def test_nested_tasks(local_runtime):
    @repro.remote
    def child(x):
        return x * 2

    @repro.remote
    def parent(x):
        return child.remote(x)

    inner = repro.get(parent.remote(4))
    assert repro.get(inner) == 8


def test_blocking_get_inside_task_allowed(local_runtime):
    # Unlike the sim backend, real threads can block.
    @repro.remote
    def aggregate(n):
        refs = [add.remote(i, i) for i in range(n)]
        return sum(repro.get(refs))

    assert repro.get(aggregate.remote(4)) == 2 * (0 + 1 + 2 + 3)


def test_generator_effects(local_runtime):
    @repro.remote
    def pipeline(x):
        ref = add.remote(x, 1)
        value = yield repro.Get(ref)
        yield repro.Compute(0.01)
        stored = yield repro.Put(value * 10)
        final = yield repro.Get(stored)
        return final

    assert repro.get(pipeline.remote(5)) == 60


def test_gpu_resource_accounting(local_runtime):
    # Only 2 GPUs cluster-wide: three 1-GPU tasks cannot run concurrently.
    active = []
    peak = []
    lock = threading.Lock()

    @repro.remote(num_gpus=1)
    def gpu_task(i):
        with lock:
            active.append(i)
            peak.append(len(active))
        time.sleep(0.05)
        with lock:
            active.remove(i)
        return i

    refs = [gpu_task.remote(i) for i in range(4)]
    assert sorted(repro.get(refs)) == [0, 1, 2, 3]
    assert max(peak) <= 2


def test_numpy_payloads(local_runtime):
    import numpy as np

    @repro.remote
    def matmul(a, b):
        return a @ b

    a = np.eye(16)
    b = np.arange(256.0).reshape(16, 16)
    result = repro.get(matmul.remote(a, b))
    assert np.allclose(result, b)


def test_stats(local_runtime):
    repro.get([add.remote(i, i) for i in range(5)])
    stats = local_runtime.stats()
    assert stats["tasks_executed"] == 5
