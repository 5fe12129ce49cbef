"""Soak: a long session uses the memory of a short one.

Thousands of one-MiB objects go through the default 256 MiB arena — which
holds 255 of them — and tens of thousands of small tasks through the pipe
store, every value checked; at every tenth of the way the arena, the pipe
store and the pages the kernel has actually given ``/dev/shm`` must read
what they read after the first tenth, no large object may have fallen
back to the pipe, and the last operations may not be slower than the
first.

The same script at the parent of the change that made objects give their
memory back (nothing was ever released there), 500 rounds + 50 k ticks on
this host, read at the ten checkpoints: ``pipe_fallbacks`` 0, 145, 345,
... 1745 (the first at round 63, then every large object), arena
``used_bytes`` 200 MiB at the first checkpoint and 255 MiB (full) from
the second on, pipe-store ``num_objects`` 5050 -> 52245, ``/dev/shm``
200 -> 255 MiB, and a round went from 10.5 ms (median of rounds 5-55) to
60.5 ms (the last 50): the cliff.  With the change: 0 fallbacks, 0 bytes,
0 objects and 3.0 MiB of ``/dev/shm`` at every checkpoint, 5.8 -> 5.9 ms.
"""

import contextlib
import gc
import os
import statistics
import time

import numpy as np
import pytest

import repro

pytestmark = pytest.mark.timeout(600)

MIB = 1 << 20
BIG = MIB // 8  # float64s in one MiB

POOLS = {
    "proc": {"backend": "proc", "num_workers": 2},
    "dist": {"backend": "dist", "num_nodes": 2, "num_cpus": 1},
}


@contextlib.contextmanager
def session(backend):
    runtime = repro.init(seed=23, **POOLS[backend])
    try:
        yield runtime
    finally:
        repro.shutdown()


def _shm_bytes(names):
    """Bytes the kernel has really backed for these segments (tmpfs
    allocates a page when it is first touched, never before)."""
    total = 0
    for name in names:
        try:
            total += os.stat(os.path.join("/dev/shm", name.lstrip("/"))).st_blocks * 512
        except OSError:
            pass
    return total


def _soak(runtime, backend, rounds, ticks):
    """``rounds`` x (put + result + three-task chain) = 4 x ``rounds``
    large objects, and ``ticks`` small tasks, in ten equal parts; returns
    ``(checkpoints, round_seconds)``.  A round's seconds are divided by
    those of a fixed local computation timed right after it: this host's
    speed drifts by up to 2x between minutes, and a round that takes
    longer because everything does is not a round that got slower."""

    @repro.remote
    def produce(n, fill):
        return np.full(n, fill)

    @repro.remote
    def transform(array):
        return array + 1.0

    @repro.remote
    def consume(array):
        return float(array[0]) + float(array[-1]) + float(array.shape[0])

    @repro.remote
    def tick(x):
        return x + 1

    checkpoints, seconds = [], []
    for part in range(10):
        for index in range(part * rounds // 10, (part + 1) * rounds // 10):
            fill = float(index)
            started = time.perf_counter()
            value = repro.get(repro.put(np.full(BIG, fill)), timeout=60.0)
            assert value[0] == fill and value[-1] == fill
            value = repro.get(produce.remote(BIG, fill), timeout=60.0)
            assert value[0] == fill and value[-1] == fill
            end = consume.remote(transform.remote(produce.remote(BIG, fill)))
            assert repro.get(end, timeout=60.0) == 2.0 * (fill + 1.0) + BIG
            spent = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(4):
                np.full(BIG, fill).sum()
            seconds.append(spent / (time.perf_counter() - started))
        for wave in range(ticks // 10 // 200):
            refs = [tick.remote(wave + i) for i in range(200)]
            assert repro.get(refs, timeout=60.0) == [wave + i + 1 for i in range(200)]
        del value, end, refs
        gc.collect()
        stats = runtime.stats()
        point = {
            "pipe_fallbacks": stats["shm"]["pipe_fallbacks"],
            "stored": stats["objects_stored"],
            "live": stats["objects"]["live"],
            "escaped": stats["objects"]["escaped"],
        }
        if backend == "proc":
            point["arena_bytes"] = stats["shm_store"]["used_bytes"]
            point["shm_bytes"] = _shm_bytes(runtime._objects.shm.segment_names())
        else:
            point["node_resident"] = stats["cluster"]["objects_node_resident"]
            point["shm_bytes"] = _shm_bytes(
                name for link in runtime._links for name in link.segments
            )
        checkpoints.append(point)
    return checkpoints, seconds


def _check(checkpoints, seconds, backend):
    first = checkpoints[0]
    for point in checkpoints:
        assert point["pipe_fallbacks"] == 0, checkpoints
        assert point["escaped"] == 0, checkpoints
        # Nothing of the work is left: the stores hold what they held
        # after the first tenth (nothing, give or take a completion that
        # is applied a moment after its value was read).
        assert point["stored"] <= first["stored"] + 8, checkpoints
        assert point["live"] <= first["live"] + 8, checkpoints
        if backend == "proc":
            assert point["arena_bytes"] <= 8 * MIB, checkpoints
        else:
            assert point["node_resident"] <= 4, checkpoints
        # Flat: the arena's warm few MiB are reused, not walked through.
        assert point["shm_bytes"] <= first["shm_bytes"] + 8 * MIB, checkpoints
    # Operation 2000 costs what operation 20 cost (at the parent: 5.8x).
    early = statistics.median(seconds[5:55])
    late = statistics.median(seconds[-50:])
    assert late <= 1.5 * early, (early, late)


def test_a_finished_tick_leaves_at_most_7_5_gc_tracked_objects_behind():
    """The budget task-row retirement (ROADMAP 3(a)) is to lower: what
    the driver still keeps per finished task, in objects the cyclic GC
    walks at every full collection.  10.1 per tick while the control
    store kept an ``EventRecord`` (and its payload dict) per write, 7.0
    since its events are flat tuples of atomic values, which the GC
    untracks."""

    @repro.remote
    def tick(x):
        return x + 1

    def waves(count):
        for wave in range(count // 200):
            refs = [tick.remote(wave + i) for i in range(200)]
            assert repro.get(refs, timeout=60.0) == [wave + i + 1 for i in range(200)]

    def tracked():
        for _ in range(3):
            gc.collect()
        return len(gc.get_objects())

    with session("proc"):
        waves(1000)  # warm-up: workers, function table, first-call state
        before = tracked()
        waves(2000)
        per_task = (tracked() - before) / 2000
    assert per_task <= 7.5, per_task


def test_a_finished_nested_task_leaves_at_most_8_gc_tracked_objects_behind():
    """The same budget for the tasks born on workers, counted the same
    way.  ~12 per task while the driver decoded, indexed, pinned and
    logged every worker-born task as it was announced; ~3.2 since it
    keeps the wire entry alone until something needs the task."""

    @repro.remote
    def leaf(x):
        return x + 1

    @repro.remote
    def fan_out(base, n):
        return sum(repro.get([leaf.remote(base + i) for i in range(n)], timeout=60.0))

    def rounds(count):
        for round_ in range(count):
            bases = [1000 * round_ + 100 * k for k in range(4)]
            refs = [fan_out.remote(base, 100) for base in bases]
            expected = [100 * base + 5050 for base in bases]
            assert repro.get(refs, timeout=60.0) == expected

    def tracked():
        for _ in range(3):
            gc.collect()
        return len(gc.get_objects())

    with session("proc"):
        rounds(10)  # warm-up: workers, function table, first-call state
        before = tracked()
        rounds(25)
        per_task = (tracked() - before) / (25 * 4 * 101)
    assert per_task <= 8, per_task


def test_2000_large_objects_and_50k_ticks_leave_nothing_behind():
    with session("proc") as runtime:
        checkpoints, seconds = _soak(runtime, "proc", rounds=500, ticks=50_000)
        _check(checkpoints, seconds, "proc")
        gc.collect()
        stats = runtime.stats()
        assert stats["shm"]["pipe_fallbacks"] == 0
        assert stats["shm_store"]["used_bytes"] == 0
        assert stats["shm_store"]["num_objects"] == 0
        assert stats["objects"]["released"] >= 4 * 500 + 50_000


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["proc", "dist"])
def test_10k_large_objects_and_a_million_ticks(backend):
    with session(backend) as runtime:
        checkpoints, seconds = _soak(runtime, backend, rounds=2500, ticks=1_000_000)
        _check(checkpoints, seconds, backend)
