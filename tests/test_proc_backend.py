"""Proc-backend specifics: true parallelism, the serialization boundary,
the shared-memory data plane, capability flags, and init-option
validation.

Cross-backend semantics are covered by the parity matrix
(``test_backend_parity.py``) and crash recovery by
``test_fault_tolerance.py``; this file tests what is *unique* to the
multiprocess backend.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.core.backend import Backend, backend_capabilities, registered_backends
from repro.errors import BackendError, TaskCancelledError
from repro.shm.segment import shm_available
from repro.utils.serialization import DEFAULT_INLINE_THRESHOLD, should_inline

#: Comfortably above the inline threshold: these payloads must take the
#: data plane (shm descriptors), not the pipe.
LARGE = DEFAULT_INLINE_THRESHOLD * 4

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="host has no POSIX shared memory"
)


@repro.remote
def my_pid():
    return os.getpid()


@repro.remote
def payload_len(data):
    return len(data)


@repro.remote
def spawn_child(n):
    return my_pid.remote()


# ----------------------------------------------------------------------
# Registration and capabilities
# ----------------------------------------------------------------------


def test_proc_backend_registered():
    assert "proc" in registered_backends()


def test_capability_flags():
    proc = backend_capabilities("proc")
    assert proc.true_parallelism and proc.multiprocess and proc.fault_injection
    assert not proc.virtual_time
    sim = backend_capabilities("sim")
    assert sim.virtual_time and sim.fault_injection
    assert not sim.true_parallelism
    local = backend_capabilities("local")
    assert not local.true_parallelism       # threads share one GIL
    # The two-level plane dispatches proc; threads need one ready list.
    assert proc.bottom_up_scheduling and not local.bottom_up_scheduling
    with pytest.raises(BackendError, match="unknown backend"):
        backend_capabilities("does-not-exist")


def test_proc_runtime_satisfies_backend_protocol():
    runtime = repro.init(backend="proc", num_workers=1)
    try:
        assert isinstance(runtime, Backend)
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# True multiprocess execution
# ----------------------------------------------------------------------


def test_tasks_run_in_worker_processes_not_the_driver():
    runtime = repro.init(backend="proc", num_workers=2)
    try:
        pids = set(repro.get([my_pid.remote() for _ in range(8)]))
        assert os.getpid() not in pids
        assert pids <= set(runtime.worker_pids())
    finally:
        repro.shutdown()


def test_nested_submission_from_worker_process():
    repro.init(backend="proc", num_workers=2)
    try:
        inner_ref = repro.get(spawn_child.remote(1))
        assert repro.get(inner_ref) != os.getpid()
    finally:
        repro.shutdown()


def test_worker_pool_size_and_pids():
    runtime = repro.init(backend="proc", num_workers=3)
    try:
        pids = runtime.worker_pids()
        assert len(pids) == 3
        assert len(set(pids)) == 3
        assert runtime.stats()["num_workers"] == 3
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# The serialization boundary: inline vs store, worker-side caching
# ----------------------------------------------------------------------


def test_inline_threshold_helper():
    assert should_inline(0)
    assert should_inline(DEFAULT_INLINE_THRESHOLD)
    assert not should_inline(DEFAULT_INLINE_THRESHOLD + 1)
    assert not should_inline(100, threshold=50)


def test_small_arguments_ship_inline():
    runtime = repro.init(backend="proc", num_workers=1)
    try:
        small = repro.put(b"tiny")
        assert repro.get(payload_len.remote(small)) == 4
        stats = runtime.stats()
        assert stats["args_inlined"]["count"] >= 1
        assert stats["args_fetched"]["count"] == 0
    finally:
        repro.shutdown()


def test_large_arguments_take_store_path_and_cache():
    """A >threshold argument is fetched once and then served from the
    worker's LocalObjectStore cache for subsequent tasks.  (Pipe-path
    mechanics: shm off, else the data plane serves these zero-copy.)"""
    runtime = repro.init(backend="proc", num_workers=1, shm_capacity=0)
    try:
        blob = b"x" * (DEFAULT_INLINE_THRESHOLD * 3)
        big = repro.put(blob)
        assert repro.get(payload_len.remote(big)) == len(blob)
        assert repro.get(payload_len.remote(big)) == len(blob)
        stats = runtime.stats()
        assert stats["args_stored"]["count"] == 2   # marked store-path twice
        assert stats["args_fetched"]["count"] == 1  # but fetched only once
        assert stats["args_fetched"]["max_bytes"] >= len(blob)
    finally:
        repro.shutdown()


def test_custom_inline_threshold():
    # shm off: a zero threshold would otherwise route every object —
    # however tiny — through the data plane instead of FETCH.
    runtime = repro.init(
        backend="proc", num_workers=1, inline_threshold=0, shm_capacity=0
    )
    try:
        ref = repro.put(b"xy")
        assert repro.get(payload_len.remote(ref)) == 2
        stats = runtime.stats()
        assert stats["args_inlined"]["count"] == 0
        assert stats["args_fetched"]["count"] == 1
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# The shared-memory data plane (zero-copy large objects)
# ----------------------------------------------------------------------


@repro.remote
def echo_len_and_first(data):
    return (len(data), bytes(data[:4]))


@repro.remote
def make_blob(n):
    return b"R" * n


@repro.remote
def put_blob(n):
    return repro.put(b"P" * n)


@repro.remote
def hold_shm_arg(data, marker_path):
    """Touches a large (shm-resident) argument, signals, then sleeps —
    the kill window in which this worker holds a refcount."""
    open(marker_path, "w").close()
    time.sleep(120.0)
    return len(data)


def _await_marker(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"marker {path} never appeared")
        time.sleep(0.01)


def _segments_on_disk(names):
    """Attach-probe which segment names still exist (portable: /dev/shm
    is a Linux detail; macOS POSIX shm has no filesystem view)."""
    from repro.shm.segment import SharedSegment

    alive = []
    for name in names:
        try:
            probe = SharedSegment.attach(name)
        except FileNotFoundError:
            continue
        probe.close()
        alive.append(name)
    return alive


@needs_shm
class TestShmDataPlane:
    def test_shm_capability_flag(self):
        assert backend_capabilities("proc").shared_memory
        assert not backend_capabilities("sim").shared_memory
        assert not backend_capabilities("local").shared_memory

    def test_shm_large_put_and_arg_are_zero_copy(self):
        """A large put and its consumption cross the pipe as descriptors:
        shm_hits count them, and no large bytes are inlined or fetched."""
        runtime = repro.init(backend="proc", num_workers=1)
        assert runtime.stats()["shm_enabled"]
        big = repro.put(b"S" * LARGE)
        assert repro.get(echo_len_and_first.remote(big), timeout=60.0) == (
            LARGE, b"SSSS"
        )
        stats = runtime.stats()
        assert stats["shm"]["shm_hits"] >= 2       # the put + the attach
        assert stats["shm"]["zero_copy_bytes"] >= LARGE
        assert stats["shm"]["pipe_fallbacks"] == 0
        assert stats["args_fetched"]["count"] == 0  # nothing crossed as bytes

    def test_shm_large_result_and_driver_get(self):
        """A large result is written into shm by the worker and read
        zero-copy by the driver; RESULT ships only a descriptor."""
        runtime = repro.init(backend="proc", num_workers=1)
        blob = repro.get(make_blob.remote(LARGE), timeout=60.0)
        assert len(blob) == LARGE and blob[:2] == b"RR"
        stats = runtime.stats()
        assert stats["shm"]["shm_hits"] >= 2       # worker write + driver read
        # The pipe's result ledger saw only small control traffic.
        assert stats["results_shipped"]["max_bytes"] < DEFAULT_INLINE_THRESHOLD

    def test_shm_worker_side_put(self):
        """repro.put of a large value *inside* a task takes the
        SHM_CREATE path (its seal rides the notice); the driver then
        reads it zero-copy."""
        runtime = repro.init(backend="proc", num_workers=1)
        inner = repro.get(put_blob.remote(LARGE), timeout=60.0)
        assert repro.get(inner, timeout=60.0) == b"P" * LARGE
        assert runtime.stats()["shm"]["pipe_fallbacks"] == 0

    def test_shm_numpy_array_aliases_shared_memory(self):
        numpy = pytest.importorskip("numpy")

        @repro.remote
        def make_array(n):
            return numpy.arange(n, dtype=numpy.float64)

        repro.init(backend="proc", num_workers=1)
        array = repro.get(make_array.remote(100_000), timeout=60.0)
        assert array[-1] == 99_999.0
        assert array.base is not None              # a view over the arena
        assert not array.flags.writeable           # sealed ⇒ read-only

    def test_shm_broadcast_fetches_no_bytes(self):
        """N consumers of one large object: every worker attaches the
        same arena — zero per-consumer byte fetches."""
        runtime = repro.init(backend="proc", num_workers=2)
        big = repro.put(b"B" * LARGE)
        refs = [echo_len_and_first.remote(big) for _ in range(6)]
        assert set(repro.get(refs, timeout=60.0)) == {(LARGE, b"BBBB")}
        stats = runtime.stats()
        assert stats["args_fetched"]["count"] == 0
        assert stats["shm"]["shm_hits"] >= 7       # put + 6 attaches

    def test_shm_disabled_parity_same_observables(self):
        """The acceptance matrix: one workload, shm on vs off, identical
        observable results (only the stats ledger may differ)."""
        def workload():
            big = repro.put(b"W" * LARGE)
            first = echo_len_and_first.remote(big)
            chained = make_blob.remote(8)
            out = [
                repro.get(first, timeout=60.0),
                repro.get(chained, timeout=60.0),
                repro.get(repro.get(put_blob.remote(100), timeout=60.0)),
            ]
            with pytest.raises(repro.TaskError, match="boom"):
                repro.get(fail_with.remote("boom"), timeout=60.0)
            return out

        @repro.remote
        def fail_with(message):
            raise ValueError(message)

        runtime = repro.init(backend="proc", num_workers=2)
        with_shm = workload()
        assert runtime.stats()["shm_enabled"]
        repro.shutdown()
        runtime = repro.init(backend="proc", num_workers=2, shm_capacity=0)
        without_shm = workload()
        assert not runtime.stats()["shm_enabled"]
        assert with_shm == without_shm

    def test_shm_budget_overflow_falls_back_to_pipe(self):
        """A data plane smaller than the object: the put still succeeds
        (pipe path) and the fallback is counted."""
        runtime = repro.init(
            backend="proc", num_workers=1, shm_capacity=LARGE // 2
        )
        big = repro.put(b"F" * LARGE)
        assert repro.get(echo_len_and_first.remote(big), timeout=60.0) == (
            LARGE, b"FFFF"
        )
        stats = runtime.stats()
        assert stats["shm"]["pipe_fallbacks"] >= 1
        assert stats["args_stored"]["count"] >= 1  # took the byte path

    def test_shm_worker_crash_reclaims_refcounts(self, tmp_path):
        """Regression (the reaper): a worker SIGKILLed while holding shm
        refcounts must not strand the object — the driver zeroes the dead
        pid's column, the object stays readable, and the pool heals."""
        runtime = repro.init(backend="proc", num_workers=1)
        big = repro.put(b"C" * LARGE)
        marker = str(tmp_path / "holding")
        ref = hold_shm_arg.options(max_reconstructions=0).remote(big, marker)
        _await_marker(marker)
        object_id = big.object_id
        assert runtime._objects.shm.refcount(object_id) >= 1  # held mid-read
        runtime.kill_worker(0)
        with pytest.raises(repro.WorkerCrashedError):
            repro.get(ref, timeout=60.0)
        # The reaper reclaimed the dead worker's refcount column...
        assert runtime._objects.shm.refcount(object_id) == 0
        # ...the object is still intact for the healed pool:
        assert repro.get(echo_len_and_first.remote(big), timeout=60.0) == (
            LARGE, b"CCCC"
        )
        assert runtime.stats()["workers_crashed"] == 1

    def test_shm_shutdown_leaves_zero_segments(self):
        """Acceptance: repro.shutdown() leaves no shared-memory segments
        behind — including after a worker crash."""
        runtime = repro.init(backend="proc", num_workers=2)
        repro.put(b"L" * LARGE)
        repro.get(make_blob.remote(LARGE), timeout=60.0)
        names = runtime._objects.shm.segment_names()
        assert _segments_on_disk(names) == list(names)
        runtime.kill_worker(0)                     # crash does not leak
        repro.get(my_pid.remote(), timeout=60.0)   # pool healed
        repro.shutdown()
        assert _segments_on_disk(names) == []

    def test_shm_invalid_capacity_rejected(self):
        with pytest.raises(BackendError, match="shm_capacity"):
            repro.init(backend="proc", shm_capacity=-1)
        assert not repro.is_initialized()


# ----------------------------------------------------------------------
# Init-option validation (named kwarg, valid options listed)
# ----------------------------------------------------------------------


@repro.remote
class PickleCounter:
    """Counts, in its own worker process, how often the serializer
    pickles an ndarray: ``arm`` swaps the ``pickle`` name the
    serialization module calls for a counting stand-in."""

    def arm(self):
        import pickle
        import types

        import numpy as np

        from repro.utils import serialization

        self.dumps = 0

        def dumps(value, *args, **kwargs):
            self.dumps += isinstance(value, np.ndarray)
            return pickle.dumps(value, *args, **kwargs)

        serialization.pickle = types.SimpleNamespace(
            dumps=dumps, loads=pickle.loads, PickleBuffer=pickle.PickleBuffer
        )

    def small_array(self):
        import numpy as np

        return np.arange(8, dtype=np.float64)  # 64 bytes of payload

    def put_small_array(self):
        return [repro.put(self.small_array())]

    def count(self):
        return self.dumps


@pytest.mark.parametrize(
    "init",
    [dict(backend="proc", num_workers=1),
     dict(backend="dist", num_nodes=1, num_cpus=1)],
    ids=["proc", "dist"],
)
def test_small_buffer_bearing_value_is_pickled_once(init):
    """A small ndarray result (or worker-side put) on a shm-enabled
    worker is split to learn its size, found under the inline threshold,
    and goes by pipe — joined from the parts, not pickled again."""
    import numpy as np

    repro.init(**init)
    counter = PickleCounter.remote()
    repro.get(counter.arm.remote(), timeout=60.0)
    result = repro.get(counter.small_array.remote(), timeout=60.0)
    assert np.array_equal(result, np.arange(8, dtype=np.float64))
    assert result.dtype == np.float64
    assert repro.get(counter.count.remote(), timeout=60.0) == 1
    (ref,) = repro.get(counter.put_small_array.remote(), timeout=60.0)
    assert np.array_equal(repro.get(ref, timeout=60.0), result)
    assert repro.get(counter.count.remote(), timeout=60.0) == 2


def test_unknown_init_option_is_rejected_not_ignored():
    with pytest.raises(BackendError) as excinfo:
        repro.init(backend="proc", num_wrkers=4)
    message = str(excinfo.value)
    assert "num_wrkers" in message
    assert "num_workers" in message          # the valid options are listed
    assert not repro.is_initialized()


def test_invalid_num_workers_rejected():
    with pytest.raises(BackendError, match="num_workers"):
        repro.init(backend="proc", num_workers=0)
    assert not repro.is_initialized()


# ----------------------------------------------------------------------
# Robustness of the process boundary
# ----------------------------------------------------------------------


def test_unpicklable_return_is_a_task_error_not_a_crash():
    """A result that cannot cross the pipe must surface as TaskError in
    the worker (serialize wraps every pickling failure in TypeError) —
    never kill the process and burn lineage replays."""
    runtime = repro.init(backend="proc", num_workers=1)
    try:
        @repro.remote
        def make_unpicklable():
            return lambda: 1

        with pytest.raises(repro.TaskError, match="not serializable"):
            repro.get(make_unpicklable.remote(), timeout=60.0)
        stats = runtime.stats()
        assert stats["workers_crashed"] == 0
        assert stats["lineage_replays"] == 0
    finally:
        repro.shutdown()


def test_bad_worker_request_does_not_strand_the_worker():
    """A worker's write that blows up on the driver side (here: an
    ActorCall on a handle forged for an unknown actor) must come back as
    an error — the call's result, as the call rides the worker's notice
    — leaving the worker alive for further tasks."""
    repro.init(backend="proc", num_workers=1)
    try:
        from repro.core.actors import ActorHandle
        from repro.utils.ids import ActorID

        forged = ActorHandle(
            actor_id=ActorID.from_seed("no-such-actor"),
            class_name="Ghost",
            method_names=("boo",),
        )

        @repro.remote
        def call_ghost(handle):
            ref = yield repro.ActorCall(handle, "boo", (), {})
            try:
                yield repro.Get(ref)
            except repro.TaskError as exc:
                return f"caught: {type(exc).__name__}", exc.cause_repr
            return "no-error"

        caught, cause = repro.get(call_ghost.remote(forged), timeout=60.0)
        assert caught == "caught: TaskError"
        assert cause.startswith("BackendError('unknown actor")
        # The same worker still serves tasks afterwards.
        assert repro.get(my_pid.remote(), timeout=60.0) != os.getpid()
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_shutdown_is_idempotent_and_closes_submission():
    runtime = repro.init(backend="proc", num_workers=1)
    repro.shutdown()
    runtime.shutdown()                        # second call is a no-op
    assert runtime.closed
    with pytest.raises(BackendError, match="shut down"):
        runtime.put(1)


def test_stats_shape():
    runtime = repro.init(backend="proc", num_workers=2)
    try:
        repro.get([my_pid.remote() for _ in range(4)])
        stats = runtime.stats()
        assert stats["tasks_executed"] == 4
        assert stats["tasks_waiting"] == 0
        assert stats["workers_crashed"] == 0
        assert stats["results_shipped"]["count"] == 4
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# The bottom-up scheduling plane
# ----------------------------------------------------------------------


@repro.remote
def sched_noop(x):
    return x + 1


@repro.remote
def sched_fan(n):
    """Worker-born fan-out whose children have no unresolved deps: every
    child is eligible for the zero-round-trip fast path."""
    return [sched_noop.remote(i) for i in range(n)]


@repro.remote
def sched_chain_fan(n):
    """Children depending on sibling futures: ineligible for the fast
    path (deps unresolved at submit time), so they must spill."""
    refs = [sched_noop.remote(0)]
    for _ in range(n - 1):
        refs.append(sched_noop.remote(refs[-1]))
    return refs


@repro.remote
def write_evidence(path, x):
    with open(path, "w") as handle:
        handle.write("ran")
    return x


@repro.remote
def gated_fan(count, gate_path, evidence_dir):
    """Child 0 blocks on the gate; the rest — evidence-writing tasks —
    sit in the local queue behind it."""

    @repro.remote
    def block_on(path):
        while not os.path.exists(path):
            time.sleep(0.01)
        return "unblocked"

    refs = [block_on.remote(gate_path)]
    refs.extend(
        write_evidence.remote(os.path.join(evidence_dir, f"t{i}"), i)
        for i in range(count)
    )
    return refs


@repro.remote
def gather_then_cancel(n):
    refs = [sched_noop.remote(i) for i in range(n)]
    values = repro.get(refs, timeout=60.0)
    late = [repro.cancel(ref) for ref in refs]
    queued = sched_noop.remote(n)
    return values, late, repro.cancel(queued)


class TestBottomUpScheduling:
    def test_only_a_worker_born_task_that_needs_it_is_adopted(self):
        """Children run where they were born are never adopted by the
        driver, and cancelling one after it ran is too late, as for any
        finished task; a child cancelled while still queued is adopted
        (its spec looked up by its return id) and then cancelled.  Each
        finished task has its ``result_stored`` span either way."""
        runtime = repro.init(backend="proc", num_workers=1, tracing=True)
        try:
            values, late, cancelled = repro.get(
                gather_then_cancel.remote(5), timeout=60.0
            )
            assert values == [1, 2, 3, 4, 5] and late == [False] * 5
            assert cancelled is True
            sched = runtime.stats()["sched"]
            assert (sched["tasks_placed_local"], sched["tasks_adopted"]) == (6, 1)
            stored = runtime.event_log.filter("result_stored")
            assert sorted(record.get("function") for record in stored) == [
                "gather_then_cancel", *["sched_noop"] * 5
            ]
        finally:
            repro.shutdown()

    def test_fast_path_counts_and_zero_spill(self):
        """A dependency-free nested fan-out rides the fast path: every
        child is placed locally, none spill through the driver."""
        runtime = repro.init(backend="proc", num_workers=2)
        try:
            refs = repro.get(sched_fan.remote(12), timeout=60.0)
            assert sorted(repro.get(refs, timeout=60.0)) == list(range(1, 13))
            sched = runtime.stats()["sched"]
            assert sched["tasks_placed_local"] == 12
            assert sched["tasks_spilled"] == 0
        finally:
            repro.shutdown()

    @pytest.mark.parametrize(
        "backend, options",
        [("proc", {"num_workers": 2}), ("dist", {"num_nodes": 2, "num_cpus": 1})],
        ids=["proc", "dist"],
    )
    def test_unresolved_deps_spill_to_the_driver_tier(self, backend, options):
        """Nested submissions depending on sibling futures cannot take
        the fast path; they spill and still compute correctly."""
        runtime = repro.init(backend=backend, **options)
        try:
            refs = repro.get(sched_chain_fan.remote(5), timeout=60.0)
            assert repro.get(refs[-1], timeout=60.0) == 5
            sched = runtime.stats()["sched"]
            assert sched["tasks_spilled"] == 4  # the dependent children
        finally:
            repro.shutdown()

    def test_idle_worker_steals_from_busy_fanout(self):
        """Work stealing spreads a locally-kept fan-out across the pool:
        with two workers, the idle one must execute some of the children
        born on the other.  The children sleep long enough that the
        victim provably cannot drain the queue before the thief's
        request lands (the steal backstop fires every 0.2s)."""

        @repro.remote
        def slow_fan(n):
            @repro.remote
            def dawdle(i):
                time.sleep(0.05)
                return i

            return [dawdle.remote(i) for i in range(n)]

        runtime = repro.init(backend="proc", num_workers=2)
        try:
            refs = repro.get(slow_fan.remote(12), timeout=60.0)
            assert sorted(repro.get(refs, timeout=60.0)) == list(range(12))
            sched = runtime.stats()["sched"]
            assert sched["tasks_placed_local"] == 12
            assert sched["tasks_stolen"] > 0
        finally:
            repro.shutdown()

    def test_blocked_single_worker_self_recovers(self):
        """A worker blocked in get() on its own nested tasks needs no
        spare worker: it finds the producers in its own queue and runs
        them inline before it blocks."""
        repro.init(backend="proc", num_workers=1)
        try:
            @repro.remote
            def blocking_spawner(n):
                refs = [sched_noop.remote(i) for i in range(n)]
                values = yield repro.Get(refs)
                return sum(values)

            assert repro.get(blocking_spawner.remote(4), timeout=60.0) == 10
        finally:
            repro.shutdown()

    def test_cancel_in_local_queue_provably_never_runs(self, tmp_path):
        """Dispatch-time drop inside a worker: cancelling a task that
        sits in a worker's local queue tombstones it via CANCEL_NOTICE
        before the gate opens, so its side-effect sentinel never
        appears.  Pipe FIFO makes this deterministic: the notice is
        queued before the gate file exists."""
        repro.init(backend="proc", num_workers=1)
        try:
            gate = str(tmp_path / "gate")
            evidence = tmp_path / "evidence"
            evidence.mkdir()
            refs = repro.get(
                gated_fan.remote(3, gate, str(evidence)), timeout=60.0
            )
            doomed = refs[2]  # queued behind the gate-blocked child
            assert repro.cancel(doomed) is True
            open(gate, "w").close()
            assert repro.get(refs[0], timeout=60.0) == "unblocked"
            assert repro.get(refs[1], timeout=60.0) == 0
            assert repro.get(refs[3], timeout=60.0) == 2
            with pytest.raises(TaskCancelledError):
                repro.get(doomed, timeout=60.0)
            assert (evidence / "t0").exists()
            assert (evidence / "t2").exists()
            assert not (evidence / "t1").exists()  # the cancelled child
        finally:
            repro.shutdown()

    def test_locality_aware_placement_prefers_resident_worker(self):
        """Driver-tier placement scores residency: after one worker has
        fetched a large argument, further tasks over the same argument
        prefer that worker (placement_locality_hits counts them)."""
        runtime = repro.init(backend="proc", num_workers=2)
        try:
            big = repro.put(list(range(50_000)))  # far above inline
            for _ in range(4):
                assert repro.get(payload_len.remote(big), timeout=60.0) == 50_000
            sched = runtime.stats()["sched"]
            assert sched["placement_locality_hits"] >= 1
        finally:
            repro.shutdown()



_EXIT_WITHOUT_SHUTDOWN = textwrap.dedent(
    """
    import numpy as np
    import repro

    if __name__ == "__main__":
        runtime = repro.init(backend="proc", num_workers=1)
        repro.get(repro.put(np.ones(8 << 20, dtype=np.uint8)))
        print(runtime._objects.shm.name_prefix, flush=True)
    """
)


@needs_shm
@repro.remote
def linger(seconds):
    time.sleep(seconds)
    return seconds


@repro.remote
def park_on(path, refs):
    """Say where this runs, then block on ``refs[0]`` (a ref inside a
    list is not an argument dependency: the get parks the task)."""
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    return repro.get(refs[0])


def test_a_worker_dying_with_only_parked_tasks_is_found_at_once(tmp_path):
    """Its process's exit wakes the service thread, which is waiting on
    the runtime cond (nothing of its worker runs, so it is not reading
    the pipe) — the ``proc`` twin of the ``dist`` membership test."""
    runtime = repro.init(backend="proc", num_workers=2, seed=7)
    try:
        assert repro.get([sched_noop.remote(i) for i in range(8)]) == [
            i + 1 for i in range(8)
        ]
        marker = tmp_path / "parent_pid"
        sibling = linger.remote(3.0)
        parent = park_on.remote(str(marker), [sibling])
        deadline = time.monotonic() + 30.0
        while not (
            marker.exists() and marker.read_text()
            and runtime.stats()["sched"]["tasks_parked"] >= 1
        ):
            assert time.monotonic() < deadline, "the parent never parked"
            time.sleep(0.01)
        time.sleep(0.2)
        crashed = runtime.stats()["workers_crashed"]
        os.kill(int(marker.read_text()), signal.SIGKILL)
        killed = time.monotonic()
        while runtime.stats()["workers_crashed"] == crashed:
            assert time.monotonic() - killed < 10.0, "the loss was never found"
            time.sleep(0.002)
        detection = time.monotonic() - killed
        assert detection < 0.5, f"found {detection:.3f} s after the kill"
        # The parent was lost with its worker and replays on a survivor.
        assert repro.get(parent, timeout=60.0) == 3.0
    finally:
        repro.shutdown()


def test_a_driver_that_exits_without_shutdown_leaks_no_segment(tmp_path):
    """``init`` registers an exit hook that shuts a live runtime down, so
    a driver that never calls ``shutdown()`` still releases its arena."""
    script = tmp_path / "driver.py"
    script.write_text(_EXIT_WITHOUT_SHUTDOWN)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    prefix = result.stdout.strip()
    assert prefix
    assert not [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
