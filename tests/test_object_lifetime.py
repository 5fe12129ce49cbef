"""Dead objects give their memory back, and live ones never lose it.

On ``proc`` and ``dist`` an object lives exactly as long as something the
driver can see still needs it: a live ``ObjectRef`` handle, a submitted
task that takes it as an argument, a worker task that could still name
it, a zero-copy value that aliases its arena slot — or it *escaped* (its
ref was pickled into bytes, or a worker kept one past its task) and is
pinned until shutdown.  Every case here observes releases through
``stats()["objects"]`` after ``del`` + ``gc.collect()``, and every case
that keeps something reads it back afterwards.
"""

import contextlib
import copy
import gc
import os
import pickle
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import object_ref
from repro.core.object_ref import ObjectRef, RefLedger
from repro.errors import TaskCancelledError
from repro.gcs import ControlStore
from repro.utils.ids import ObjectID

pytestmark = pytest.mark.timeout(180)

POOLS = {
    "proc": {"backend": "proc", "num_workers": 2},
    "dist": {"backend": "dist", "num_nodes": 2, "num_cpus": 1},
}

wire = pytest.mark.parametrize("backend", ["proc", "dist"])

#: One MiB of float64: takes the shared-memory data plane.
BIG = (1 << 20) // 8


@contextlib.contextmanager
def session(backend, **options):
    runtime = repro.init(seed=17, **{**POOLS[backend], **options})
    try:
        yield runtime
    finally:
        repro.shutdown()


def objects(runtime):
    """``stats()["objects"]`` once every dead handle has been collected."""
    gc.collect()
    return runtime.stats()["objects"]


def _await(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} never happened")
        time.sleep(0.005)


def _settled(runtime, **expected):
    """Wait until the object counts read as ``expected`` (a completion a
    test did not wait for is applied a moment after it could be)."""
    _await(
        lambda: all(objects(runtime)[k] == v for k, v in expected.items()),
        f"objects {expected} (last: {objects(runtime)})",
    )


def _runs(directory, index):
    path = os.path.join(directory, str(index))
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return len(handle.readlines())


def _mark(directory, index):
    with open(os.path.join(directory, str(index)), "a") as handle:
        handle.write("run\n")


def _churn(count):
    """``count`` further one-MiB objects through the data plane, each dead
    before the next is made: whatever space a release gave back is
    reused many times over."""

    @repro.remote
    def produce(n, fill):
        return np.full(n, fill)

    for i in range(count):
        if i % 2:
            value = repro.get(produce.remote(BIG, float(i)), timeout=60.0)
        else:
            value = repro.get(repro.put(np.full(BIG, float(i))), timeout=60.0)
        assert value[0] == i and value[-1] == i


# ----------------------------------------------------------------------
# What is released, and when
# ----------------------------------------------------------------------


@wire
def test_ref_that_dies_before_its_result_arrives_releases_on_arrival(backend, tmp_path):
    @repro.remote
    def slow(directory):
        time.sleep(0.3)
        _mark(directory, 0)
        return 7

    with session(backend) as runtime:
        base = objects(runtime)
        ref = slow.remote(str(tmp_path))
        del ref
        assert objects(runtime)["released"] == base["released"]  # nothing yet
        # Fire-and-forget still runs: the task was submitted, so it runs.
        _await(lambda: _runs(str(tmp_path), 0) == 1, "the forgotten task")
        _settled(runtime, live=base["live"], released=base["released"] + 1)


@wire
def test_chain_frees_both_intermediates_and_empties_the_arena(backend):
    @repro.remote
    def produce(n, fill):
        return np.full(n, fill)

    @repro.remote
    def transform(array):
        return array + 1.0

    @repro.remote
    def consume(array):
        return float(array[0]) + float(array[-1]) + float(array.shape[0])

    with session(backend) as runtime:
        base = objects(runtime)
        for i in range(5):
            end = consume.remote(transform.remote(produce.remote(BIG, float(i))))
            assert repro.get(end, timeout=60.0) == 2.0 * (i + 1.0) + BIG
        del end
        _settled(
            runtime, live=base["live"], released=base["released"] + 15,
            pinned_by_tasks=0, zombies=0,
        )
        stats = runtime.stats()
        assert stats["shm"]["pipe_fallbacks"] == 0
        if backend == "proc":
            assert stats["shm_store"]["used_bytes"] == 0
            assert stats["shm_store"]["num_objects"] == 0
        else:
            assert stats["cluster"]["objects_node_resident"] == 0


@wire
def test_num_returns_releases_all_but_the_ref_kept(backend):
    @repro.remote(num_returns=3)
    def three(x):
        return x, x + 1, x + 2

    with session(backend) as runtime:
        base = objects(runtime)
        a, b, c = three.remote(10)
        assert repro.get([a, b, c], timeout=60.0) == [10, 11, 12]
        del a, c
        _settled(runtime, live=base["live"] + 1, released=base["released"] + 2)
        assert repro.get(b, timeout=60.0) == 11
        del b
        _settled(runtime, live=base["live"], released=base["released"] + 3)


@wire
def test_wait_then_drop(backend):
    @repro.remote
    def after(delay, x):
        time.sleep(delay)
        return x

    with session(backend) as runtime:
        base = objects(runtime)
        refs = [after.remote(0.0, 1), after.remote(0.4, 2)]
        ready, pending = repro.wait(refs, num_returns=1, timeout=60.0)
        assert repro.get(ready, timeout=60.0) == [1]
        del refs, ready, pending  # one has its value, one does not yet
        _settled(runtime, live=base["live"], released=base["released"] + 2)


@wire
def test_cancel_then_drop(backend):
    @repro.remote
    def gate(delay):
        time.sleep(delay)
        return 1

    @repro.remote
    def behind(x):
        return x + 1

    with session(backend) as runtime:
        base = objects(runtime)
        head = gate.remote(0.5)
        ref = behind.remote(head)
        assert repro.cancel(ref)
        with pytest.raises(TaskCancelledError):
            repro.get(ref, timeout=60.0)
        del ref, head
        # The marker, and the argument the cancelled task had pinned.
        _settled(
            runtime, live=base["live"], released=base["released"] + 2,
            pinned_by_tasks=0,
        )


@wire
def test_a_spec_does_not_keep_its_arguments_alive(backend):
    @repro.remote
    def add(x, y=0):
        return x + y

    with session(backend) as runtime:
        base = objects(runtime)
        x, y = repro.put(1), repro.put(2)
        total = add.remote(x, y=y)
        pinned = objects(runtime)["pinned_by_tasks"]
        assert repro.get(total, timeout=60.0) == 3
        del x, y
        assert pinned in (0, 2)  # 0 only if the task had finished already
        _settled(
            runtime, live=base["live"] + 1, released=base["released"] + 2,
            pinned_by_tasks=0,
        )
        assert repro.get(total, timeout=60.0) == 3


# ----------------------------------------------------------------------
# What escapes, and stays
# ----------------------------------------------------------------------


@wire
def test_refs_that_were_pickled_escape_and_survive_churn(backend):
    @repro.remote
    def first_of(refs):
        return repro.get(refs[0], timeout=60.0)[3]

    @repro.remote
    def make():
        @repro.remote
        def produce(n, fill):
            return np.full(n, fill)

        return [produce.remote(n, 5.0) for n in ((1 << 20) // 8, 4)]

    with session(backend) as runtime:
        base = objects(runtime)
        nested = repro.put(np.full(BIG, 3.0))
        assert repro.get(first_of.remote([nested]), timeout=60.0) == 3.0
        returned = repro.get(make.remote(), timeout=60.0)
        captured = repro.put(np.full(BIG, 4.0))

        @repro.remote
        def closure():
            return repro.get(captured, timeout=60.0)[-1]

        assert repro.get(closure.remote(), timeout=60.0) == 4.0
        ids = [nested.object_id, captured.object_id] + [r.object_id for r in returned]
        del nested, captured, returned
        assert objects(runtime)["escaped"] == base["escaped"] + 4
        _churn(40)
        # Every one of them is still there for a ref made from its bytes.
        values = repro.get([ObjectRef(object_id) for object_id in ids], timeout=60.0)
        assert [float(v[0]) for v in values] == [3.0, 4.0, 5.0, 5.0]
        assert bool(np.all(values[0] == 3.0)) and bool(np.all(values[2] == 5.0))


@wire
def test_worker_born_refs_kept_in_actor_state_survive(backend):
    @repro.remote
    class Keeper:
        def start(self, n):
            @repro.remote
            def produce(n, fill):
                return np.full(n, fill)

            self.kept = [produce.remote(n, float(i)) for i in range(3)]
            self.put = repro.put(np.full(n, 9.0))
            return len(self.kept)

        def read(self):
            values = repro.get(self.kept + [self.put], timeout=60.0)
            return [float(v[0]) + float(v[-1]) for v in values]

    with session(backend) as runtime:
        base = objects(runtime)
        keeper = Keeper.remote()
        assert repro.get(keeper.start.remote(BIG), timeout=60.0) == 3
        assert objects(runtime)["escaped"] == base["escaped"] + 4
        _churn(40)
        assert repro.get(keeper.read.remote(), timeout=60.0) == [0.0, 2.0, 4.0, 18.0]
        _churn(10)
        assert repro.get(keeper.read.remote(), timeout=60.0) == [0.0, 2.0, 4.0, 18.0]


@wire
def test_nested_fanout_leaves_go_at_the_roots_done(backend):
    @repro.remote
    def leaf(x):
        return x + 1

    @repro.remote
    def fan_out(base, n):
        refs = [leaf.remote(base + i) for i in range(n)]
        return sum(repro.get(refs, timeout=60.0))

    with session(backend) as runtime:
        base = objects(runtime)
        assert repro.get(fan_out.remote(0, 50), timeout=60.0) == sum(range(1, 51))
        _settled(
            runtime, live=base["live"], released=base["released"] + 51,
            escaped=base["escaped"],
        )


# ----------------------------------------------------------------------
# Zero-copy values outlive their ref, their task and their object
# ----------------------------------------------------------------------


def test_driver_value_outlives_its_ref_and_300_reuses_of_the_arena():
    with session("proc") as runtime:
        expected = np.arange(BIG, dtype=np.float64)
        ref = repro.put(expected.copy())
        kept = repro.get(ref, timeout=60.0)
        assert not kept.flags.writeable  # it aliases the arena
        del ref
        leased = objects(runtime)
        assert (leased["leased"], leased["zombies"]) == (1, 1)
        _churn(300)
        assert bool(np.all(kept == expected))
        del kept
        _churn(2)  # the next allocation reaps the zombie
        after = objects(runtime)
        assert (after["leased"], after["zombies"], after["live"]) == (0, 0, 0)
        assert runtime.stats()["shm_store"]["used_bytes"] == 0


@wire
def test_actor_that_keeps_a_zero_copy_argument_reads_it_after_churn(backend):
    @repro.remote
    class Holder:
        def keep(self, array):
            self.array = array  # aliases the arena: no copy was made
            return array.flags.writeable

        def matches(self, start):
            expected = np.arange(start, start + self.array.shape[0], dtype=np.float64)
            return bool(np.all(self.array == expected))

    with session(backend) as runtime:
        holder = Holder.remote()
        ref = repro.put(np.arange(7.0, 7.0 + BIG))
        writeable = repro.get(holder.keep.remote(ref), timeout=60.0)
        del ref
        _churn(300)
        assert repro.get(holder.matches.remote(7.0), timeout=60.0)
        if backend == "proc":
            assert writeable is False
            assert objects(runtime)["zombies"] == 1  # the slot, not the object


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------


@wire
def test_kill_worker_mid_chain_after_intermediates_were_released(backend, tmp_path):
    directory = str(tmp_path)

    @repro.remote
    def stage(directory, index, array, delay=0.0):
        with open(os.path.join(directory, str(index)), "a") as handle:
            handle.write("run\n")
        time.sleep(delay)
        return array + 1.0

    with session(backend) as runtime:
        first = stage.remote(directory, 0, np.full(BIG, 0.0))
        second = stage.remote(directory, 1, first)
        assert repro.get(second, timeout=60.0)[0] == 2.0
        del first  # released: the chain below must not need it again
        _settled(runtime, pinned_by_tasks=0)
        third = stage.remote(directory, 2, second, delay=1.0)
        del second  # alive only through the running task's pin
        _await(lambda: _runs(directory, 2) >= 1, "the third stage")
        for index in range(runtime.stats()["num_workers"]):
            runtime.kill_worker(index)
        value = repro.get(third, timeout=60.0)
        assert value[0] == 3.0 and value[-1] == 3.0
        replays = runtime.stats()["lineage_replays"]
        assert replays >= 1
        assert (_runs(directory, 0), _runs(directory, 1)) == (1, 1)
        assert _runs(directory, 2) <= 1 + replays


def test_dist_kill_node_rebuilds_a_result_whose_argument_is_still_pinned(tmp_path):
    directory = str(tmp_path)

    @repro.remote
    def grow(directory, array):
        with open(os.path.join(directory, "grow"), "a") as handle:
            handle.write("run\n")
        return array + 1.0

    with session("dist") as runtime:
        base = objects(runtime)
        source = repro.put(np.full(BIG, 1.0))
        result = grow.remote(directory, source)
        repro.wait([result], timeout=60.0)
        del source
        stats = runtime.stats()
        assert stats["cluster"]["objects_node_resident"] == 1
        # The result lives on a node only: losing the node re-runs the
        # task, so its argument stays although its last handle is gone.
        held = objects(runtime)
        assert held["pinned_by_tasks"] == 1
        assert held["live"] == base["live"] + 2
        owner = next(
            node["node_index"] for node in stats["cluster"]["per_node"]
            if node["objects_resident"]
        )
        runtime.kill_node(owner)
        value = repro.get(result, timeout=60.0)
        assert value[0] == 2.0 and value[-1] == 2.0
        assert _runs(directory, "grow") == 2
        # Pulled into the driver store: nothing can replay it any more.
        _settled(runtime, pinned_by_tasks=0, live=base["live"] + 1)


@wire
def test_recovered_driver_keeps_every_restored_object(backend):
    @repro.remote
    def square(x):
        return x * x

    @repro.remote
    def slow_square(x):
        time.sleep(0.5)
        return x * x

    store = ControlStore(num_shards=2)
    runtime = repro.init(seed=17, control_store=store, **POOLS[backend])
    done = [square.remote(i) for i in range(6)]
    assert repro.get(done, timeout=60.0) == [i * i for i in range(6)]
    pending = [slow_square.remote(i) for i in range(4)]
    runtime.fail_driver()
    repro.shutdown()

    recovered = repro.init(seed=17, control_store=store, recover=True, **POOLS[backend])
    try:
        assert objects(recovered)["escaped"] >= 10
        # The old handles are not this runtime's, yet every value is there
        # — now, and after the new runtime has released plenty of its own.
        assert repro.get(pending, timeout=60.0) == [i * i for i in range(4)]
        more = [square.remote(i) for i in range(50)]
        assert repro.get(more, timeout=60.0) == [i * i for i in range(50)]
        del more
        assert objects(recovered)["released"] >= 50
        assert repro.get(done, timeout=60.0) == [i * i for i in range(6)]
    finally:
        repro.shutdown()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


@wire
def test_actor_pool_burst_returns_the_store_to_baseline(backend):
    class Echo:
        def __call__(self, batch):
            return batch

    with session(backend) as runtime:
        pool = repro.ActorPool(Echo, size=2, max_batch_size=8, batch_wait_ms=1.0)
        assert pool.map(range(16), timeout=60.0) == list(range(16))
        base = objects(runtime)
        futures = [pool.submit(i) for i in range(2000)]
        assert [f.result(timeout=60.0) for f in futures] == list(range(2000))
        del futures
        # Per replica, the last call's result stays as the next call's
        # ordering dependency; everything else is gone.
        _await(
            lambda: objects(runtime)["live"] <= base["live"] + 2,
            "the burst's results to be released",
        )
        assert runtime.stats()["objects_stored"] <= base["live"] + 2
        pool.close()


def test_futures_hold_their_ref_until_they_have_the_value():
    @repro.remote
    def after(delay, x):
        time.sleep(delay)
        return x

    with session("proc") as runtime:
        future = after.remote(0.3, 5).future()  # the ref itself is dropped
        gc.collect()
        assert future.result(timeout=60.0) == 5
        _settled(runtime, live=0)


# ----------------------------------------------------------------------
# stats() and the fallback warning
# ----------------------------------------------------------------------


@wire
def test_objects_block_has_the_same_keys_everywhere(backend):
    with session(backend) as runtime:
        assert set(runtime.stats()["objects"]) == {
            "live", "released", "escaped", "leased", "zombies", "pinned_by_tasks",
        }


def test_first_fallback_to_the_pipe_warns_once_with_arena_occupancy():
    with session("proc", shm_capacity=4 * (1 << 20)) as runtime:
        kept = [repro.put(np.full(BIG, float(i))) for i in range(3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spilled = [repro.put(np.full(BIG, float(i))) for i in range(3, 6)]
        ours = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(ours) == 1  # the first one only
        text = str(ours[0].message)
        assert "3 resident objects" in text and "takes the pipe" in text
        assert "escaped" in text and "leased" in text and "zombies" in text
        assert runtime.stats()["shm"]["pipe_fallbacks"] == 3
        values = repro.get(kept + spilled, timeout=60.0)
        assert [float(v[0]) for v in values] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


# ----------------------------------------------------------------------
# The handle count itself
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["create", "copy", "roundtrip", "del"]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=60,
    )
)
def test_ledger_counts_exactly_the_live_instances(steps):
    ledger = RefLedger()
    previous = object_ref.install_ledger(ledger)
    try:
        ids = [ObjectID(f"{i:040x}") for i in range(4)]
        alive, escaped, pickled = [], set(), set()
        for action, which, pick in steps:
            if action == "create":
                alive.append(ObjectRef(ids[which]))
            elif alive and action == "copy":
                alive.append(copy.copy(alive[pick % len(alive)]))
            elif alive and action == "roundtrip":
                pickled.add(alive[pick % len(alive)].object_id.hex)
                alive.append(pickle.loads(pickle.dumps(alive[pick % len(alive)])))
            elif alive and action == "del":
                del alive[pick % len(alive)]
            if pick % 7 == 0:  # drain at arbitrary points, not only at the end
                ledger.drain(escaped)
        ledger.drain(escaped)
        expected = {}
        for ref in alive:
            expected[ref.object_id.hex] = expected.get(ref.object_id.hex, 0) + 1
        assert ledger.counts == expected
        assert escaped == pickled  # a copy is a handle; only bytes escape
    finally:
        del alive
        object_ref.install_ledger(previous)


def test_a_ref_outliving_its_runtime_does_not_touch_the_next_ones_counts():
    with session("proc"):
        stale = repro.put(1)
    with session("proc") as runtime:  # same seed: the same ids again
        fresh = repro.put(2)
        assert stale.object_id == fresh.object_id
        del stale
        assert objects(runtime)["live"] == 1
        assert repro.get(fresh, timeout=60.0) == 2
