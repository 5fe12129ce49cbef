"""Cross-backend parity: one program, identical results on every backend.

The paper's thesis is that the programming model is independent of the
serving system.  These tests make that falsifiable — and keep it
falsifiable as backends are added: the parity workload and every
shared-semantics assertion run once per *registered* backend (sim /
local / proc), and observable results (values, orderings, error types
and provenance) must match exactly.  Only the clocks — and, on ``proc``,
the worker PIDs — may differ.
"""

import threading

import pytest

import repro
from repro.api.runtime_context import get_runtime
from repro.core.backend import registered_backends
from repro.errors import (
    ActorLostError,
    BackendError,
    GetTimeoutError,
    TaskCancelledError,
    TaskError,
)

#: Every backend shipped with the repo; the matrix grows automatically
#: when a new one is registered at import time.
BACKENDS = tuple(sorted(registered_backends()))

#: The reference implementation the others are compared against.
REFERENCE = "sim"

#: The full matrix: every backend (each has one dispatch path).  The
#: parity program must be observably identical across all of them.
CONFIGS = {
    "sim": ("sim", {}),
    "local": ("local", {}),
    "proc": ("proc", {}),
    # Multi-node: two node agents over TCP, one worker per cpu.  The
    # parity program must not be able to tell it is running across
    # process *and* node boundaries.
    "dist": ("dist", {}),
}

#: Configs the cancellation/lifecycle proofs run on (the bottom-up
#: plane moves dispatch-time drops into workers).
LIFECYCLE_CONFIGS = tuple(CONFIGS)


@repro.remote
class Accumulator:
    def __init__(self, start):
        self.total = start

    def add(self, amount):
        self.total += amount
        return self.total

    def total_value(self):
        return self.total


@repro.remote
def square(x):
    return x * x


@repro.remote
def add(x, y):
    return x + y


@repro.remote
def fail(message):
    raise ValueError(message)


@repro.remote
def sleepy(x):
    import time

    time.sleep(1.0)
    return x


@repro.remote(num_returns=3)
def three_slices(x):
    return x, x * 10, x * 100


@repro.remote
def write_sentinel(path, gate):
    with open(path, "w") as handle:
        handle.write("ran")
    return gate


@repro.remote
def poke(handle, amount):
    """Pass an actor handle through a task boundary and call it."""
    ref = yield repro.ActorCall(handle, "add", (amount,), {})
    value = yield repro.Get(ref)
    return value


@repro.remote
def describe(small, big):
    return small["k"], len(big), big[-1]


@repro.remote
class Describer:
    def describe(self, small, big):
        return small["k"], len(big), big[-1]


@repro.remote
def puts_into_children(handle):
    """A task's writes: a small and a large put, passed to a nested child
    and to an actor method."""
    small = repro.put({"k": [1, 2, 3]})
    big = repro.put(list(range(30_000)))
    return (yield repro.Get([describe.remote(small, big), handle.describe.remote(small, big)]))


@repro.remote
def calls_with_no_returns(handle):
    try:
        handle.describe.options(num_returns=0).remote(1)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return "no-error"


def slow_tasks(backend, count):
    """``count`` tasks taking ~1s in the backend's own notion of time."""
    if backend == "sim":
        slow = square.options(duration=1.0)
        return [slow.remote(i) for i in range(count)]
    return [sleepy.remote(i) for i in range(count)]


def run_program(backend, **init_kwargs):
    """The parity workload; returns every observable outcome."""
    outcome = {}
    repro.init(backend=backend, num_nodes=2, num_cpus=2, seed=42, **init_kwargs)
    try:
        # Tasks + dataflow chains.
        refs = [square.remote(i) for i in range(8)]
        outcome["squares"] = repro.get(refs)
        chained = add.remote(add.remote(1, 2), add.remote(3, 4))
        outcome["chained"] = repro.get(chained)
        outcome["duplicate_refs"] = repro.get([chained, chained])

        # Nested task creation (R3).
        @repro.remote
        def parent(n):
            return add.remote(n, n)

        outcome["nested"] = repro.get(repro.get(parent.remote(5)))

        # A nested submission no node can hold fails at ``.remote()``,
        # inside its task, with one text.
        @repro.remote
        def submits_too_big():
            try:
                square.options(num_cpus=64).remote(1)
            except BackendError as exc:
                return type(exc).__name__, str(exc)
            return "no-error"

        outcome["nested_infeasible"] = repro.get(submits_too_big.remote())

        # put / get round-trip, small and large (the proc backend ships
        # small arguments inline and large ones through the store path).
        outcome["put"] = repro.get(repro.put({"k": [1, 2, 3]}))
        big = repro.put(list(range(30_000)))
        outcome["big_len"] = repro.get(add.remote(big, [0])) == list(range(30_000)) + [0]

        # Actors: ordering, state, and handles crossing task boundaries.
        acc = Accumulator.remote(100)
        outcome["actor_series"] = repro.get([acc.add.remote(i) for i in range(5)])
        outcome["actor_total"] = repro.get(acc.total_value.remote())
        outcome["actor_into_task"] = repro.get(add.remote(acc.total_value.remote(), 1))
        outcome["actor_handle_into_task"] = repro.get(poke.remote(acc, 1000))
        outcome["actor_after_poke"] = repro.get(acc.total_value.remote())

        # What a task writes — puts, nested calls, actor calls — and an
        # actor call no backend may submit, refused inside the task.
        describer = Describer.remote()
        outcome["task_puts"] = repro.get(puts_into_children.remote(describer))
        outcome["task_actor_no_returns"] = repro.get(
            calls_with_no_returns.remote(describer)
        )

        # wait: early completion and zero-timeout partial results.
        done_refs = [square.remote(i) for i in range(4)]
        repro.get(done_refs)                      # all complete
        ready, pending = repro.wait(done_refs, num_returns=4, timeout=5.0)
        outcome["wait_ready"] = repro.get(ready)
        outcome["wait_pending_count"] = len(pending)

        # wait: timeout expiry and num_returns=0 against slow tasks.
        slow_refs = slow_tasks(backend, 3)
        ready, pending = repro.wait(slow_refs, num_returns=0)
        outcome["wait_zero_returns"] = (len(ready), len(pending))
        ready, pending = repro.wait(slow_refs, num_returns=3, timeout=0.05)
        outcome["wait_timeout"] = (len(ready), len(pending))

        # Error propagation: type, provenance, and chain survival.
        bad = fail.remote("parity-boom")
        downstream = add.remote(bad, 1)
        far_downstream = add.remote(downstream, 1)
        for key, ref in (
            ("error_direct", bad),
            ("error_downstream", downstream),
            ("error_far_downstream", far_downstream),
        ):
            try:
                repro.get(ref)
                outcome[key] = "no-error"
            except TaskError as exc:
                outcome[key] = (type(exc).__name__, exc.function_name, exc.cause_repr)

        # A failed ref inside a get over a mixed list raises the same way.
        ok = square.remote(3)
        try:
            repro.get([ok, bad])
            outcome["error_in_list"] = "no-error"
        except TaskError as exc:
            outcome["error_in_list"] = (type(exc).__name__, exc.function_name)

        # Method errors don't kill the actor.
        @repro.remote
        class Fragile:
            def __init__(self):
                self.alive_calls = 0

            def crash(self):
                raise RuntimeError("method-boom")

            def ping(self):
                self.alive_calls += 1
                return self.alive_calls

        fragile = Fragile.remote()
        crash_ref = fragile.crash.remote()
        try:
            repro.get(crash_ref)
            outcome["actor_error"] = "no-error"
        except TaskError as exc:
            outcome["actor_error"] = (type(exc).__name__, exc.function_name)
        outcome["actor_survives"] = repro.get(fragile.ping.remote())

        # An actor-method error propagates through dependent tasks too.
        try:
            repro.get(add.remote(fragile.crash.remote(), 1))
            outcome["actor_error_downstream"] = "no-error"
        except TaskError as exc:
            outcome["actor_error_downstream"] = (type(exc).__name__, exc.function_name)

        # Generator effects (the shared effect driver).
        @repro.remote
        def pipeline(x):
            ref = add.remote(x, 1)
            value = yield repro.Get(ref)
            stored = yield repro.Put(value * 10)
            final = yield repro.Get(stored)
            ready, pending = yield repro.Wait([stored], num_returns=1)
            return final + len(ready)

        outcome["effects"] = repro.get(pipeline.remote(5))

        # Task lifecycle (element 8): multiple returns ...
        first, second, third = three_slices.remote(7)
        outcome["multi_return"] = repro.get([first, second, third])
        ready, pending = repro.wait([second], num_returns=1, timeout=5.0)
        outcome["multi_return_waitable"] = (len(ready), len(pending))

        @repro.remote(num_returns=2)
        def wrong_arity(x):
            return x, x, x

        bad_pair = wrong_arity.remote(1)
        try:
            repro.get(bad_pair[0])
            outcome["multi_return_arity"] = "no-error"
        except TaskError as exc:
            outcome["multi_return_arity"] = (
                type(exc).__name__,
                exc.function_name,
                "num_returns=2" in exc.cause_repr,
            )

        # ... cancel: revoked-before-start, too-late, and actor refusal ...
        gate = slow_tasks(backend, 1)[0]
        doomed = add.remote(gate, 1)
        outcome["cancel_took"] = repro.cancel(doomed)
        try:
            repro.get(doomed)
            outcome["cancel_error"] = "no-error"
        except TaskCancelledError as exc:
            outcome["cancel_error"] = (
                type(exc).__name__, exc.function_name, exc.detail
            )
        downstream_of_cancelled = add.remote(doomed, 1)
        try:
            repro.get(downstream_of_cancelled)
            outcome["cancel_downstream"] = "no-error"
        except TaskCancelledError as exc:
            outcome["cancel_downstream"] = (type(exc).__name__, exc.function_name)
        finished = square.remote(6)
        repro.get(finished)
        outcome["cancel_too_late"] = repro.cancel(finished)
        try:
            repro.cancel(acc.add.remote(0))
            outcome["cancel_actor"] = "no-error"
        except ValueError as exc:
            outcome["cancel_actor"] = (
                type(exc).__name__, "actor" in str(exc)
            )

        # ... named actors ...
        named = Accumulator.options(name="parity-acc").remote(5)
        looked_up = repro.get_actor("parity-acc")
        outcome["named_actor"] = repro.get(looked_up.add.remote(3))
        outcome["named_actor_same_chain"] = repro.get(named.total_value.remote())
        try:
            Accumulator.options(name="parity-acc").remote(0)
            outcome["named_collision"] = "no-error"
        except ValueError as exc:
            outcome["named_collision"] = (
                type(exc).__name__, "parity-acc" in str(exc)
            )
        try:
            repro.get_actor("never-created")
            outcome["named_unknown"] = "no-error"
        except ValueError as exc:
            outcome["named_unknown"] = (
                type(exc).__name__, "never-created" in str(exc)
            )

        # Serving plane: async submission/await and ActorPool.  Only
        # batch-timing-invariant observables are compared — *how* calls
        # coalesce depends on the clock, but values, per-call results,
        # and admission counts must be identical everywhere.
        import asyncio

        outcome["async_get"] = asyncio.run(
            repro.get_async(square.remote(9), timeout=60.0)
        )
        outcome["async_get_many"] = asyncio.run(
            repro.get_async([square.remote(i) for i in range(5)], timeout=60.0)
        )

        @repro.remote
        class VecDoubler:
            def __call__(self, batch):
                return [2 * v for v in batch]

        pool = repro.ActorPool(
            VecDoubler, size=2, max_batch_size=3, batch_wait_ms=1.0
        )
        pool_futures = [pool.submit(i) for i in range(10)]
        outcome["pool_batched"] = [f.result(timeout=60.0) for f in pool_futures]
        pool_stats = pool.stats()
        outcome["pool_counts"] = (
            pool_stats["submitted"],
            pool_stats["completed"],
            pool_stats["failed"],
            pool_stats["shed"],
        )
        chain_pool = repro.ActorPool(
            Accumulator, size=1, method="add", args=(0,), max_batch_size=1
        )
        outcome["pool_unbatched_chain"] = [
            chain_pool.submit(1).result(timeout=60.0) for _ in range(4)
        ]

        # A batch whose result is not one value per request fails each
        # of its requests with TaskError naming both lengths (no hang,
        # no bare error), and the pool serves on.  The wait is long
        # enough that three submits in a row always share a batch.
        @repro.remote
        class WrongShape:
            def __call__(self, batch):
                if batch[0] is None:
                    return None  # not a list at all
                if batch[0] < 0:
                    return batch[:-1]  # one value short
                return [2 * v for v in batch]

        shape_pool = repro.ActorPool(
            WrongShape, size=1, max_batch_size=3, batch_wait_ms=100.0
        )

        def shape_outcome(values, declared, got):
            futures = [shape_pool.submit(v) for v in values]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("value", future.result(timeout=60.0)))
                except Exception as exc:  # noqa: BLE001 - recorded
                    text = str(exc)
                    outcomes.append((
                        type(exc).__name__,
                        f"num_returns={declared}" in text and got in text,
                    ))
            return outcomes

        outcome["pool_wrong_shape"] = (
            shape_outcome([None], 1, "NoneType"),
            shape_outcome([-1], 1, "length 0"),
            shape_outcome([-1, -2, -3], 3, "length 2"),
            shape_pool.map([1, 2, 3], timeout=60.0),
        )
        shape_stats = shape_pool.stats()
        outcome["pool_wrong_shape_counts"] = (
            shape_stats["submitted"],
            shape_stats["completed"],
            shape_stats["failed"],
            shape_stats["inflight"],
        )

        # ... and as_completed, over already-complete and timed-out refs.
        finished_refs = [square.remote(i) for i in range(4)]
        repro.get(finished_refs)
        outcome["as_completed_done"] = repro.get(
            list(repro.as_completed(finished_refs, timeout=5.0))
        )
        stuck = slow_tasks(backend, 2)
        try:
            list(repro.as_completed(stuck, timeout=0.05))
            outcome["as_completed_timeout"] = "no-error"
        except GetTimeoutError as exc:
            outcome["as_completed_timeout"] = type(exc).__name__
    finally:
        repro.shutdown()
    return outcome


@pytest.fixture(scope="module")
def program_outcomes():
    """Run the parity workload once per config (shared by the matrix)."""
    return {
        name: run_program(backend, **kwargs)
        for name, (backend, kwargs) in CONFIGS.items()
    }


def test_matrix_covers_all_shipped_backends():
    assert {"sim", "local", "proc", "dist"} <= set(BACKENDS)
    assert {"sim", "local", "proc", "dist"} <= set(CONFIGS)


@pytest.mark.parametrize(
    "config", [name for name in CONFIGS if name != REFERENCE]
)
def test_same_program_same_results(program_outcomes, config):
    assert program_outcomes[config] == program_outcomes[REFERENCE]


def test_control_stats_keys_identical_across_backends():
    """Every backend reports the same ``stats()["control"]`` schema: the
    uniform window into the (modeled or real) sharded control store."""
    key_sets = {}
    for backend in BACKENDS:
        repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=3)
        try:
            repro.get([square.remote(i) for i in range(4)])
            control = get_runtime().stats()["control"]
        finally:
            repro.shutdown()
        key_sets[backend] = set(control)
        assert control["num_shards"] >= 1, backend
        assert control["ops_total"] >= 1, backend
        assert len(control["ops_per_shard"]) == control["num_shards"], backend
        assert control["generation"] >= 1, backend
    reference = key_sets[REFERENCE]
    for backend, keys in key_sets.items():
        assert keys == reference, f"{backend} control stats keys diverge"


def test_sched_stats_keys_identical_across_live_backends():
    """Every backend with a scheduling plane reports the same
    ``stats()["sched"]`` schema; the dispatch-frame counters read 0 where
    there is no wire to frame (local) and count frames where there is."""
    scheds = {}
    for backend in BACKENDS:
        if backend == REFERENCE:
            continue  # the sim models its scheduler; it has no plane
        repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=3)
        try:
            assert repro.get([square.remote(i) for i in range(4)]) == [
                i * i for i in range(4)
            ]
            scheds[backend] = get_runtime().stats()["sched"]
        finally:
            repro.shutdown()
    assert {"local", "proc", "dist"} <= set(scheds)
    for backend, sched in scheds.items():
        assert set(sched) == set(scheds["proc"]), backend
    frame_keys = ("frames_sent", "tasks_shipped", "done_frames")
    assert all(scheds["local"][key] == 0 for key in frame_keys)
    for backend in ("proc", "dist"):
        assert scheds[backend]["tasks_shipped"] >= 4, backend
        assert 1 <= scheds[backend]["frames_sent"] <= 4, backend
        assert scheds[backend]["done_frames"] >= 1, backend


def test_wire_backends_write_the_same_task_states_and_result_spans():
    """``proc`` and ``dist`` apply a completion with one piece of code:
    after the same program the control store holds the same task-state
    histogram and actor states, and a traced run has one
    ``result_stored`` span per finished task on either."""
    observed = {}
    for backend in ("proc", "dist"):
        runtime = repro.init(
            backend=backend, num_nodes=2, num_cpus=1, seed=5, tracing=True
        )
        try:
            refs = [square.remote(i) for i in range(20)]
            counter = Accumulator.remote(1)
            refs += [counter.add.remote(2), fail.remote("on purpose")]
            for ref in refs:
                try:
                    repro.get(ref, timeout=60.0)
                except TaskError:
                    pass
            assert runtime._control.flush(timeout=10.0)
            states = {}
            for entry in runtime._control.tasks():
                states[entry.state] = states.get(entry.state, 0) + 1
            observed[backend] = {
                "tasks": states,
                "actors": [entry.state for entry in runtime._control.actors()],
                "result_stored": len(runtime.event_log.filter("result_stored")),
            }
        finally:
            repro.shutdown()
    # 20 squares + the constructor + one method call finished; one failed.
    assert observed["proc"] == {
        "tasks": {"finished": 22, "failed": 1},
        "actors": ["alive"],
        "result_stored": 23,
    }
    assert observed["dist"] == observed["proc"]


@repro.remote
def square_of_child(x):
    """A task that submits a child and waits for it: on ``proc`` and
    ``dist`` the child is born on the worker."""
    return repro.get(square.remote(x))


def test_one_actor_path_and_one_span_shape_on_every_backend():
    """One actor, created and called three times, leaves the same
    control-store row on all four backends — one, ``alive``, three
    methods submitted — and a traced live run writes each lifecycle
    kind with the same payload keys on every backend, wherever the span
    was recorded (driver, worker thread, worker process)."""
    kinds = (
        "task_submitted", "task_placed", "task_started", "task_finished",
        "result_stored",
    )
    rows, keys = {}, {}
    for backend in BACKENDS:
        runtime = repro.init(
            backend=backend, num_nodes=1, num_cpus=2, seed=3, tracing=True
        )
        try:
            counter = Accumulator.remote(1)
            calls = [counter.add.remote(i) for i in (1, 2, 3)]
            assert repro.get(calls, timeout=60.0) == [2, 4, 7]
            if backend != "sim":
                assert repro.get(square_of_child.remote(3), timeout=60.0) == 9
                assert runtime._control.flush(timeout=10.0)
                keys[backend] = {
                    kind: {
                        frozenset(record.payload)
                        for record in runtime.event_log.filter(kind)
                    }
                    for kind in kinds
                }
            rows[backend] = [
                (row.state, row.methods_submitted)
                for row in runtime._control.actors()
            ]
        finally:
            repro.shutdown()
    assert rows == {backend: [("alive", 3)] for backend in BACKENDS}
    for backend, shapes in keys.items():
        for kind, shape in shapes.items():
            assert len(shape) == 1, (backend, kind, shape)
    assert keys["proc"] == keys["local"]
    assert keys["dist"] == keys["local"]


@repro.remote
class Refuser:
    def refuse(self, item):
        raise ValueError(f"refused {item}")


@repro.remote
def refuse_from_task(handle):
    """Call a raising method from inside a task; hand its ref back boxed."""
    ref = yield repro.ActorCall(handle, "refuse", (7,), {})
    return [ref]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_raising_method_fails_alike_from_the_driver_and_from_a_task(backend):
    """A call made inside a task is named by its actor's record like one
    made by the driver: the same ``Class.method`` and the same text
    either way, and it counts in the actor's row."""
    runtime = repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=5)
    try:
        refuser = Refuser.remote()
        (inner,) = repro.get(refuse_from_task.remote(refuser), timeout=60.0)
        errors = []
        for ref in (refuser.refuse.remote(7), inner):
            with pytest.raises(TaskError) as caught:
                repro.get(ref, timeout=60.0)
            errors.append((caught.value.function_name, caught.value.cause_repr))
        assert errors == [("Refuser.refuse", "ValueError('refused 7')")] * 2
        rows = [(row.state, row.methods_submitted) for row in runtime._control.actors()]
        assert rows == [("alive", 2)]
    finally:
        repro.shutdown()


@pytest.mark.parametrize("backend", ["proc", "dist"])
def test_an_argument_that_cannot_be_pickled_fails_with_its_own_traceback(backend):
    """The call's error is made after the pickling ``except`` block has
    ended; its traceback is still the pickling error's, not
    ``'NoneType: None'``."""
    repro.init(backend=backend, num_nodes=1, num_cpus=1, seed=5)
    try:
        with pytest.raises(TaskError) as caught:
            repro.get(square.remote(threading.Lock()), timeout=60.0)
        text = caught.value.traceback_text
        assert "TypeError" in text and "cannot pickle" in text
        assert "NoneType: None" not in text
    finally:
        repro.shutdown()


@pytest.mark.parametrize(
    "backend, lose",
    [("sim", "node"), ("proc", "worker"), ("dist", "node"), ("dist", "worker")],
)
def test_a_lost_actor_reads_dead_in_the_control_store(backend, lose):
    """Losing an actor's state — its node on ``sim``, its worker process
    on ``proc``, either on ``dist`` (``local`` cannot lose one) — fails
    its next call with ``ActorLostError`` and leaves its one row in the
    control store ``dead``."""
    runtime = repro.init(backend=backend, num_nodes=2, num_cpus=2, seed=3)
    try:
        if backend == "sim":
            home = [n for n in runtime.node_ids if n != runtime.head_node_id][0]
            counter = Accumulator.options(placement_hint=home).remote(1)
        else:
            counter = Accumulator.remote(1)
        assert repro.get(counter.add.remote(1), timeout=60.0) == 2
        if backend == "sim":
            runtime.kill_node(home)
        elif lose == "worker":
            runtime.kill_worker(runtime.worker_for_actor(counter.actor_id))
        else:
            index = runtime.worker_for_actor(counter.actor_id)
            runtime.kill_node(index // runtime._workers_per_node)
        with pytest.raises(ActorLostError):
            repro.get(counter.add.remote(2), timeout=60.0)
        rows = [(row.state, row.methods_submitted) for row in runtime._control.actors()]
        assert rows == [("dead", 2)]
    finally:
        repro.shutdown()


@pytest.mark.parametrize("backend", BACKENDS)
def test_get_timeout_type_is_shared(backend):
    repro.init(backend=backend, num_nodes=1, num_cpus=1, seed=1)
    try:
        if backend == "sim":
            slow = square.options(duration=10.0).remote(3)
        else:
            @repro.remote
            def very_sleepy(x):
                import time
                time.sleep(10.0)
                return x

            slow = very_sleepy.remote(3)
        with pytest.raises(GetTimeoutError):
            repro.get(slow, timeout=0.05)
    finally:
        repro.shutdown()


@pytest.mark.parametrize("backend", BACKENDS)
def test_wait_validation_is_shared(backend):
    repro.init(backend=backend, num_nodes=1, num_cpus=1, seed=1)
    try:
        ref = square.remote(2)
        with pytest.raises(ValueError, match="num_returns"):
            repro.wait([ref], num_returns=2)
        with pytest.raises(ValueError, match="negative"):
            repro.wait([ref], num_returns=-1)
        with pytest.raises(TypeError, match="ObjectRef"):
            repro.get(42)
    finally:
        repro.shutdown()


@pytest.mark.parametrize("config", LIFECYCLE_CONFIGS)
def test_cancel_unscheduled_provably_never_runs(tmp_path, config):
    """A task cancelled before its dependencies resolve never executes:
    the side-effect sentinel file it would write must not exist — on any
    backend, including the multiprocess ones
    (the file is the only channel a child process could leak evidence
    through)."""
    backend, init_kwargs = CONFIGS[config]
    repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=13, **init_kwargs)
    try:
        sentinel = tmp_path / "evidence"
        gate = slow_tasks(backend, 1)[0]
        doomed = write_sentinel.remote(str(sentinel), gate)
        assert repro.cancel(doomed) is True
        with pytest.raises(TaskCancelledError):
            repro.get(doomed)
        # Let the gate finish and the scheduler drain: if the cancelled
        # task were ever going to run, it would run now.
        repro.get(gate)
        repro.get(write_sentinel.remote(str(sentinel) + ".control", gate))
        assert not sentinel.exists()
        assert (tmp_path / "evidence.control").exists()
    finally:
        repro.shutdown()


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_effect_from_task_body(backend):
    """The Cancel effect gives task bodies the same cancellation surface."""
    repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=13)
    try:
        @repro.remote
        def canceller():
            gate_refs = slow_tasks(backend, 1)
            doomed = add.remote(gate_refs[0], 1)
            took = yield repro.Cancel(doomed)
            return took

        assert repro.get(canceller.remote()) is True
    finally:
        repro.shutdown()


@pytest.mark.parametrize("config", LIFECYCLE_CONFIGS)
def test_recursive_cancel_tears_down_parked_subgraph(tmp_path, config):
    """cancel(recursive=True) also revokes parked dependents, which then
    never execute (their sentinel files stay absent)."""
    backend, init_kwargs = CONFIGS[config]
    repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=13, **init_kwargs)
    try:
        gate = slow_tasks(backend, 1)[0]
        root = add.remote(gate, 1)
        child = write_sentinel.remote(str(tmp_path / "child"), root)
        grandchild = write_sentinel.remote(str(tmp_path / "grandchild"), child)
        assert repro.cancel(root, recursive=True) is True
        for ref in (root, child, grandchild):
            with pytest.raises(TaskCancelledError):
                repro.get(ref)
        repro.get(gate)
        assert not (tmp_path / "child").exists()
        assert not (tmp_path / "grandchild").exists()
    finally:
        repro.shutdown()


@pytest.mark.parametrize("config", LIFECYCLE_CONFIGS)
def test_multi_return_refs_independently_consumable(config):
    """Each of the k refs stands alone for get and wait."""
    backend, init_kwargs = CONFIGS[config]
    repro.init(backend=backend, num_nodes=1, num_cpus=2, seed=13, **init_kwargs)
    try:
        first, second, third = three_slices.remote(3)
        assert repro.get(third) == 300
        ready, pending = repro.wait([first], num_returns=1, timeout=5.0)
        assert (len(ready), len(pending)) == (1, 0)
        assert repro.get(add.remote(second, 1)) == 31  # refs flow as deps
    finally:
        repro.shutdown()


@pytest.mark.parametrize("config", LIFECYCLE_CONFIGS)
def test_interleaved_actor_ordering_is_shared(config):
    """Two actors' call chains are independent but each totally ordered."""
    backend, init_kwargs = CONFIGS[config]
    repro.init(backend=backend, num_nodes=2, num_cpus=2, seed=7, **init_kwargs)
    try:
        a = Accumulator.remote(0)
        b = Accumulator.remote(1000)
        refs = []
        for i in range(6):
            refs.append(a.add.remote(1))
            refs.append(b.add.remote(10))
        values = repro.get(refs)
        assert values[0::2] == [1, 2, 3, 4, 5, 6]
        assert values[1::2] == [1010, 1020, 1030, 1040, 1050, 1060]
    finally:
        repro.shutdown()
