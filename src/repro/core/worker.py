"""Workers: the processes that execute tasks on a node.

A worker executes one task at a time: it resolves the task's arguments
(reading the local object store, pulling remote objects over the network,
triggering lineage reconstruction for lost ones), runs the function, and
stores the result.  Task bodies may be plain callables (run atomically at
a modeled virtual cost) or generators yielding the effects in
:mod:`repro.core.effects` — ``Compute``, ``Get``, ``Wait``, ``Put``,
``ActorCreate``, ``ActorCall`` — which is how tasks block mid-body and how
nested tasks interleave with waiting (R3).  The effect loop itself is the
shared interpreter in :mod:`repro.core.effect_driver`; this module binds
it to the simulated cluster (virtual-time fetches, resource release while
blocked).

Actor tasks are executed here too: a creation task constructs the class
instance and binds it to this node in the runtime's actor table; a method
task looks the instance up and invokes the method, with the dataflow
chain built at submission time guaranteeing per-actor ordering.

The live backends run task bodies for real, and share one body for it:
:func:`execute_task`, which ``local``'s worker threads and
``ProcWorker.execute`` both call; the sim keeps its generator runner
(:class:`Worker`), which charges virtual time as it goes.

Exceptions raised by user code never crash the worker: they are captured
as an :class:`ErrorValue` stored in place of the result, and propagate
through the dataflow graph to any dependent task and ultimately to the
driver's ``get`` (R7's error diagnosis path).
"""

from __future__ import annotations

import inspect
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.core.actors import (
    CREATION_METHOD,
    register_instance,
    resolve_actor_callable,
)
from repro.core.effect_driver import (
    EffectHandler,
    effect_loop,
    run_effect_loop_sync,
)
from repro.core.effects import ActorCall, ActorCreate, Cancel, Compute, Get, Put, Wait
from repro.core.object_ref import ObjectRef
from repro.core.task import TaskSpec, TaskState
from repro.errors import (
    ActorLostError,
    NodeLostError,
    ReproError,
    TaskCancelledError,
    TaskError,
    WorkerCrashedError,
)
from repro.sim.core import Delay, ProcessKilled
from repro.utils.ids import NodeID, WorkerID
from repro.utils.serialization import serialize


@dataclass(frozen=True)
class ErrorValue:
    """Stored in the object store in place of a failed task's result."""

    task_id: Any
    function_name: str
    cause_repr: str
    traceback_text: str = ""
    #: Function names the error has propagated through (origin first).
    chain: tuple = field(default_factory=tuple)
    #: ``"task"`` for ordinary failures, ``"actor_lost"`` when the result
    #: is unavailable because the actor's node died, ``"worker_crashed"``
    #: when the executing worker process died and lineage replay was
    #: unavailable or exhausted, ``"node_lost"`` when a whole node died
    #: holding the only replica and replay could not rebuild it,
    #: ``"cancelled"`` when ``repro.cancel`` discarded the result — the
    #: kind decides which exception ``get`` raises.
    kind: str = "task"
    actor_id: Any = None
    #: Index of the lost node (``kind == "node_lost"`` only).
    node_index: Any = None

    def to_exception(self) -> ReproError:
        if self.kind == "actor_lost":
            class_name = self.function_name.split(".", 1)[0]
            return ActorLostError(self.actor_id, class_name, self.cause_repr)
        if self.kind == "worker_crashed":
            return WorkerCrashedError(
                self.task_id, self.function_name, self.cause_repr
            )
        if self.kind == "node_lost":
            return NodeLostError(self.node_index, self.cause_repr)
        if self.kind == "cancelled":
            return TaskCancelledError(
                self.task_id, self.function_name, self.cause_repr
            )
        return TaskError(
            self.task_id, self.function_name, self.cause_repr, self.traceback_text
        )


def error_value_from(spec: TaskSpec, exc: BaseException) -> ErrorValue:
    """Capture a user exception raised inside ``spec``'s body, with
    its own traceback (it may be captured after its ``except`` block has
    ended, e.g. a call whose arguments failed to pickle)."""
    return ErrorValue(
        task_id=spec.task_id,
        function_name=spec.function_name,
        cause_repr=repr(exc),
        traceback_text="".join(traceback.format_exception(exc)),
        chain=(spec.function_name,),
    )


def run_callable(
    spec: TaskSpec, function: Any, args: tuple, kwargs: dict, handler: EffectHandler
) -> Any:
    """Run a task body on a live backend — plain, or a generator whose
    effects ``handler`` performs for real — capturing what it raises."""
    try:
        if inspect.isgeneratorfunction(function):
            return run_effect_loop_sync(spec, function(*args, **kwargs), handler)
        return function(*args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - user code boundary
        return error_value_from(spec, exc)


def unregistered_error(spec: TaskSpec) -> ErrorValue:
    """The result of a task whose function no table knows."""
    return ErrorValue(
        task_id=spec.task_id,
        function_name=spec.function_name,
        cause_repr=f"function {spec.function_name!r} not registered",
        chain=(spec.function_name,),
    )


def execute_task(
    spec: TaskSpec,
    args: tuple,
    kwargs: dict,
    lookup: Callable[[TaskSpec], Any],
    actors,
    node_id: NodeID,
    handler: EffectHandler,
    guard: Any = nullcontext(),
) -> Any:
    """The live task body, one for every live executor (``local``'s
    threads, ``ProcWorker.execute``): the result of running ``spec`` on
    resolved arguments, or the :class:`ErrorValue` that takes its place.

    A stateless task runs what ``lookup(spec)`` finds (None: not
    registered; raising: the code could not be loaded).  An actor task
    is resolved against the ``actors`` registry: a constructor builds
    the instance and binds it to ``node_id``; a method runs on it and
    counts in ``methods_executed``.  ``guard`` is held around every
    registry access (the executor's lock, where threads share one).
    """
    if spec.actor_id is None:
        try:  # the first use of shipped code unpickles it
            function = lookup(spec)
        except BaseException as exc:  # noqa: BLE001 - code-shipping boundary
            return error_value_from(spec, exc)
        if function is None:
            return unregistered_error(spec)
        return run_callable(spec, function, args, kwargs, handler)
    with guard:
        function, record, error = resolve_actor_callable(actors, spec)
    if error is not None:
        return error
    if spec.actor_method == CREATION_METHOD:
        try:
            instance = function(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - user code boundary
            return error_value_from(spec, exc)
        with guard:
            register_instance(record, instance, node_id)
        return None
    result = run_callable(spec, function, args, kwargs, handler)
    if not isinstance(result, ErrorValue):
        with guard:
            record.methods_executed += 1
    return result


def returns_mismatch(k: int, result: Any) -> Optional[str]:
    """Why ``result`` cannot fill ``k`` return slots, or None when it is
    a tuple or list of exactly ``k`` values.  The one wording of that
    error: a multi-return task's (below) and a served batch's
    (:mod:`repro.serve.pool`, one value per request)."""
    if isinstance(result, (tuple, list)) and len(result) == k:
        return None
    got = (
        f"{type(result).__name__} of length {len(result)}"
        if isinstance(result, (tuple, list))
        else type(result).__name__
    )
    return (
        f"task declared num_returns={k} but returned {got}; "
        "return a tuple or list of exactly that many values"
    )


def split_result_values(spec: TaskSpec, result: Any) -> list:
    """Map a task body's return value onto its ``num_returns`` slots.

    Shared by every backend's executor so the multi-return contract is
    identical everywhere: for ``k == 1`` the value passes through; for
    ``k > 1`` the body must return a tuple/list of exactly ``k`` values
    (anything else becomes an :class:`ErrorValue` replicated into every
    slot, as is any error the body itself produced).
    """
    k = spec.num_returns
    if k <= 1:
        return [result]
    if isinstance(result, ErrorValue):
        return [result] * k
    mismatch = returns_mismatch(k, result)
    if mismatch is not None:
        error = ErrorValue(
            task_id=spec.task_id,
            function_name=spec.function_name,
            cause_repr=mismatch,
            chain=(spec.function_name,),
        )
        return [error] * k
    return list(result)


def propagate_error(value: ErrorValue, spec: TaskSpec) -> ErrorValue:
    """Forward an upstream error through a dependent task (preserving its
    kind, so an actor-loss surfaces as ActorLostError downstream too)."""
    return ErrorValue(
        task_id=value.task_id,
        function_name=value.function_name,
        cause_repr=value.cause_repr,
        traceback_text=value.traceback_text,
        chain=value.chain + (spec.function_name,),
        kind=value.kind,
        actor_id=value.actor_id,
        node_index=value.node_index,
    )


@dataclass
class WorkerContext:
    """Execution context active while user code runs (enables nested
    ``.remote()`` calls to route to this node's local scheduler)."""

    node_id: NodeID
    worker: "Worker"


class SimEffectHandler(EffectHandler):
    """Bind the effect vocabulary to the simulated cluster.

    Blocking effects (``Get``/``Wait``) release the task's resource slots
    while suspended and reacquire them before user code resumes, exactly
    as Ray's raylets do with replacement workers.
    """

    passthrough = (ProcessKilled,)

    def __init__(self, worker: "Worker", spec: TaskSpec, context: WorkerContext) -> None:
        self.worker = worker
        self.spec = spec
        self.context = context
        self.runtime = worker.runtime

    def push_context(self) -> None:
        self.runtime.push_worker_context(self.context)

    def pop_context(self) -> None:
        self.runtime.pop_worker_context()

    def on_compute(self, item: Compute) -> Generator:
        yield Delay(item.duration)

    def on_get(self, item: Get) -> Generator:
        worker = self.worker
        worker.scheduler.release_while_blocked(worker, self.spec)
        single = isinstance(item.refs, ObjectRef)
        refs = [item.refs] if single else list(item.refs)
        values = []
        error: Optional[BaseException] = None
        for ref in refs:
            try:
                value = yield from worker._fetch_value(ref.object_id)
            except ReproError as exc:
                # Fetch failed terminally (object lost, no reconstruction):
                # surface it inside the body so user code can handle it.
                error = exc
                break
            if isinstance(value, ErrorValue):
                error = value.to_exception()
                break
            values.append(value)
        yield worker.scheduler.reacquire_after_blocked(worker, self.spec)
        if error is not None:
            raise error
        return values[0] if single else values

    def on_wait(self, item: Wait) -> Generator:
        worker = self.worker
        worker.scheduler.release_while_blocked(worker, self.spec)
        ready, pending = yield from self.runtime.wait_ready(
            worker.node_id, list(item.refs), item.num_returns, item.timeout
        )
        yield worker.scheduler.reacquire_after_blocked(worker, self.spec)
        return ready, pending

    def on_put(self, item: Put) -> Generator:
        result = yield from self.worker._put_value(item.value)
        return result

    def on_cancel(self, item: Cancel) -> bool:
        return self.runtime.cancel(item.ref, recursive=item.recursive)

    def on_actor_create(self, item: ActorCreate):
        from repro.core.actors import create_from_effect

        return create_from_effect(self.runtime, item)

    def on_actor_call(self, item: ActorCall):
        from repro.core.actors import call_from_effect

        return call_from_effect(self.runtime, item)


class Worker:
    """One worker process slot on a node."""

    def __init__(self, runtime, node_id: NodeID, worker_id: WorkerID, scheduler) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.node_id = node_id
        self.worker_id = worker_id
        self.scheduler = scheduler
        self.rng = runtime.rngs.stream(f"worker/{worker_id.hex}")
        self.busy = False
        self.dead = False
        self.current_spec: Optional[TaskSpec] = None
        self.current_process = None
        #: False while the running task has released its slots (blocked on
        #: a Get/Wait effect); the scheduler uses this for accounting.
        self.resources_held = False
        self.tasks_completed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Worker({self.worker_id.hex[:8]}@{self.node_id.hex[:8]}, busy={self.busy})"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, spec: TaskSpec) -> None:
        """Begin executing a task (called by the local scheduler)."""
        if self.busy:
            raise RuntimeError(f"worker {self.worker_id} is already busy")
        self.busy = True
        self.resources_held = True
        self.current_spec = spec
        self.current_process = self.sim.spawn(
            self._run_task(spec), name=f"task:{spec.function_name}"
        )

    def kill(self) -> None:
        """Node failure: abort the in-flight task, never notify the scheduler."""
        self.dead = True
        if self.current_process is not None and self.current_process.alive:
            self.current_process.kill()

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    def _run_task(self, spec: TaskSpec) -> Generator:
        runtime = self.runtime
        cp = runtime.control_plane
        costs = runtime.costs
        store = runtime.object_store(self.node_id)
        pinned: list = []
        try:
            yield Delay(costs.local_sched_decision + costs.worker_launch)
            cp.async_task_set_state(
                self.node_id, spec.task_id, TaskState.RUNNING, node=self.node_id
            )
            cp.log("task_started", task_id=spec.task_id, node=self.node_id,
                   worker=self.worker_id, function=spec.function_name)
            started = self.sim.now

            try:
                arg_values, kwarg_values, upstream_error = yield from self._resolve_args(
                    spec, pinned
                )
            except ReproError as exc:
                # Unrecoverable infrastructure failure (e.g. an argument
                # lost with reconstruction disabled): the task must still
                # produce a result object, or every consumer hangs (R7).
                upstream_error = None
                result_value: Any = error_value_from(spec, exc)
            else:
                if upstream_error is not None:
                    result_value = propagate_error(upstream_error, spec)
                else:
                    result_value = yield from self._execute(
                        spec, arg_values, kwarg_values
                    )

            failed = yield from self._store_result(spec, result_value)
            if runtime.task_cancelled(spec.task_id):
                final_state = TaskState.CANCELLED
            elif failed:
                final_state = TaskState.FAILED
            else:
                final_state = TaskState.FINISHED
            cp.async_task_set_state(
                self.node_id, spec.task_id, final_state, node=self.node_id
            )
            cp.log("task_finished", task_id=spec.task_id, node=self.node_id,
                   worker=self.worker_id, function=spec.function_name,
                   duration=self.sim.now - started, failed=failed)
            self.tasks_completed += 1
        finally:
            for object_id in pinned:
                store.unpin(object_id)
            if not self.dead:
                self.busy = False
                self.current_spec = None
                self.current_process = None
                self.scheduler.task_finished(self, spec)

    def _resolve_args(self, spec: TaskSpec, pinned: list) -> Generator:
        """Materialize argument futures into values.

        Returns ``(args, kwargs, upstream_error)``; if any argument is an
        upstream :class:`ErrorValue`, execution is skipped and the error is
        propagated as this task's result.  Ordering-only dependencies
        (``spec.extra_dependencies``) are *not* fetched: the scheduler has
        already waited for them, and their values are irrelevant here —
        an actor chain must keep running after one failed method call.
        """
        upstream_error: Optional[ErrorValue] = None

        def resolve(value: Any) -> Generator:
            nonlocal upstream_error
            if not isinstance(value, ObjectRef):
                return value
            resolved = yield from self._fetch_value(value.object_id, pinned)
            if isinstance(resolved, ErrorValue) and upstream_error is None:
                upstream_error = resolved
            return resolved

        args = []
        for value in spec.args:
            args.append((yield from resolve(value)))
        kwargs = {}
        for key, value in spec.kwargs.items():
            kwargs[key] = yield from resolve(value)
        return tuple(args), kwargs, upstream_error

    def _fetch_value(self, object_id, pinned: Optional[list] = None) -> Generator:
        """Make one object local, pin it, and deserialize it."""
        runtime = self.runtime
        store = runtime.object_store(self.node_id)
        data = store.get(object_id)
        if data is None:
            yield from runtime.await_ready(self.node_id, object_id)
            data = yield from runtime.fetch_local(self.node_id, object_id)
        if pinned is not None:
            store.pin(object_id)
            pinned.append(object_id)
        yield Delay(runtime.costs.serialization_time(len(data)))
        return runtime.deserialize_value(data)

    # -- running user code ---------------------------------------------------

    def _execute(self, spec: TaskSpec, args: tuple, kwargs: dict) -> Generator:
        """Run the task body; returns the result or an ErrorValue."""
        record = None
        if spec.actor_id is not None:
            function, record, error = resolve_actor_callable(
                self.runtime.actors, spec
            )
            if error is not None:
                return error
        else:
            function = self.runtime.resolve_function(spec)
            if function is None:
                return unregistered_error(spec)
        context = WorkerContext(node_id=self.node_id, worker=self)

        if record is not None and spec.actor_method == CREATION_METHOD:
            result = yield from self._construct_actor(spec, function, args, kwargs, context)
            return result

        if inspect.isgeneratorfunction(function):
            handler = SimEffectHandler(self, spec, context)
            result = yield from effect_loop(spec, function(*args, **kwargs), handler)
            if record is not None and not isinstance(result, ErrorValue):
                record.methods_executed += 1
            return result

        self.runtime.push_worker_context(context)
        try:
            result = function(*args, **kwargs)
        except ProcessKilled:
            raise
        except BaseException as exc:  # noqa: BLE001 - user code boundary
            return error_value_from(spec, exc)
        finally:
            self.runtime.pop_worker_context()
        if record is not None:
            record.methods_executed += 1
        duration = spec.sample_duration(self.rng)
        if duration > 0:
            yield Delay(duration)
        return result

    def _construct_actor(
        self, spec: TaskSpec, actor_class, args: tuple, kwargs: dict, context: WorkerContext
    ) -> Generator:
        """Run an actor constructor and bind the instance to this node."""
        self.runtime.push_worker_context(context)
        try:
            instance = actor_class(*args, **kwargs)
        except ProcessKilled:
            raise
        except BaseException as exc:  # noqa: BLE001 - user code boundary
            return error_value_from(spec, exc)
        finally:
            self.runtime.pop_worker_context()
        record = self.runtime.actors.get(spec.actor_id)
        register_instance(record, instance, self.node_id)
        self.runtime.control_plane.log(
            "actor_created", actor_id=spec.actor_id, node=self.node_id,
            class_name=record.class_name,
        )
        duration = spec.sample_duration(self.rng)
        if duration > 0:
            yield Delay(duration)
        return None

    def _put_value(self, value: Any) -> Generator:
        """Worker-side ``put``: store a value, return a ref for it."""
        runtime = self.runtime
        object_id = runtime.ids.object_id()
        data = serialize(value)
        yield Delay(
            runtime.costs.serialization_time(len(data)) + runtime.costs.put_overhead
        )
        runtime.object_store(self.node_id).put(object_id, data)
        runtime.control_plane.async_object_add_location(
            self.node_id, object_id, self.node_id, len(data)
        )
        return ObjectRef(object_id)

    # -- result handling --------------------------------------------------------

    def _store_result(self, spec: TaskSpec, result_value: Any) -> Generator:
        """Store the task's return value(s); returns the failed flag.

        ``num_returns=k`` tasks store one object per slot; all slots are
        made visible at the same instant so a multi-return result is
        never partially observable.  A cancelled task's real result is
        discarded — the cancellation marker already occupies its slots.
        """
        runtime = self.runtime
        if runtime.task_cancelled(spec.task_id):
            return True
        store = runtime.object_store(self.node_id)
        values = split_result_values(spec, result_value)
        datas = []
        for value in values:
            try:
                datas.append(serialize(value))
            except TypeError as exc:
                datas.append(serialize(error_value_from(spec, exc)))
        total = sum(len(data) for data in datas)
        yield Delay(
            runtime.costs.serialization_time(total) + runtime.costs.put_overhead
        )
        failed = any(isinstance(value, ErrorValue) for value in values)
        for object_id, data in zip(spec.all_return_ids(), datas):
            try:
                store.put(object_id, data)
            except Exception as exc:  # ObjectStoreFullError: tiny error marker
                failed = True
                data = serialize(error_value_from(spec, exc))
                store.put(object_id, data)
            runtime.control_plane.async_object_add_location(
                self.node_id,
                object_id,
                self.node_id,
                len(data),
                producer_task=spec.task_id,
            )
        return failed
