"""Threaded runtime: real workers, real futures, real time.

This backend implements the same :class:`repro.core.backend.Backend`
protocol as the simulated cluster, sharing the protocol's semantics with
it through the core modules: argument validation and error unwrapping
(:mod:`repro.core.protocol`), dataflow dependency tracking
(:mod:`repro.core.dependencies`), the generator-effect interpreter
(:mod:`repro.core.effect_driver`), and the actor table
(:mod:`repro.core.actors`).  What is left here is exactly the part that
must differ: threads, locks, and wall-clock time.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro import obs
from repro.core import actors, lifecycle
from repro.core.actors import ActorRegistry, chain_submission
from repro.core.completion import CompletionPump, serve_stats
from repro.core.dependencies import DependencyTracker
from repro.core.effect_driver import BlockingEffectHandler
from repro.core.lifecycle import LifecycleIndex, cancelled_error_value
from repro.core.object_ref import ObjectRef
from repro.core.protocol import (
    cluster_stats,
    normalize_get_refs,
    partition_by_ready,
    unwrap_value,
    validate_wait_args,
)
from repro.core.task import CallTemplate, TaskSpec
from repro.core.worker import (
    ErrorValue,
    error_value_from,
    execute_task,
    propagate_error,
    split_result_values,
)
from repro.errors import BackendError, GetTimeoutError
from repro.gcs import ControlStore
from repro.sched_plane import SchedCounters
from repro.utils.ids import FunctionID, IDGenerator, NodeID, ObjectID
from repro.utils.serialization import deserialize, serialize

_POISON = object()


@dataclass
class _Node:
    """One logical node: a worker-thread pool with resource slots."""

    node_id: NodeID
    num_cpus: int
    num_gpus: int
    available_cpus: int
    available_gpus: int
    task_queue: "queue.Queue" = field(default_factory=queue.Queue)
    threads: list = field(default_factory=list)
    tasks_executed: int = 0


def _free_slots(node: _Node) -> tuple:
    """Most free slots first; stable tie-break by node id."""
    return node.available_cpus + node.available_gpus, node.node_id.hex


class LocalRuntime:
    """Thread-pool implementation of the backend protocol."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        seed: int = 0,
        tracing: bool = False,
    ) -> None:
        self.cluster = cluster or ClusterSpec.uniform(num_nodes=1, num_cpus=4)
        #: ``stats()["sched"]`` with the proc/dist plane's keys; threads
        #: have one placement path, counted as ``tasks_placed_global``.
        self._sched = SchedCounters()
        #: The tracing plane (repro.obs).  Single process: every worker
        #: thread records straight into the driver collector (one clock,
        #: zero skew), exposed through the ``event_log`` property.
        self.tracing = bool(tracing)
        self._obs = obs.SpanCollector(enabled=self.tracing)
        self.ids = IDGenerator(namespace=f"repro-local/{seed}")
        self.closed = False
        self._control = ControlStore(num_shards=1)
        self._control.register_generation()

        self._lock = threading.RLock()
        self._ready_cond = threading.Condition(self._lock)
        #: Shared object store (single-process: all nodes share memory).
        self._objects: dict[ObjectID, bytes] = {}
        #: Tasks whose dependencies are not all ready yet (shared core).
        self._deps = DependencyTracker()
        #: Runnable tasks no node has room for yet, oldest first.  A task
        #: is bound to a node only when that node can start it (see
        #: :meth:`_dispatch`), so none waits behind a node that is busy
        #: while another has room.
        self._ready: list[TaskSpec] = []
        self._functions: dict[FunctionID, Callable] = {}
        self.actors = ActorRegistry()
        self._lifecycle = LifecycleIndex()
        self._tls = threading.local()
        self._effect_handler = BlockingEffectHandler(self)
        #: Event-driven completion notifications (repro.serve): watchers
        #: registered under the lock, callbacks dispatched outside it.
        self._completions = CompletionPump("repro-local-completions")
        self._serve_pools: list = []

        self.node_ids: list[NodeID] = []
        self._nodes: dict[NodeID, _Node] = {}
        for spec in self.cluster.nodes:
            node_id = self.ids.node_id()
            node = _Node(
                node_id=node_id,
                num_cpus=spec.num_cpus,
                num_gpus=spec.num_gpus,
                available_cpus=spec.num_cpus,
                available_gpus=spec.num_gpus,
            )
            self.node_ids.append(node_id)
            self._nodes[node_id] = node
            for _ in range(spec.num_cpus + spec.num_gpus):
                self._start_thread(node)
        self.head_node_id = self.node_ids[0]

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------

    def register_function(self, function: Callable, name: str) -> FunctionID:
        function_id = self.ids.function_id()
        with self._lock:
            self._functions[function_id] = function
        return function_id

    def submit_call(self, template: CallTemplate, args: tuple, kwargs: dict) -> Any:
        """Submit one call of ``template`` (what ``.remote()`` calls)."""
        self._check_open()
        template.check_feasible(self.cluster)
        spec = template.stamp(
            self.ids, args, kwargs,
            submitted_from=self._current_node_id(),
            root_task_id=getattr(self._tls, "cur_root", None),
            parent_task_id=getattr(self._tls, "cur_task", None),
        )
        self._submit_spec(spec)
        return spec.public_result()

    def _submit_spec(self, spec: TaskSpec) -> ObjectRef:
        """Gate on unproduced dependencies, else enqueue (shared protocol)."""
        with self._lock:
            # Write-ahead lineage, same contract as the proc/dist backends.
            self._control.task_put(
                spec.task_id, spec, node=self._current_node_id()
            )
            if self._obs.enabled:
                node = getattr(self._tls, "node", None)
                obs.task_submitted(
                    self._obs, spec, node is not None, *self._where(node)
                )
            self._lifecycle.register(spec)
            missing = {
                dep for dep in spec.dependencies() if dep not in self._objects
            }
            if missing:
                self._deps.add(spec, missing)
            else:
                self._enqueue_runnable(spec)
        return spec.result_ref()

    # ------------------------------------------------------------------
    # Actor protocol (repro.core.actors; lock held in the hooks)
    # ------------------------------------------------------------------

    create_actor = actors.create_actor
    call_actor = actors.call_actor
    get_actor = actors.get_actor

    def _actor_home(self, spec: TaskSpec) -> NodeID:
        """Where the creation is hinted, else the node with the most
        free slots that could ever hold it; every method call follows
        the constructor there."""
        if spec.placement_hint in self._nodes:
            return spec.placement_hint
        return max(
            (
                node
                for node in self._nodes.values()
                if spec.resources.fits_node(node.num_cpus, node.num_gpus)
            ),
            key=_free_slots,
        ).node_id

    def _submit_actor_task(self, record, spec: TaskSpec) -> None:
        """The ordering dependency on the previous call's result object
        is what serializes the actor's methods."""
        chain_submission(record, spec)
        self._submit_spec(spec)

    # ------------------------------------------------------------------
    # Blocking primitives
    # ------------------------------------------------------------------

    def get(self, refs: Any, timeout: Optional[float] = None) -> Any:
        self._check_open()
        ref_list, single = normalize_get_refs(refs)
        deadline = None if timeout is None else time.monotonic() + timeout
        values = []
        objects = self._objects
        with self._slot_lent(lambda: all(r.object_id in objects for r in ref_list)):
            for ref in ref_list:
                data = self._wait_for_object(ref.object_id, deadline)
                values.append(unwrap_value(data))
        return values[0] if single else values

    def wait(
        self,
        refs: Sequence[ObjectRef],
        num_returns: int = 1,
        timeout: Optional[float] = None,
    ) -> tuple:
        self._check_open()
        ref_list = list(refs)
        validate_wait_args(ref_list, num_returns)
        deadline = None if timeout is None else time.monotonic() + timeout
        objects = self._objects

        def enough() -> bool:
            return sum(r.object_id in objects for r in ref_list) >= num_returns

        with self._slot_lent(enough):
            self._wait_until(enough, deadline)
        with self._lock:
            ready_ids = {r.object_id for r in ref_list if r.object_id in objects}
        return partition_by_ready(ref_list, lambda r: r.object_id in ready_ids)

    def put(self, value: Any) -> ObjectRef:
        self._check_open()
        object_id = self.ids.object_id()
        self._store_object(object_id, serialize(value))
        return ObjectRef(object_id)

    def cancel(self, ref: ObjectRef, recursive: bool = False) -> bool:
        """Cancel the task producing ``ref`` (shared core semantics)."""
        self._check_open()
        return lifecycle.cancel(self, ref, recursive=recursive)

    # -- lifecycle hooks (see repro.core.lifecycle); lock held ----------

    def _lifecycle_guard(self):
        return self._ready_cond

    def _result_ready(self, object_id: ObjectID) -> bool:
        return object_id in self._objects

    def _store_cancelled(self, spec: TaskSpec) -> None:
        data = serialize(
            cancelled_error_value(spec, "cancelled before a result was produced")
        )
        for object_id in spec.all_return_ids():
            if object_id not in self._objects:
                self._objects[object_id] = data
                for waiting in self._deps.mark_ready(object_id):
                    self._enqueue_runnable(waiting)
                self._completions.notify(object_id)
        self._ready_cond.notify_all()

    def _parked_dependents(self, object_id: ObjectID) -> list:
        return lifecycle.parked_dependents(self._deps, object_id)

    def sleep(self, duration: float) -> None:
        time.sleep(duration)

    @property
    def now(self) -> float:
        """Wall-clock seconds (monotonic)."""
        return time.monotonic()

    @property
    def event_log(self):
        """The collected live trace (None unless ``tracing=True``)."""
        return self._obs.event_log

    def stats(self) -> dict:
        with self._lock:
            return {
                "tasks_executed": sum(n.tasks_executed for n in self._nodes.values()),
                "objects_stored": len(self._objects),
                "tasks_waiting": len(self._deps),
                "actors_created": len(self.actors),
                "tasks_cancelled": self._lifecycle.cancelled_count,
                "sched": self._sched.snapshot(),
                "obs": self._obs.stats(),
                "serve": serve_stats(self._serve_pools, self._completions),
                "control": self._control.stats(),
                # Threads share one address space: nodes here are
                # scheduling domains, and no object is *node*-resident.
                # (A node's base pool: a thread lent to a blocked
                # task's slot is not a worker more.)
                "cluster": cluster_stats(
                    [
                        (True, os.getpid(), False, 0.0, n.num_cpus + n.num_gpus, 0, 0)
                        for n in self._nodes.values()
                    ],
                    sum(n.num_cpus + n.num_gpus for n in self._nodes.values())
                    // len(self._nodes),
                ),
            }

    def replica_targets(self) -> list:
        """Placement targets for serving-pool replicas (every node)."""
        return list(self.node_ids)

    def register_serve_pool(self, pool) -> None:
        """An ActorPool bound itself to this runtime (stats visibility)."""
        with self._lock:
            self._serve_pools.append(pool)

    def shutdown(self) -> None:
        if self.closed:
            return
        for pool in list(self._serve_pools):
            pool.close()
        with self._ready_cond:  # threads retire (and leave the list) on their own
            self.closed = True
            self._ready_cond.notify_all()  # whoever is blocked in get/wait
            pools = [(node, list(node.threads)) for node in self._nodes.values()]
        for node, threads in pools:
            for _ in threads:
                node.task_queue.put(_POISON)
        for _node, threads in pools:
            for thread in threads:
                thread.join(timeout=2.0)
        # Fire any still-pending watches (their callbacks observe the
        # closed runtime and fail their requests) and stop the pump.
        self._completions.stop()
        self._control.close()

    # ------------------------------------------------------------------
    # Scheduling internals (lock held unless noted)
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise BackendError("runtime is shut down")

    def _current_node_id(self) -> NodeID:
        node = getattr(self._tls, "node", None)
        return node.node_id if node is not None else self.head_node_id

    def _enqueue_runnable(self, spec: TaskSpec) -> None:
        """A task's dependencies are all stored (lock held)."""
        self._ready.append(spec)
        self._dispatch()

    @staticmethod
    def _where(node: Optional[_Node]) -> tuple:
        """``(worker, node)`` span keys of the calling worker thread of
        ``node`` (None on a driver thread)."""
        if node is None:
            return None, None
        return threading.current_thread().name, str(node.node_id)

    def _dispatch(self) -> None:
        """Start every ready task some node has room for now, oldest
        first (lock held; run whenever a task becomes runnable or a slot
        frees).  A hinted task — every actor task is one — goes to its
        node or waits for it; any other goes to the node with the most
        free slots among those it fits on now."""
        nodes = list(self._nodes.values())
        ready = self._ready
        kept = 0  # ready[:kept]: looked at, and still waiting
        for index, spec in enumerate(ready):
            if not any(n.available_cpus > 0 or n.available_gpus > 0 for n in nodes):
                del ready[kept:index]  # no slot anywhere: the rest waits too
                return
            hinted = self._nodes.get(spec.placement_hint)
            fitting = [
                n for n in (nodes if hinted is None else (hinted,))
                if spec.resources.fits(n.available_cpus, n.available_gpus)
            ]
            if not fitting:
                ready[kept] = spec
                kept += 1
                continue
            node = max(fitting, key=_free_slots)
            node.available_cpus -= spec.resources.num_cpus
            node.available_gpus -= spec.resources.num_gpus
            self._sched.tasks_placed_global += 1
            if self._obs.enabled:
                obs.task_placed(self._obs, spec, node=str(node.node_id))
            node.task_queue.put(spec)
        del ready[kept:]

    def _store_object(self, object_id: ObjectID, data: bytes) -> None:
        """Insert an object and wake dependents/waiters/watchers."""
        with self._ready_cond:
            self._objects[object_id] = data
            self._control.async_object_put(
                object_id, size=len(data), location="local", ready=True
            )
            for spec in self._deps.mark_ready(object_id):
                self._enqueue_runnable(spec)
            self._completions.notify(object_id)
            self._ready_cond.notify_all()

    def watch_object(self, object_id: ObjectID, callback) -> None:
        """Event-driven completion: ``callback(object_id)`` fires exactly
        once, on the pump thread, when the object is (or already was)
        resident — the serving plane's alternative to a blocked ``get``."""
        with self._lock:
            self._completions.add_watch(
                object_id, callback, ready=object_id in self._objects
            )

    def _wait_until(
        self, predicate: Callable[[], bool], deadline: Optional[float]
    ) -> bool:
        """Block until ``predicate()`` holds (True) or the deadline
        passes (False); every store, and shutdown, notifies the cond."""
        with self._ready_cond:
            while not predicate():
                self._check_open()  # the wait ends with the runtime
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._ready_cond.wait(timeout=remaining)
            return True

    def _wait_for_object(self, object_id: ObjectID, deadline: Optional[float]) -> bytes:
        objects = self._objects  # nothing ever leaves it
        if not self._wait_until(lambda: object_id in objects, deadline):
            raise GetTimeoutError(f"get timed out waiting for {object_id}")
        return objects[object_id]

    @contextlib.contextmanager
    def _slot_lent(self, ready: Callable[[], bool]):
        """Around a ``get``/``wait`` that has to block on a worker thread
        (not ``ready()`` yet): the running task's slot goes back to its
        node for that long — as the sim's local scheduler does, and for
        the same reason: what the task waits for may be work that only
        this slot can run (its own children, on a 1 CPU node).  The node
        gains a thread to run it on, and :meth:`_dispatch` starts what
        was ready.  When the wait ends the task has its slot again at
        once (the node runs one task more than it has slots for until
        one ends) and one thread retires.  Actor order is unaffected: it
        comes from the dataflow chain."""
        node = getattr(self._tls, "node", None)
        with self._lock:
            if node is None or ready():
                node = None
            else:
                held = self._tls.held
                node.available_cpus += held.num_cpus
                node.available_gpus += held.num_gpus
                self._start_thread(node)
                self._dispatch()
        try:
            yield
        finally:
            if node is not None:
                with self._lock:
                    node.available_cpus -= held.num_cpus
                    node.available_gpus -= held.num_gpus
                node.task_queue.put(_POISON)

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _start_thread(self, node: _Node) -> None:
        """One more worker thread for ``node`` (lock held, or nobody
        else can see the node yet)."""
        thread = threading.Thread(
            target=self._worker_loop,
            args=(node,),
            name=f"repro-worker-{node.node_id.hex[:6]}-{len(node.threads)}",
            daemon=True,
        )
        node.threads.append(thread)
        thread.start()

    def _worker_loop(self, node: _Node) -> None:
        self._tls.node = node
        while True:
            item = node.task_queue.get()
            if item is _POISON:
                with self._lock:
                    node.threads.remove(threading.current_thread())
                return
            self._run_task(node, item)
            with self._lock:
                node.available_cpus += item.resources.num_cpus
                node.available_gpus += item.resources.num_gpus
                self._dispatch()

    def _run_task(self, node: _Node, spec: TaskSpec) -> None:
        with self._lock:
            if self._lifecycle.is_cancelled(spec.task_id):
                node.tasks_executed += 1
                return  # cancelled while queued: never execute user code
        root_id = spec.root_task_id or spec.task_id
        t_start = time.monotonic()
        if self._obs.enabled:
            obs.task_started(self._obs, spec, t_start, *self._where(node))
        prev_ctx = (
            getattr(self._tls, "cur_task", None),
            getattr(self._tls, "cur_root", None),
        )
        self._tls.cur_task, self._tls.cur_root = spec.task_id, root_id
        self._tls.held = spec.resources  # what a blocking get gives back
        try:
            args, kwargs, upstream_error = self._resolve_args(spec)
            if upstream_error is not None:
                result: Any = propagate_error(upstream_error, spec)
            else:
                result = execute_task(
                    spec, args, kwargs, self._lookup, self.actors,
                    node.node_id, self._effect_handler, self._lock,
                )
        finally:
            self._tls.cur_task, self._tls.cur_root = prev_ctx
        datas = []
        for value in split_result_values(spec, result):
            try:
                datas.append(serialize(value))
            except TypeError as exc:
                datas.append(serialize(error_value_from(spec, exc)))
        failed = isinstance(result, ErrorValue)
        self._store_results(node, spec, datas, failed)
        if self._obs.enabled:
            obs.task_finished(
                self._obs, spec, time.monotonic() - t_start, failed, None,
                *self._where(node),
            )

    def _store_results(
        self, node: _Node, spec: TaskSpec, datas: list, failed: bool
    ) -> None:
        """Store all return slots atomically; discard if cancelled mid-run.
        The task counts as executed before a getter can see its results."""
        with self._ready_cond:
            node.tasks_executed += 1
            if self._lifecycle.is_cancelled(spec.task_id):
                return  # the cancellation marker owns the slots
            self._control.async_task_update(
                spec.task_id, state="failed" if failed else "finished"
            )
            if self._obs.enabled:
                obs.result_stored(
                    self._obs, spec.task_id, spec.function_name,
                    spec.num_returns, failed, *self._where(node),
                )
            for object_id, data in zip(spec.all_return_ids(), datas):
                self._objects[object_id] = data
                self._control.async_object_put(
                    object_id,
                    size=len(data),
                    location="local",
                    ready=True,
                    producer_task=spec.task_id,
                )
                for waiting in self._deps.mark_ready(object_id):
                    self._enqueue_runnable(waiting)
                self._completions.notify(object_id)
            self._ready_cond.notify_all()

    def _resolve_args(self, spec: TaskSpec):
        """Materialize argument futures (ordering-only deps are skipped:
        an actor chain must keep running after one failed method call)."""
        upstream_error: Optional[ErrorValue] = None

        def resolve(value: Any) -> Any:
            nonlocal upstream_error
            if not isinstance(value, ObjectRef):
                return value
            data = self._wait_for_object(value.object_id, deadline=None)
            resolved = deserialize(data)
            if isinstance(resolved, ErrorValue) and upstream_error is None:
                upstream_error = resolved
            return resolved

        args = tuple(resolve(v) for v in spec.args)
        kwargs = {k: resolve(v) for k, v in spec.kwargs.items()}
        return args, kwargs, upstream_error

    def _lookup(self, spec: TaskSpec) -> Optional[Callable]:
        return spec.function or self._functions.get(spec.function_id)
