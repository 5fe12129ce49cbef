"""Driver-side runtime of the ``proc`` backend: real processes, real cores.

Architecture (one instance = one pool):

* ``num_workers`` child processes, each started with ``multiprocessing``'s
  **spawn** method and connected by one duplex pipe.  Spawn (not fork)
  keeps children free of inherited locks/threads and mirrors how real
  cluster workers boot from nothing.
* One **service thread** per worker on the driver side.  It claims a
  frame of runnable tasks for its idle worker from the dispatch plane
  (a window of one of its pinned actors' calls, what the driver tier
  placed on it, the global queue, or a steal), ships it over the pipe,
  and then *serves* the worker (:meth:`ProcRuntime._serve`, the one loop
  that reads a worker's pipe) — argument fetches, nested submissions,
  blocking ``get``/``wait``, ``put``, actor operations, and its reports
  — until the worker says its queue is drained.  Service threads mostly
  sleep in ``recv``; user compute happens in the children, outside the
  GIL, which is what makes this the first backend where CPU-bound work
  actually scales with workers.
* The shared core from the other backends does the semantics:
  :class:`~repro.core.dependencies.DependencyTracker` gates readiness,
  :mod:`repro.core.protocol` validates and unwraps, the actor table
  is :mod:`repro.core.actors`' (ordered method delivery is the dispatch
  plane's: an actor's calls queue in its lane and leave in that order,
  a window per dispatch frame), and
  results/arguments live as bytes in a
  :class:`~repro.objectstore.store.LocalObjectStore` (results pinned —
  they are the only replica).
* **Objects** are the :class:`~repro.proc.objects.ObjectPlane`'s
  (``self._objects``), asked under this runtime's lock: the two data
  planes (small objects ride the pipes as bytes, large ones a zero-copy
  shared-memory arena), where each object lives, and what still holds
  it — so that a dead object gives its memory back.
* **Crash recovery**: a dead worker process is detected by its service
  thread (EOF on the pipe).  Stateless in-flight tasks are replayed —
  lineage replay, up to ``max_reconstructions``, shipping the wire entry
  each was born with (``TaskSpec.wire``, :mod:`repro.proc.messages`) —
  while
  actor tasks surface :class:`~repro.errors.ActorLostError`, mirroring
  the sim backend's node-death semantics; a replacement worker is spawned
  either way.  A task with ``max_reconstructions=0`` surfaces
  :class:`~repro.errors.WorkerCrashedError` at its first crash instead.
* **Dispatch** is the paper's hybrid two-level scheduler realized on
  real processes, and the only path a task can take.  Every decision of
  it is the :class:`~repro.sched_plane.dispatch.DispatchPlane`'s
  (``self._dispatch``), asked under this runtime's lock — worker
  handles go in, specs and decisions come out — and this module is the
  transport that carries them out: each worker owns a local task queue
  it feeds with a
  zero-round-trip nested submission fast path (the driver learns via
  one-way ``SUBMIT_LOCAL`` notices and mirrors every queue, keeping a
  task born there as its wire entry until something needs it adopted),
  while the driver is the *global tier* — it places
  driver-born and spilled work with a
  locality-aware :class:`~repro.scheduling.policies.PlacementPolicy`
  (preferring the worker that already holds the largest resident
  argument bytes), ships it in **dispatch frames** (a window of tasks
  bounded by estimated service time per ``TASK`` message, completions
  coalesced per ``DONE`` message — :mod:`repro.proc.messages`), brokers
  idle-worker work stealing
  (:meth:`~repro.sched_plane.dispatch.DispatchPlane.request_steal`: half
  a busy worker's backlog; the victim's grant is authoritative, so a
  stolen task provably runs exactly once; a victim answers while a task
  runs, so a frame's tail can be taken back from behind a head that
  outran its estimate), and
  re-homes queued or mid-steal tasks when their worker crashes.  A task
  blocked in ``get``/``wait`` on what is not there yet *parks*: its
  request waits in its worker's table of pending waits and its worker,
  once it has nothing else to run, is fed like any idle one — so a pool
  of any size finishes a task that waits for its own children, and
  nothing runs on top of a blocked task but what it waits for
  (:mod:`repro.proc.messages`, "A parked request").  Placement and
  stealing are constants of the plane.  The sim backend varies its
  placement (``scheduler_mode``) and never steals.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro import obs
from repro.core import actors, lifecycle
from repro.core.actors import (
    CREATION_METHOD,
    ActorHandle,
    ActorRegistry,
    REMOTE_INSTANCE,
    actor_lost_error_value,
    register_instance,
)
from repro.core.completion import CompletionPump, serve_stats
from repro.core.dependencies import DependencyTracker
from repro.core.lifecycle import LifecycleIndex, cancelled_error_value
from repro.core.object_ref import ObjectRef
from repro.core.protocol import (
    cluster_stats,
    normalize_get_refs,
    partition_by_ready,
    unwrap_loaded,
    unwrap_value,
    validate_wait_args,
)
from repro.core.task import CallTemplate, TaskSpec
from repro.core.worker import error_value_from
from repro.errors import (
    BackendError,
    GetTimeoutError,
    ObjectLostError,
    ReproError,
)
from repro.gcs import ControlStore, plan_recovery
from repro.proc import messages as msg
from repro.proc.objects import ObjectPlane
from repro.proc.transport import PipeTransport
from repro.proc.worker import worker_main
from repro.sched_plane.dispatch import DispatchPlane, WorkerSlot
from repro.utils.ids import ActorID, FunctionID, IDGenerator, NodeID, ObjectID, TaskID
from repro.utils.serialization import (
    DEFAULT_INLINE_THRESHOLD,
    deserialize_frame,
    deserialize_portable,
    serialize,
    serialize_buffers,
    serialize_portable,
    should_inline,
)

#: Default byte budget of the shared-memory data plane (``shm_capacity``
#: init option; 0 disables it).  Backed by lazily-committed pages: the
#: budget reserves address space, not resident memory.
DEFAULT_SHM_CAPACITY = 256 * 1024**2

#: Exception types that survive a pickle round-trip over the worker pipe
#: (their constructors accept the single message arg pickle replays).
_PIPE_SAFE_ERRORS = (
    BackendError,
    GetTimeoutError,
    ObjectLostError,
    TypeError,
    ValueError,
)


def _pipe_safe_error(tag: str, exc: BaseException) -> Exception:
    """An exception instance that is safe to send to a worker.

    Framework/validation errors pass through unchanged (their types
    unpickle cleanly); anything else — including exceptions raised by
    user payloads mid-deserialization — is wrapped in a
    :class:`BackendError` carrying its repr, because an arbitrary
    exception type may not unpickle in the child and would kill it."""
    if type(exc) in _PIPE_SAFE_ERRORS:
        return exc
    return BackendError(f"worker request {tag!r} failed: {exc!r}")


@dataclass
class _WorkerHandle(WorkerSlot):
    """Driver-side view of one worker process slot: its scheduling slot
    (the dispatch plane's) plus what carries messages to it."""

    conn: Any = None
    process: Any = None
    thread: Optional[threading.Thread] = None
    #: Functions this worker process already has: sent to it in a
    #: frame's function table, or announced by it in a SUBMIT_LOCAL one.
    functions_sent: set = field(default_factory=set)
    #: Serializes driver->worker sends: replies from the service thread
    #: interleave with steal requests and cancel notices sent by *other*
    #: threads on the same pipe.
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    #: One-way control messages parked when the pipe was congested;
    #: flushed (in order, ahead of the next message) by the service
    #: thread's next lock-free send.
    outbox: deque = field(default_factory=deque)
    #: The worker's parked ``GET``/``WAIT`` requests, by the key their
    #: late reply names: ``(request, deadline)``, answered by its
    #: service thread (:meth:`ProcRuntime._resume`).
    waits: dict = field(default_factory=dict)
    #: Late replies sent: an idle DONE that counts fewer crossed one,
    #: whose task reopens the session (:meth:`ProcRuntime._apply_done_frame`).
    late: int = 0

    def send(self, message: tuple) -> None:
        """One driver->worker send, serialized per pipe: the service
        thread's replies interleave with steal requests and cancel
        notices originated by other threads.  Parked control messages
        go first, so a deferred CANCEL_NOTICE still precedes the reply
        of the rpc whose handler queued it."""
        with self.send_lock:
            self.send_held(message)

    def send_held(self, message: tuple) -> None:
        """:meth:`send` for a caller that already holds ``send_lock``."""
        while self.outbox:
            self.conn.send(self.outbox.popleft())
        self.conn.send(message)

    def send_control(self, message: tuple) -> None:
        """A one-way control send that NEVER blocks — safe under the
        runtime lock.  ``Connection.send`` blocks when the OS pipe
        buffer is full (a worker's reader may be held up behind a large
        send of its own), and blocking there would freeze
        the whole runtime; a congested message parks in the outbox
        instead, sent by the worker's own service thread
        (:meth:`flush_outbox`, called lock-free at every serving point)
        or ahead of its next reply."""
        with self.send_lock:
            if not self.outbox and self.conn.writable():
                self.conn.send(message)
            else:
                self.outbox.append(message)

    def flush_outbox(self) -> None:
        """Deliver parked control messages (service thread only, runtime
        lock NOT held).  Blocking is acceptable here: only this worker's
        session stalls, and the thread was about to block on this very
        pipe anyway.  Outbox messages only exist for busy workers, whose
        service thread passes through here every serving iteration — so
        nothing can stay parked indefinitely."""
        if self.outbox:
            with self.send_lock:
                while self.outbox:
                    self.conn.send(self.outbox.popleft())


def _deadline(timeout: Optional[float]) -> Optional[float]:
    """When a blocking call made now with ``timeout`` gives up."""
    return None if timeout is None else time.monotonic() + timeout


def _time_left(
    deadline: Optional[float], backstop: Optional[float] = None
) -> Optional[float]:
    """How long a wait may sleep: until ``deadline``, ``backstop`` at
    most (None: for ever); not positive once the deadline has passed."""
    if deadline is None:
        return backstop
    left = deadline - time.monotonic()
    return left if backstop is None else min(left, backstop)


class _Parked(Exception):
    """A worker's ``GET``/``WAIT`` cannot be answered yet: it is parked
    (:meth:`ProcRuntime._serve_rpc`)."""


class ProcRuntime:
    """Multiprocess implementation of the backend protocol."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        seed: int = 0,
        num_workers: Optional[int] = None,
        inline_threshold: int = DEFAULT_INLINE_THRESHOLD,
        shm_capacity: int = DEFAULT_SHM_CAPACITY,
        dispatch_mode: str = "bottom_up",
        control_store: Optional[ControlStore] = None,
        recover: bool = False,
        tracing: bool = False,
    ) -> None:
        self.cluster = cluster or ClusterSpec.uniform(num_nodes=1, num_cpus=4)
        # Not an option: the benchmark's ``nested_fanout`` workload passes
        # this literal and the benchmark is not edited with the program,
        # so the parameter outlives the mode it used to select.  Nothing
        # reads it past this check.
        if dispatch_mode != "bottom_up":
            raise BackendError(
                f"init option dispatch_mode={dispatch_mode!r} for backend "
                "'proc' was removed: the bottom-up scheduling plane is the "
                "only dispatch path (drop the option)"
            )
        if num_workers is None:
            num_workers = self.cluster.total_cpus
        if not isinstance(num_workers, int) or num_workers < 1:
            raise BackendError(
                f"invalid init option num_workers={num_workers!r} for backend "
                "'proc'; must be a positive integer"
            )
        if inline_threshold < 0:
            raise BackendError(
                f"invalid init option inline_threshold={inline_threshold!r} "
                "for backend 'proc'; must be >= 0"
            )
        if not isinstance(shm_capacity, int) or shm_capacity < 0:
            raise BackendError(
                f"invalid init option shm_capacity={shm_capacity!r} for "
                "backend 'proc'; must be a non-negative integer (0 disables "
                "the shared-memory data plane)"
            )
        #: The control plane (the paper's GCS): lineage, object directory,
        #: actor registry, scheduler-visible state — behind its own lock
        #: instead of hanging off the driver lock (one shard: eight never
        #: measured reliably faster).  A store passed in from outside
        #: outlives this runtime (driver HA).
        if control_store is not None:
            self._control = control_store
            self._owns_control = False
        else:
            if recover:
                raise BackendError(
                    "recover=True requires control_store= (the store that "
                    "outlived the failed driver)"
                )
            self._control = ControlStore(num_shards=1)
            self._owns_control = True
        self._recover_requested = recover
        #: Generation salt: a recovered driver must never mint an id the
        #: dead one already handed out (same seed ⇒ same id stream).
        self._generation = self._control.register_generation()
        self.seed = seed
        namespace = f"repro-proc/{seed}"
        if self._generation > 1:
            namespace = f"{namespace}/gen{self._generation}"
        self.ids = IDGenerator(namespace=namespace)
        self.closed = False
        self._inline_threshold = inline_threshold
        #: The tracing plane (repro.obs): driver-local spans plus every
        #: worker's flushed buffers, merged onto one wall-clock timeline
        #: the R7 tools consume through the ``event_log`` property.
        self.tracing = bool(tracing)
        self._obs = obs.SpanCollector(enabled=self.tracing)
        self._spawn_count = 0

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: Event-driven completion notifications (repro.serve): watchers
        #: registered under the lock, callbacks dispatched outside it.
        self._completions = CompletionPump("repro-proc-completions")
        self._serve_pools: list = []

        self.head_node_id = self.ids.node_id()
        self._lifecycle = LifecycleIndex()
        nodes, workers_per_node = self._node_hooks()
        #: Where every object lives and what holds it (repro.proc.objects).
        self._objects = ObjectPlane(
            self.head_node_id,
            self._cond,
            self._control,
            self._obs,
            store_capacity=sum(n.object_store_capacity for n in self.cluster.nodes),
            shm_capacity=shm_capacity,
            num_workers=num_workers,
            seed=seed,
            inline_threshold=inline_threshold,
            is_cancelled=self._lifecycle.is_cancelled,
            arrived=self._object_arrived,
            requeue=lambda spec: self._dispatch.requeue(spec),
            nodes=nodes,
            workers_per_node=workers_per_node,
        )
        self._deps = DependencyTracker()
        #: What a function id means: registered here with its callable,
        #: or learnt from a worker as code (the driver never calls it).
        self.functions = msg.FunctionTable()
        self.actors = ActorRegistry(self._control)
        #: What runs where, in which frame, and who gives work back
        #: (repro.sched_plane.dispatch); the pool is its list, of this
        #: module's handles.
        self._dispatch = DispatchPlane(
            self.actors,
            self._objects.residency,
            self._obs,
            is_cancelled=self._lifecycle.is_cancelled,
            is_waiting=self._deps.is_waiting,
            fail=self._objects.store_error,
            adopt=self._adopt,
        )
        self._workers: list[_WorkerHandle] = self._dispatch.workers

        self._tasks_executed = 0
        self._workers_crashed = 0
        #: Keys of parked requests (``_WorkerHandle.waits``).
        self._park_keys = itertools.count()

        self._mp = multiprocessing.get_context("spawn")
        with self._cond:
            for index in range(num_workers):
                self._spawn_worker(index)
        self.node_ids = [self.head_node_id]
        self._objects.count_handles()
        if self._recover_requested:
            self._recover_from_control()

    # ------------------------------------------------------------------
    # Backend protocol: registration and submission
    # ------------------------------------------------------------------

    def register_function(self, function: Callable, name: str) -> FunctionID:
        function_id = self.ids.function_id()
        with self._cond:
            self.functions.add(function_id.hex, name, function)
        return function_id

    def submit_call(self, template: CallTemplate, args: tuple, kwargs: dict) -> Any:
        """Submit one call of ``template`` (what ``.remote()`` calls): its
        arguments pickled once, before the lock is taken, into the wire
        entry the task keeps (``TaskSpec.wire``); then two fresh ids,
        one argument scan, the write-ahead record and a placement.  An
        argument that does not pickle resolves the call's refs to that
        error (nothing raises here)."""
        try:
            call = msg.encode_call(args, kwargs)
        except (TypeError, ReproError) as exc:
            call = exc
        with self._cond:
            self._check_open()
            template.check_feasible(self.cluster)
            self._objects.drain(batched=True)
            spec = template.stamp(self.ids, args, kwargs, self.head_node_id)
            if isinstance(call, Exception):
                self._objects.store_error(spec, error_value_from(spec, call))
            else:
                spec.wire = msg.encode_entry(spec, call_bytes=call)
                self._submit_spec(spec)
        return spec.public_result()

    def _submit_spec(self, spec: TaskSpec, row: Any = None) -> None:
        """Gate on unproduced dependencies, else enqueue (lock held).

        The control write is the write-ahead lineage record: synchronous,
        and strictly before the task can reach any worker, so a crash at
        any later point finds it in the task table and can replay.  It
        is the spec, which carries its wire entry — or ``row``, a
        worker-born task's (:meth:`_row`).  The task's pins come first,
        and the spec keeps no argument value from here: the record (and
        everything else that keeps the spec) names its ref arguments
        without holding them, and its entry holds the rest.
        """
        if spec.argument_refs():
            self._objects.pin_task(spec)
        else:
            spec.args, spec.kwargs = (), {}
        self._control.task_put(
            spec.task_id, spec if row is None else row, node=self.head_node_id
        )
        if self._obs.enabled:
            obs.task_submitted(self._obs, spec, False)
        self._lifecycle.register(spec)
        missing = None
        if spec.pins:
            has = self._objects.has
            missing = {dep for dep in spec.pins if not has(dep)}
        if missing:
            self._deps.add(spec, missing)
        else:
            self._dispatch.route(spec)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Actor protocol (repro.core.actors; lock held in the hooks)
    # ------------------------------------------------------------------

    create_actor = actors.create_actor
    call_actor = actors.call_actor
    get_actor = actors.get_actor

    def _current_node_id(self) -> NodeID:
        return self.head_node_id

    def _actor_home(self, spec: TaskSpec) -> NodeID:
        """The hinted worker if it is alive, else the least loaded one:
        the constructor runs there and the live instance stays."""
        return self._dispatch.home_for_actor(spec.placement_hint).node_id

    def _submit_actor_task(self, record, spec: TaskSpec) -> None:
        """Stand the task in its actor's lane (a constructor opens it),
        which is what serializes the actor's methods: there is no
        dependency on the previous call's result, so a call waits for
        its own arguments and for nothing else.  A call a worker made
        comes with its worker's entry; any other task's is encoded here
        — a call's names its actor and method, a constructor's also the
        class's name, resources and code.  A task that cannot be encoded
        resolves to that error and never stands in the lane, so the
        calls behind it go on (a constructor's lane opens empty, and its
        calls fail their pre-dispatch check)."""
        creation = spec.actor_method == CREATION_METHOD
        if spec.wire is None:
            actor, extras = (spec.actor_id, spec.actor_method, None, None), {}
            try:
                if creation:
                    actor = actor[:2] + (record.class_name, spec.resources)
                    extras["code"] = serialize_portable(spec.function)
                spec.wire = msg.encode_entry(spec, actor=actor, **extras)
            except (TypeError, ReproError) as exc:
                if creation:
                    self._dispatch.open_lane(record, None)
                self._objects.store_error(spec, error_value_from(spec, exc))
                return
        if creation:
            self._dispatch.open_lane(record, spec)
        else:
            self._dispatch.join_lane(record, spec)
        self._submit_spec(spec)

    # ------------------------------------------------------------------
    # Blocking primitives
    # ------------------------------------------------------------------

    def get(self, refs: Any, timeout: Optional[float] = None) -> Any:
        """Each value loaded and unwrapped outside the lock — zero-copy
        from shm (the lease holds the window), deserialized from bytes
        on the pipe plane (this frame holds them)."""
        self._check_open()
        ref_list, single = normalize_get_refs(refs)
        deadline = _deadline(timeout)
        values = []
        for ref in ref_list:
            view, data = self._resident(ref.object_id, deadline)
            if view is not None:
                values.append(unwrap_loaded(deserialize_frame(view)))
            else:
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
        object_ids = [ref.object_id for ref in ref_list]
        has = self._objects.has
        self._wait_idle(
            lambda: sum(map(has, object_ids)) >= num_returns, _deadline(timeout)
        )
        with self._cond:
            ready = {object_id for object_id in object_ids if has(object_id)}
        return partition_by_ready(ref_list, lambda ref: ref.object_id in ready)

    def put(self, value: Any) -> ObjectRef:
        self._check_open()
        plane = self._objects
        if plane.shm is not None:
            serialized = serialize_buffers(value)
            if not should_inline(serialized.total_bytes, self._inline_threshold):
                object_id = self.ids.object_id()
                plane.put_large(object_id, serialized)
                return ObjectRef(object_id)
            data = serialized.joined()
        else:
            data = serialize(value)
        with self._cond:
            plane.drain()
            ref = ObjectRef(self.ids.object_id())
            plane.store_bytes(ref.object_id, data)
        return ref

    def cancel(self, ref: ObjectRef, recursive: bool = False) -> bool:
        """Cancel the task producing ``ref`` (shared core semantics).  A
        worker-born producer the driver never adopted is adopted first
        while its worker still queues it; a task's ref that no mirror
        queues either finished unadopted: the cancel comes too late."""
        self._check_open()
        with self._cond:
            if (
                isinstance(ref, ObjectRef)
                and self._lifecycle.spec_for(ref.object_id) is None
                and self._dispatch.adopt_producer(ref.object_id) is None
                and ref.producer_task is not None
            ):
                return False
            return lifecycle.cancel(self, ref, recursive=recursive)

    # -- lifecycle hooks (see repro.core.lifecycle); lock held ----------

    def _lifecycle_guard(self):
        return self._cond

    def _result_ready(self, object_id: ObjectID) -> bool:
        return self._objects.has(object_id)

    def _store_cancelled(self, spec: TaskSpec) -> None:
        """The cancellation marker takes the task's slots, and the task
        leaves the scheduling plane: the driver's own queues drop it at
        the next walk; a task sitting in a *worker's* local queue
        additionally gets a CANCEL_NOTICE so the owner drops it before
        dispatch — the worker-side half of the never-executes guarantee.
        A cancel initiated by the owner worker itself is fully
        race-free: the notice is queued on its pipe before the CANCEL
        rpc's reply, so the tombstone is local by the time ``cancel()``
        returns in the task body."""
        self._objects.store_error(
            spec,
            cancelled_error_value(spec, "cancelled before a result was produced"),
        )
        worker = self._dispatch.cancel(spec)
        if worker is not None:
            try:
                worker.send_control((msg.CANCEL_NOTICE, spec.task_id.hex))
            except OSError:
                pass  # dying worker: the crash handler owns cleanup

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
        """The collected live trace (None unless ``tracing=True``); the
        same :class:`~repro.store.event_log.EventLog` shape as the sim's,
        so the R7 tools consume either interchangeably."""
        return self._obs.event_log

    def stats(self) -> dict:
        with self._cond:
            objects = self._objects.stats()
            alive = sum(1 for w in self._workers if w.alive)
            return {
                "tasks_executed": self._tasks_executed,
                "tasks_waiting": len(self._deps),
                "actors_created": len(self.actors),
                "num_workers": alive,
                "workers_crashed": self._workers_crashed,
                "tasks_cancelled": self._lifecycle.cancelled_count,
                **objects,
                "sched": self._dispatch.counters.snapshot(),
                "obs": self._obs.stats(),
                "serve": serve_stats(self._serve_pools, self._completions),
                "control": self._control.stats(),
                # One node (the dist backend overrides this section).
                "cluster": cluster_stats(
                    [
                        (
                            True, os.getpid(), objects["shm_enabled"], 0.0, alive,
                            objects["objects_stored"],
                            objects["object_store_bytes"],
                        )
                    ],
                    len(self._workers),
                ),
            }

    # ------------------------------------------------------------------
    # Fault injection / introspection
    # ------------------------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """Fault injection: SIGKILL one worker process (the ``proc``
        analogue of the sim backend's ``kill_node``).  Detection happens
        on the worker's pipe, and recovery is lineage replay."""
        with self._cond:
            self._check_open()
            if not 0 <= index < len(self._workers):
                raise ValueError(f"no worker with index {index}")
            worker = self._workers[index]
        worker.process.kill()

    def worker_for_actor(self, actor_id: ActorID) -> Optional[int]:
        """Index of the worker process hosting an actor (tests/tools)."""
        with self._cond:
            record = self.actors.get(actor_id)
            if record is None:
                raise BackendError(f"unknown actor {actor_id}")
            home = self._dispatch.by_node.get(record.node_id)
            return home.index if home is not None else None

    def worker_pids(self) -> list:
        """PIDs of the live worker processes."""
        with self._cond:
            return [w.process.pid for w in self._workers if w.alive]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise BackendError("runtime is shut down")

    def replica_targets(self) -> list:
        """Node ids of live workers — placement targets for pool replicas."""
        with self._cond:
            return [w.node_id for w in self._workers if w.alive]

    def register_serve_pool(self, pool) -> None:
        with self._cond:
            self._serve_pools.append(pool)

    def shutdown(self) -> None:
        if self.closed:
            return
        for pool in list(self._serve_pools):
            pool.close()
        self._end_pool(crashed=False)
        if self._owns_control:
            self._control.close()

    def fail_driver(self) -> None:
        """Fault injection: die like a crashed driver process.

        Tears down everything the driver owns — worker pool, service
        threads, shm segments — but NEVER the control store, which by
        design outlives the driver (even when ``_owns_control``: the
        test of HA is that it keeps working after the driver is gone).
        A fresh runtime constructed with ``control_store=<same store>,
        recover=True`` picks up the workload (see
        :mod:`repro.gcs.recovery`).
        """
        if not self.closed:
            self._end_pool(crashed=True)

    def _end_pool(self, crashed: bool) -> None:
        """Close the runtime and end its pool: wait for every service
        thread and process, release what the driver owns beside the
        control store.  Busy children may be deep in user code (even
        sleeping forever) and are killed; idle ones get a graceful
        shutdown from their service thread, which wakes on ``closed``
        and owns the pipe's send side.  A crashing driver does not say
        goodbye: it hard-kills them all."""
        with self._cond:
            self.closed = True
            workers = list(self._workers)
            kill = [
                w for w in workers
                if w.alive and (crashed or w.inflight or w.busy)
            ]
            self._cond.notify_all()
        for worker in kill:
            worker.process.kill()
        for worker in workers:
            if worker.thread is not None:
                worker.thread.join(timeout=5.0)
        for worker in workers:
            if worker.process is not None:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._objects.shutdown()
        self._completions.stop()

    def _recover_from_control(self) -> None:
        """Execute the dead driver's :func:`plan_recovery` plan (end of
        ``__init__``: workers are up, nothing is in flight yet)."""
        plan = plan_recovery(self._control)
        with self._cond:
            plane = self._objects
            plane.escape([object_id.hex for object_id in plan.handed_out()])
            for object_id, payload in plan.ready_payloads.items():
                if not plane.has(object_id):
                    plane.store_bytes(object_id, payload)
            for object_id in plan.unrecoverable:
                # An error marker beats a ``get`` that hangs forever.
                plane.store_bytes(
                    object_id, serialize(plan.lost_object_error(object_id))
                )
            for entry in plan.actor_entries:
                # Provenance without state: the live instance died with
                # the old driver's worker pool.
                self.actors.mark_lost(
                    self.actors.create(
                        entry.actor_id,
                        entry.spec["class_name"],
                        entry.spec["resources"],
                        None,
                        name=entry.name,
                    )
                )
            pending = [(spec, None) for spec in plan.pending_specs]
            for spec, payload in pending + plan.pending_payloads:
                if spec.actor_id is not None:
                    record = self.actors.get(spec.actor_id)
                    plane.store_error(
                        spec,
                        actor_lost_error_value(spec, record)
                        if record is not None
                        else plan.lost_actor_error(spec),
                    )
                    continue
                # Every stateless row runs again from its wire entry,
                # through the submission's dependency gate.  Nothing of
                # the dead driver's function table is needed: a
                # driver-born spec carries its callable, a worker-born
                # row the row of the function its entry names.
                if payload is None:
                    self.functions.add(
                        spec.function_id.hex, spec.function_name, spec.function
                    )
                    self._submit_spec(spec)
                else:
                    self.functions.learn(payload[1])
                    spec = self._decode(payload[0])
                    self._submit_spec(spec, self._row(spec))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Worker pool internals
    # ------------------------------------------------------------------

    def _spawn_worker(self, index: int) -> _WorkerHandle:
        """Start one child process + its service thread (lock held)."""
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        worker = _WorkerHandle(
            index=index,
            node_id=self.ids.node_id(),
            conn=PipeTransport(parent_conn),
        )
        # The spawn token salts the worker's local id namespace so a
        # replacement worker in the same slot never re-issues ids its
        # dead predecessor already handed out.
        self._spawn_count += 1
        process = self._mp.Process(
            target=worker_main,
            args=(
                child_conn, index, self.seed, self._objects.shm is not None,
                self._inline_threshold, self._spawn_count, self.tracing,
                self.cluster,
            ),
            name=f"repro-proc-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        worker.process = process
        threading.Thread(
            target=self._wake_on_exit,
            args=(process.sentinel,),
            name=f"repro-exit-{index}",
            daemon=True,
        ).start()
        return self._serve_worker(worker)

    def _wake_on_exit(self, sentinel: int) -> None:
        """Notify the runtime cond when a worker process exits: its
        service thread, if every task of the worker is parked, waits on
        the cond, not on the pipe, and finds the EOF at once."""
        multiprocessing.connection.wait([sentinel])
        with self._cond:
            self._cond.notify_all()

    def _serve_worker(self, worker: _WorkerHandle) -> _WorkerHandle:
        """Enter a spawned worker into the pool and start the service
        thread that feeds it (lock held)."""
        self._dispatch.add_worker(worker)
        worker.thread = threading.Thread(
            target=self._service_loop,
            args=(worker,),
            name=f"repro-service-{worker.index}",
            daemon=True,
        )
        worker.thread.start()
        return worker

    # ------------------------------------------------------------------
    # Sessions, the mirror, and the steal broker's messages
    # ------------------------------------------------------------------

    def _service_loop(self, worker: _WorkerHandle) -> None:
        """The driver tier's per-worker loop: hand the idle worker one
        TASK frame to open a *session* — or the late replies that resume
        its parked tasks — then serve everything the session produces
        (rpc requests, SUBMIT_LOCAL notices, DONE frames, steal grants)
        until the worker reports nothing left to run."""
        while True:
            frame = self._next_frame(worker)
            if frame is None:
                try:
                    worker.send((msg.SHUTDOWN,))
                except OSError:
                    pass
                return
            try:
                if self._ship_frame(worker, frame) if frame else (
                    self._resume(worker) or worker.busy or worker.conn.poll(0)
                ):
                    self._serve(worker)
                else:
                    with self._cond:
                        self._dispatch.idle(worker)
                        self._cond.notify_all()
            except (EOFError, OSError) as exc:
                # The inflight table plus the mirror are exactly what
                # died with the worker (a frame that never reached the
                # pipe was never registered in either).
                self._handle_worker_crash(worker, exc)
                return  # a replacement thread owns the slot now

    def _next_frame(self, worker: _WorkerHandle) -> Optional[list]:
        """Block until this worker has work (or shutdown) and claim one
        frame of it (:meth:`DispatchPlane.claim_frame`) — or, failing
        that, ask a busy worker to give up the tail of its local queue
        (answered asynchronously by a STEAL_GRANT).  ``[]``: a parked
        request of the worker can be answered, or its pipe has something
        to read (a late grant, or the EOF of a worker that died with
        only parked tasks)."""
        with self._cond:
            while True:
                if self.closed or not worker.alive:
                    return None
                waits = worker.waits.values()
                if waits and (
                    any(self._due(*wait) for wait in waits) or worker.conn.poll(0)
                ):
                    return []
                frame = self._dispatch.claim_frame(worker)
                if frame:
                    return frame
                self._request_steal(worker)
                # The grant lands on the victim's pipe and is applied by
                # the victim's thread; that, like a submit, an arrival,
                # shutdown or a worker's exit, notifies the cond, and a
                # parked request's deadline bounds the wait.
                deadline = min((d for _m, d in waits if d is not None), default=None)
                self._cond.wait(timeout=_time_left(deadline))

    def _serve(self, worker: _WorkerHandle) -> None:
        """Read the worker's pipe, applying its reports and answering
        its requests, while its session is open (``worker.busy``, until
        the idle DONE) — and at least once.  This thread is the pipe's
        only reader, and delivers the control messages parked for it; a
        dead child raises out of ``recv`` into the crash path."""
        worker.flush_outbox()
        while True:
            message = worker.conn.recv()
            tag = message[0]
            if tag == msg.DONE:
                self._apply_done_frame(worker, message)
            elif tag == msg.SUBMIT_LOCAL:
                self._register_local_submit(worker, *message[1:])
            elif tag == msg.STEAL_GRANT:
                self._apply_steal_grant(worker, *message[1:])
            elif tag == msg.SPANS:
                self._ingest_worker_obs(worker, message[1])
            else:
                self._serve_rpc(worker, message)
            if worker.waits:
                self._resume(worker)
            worker.flush_outbox()
            if not worker.busy:
                return

    def _request_steal(self, thief: _WorkerHandle) -> None:
        """Send the STEAL_REQUEST the plane decides on, if any
        (:meth:`DispatchPlane.request_steal`; lock held).  The victim's
        reader answers at once, whatever its tasks are doing — which is
        what takes a frame's tail back from behind a head that outran
        its estimate — and the grant comes back on the victim's pipe and
        is applied by the victim's own service thread."""
        ask = self._dispatch.request_steal(thief)
        if ask is None:
            return
        victim, count = ask
        try:
            victim.send_control((msg.STEAL_REQUEST, count))
        except OSError:
            return  # victim died; its crash handler owns the cleanup

    def _obs_worker_extra(self, worker: _WorkerHandle) -> dict:
        """Identity keys stamped onto spans a worker recorded about
        itself (it does not know its driver-side names).  The dist
        backend overrides this to name the worker's real node."""
        return {"worker": f"worker-{worker.index}", "node": "node-0"}

    def _ingest_worker_obs(self, worker: _WorkerHandle, blob: Any) -> None:
        """Merge one worker's flushed span buffer onto the timeline."""
        if blob is not None and self._obs.enabled:
            self._obs.ingest(
                ("worker", worker.index),
                blob,
                extra=self._obs_worker_extra(worker),
            )

    def _ship_frame(self, worker: _WorkerHandle, specs: list) -> bool:
        """Register and send one TASK frame — each task's birth entry
        with a fresh ``inline`` table (:meth:`_encode_task`) — and the
        rows of the functions this worker lacks; False if nothing was
        left to send.

        Until this point the specs were owned by the calling service
        thread alone (popped from every queue, registered nowhere).  A
        task whose argument is gone, or whose function's code does not
        pickle, resolves to an error in every slot; the rest become the
        worker's (:meth:`DispatchPlane.ship`).  The tables are filled,
        the frame registered and the pipe's send lock taken under one
        hold of the runtime lock, so a CANCEL_NOTICE for a mirrored task
        can only ever follow the frame that carries it."""
        functions: dict = {}  # the frame's table: rows this worker lacks
        with self._cond:
            if self.closed:
                return False
            encoded = []
            for spec in specs:
                try:
                    encoded.append((spec, self._encode_task(spec, worker, functions)))
                except (TypeError, ReproError) as exc:
                    self._objects.store_error(spec, error_value_from(spec, exc))
                    self._dispatch.settle(spec)
            # (A worker that died under us — dist: its node's link — is
            # sent nothing, so nothing is lost: back to the plane.)
            shipped = self._dispatch.ship(worker, encoded)
            if not shipped:
                self._cond.notify_all()
                return False
            worker.send_lock.acquire()
        try:
            worker.functions_sent.update(functions)
            worker.send_held(
                (msg.TASK, [entry for _spec, entry in shipped], functions)
            )
        finally:
            worker.send_lock.release()
        return True

    def _apply_done_frame(self, worker: _WorkerHandle, message: tuple) -> None:
        """One DONE frame: every completion it carries, the session end
        if it says so, and the control-store writes they cause — under
        one hold of the runtime lock, with one wake-up of whoever waits
        on it, one enqueue into the control store's writer and one
        update of each function's execution-time estimate."""
        completions, late = message[1], message[2]
        if len(message) > 3:  # optional trailing obs blob
            self._ingest_worker_obs(worker, message[3])
        with self._cond, self._control.async_batch():
            self._objects.drain(batched=True)
            self._dispatch.counters.done_frames += 1
            # A child still queued here when its parent ends is adopted
            # first: nothing else would recreate it after a driver
            # restart, and its pins must precede the parent's releases.
            orphan = (
                functools.partial(self._dispatch.adopt_producer, worker=worker)
                if len(worker.mirror) else None
            )
            times: dict = {}
            for task_hex, blobs, failed, exec_seconds in completions:
                # The plane resolves the raw id to what the worker was
                # given or kept: the spec, or a worker-born task's wire
                # entry alone (never adopted), or neither — cancelled
                # while it ran, and the marker owns the result slots.
                spec, entry = self._dispatch.done(worker, task_hex)
                self._objects.drop_born(task_hex, orphan)
                if spec is None:
                    if entry is None:
                        self._objects.discard(blobs)
                        continue
                    if failed or not self._objects.inline(blobs):
                        spec = self._dispatch.adopt(worker, entry)
                    else:
                        self._finish_spec(worker, None, blobs, False, entry)
                        function_id = self.functions.template(entry[1]).function_id
                        times.setdefault(function_id, []).append(exec_seconds)
                        continue
                self._finish_spec(worker, spec, blobs, failed)
                if spec.actor_method != CREATION_METHOD:  # never estimated
                    times.setdefault(spec.function_id, []).append(exec_seconds)
            for function_id, samples in times.items():
                self._dispatch.note_exec_times(function_id, samples)
            if late == worker.late:  # idle, and no late reply crossed it
                self._dispatch.idle(worker)
            self._objects.flush_deletes()
            self._cond.notify_all()

    def _register_local_submit(
        self, worker: _WorkerHandle, entries: list, table: dict, escaped=(),
        routed=(), puts=(),
    ) -> None:
        """One SUBMIT_LOCAL notice, applied under one lock hold in this
        order and acked with one PLACED.  ``puts`` are the worker's puts
        and seals (:meth:`ObjectPlane.worker_put`).  ``entries`` are the
        nested tasks a worker kept on its own queue (the fast path):
        each is mirrored — its wire tuple, its return ids held for the
        parent it was born in — and nothing is decoded: the driver
        adopts a task (:meth:`_adopt`) only when something needs it.
        ``escaped`` are the objects whose refs the worker pickled or
        kept past their task (a notice may carry nothing else); an
        escaped return of a task still queued is adopted, since others
        may now name it.  ``routed`` are the tasks the worker could not
        keep and its actor calls, placed by this tier in submission
        order (:meth:`_submit_routed`).  ``table`` names the functions
        the worker submits here for the first time.  Pipe FIFO
        guarantees this runs before any DONE or STEAL_GRANT mentioning
        any of the tasks, and before any bytes that carry one of those
        refs."""
        with self._cond, self._control.async_batch():
            self.functions.learn(table, worker.functions_sent)
            for object_hex, data, born_in in puts:
                self._objects.worker_put(object_hex, data, worker.index, born_in)
            for entry in entries:
                return_ids = tuple([ObjectID(return_hex) for return_hex in entry[2]])
                self._objects.hold_born(entry[5].get("parent"), return_ids)
                self._dispatch.born_on(worker, entry, return_ids)
            if escaped:
                self._objects.escape(escaped)
                for object_hex in escaped:
                    self._dispatch.adopt_producer(ObjectID(object_hex))
            for entry in routed:
                self._submit_routed(worker, entry)
            self._cond.notify_all()  # idle thieves may now see a victim
        if entries or routed or puts:
            worker.send((msg.PLACED, len(entries) + len(routed) + len(puts)))

    def _submit_routed(self, worker: _WorkerHandle, entry: tuple) -> None:
        """A worker-born task its worker could not keep — the paper's
        spillover stream into the driver tier — or an actor call made on
        a worker (lock held), submitted like one born here under the ids
        and with the entry its worker made: the driver never unpickles
        its arguments, and ships its worker's ``call_bytes``.  Its
        returns stay held for the task it was born in.  A call counts in
        its actor's row and stands in its lane; one to an actor this
        driver does not know fails its returns."""
        spec = self._decode(entry, worker.node_id)
        self._objects.hold_born(entry[5].get("parent"), spec.all_return_ids())
        if spec.actor_id is None:
            self._dispatch.counters.tasks_spilled += 1
            if self._obs.enabled:
                self._obs.record("task_spilled", function=spec.function_name)
            self._submit_spec(spec, self._row(spec))
            return
        record = self.actors.get(spec.actor_id)
        if record is None:
            exc = BackendError(f"unknown actor {spec.actor_id}")
            self._objects.store_error(spec, error_value_from(spec, exc))
            return
        self._control.actor_update(spec.actor_id, method_inc=True)
        self._submit_actor_task(record, spec)

    def _decode(self, entry: tuple, node: Any = None) -> TaskSpec:
        """The spec of a worker-born task's wire entry, born on ``node``:
        it carries the entry, and names its ref arguments (the entry's
        ``deps``) as bare refs — what its pins, placement and every ship
        read."""
        spec = msg.decode_entry(entry, self.functions, node, self.actors, self.ids)
        spec.wire = entry
        deps = entry[5].get("deps")
        spec.arg_refs = (
            tuple([ObjectRef._uncounted(ObjectID(dep)) for dep in deps])
            if deps else ()
        )
        return spec

    def _row(self, spec: TaskSpec) -> dict:
        """A worker-born task's lineage record: its spec, and its wire
        entry with the row of the function it names — what a driver
        that never saw the worker's table needs to run it again."""
        rows = self.functions.rows((spec.function_id.hex,))
        return {"spec": spec, "payload": (spec.wire, rows)}

    def _adopt(self, entry: tuple, node: Any = None) -> TaskSpec:
        """A worker-born task becomes this driver's to keep (lock held),
        its wire entry decoded into a spec (:meth:`_decode`): its
        lifecycle entry, the pins on its ref arguments, and its lineage
        record (:meth:`_row`) — async by design (the fast path is
        already acked one-way)."""
        spec = self._decode(entry, node)
        self._lifecycle.register(spec)
        if spec.arg_refs:
            self._objects.pin_task(spec)
        self._control.async_task_put(spec.task_id, self._row(spec), node=node)
        return spec

    def _apply_steal_grant(
        self, victim: _WorkerHandle, task_hexes: list, midtask: bool = False
    ) -> None:
        """The victim gave up the tail of its local queue: the plane
        re-homes those tasks through the global queue
        (:meth:`DispatchPlane.apply_grant`); the control store hears of
        each."""
        with self._cond:
            for spec in self._dispatch.apply_grant(victim, task_hexes, midtask):
                self._control.async_task_update(spec.task_id, state="stolen")
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # One task on one worker
    # ------------------------------------------------------------------

    def _encode_task(
        self, spec: TaskSpec, worker: _WorkerHandle, functions: dict
    ) -> tuple:
        """One frame entry (lock held): the entry the task was born with
        (``TaskSpec.wire``, pickled once where it was submitted) — with a
        fresh ``inline`` table, filled by :meth:`ObjectPlane.arg_slot`
        for each ref argument, when it has any — and the task's function
        into ``functions``, the frame's table, unless this worker
        already has it.  So a steal, a replay and a recovered driver all
        ship the same ``call_bytes``.  Actor tasks name no registered
        function: what they run lives on the worker already, except a
        constructor's class, which rides in the entry."""
        entry = spec.wire
        if entry[msg.ENTRY_INLINE] is not None:
            inline: dict = {}
            for ref in spec.arg_refs:
                self._objects.arg_slot(ref.object_id, worker.index, inline)
            entry = entry[:4] + (inline, entry[5])
        if spec.actor_id is None and entry[1] not in worker.functions_sent:
            functions.update(self.functions.rows((entry[1],)))
        return entry

    def _finish_spec(
        self,
        worker: _WorkerHandle,
        spec: Optional[TaskSpec],
        blobs: list,
        failed: bool,
        entry: Optional[tuple] = None,
    ) -> None:
        """Record one completed task and publish its results (lock held;
        the spec is already off the inflight stack / mirror).  With no
        ``spec`` the worker-born task was never adopted: it has no row
        to update, and its inline results are published from its wire
        ``entry``."""
        self._tasks_executed += 1
        if spec is None:
            self._objects.finish(None, blobs, worker.index, entry)
            if self._obs.enabled:
                template = self.functions.template(
                    entry[1], entry[5].get("options")
                )
                obs.result_stored(
                    self._obs, TaskID(entry[0]), template.function_name,
                    len(entry[2]), False, f"worker-{worker.index}",
                )
            return
        self._control.async_task_update(
            spec.task_id,
            state="failed" if failed else "finished",
            node=worker.node_id,
        )
        if spec.actor_id is not None:
            record = self.actors.get(spec.actor_id)
            if record is not None and not record.dead and not failed:
                if spec.actor_method == CREATION_METHOD:
                    # The live instance exists in the worker process;
                    # the driver records only that binding — in the row
                    # synchronously, as its loss is (mark_lost), so the
                    # two can never land out of order.
                    register_instance(record, REMOTE_INSTANCE, worker.node_id)
                    self._control.actor_update(
                        spec.actor_id, state="alive", node=worker.node_id
                    )
                else:
                    record.methods_executed += 1
        if self._lifecycle.is_cancelled(spec.task_id):
            # Cancelled mid-run: the marker owns the slots.
            self._objects.discard(blobs)
            return
        self._objects.finish(spec, blobs, worker.index)
        if self._obs.enabled:
            obs.result_stored(
                self._obs, spec.task_id, spec.function_name,
                spec.num_returns, failed, f"worker-{worker.index}",
            )

    # ------------------------------------------------------------------
    # Worker request service
    # ------------------------------------------------------------------

    def _serve_rpc(self, worker: _WorkerHandle, message: tuple) -> None:
        """Answer one worker request, or park it: a GET/WAIT that cannot
        be answered yet is answered "pending" and kept in the worker's
        table of pending waits."""
        deadline = _deadline(message[-1]) if message[0] in (msg.GET, msg.WAIT) else None
        try:
            sent = self._answer(worker, message, deadline)
        except _Parked:
            with self._cond:
                key = next(self._park_keys)
                worker.waits[key] = (message, deadline)
                self._dispatch.counters.tasks_parked += 1
            sent = (msg.PENDING, key)
        worker.send(sent)

    def _answer(self, worker: _WorkerHandle, message: tuple, deadline) -> tuple:
        """A worker request's reply, ``(OK, value)`` or ``(ERR,
        exception)``, or :class:`_Parked` (a GET/WAIT has to wait)."""
        tag = message[0]
        try:
            plane = self._objects
            if tag == msg.FETCH:
                plane.pull(message[1])  # a node-resident one comes here first
                with self._cond:
                    reply = plane.fetch_bytes(message[1], worker.index)
            elif tag == msg.GET or tag == msg.WAIT:
                with self._cond:
                    if not self._due(message, deadline):
                        raise _Parked
                    reply = [object_id for object_id in message[1] if plane.has(object_id)]
                    if tag == msg.GET:
                        # One slot per id, as a shipped entry's ``inline``
                        # table: bytes, a descriptor, or None (the worker
                        # resolves it through its cache or a FETCH).
                        if len(reply) < len(message[1]):
                            absent = next(i for i in message[1] if not plane.has(i))
                            raise GetTimeoutError(f"get timed out waiting for {absent}")
                        slots: dict = {}
                        for object_id in reply:
                            plane.arg_slot(object_id, worker.index, slots)
                        reply = [slots.get(object_id) for object_id in reply]
            elif tag == msg.SHM_CREATE:
                # No id named: a put, which gets a fresh one.
                with self._cond:
                    reply = plane.grant(
                        message[1] or self.ids.object_id(), message[2], worker.index
                    )
            elif tag == msg.SHM_ABORT:
                with self._cond:
                    reply = plane.abort_grant(message[1])
            elif tag == msg.CANCEL:
                reply = self.cancel(
                    ObjectRef._uncounted(message[1], message[3]),
                    recursive=message[2],
                )
            elif tag == msg.GET_ACTOR:
                reply = self.get_actor(message[1])
            elif tag == msg.CREATE_ACTOR:
                reply = self._create_actor_from_worker(message[1])
            else:
                raise BackendError(f"unknown worker message {tag!r}")
        except (_Parked, EOFError, OSError):
            raise  # parked, or a pipe failure: crash handling, not a reply
        except BaseException as exc:  # noqa: BLE001 - user payloads can
            # raise anything (hostile __setstate__, unpicklable args); the
            # service thread must survive and answer, or the waiting child
            # process is stranded forever with no crash to detect.
            return (msg.ERR, _pipe_safe_error(tag, exc))
        return (msg.OK, reply)

    def _due(self, message: tuple, deadline: Optional[float]) -> bool:
        """Whether a worker's GET/WAIT can be answered now (lock held):
        every object of the get, or ``num_returns`` of the wait's, is
        here — or its deadline has passed."""
        needed = len(message[1]) if message[0] == msg.GET else message[2]
        if sum(map(self._objects.has, message[1])) >= needed:
            return True
        return deadline is not None and time.monotonic() >= deadline

    def _resume(self, worker: _WorkerHandle) -> None:
        """Send the late reply of every parked request of ``worker``
        that can be answered now.  Each one reopens the worker's session
        (its task runs again), so the worker is busy from then on, until
        an idle DONE that counts it."""
        for key, (message, deadline) in list(worker.waits.items()):
            try:
                reply = self._answer(worker, message, deadline) + (key,)
            except _Parked:
                continue  # not due yet
            with self._cond:
                worker.waits.pop(key, None)
                worker.busy, worker.late = True, worker.late + 1
            worker.send(reply)

    def _resident(self, object_id: ObjectID, deadline: Optional[float]) -> tuple:
        """The driver's own ``get`` of one object: block until it is
        resident *here* and read it under that hold of the lock, as a
        value to load (:meth:`ObjectPlane.read`)."""
        plane = self._objects
        left: Optional[float] = None
        while left is None or left > 0:
            with self._cond:  # (allocates nothing when it is here already)
                arrived = plane.has(object_id)
                if arrived and not plane.only_on_node(object_id):
                    return plane.read(object_id)
            if not arrived:
                if not self._wait_idle(lambda: plane.has(object_id), deadline):
                    break
            # It lives on a node alone: bring a copy here.  A pull that
            # fails (the node was lost under it) leaves a reconstruction,
            # or its error marker, to wait for — while there is time.
            elif not plane.pull(object_id):
                left = _time_left(deadline)
        raise GetTimeoutError(f"get timed out waiting for {object_id}")

    def _wait_idle(
        self, predicate: Callable[[], bool], deadline: Optional[float]
    ) -> bool:
        """Block a driver thread until ``predicate()`` holds (True) or
        the deadline passes (False): everything that can end the wait —
        an arrival, shutdown — notifies the cond."""
        with self._cond:
            self._objects.drain(batched=True)
            while not predicate():
                self._check_open()  # the wait ends with the pool
                left = _time_left(deadline)
                if left is not None and left <= 0:
                    return False
                self._cond.wait(timeout=left)
            return True

    def _create_actor_from_worker(self, payload: dict) -> ActorHandle:
        actor_class = deserialize_portable(payload["class_bytes"])
        args, kwargs = msg.restore_refs(
            *deserialize_portable(payload["call_bytes"])
        )
        return self.create_actor(
            actor_class=actor_class,
            class_name=payload["class_name"],
            args=args,
            kwargs=kwargs,
            resources=payload["resources"],
            placement_hint=payload.get("placement_hint"),
            name=payload.get("name"),
        )

    # ------------------------------------------------------------------
    # The object plane's callbacks, and the driver's own reads
    # ------------------------------------------------------------------

    def _node_hooks(self) -> tuple:
        """The nodes results can live on, and how many workers each has
        (see :mod:`repro.proc.objects`); one host has none."""
        return (), 1

    def _object_arrived(self, object_id: ObjectID) -> None:
        """Wake dependents, waiters, and watchers of a newly resident
        object, whichever plane it landed in (lock held)."""
        for spec in self._deps.mark_ready(object_id):
            self._dispatch.route(spec)
        self._completions.notify(object_id)
        self._cond.notify_all()

    def watch_object(self, object_id: ObjectID, callback) -> None:
        """Event-driven completion: ``callback(object_id)`` fires exactly
        once, on the pump thread, when the object is (or already was)
        resident — the serving plane's alternative to a blocked ``get``."""
        with self._cond:
            self._completions.add_watch(
                object_id, callback, ready=self._objects.has(object_id)
            )

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------

    def _handle_worker_crash(
        self, worker: _WorkerHandle, exc: BaseException
    ) -> None:
        """A worker process died (EOF/error on its pipe): its service
        thread's way into :meth:`_worker_lost`."""
        with self._cond:
            if self.closed or not worker.alive:
                return
            if self._obs.enabled:
                self._obs.record(
                    "failure_detected",
                    worker=f"worker-{worker.index}",
                    node=str(worker.node_id),
                    reason="worker_crashed",
                )
            try:
                worker.conn.close()
            except OSError:
                pass
            self._worker_lost(worker)

    def _worker_lost(self, worker: _WorkerHandle) -> None:
        """Every way of losing a worker (lock held; idempotent).

        Mirrors the sim backend's node-death semantics: actors whose state
        lived there are lost for good (ActorLostError), unconstructed
        ones move to the worker's successor, stateless tasks that died
        with it are replayed from their spec (lineage) and what the
        driver had only placed there is placed again — the plane says
        which is which (:meth:`DispatchPlane.worker_lost`)."""
        if self.closed or not worker.alive:
            return
        worker.waits.clear()  # their tasks died with it (inflight)
        self._objects.worker_lost(worker.index)
        self._workers_crashed += 1
        replacement, lost_node = self._replace_worker(worker)
        doomed, replaced = self._dispatch.worker_lost(worker, replacement)
        for spec in doomed:
            self._resolve_crashed_task(spec, lost_node)
        for spec in replaced:
            self._dispatch.route(spec)
        self._cond.notify_all()

    def _replace_worker(self, worker: _WorkerHandle) -> tuple:
        """``(replacement, lost_node)`` for a lost worker (lock held):
        the pool heals by spawning a new process into the same slot, and
        one host has no node to lose with a worker."""
        return self._spawn_worker(worker.index), None

    def _resolve_crashed_task(
        self, spec: TaskSpec, lost_node: Optional[int] = None
    ) -> None:
        """Decide the fate of a task that died with its worker — or, on
        the dist backend, with the whole node ``lost_node`` (lock held)."""
        # The refs its process held to what was born in it are gone.
        self._objects.drop_born(spec.task_id.hex)
        if spec.actor_id is not None:
            # Its window was committed to the worker: lost with the actor.
            record = self.actors.get(spec.actor_id)
            if record is not None:
                self._objects.store_error(
                    spec, actor_lost_error_value(spec, record)
                )
            return
        # A replay ships the entry the task was born with.
        self._objects.replay_or_fail(spec, lost_node)
