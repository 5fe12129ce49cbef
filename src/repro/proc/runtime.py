"""Driver-side runtime of the ``proc`` backend: real processes, real cores.

Architecture (one instance = one pool):

* ``num_workers`` child processes, each started with ``multiprocessing``'s
  **spawn** method and connected by one duplex pipe.  Spawn (not fork)
  keeps children free of inherited locks/threads and mirrors how real
  cluster workers boot from nothing.
* One **service thread** per worker on the driver side.  It claims a
  frame of runnable tasks for its idle worker (a window of one of its
  pinned actors' calls, what the driver tier placed on it, the global
  queue, or a steal), ships it over the pipe, and then *serves* the worker's
  requests — argument fetches, nested submissions, blocking ``get``/
  ``wait``, ``put``, actor operations — and reports until the worker says
  its queue is drained.  Service threads mostly sleep in ``recv``; user
  compute happens in the children, outside the GIL, which is what makes
  this the first backend where CPU-bound work actually scales with
  workers.
* The shared core from the other backends does the semantics:
  :class:`~repro.core.dependencies.DependencyTracker` gates readiness,
  :mod:`repro.core.protocol` validates and unwraps, the actor table
  is :mod:`repro.core.actors`' (ordered method delivery is this
  module's: an actor's calls queue in its :class:`_ActorLane` and leave
  in that order, a window per dispatch frame), and
  results/arguments live as bytes in a
  :class:`~repro.objectstore.store.LocalObjectStore` (results pinned —
  they are the only replica).
* **Objects** are the :class:`~repro.proc.objects.ObjectPlane`'s
  (``self._objects``), asked under this runtime's lock: the two data
  planes (small objects ride the pipes as bytes, large ones a zero-copy
  shared-memory arena), where each object lives, and what still holds
  it — so that a dead object gives its memory back.
* **Crash recovery**: a dead worker process is detected by its service
  thread (EOF on the pipe).  Stateless in-flight tasks are replayed from
  their spec — lineage replay, up to ``max_reconstructions`` — while
  actor tasks surface :class:`~repro.errors.ActorLostError`, mirroring
  the sim backend's node-death semantics; a replacement worker is spawned
  either way.  ``worker_crash_policy="fail"`` turns replay off and
  surfaces :class:`~repro.errors.WorkerCrashedError` instead.
* **Dispatch** is the paper's hybrid two-level scheduler realized on
  real processes (:mod:`repro.sched_plane`), and the only path a task
  can take: each worker owns a local task queue it feeds with a
  zero-round-trip nested submission fast path (the driver learns via
  one-way ``SUBMIT_LOCAL`` notices and mirrors every queue for
  lineage), while the driver is the *global tier* — it places
  driver-born and spilled work with a
  locality-aware :class:`~repro.scheduling.policies.PlacementPolicy`
  (preferring the worker that already holds the largest resident
  argument bytes), ships it in **dispatch frames** (a window of tasks
  bounded by estimated service time per ``TASK`` message, completions
  coalesced per ``DONE`` message — :mod:`repro.proc.messages`), brokers
  idle-worker work stealing
  (:class:`~repro.scheduling.policies.StealPolicy`; the victim's grant
  is authoritative, so a stolen task provably runs exactly once; a
  victim answers while a task runs, so a frame's tail can be taken back
  from behind a head that outran its estimate), and
  re-homes queued or mid-steal tasks when their worker crashes.  A worker
  blocked in ``get``/``wait`` stays a full execution resource
  (:meth:`ProcRuntime._wait_serving`), so a pool of any size finishes a
  task that waits for its own children.  The placement and steal
  policies are constants here; the sim backend is where they are varied
  (``scheduler_mode``).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro.core import lifecycle
from repro.core.actors import (
    CREATION_METHOD,
    ActorHandle,
    ActorRecord,
    ActorRegistry,
    REMOTE_INSTANCE,
    actor_lost_error_value,
    build_call_spec,
    build_creation_spec,
    get_actor_handle,
    handle_for,
    register_instance,
)
from repro.core.completion import (
    CompletionPump,
    one_host_cluster_stats,
    serve_stats,
)
from repro.core.dependencies import DependencyTracker
from repro.core.lifecycle import LifecycleIndex, cancelled_error_value
from repro.core.object_ref import ObjectRef
from repro.core.protocol import (
    check_cluster_feasible,
    normalize_get_refs,
    partition_by_ready,
    unwrap_loaded,
    unwrap_value,
    validate_wait_args,
)
from repro.core.task import CallTemplate, ResourceRequest, TaskSpec
from repro.core.worker import ErrorValue, error_value_from
from repro.errors import (
    BackendError,
    GetTimeoutError,
    ObjectLostError,
    ReproError,
)
from repro.gcs import ControlStore, plan_recovery
from repro.obs import SpanCollector
from repro.proc import messages as msg
from repro.proc.messages import ShmDescriptor, SlotRef
from repro.proc.objects import ObjectPlane
from repro.proc.transport import PipeTransport
from repro.proc.worker import worker_main
from repro.scheduling.policies import PlacementPolicy, StealPolicy
from repro.sched_plane import (
    LocalTaskQueue,
    SchedCounters,
    WorkerCandidate,
    plan_placement,
)
from repro.utils.ids import ActorID, FunctionID, IDGenerator, NodeID, ObjectID
from repro.utils.serialization import (
    DEFAULT_INLINE_THRESHOLD,
    deserialize_frame,
    deserialize_portable,
    serialize,
    serialize_buffers,
    serialize_portable,
    should_inline,
)

#: Valid values of the ``worker_crash_policy`` init option.
CRASH_POLICIES = ("replace", "fail")

#: The driver tier's policies: how it scores workers for a task with
#: arguments, and when and how much an idle worker steals.
_PLACEMENT = PlacementPolicy()
_STEAL = StealPolicy()

#: Condition-wait backstops of an idle or blocked service thread.
#: Submissions, arrivals, steal requests, grants and shutdown all
#: ``notify_all`` the runtime cond, and a grant owed to a thread's own
#: pipe is read there (:meth:`ProcRuntime._read_steal_grant`), so these
#: are safety nets, not clocks: nothing on a task's path waits one out.
_IDLE_WAIT_BACKSTOP = 1.0
_BLOCKED_WAIT_BACKSTOP = 0.25

#: Floor on a task's estimated cost when sizing a dispatch frame: the
#: measured execution time of a no-op excludes the per-task dispatch
#: work around it, and an estimate near zero would let one frame swallow
#: an entire fan-out.
_MIN_TASK_ESTIMATE_S = 20e-6

#: How many of a function's latest reported execution times its estimate
#: is the median of.  Workers time tasks by the wall clock, so on a busy
#: host a sample now and then includes a context switch and reads ten to
#: a hundred times too long; the median ignores those, where an estimate
#: that followed them would shrink the next few frames to one or two
#: tasks.  It follows a function that really got slower within three
#: completions — at once when a single run exceeds the whole frame
#: budget (see ``_finish_done``).
_ESTIMATE_WINDOW = 5

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
class _WorkerHandle:
    """Driver-side view of one worker process slot."""

    index: int
    node_id: NodeID
    conn: Any = None
    process: Any = None
    thread: Optional[threading.Thread] = None
    #: The lanes (:class:`_ActorLane`) of actors pinned to this worker
    #: that have a call to dispatch; drained before the shared queue.
    pinned: deque = field(default_factory=deque)
    #: Specs the child was handed to *run*, by raw task id (the hex the
    #: wire carries) in hand-over order, so the values read as its
    #: stack: the head of the frame it is working through — every call
    #: of an actor's window — plus any tasks running reentrantly while
    #: that one blocks.
    inflight: dict = field(default_factory=dict)
    #: Stateless tasks the driver tier placed here (locality-aware),
    #: shipped when the worker next idles.
    placed: deque = field(default_factory=deque)
    #: The driver's mirror of the worker's own local queue —
    #: locally-born tasks (SUBMIT_LOCAL notices, in pipe order)
    #: and the tails of the TASK frames shipped to it — the state that
    #: makes stolen and crashed queued tasks recoverable.  Keyed by raw
    #: task id, like ``inflight``.
    mirror: LocalTaskQueue = field(default_factory=LocalTaskQueue)
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
    #: Session state: True from claiming a frame for the worker until
    #: its idle DONE.  Only busy workers are steal victims.
    busy: bool = False
    #: An un-answered STEAL_REQUEST is outstanding for this victim.
    steal_outstanding: bool = False
    #: ``mirror.pushed`` when this victim was last asked, until a grant
    #: that carries tasks resets it: while the two are equal the worker
    #: granted nothing and nothing has reached its queue since, whatever
    #: the mirror's length says (see :class:`LocalTaskQueue`).
    steal_dry_at: int = -1
    #: Its service thread is waiting on the runtime cond for the blocked
    #: child (``_wait_serving``): a thief must wake it to read the grant.
    parked: bool = False
    alive: bool = True
    tasks_done: int = 0
    actors_bound: int = 0


@dataclass
class _ActorLane:
    """One actor's tasks in submission order — the constructor, then
    every method call: where the actor's order comes from.  It hangs off
    the actor's record (``ActorRecord.lane``, set by ``create_actor``).

    A task enters at submission, waits for its own arguments only, and
    leaves from the head, in a dispatch frame for the actor's worker.
    That worker runs a frame's calls back to back, so FIFO here plus one
    executor there is the actor's total order — provided the worker
    never holds two frames of one actor at once, which a blocked call
    would let the second overtake (it runs reentrantly, on top of the
    blocked one): while any dispatched call is unreported (``open``),
    the lane dispatches nothing more."""

    record: ActorRecord
    #: Submitted, not dispatched yet.
    calls: deque = field(default_factory=deque)
    #: Dispatched (claimed for a frame) and not reported yet.
    open: int = 0
    #: On its worker's ``pinned`` deque (once, however often it is woken).
    queued: bool = False


def _queue_length(worker: _WorkerHandle) -> int:
    return len(worker.placed) + len(worker.mirror) + len(worker.pinned)


def place_without_locality(
    workers: list, resources: ResourceRequest
) -> Optional[_WorkerHandle]:
    """:meth:`PlacementPolicy.choose` for a task with no argument objects
    and no placement hint, read straight off the worker handles.

    With nothing to be local to, every candidate's locality score is
    zero, and the driver tier estimates an idle worker at one free CPU
    and a busy one at none — so the policy's ordering (capacity fit,
    locality, free CPUs, shortest queue, greatest node id) reduces to:
    among the idle workers, the shortest queue, ties to the greatest node
    id.  None means what it means there: queue globally."""
    if resources.num_cpus > 1 or resources.num_gpus > 0:
        return None
    best = None
    best_length = 0
    for worker in workers:
        if worker is None or not worker.alive or worker.busy or worker.inflight:
            continue
        length = _queue_length(worker)
        if (
            best is None
            or length < best_length
            or (length == best_length and worker.node_id.hex > best.node_id.hex)
        ):
            best, best_length = worker, length
    return best


def _time_left(deadline: Optional[float], object_id: ObjectID) -> Optional[float]:
    """Seconds until a ``get``'s deadline (None: it has none); past it,
    the ``get`` times out."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise GetTimeoutError(f"get timed out waiting for {object_id}")
    return left


def _wire_ids(spec: TaskSpec) -> tuple:
    """What answers a worker's SUBMIT / CALL_ACTOR: the new task's id
    and return ids — the worker wraps them in refs of its own."""
    return spec.task_id, list(spec.all_return_ids())


class ProcRuntime:
    """Multiprocess implementation of the backend protocol."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        seed: int = 0,
        num_workers: Optional[int] = None,
        worker_crash_policy: str = "replace",
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
        if worker_crash_policy not in CRASH_POLICIES:
            raise BackendError(
                f"invalid init option worker_crash_policy="
                f"{worker_crash_policy!r} for backend 'proc'; valid values: "
                f"{list(CRASH_POLICIES)}"
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
        #: The scheduling plane's stats()["sched"] counters.
        self._sched = SchedCounters()
        #: The tracing plane (repro.obs): driver-local spans plus every
        #: worker's flushed buffers, merged onto one wall-clock timeline
        #: the R7 tools consume through the ``event_log`` property.
        self.tracing = bool(tracing)
        self._obs = SpanCollector(enabled=self.tracing)
        #: Worker-born tasks' wire entries by raw task id (from
        #: SUBMIT_LOCAL notices): what a thief executes and what crash
        #: replay reships, verbatim.
        self._payloads: dict[str, tuple] = {}
        #: Call templates rebuilt from workers' function tables, for
        #: decoding those entries (see ``messages.decode_entry``).
        self._peer_templates: dict = {}
        #: Estimated execution seconds per registered function — the
        #: median of the latest times workers reported for it in DONE
        #: frames: what sizes a frame.
        self._exec_estimate: dict[FunctionID, float] = {}
        self._exec_samples: dict[FunctionID, deque] = {}
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
            crash_policy=worker_crash_policy,
            is_cancelled=self._lifecycle.is_cancelled,
            arrived=self._object_arrived,
            requeue=self._requeue_lost,
            nodes=nodes,
            workers_per_node=workers_per_node,
        )
        self._deps = DependencyTracker()
        #: The function table: ``(registered name, callable)`` by
        #: function id — the callable is None for a function a worker
        #: registered (its code is in ``_fn_cache``; the driver never
        #: calls it).
        self._functions: dict[FunctionID, tuple] = {}
        self.actors = ActorRegistry()

        #: Stateless runnable tasks, drained by whichever worker idles first.
        self._queue: deque = deque()
        self._workers: list[_WorkerHandle] = []
        self._by_node: dict[NodeID, _WorkerHandle] = {}
        self._fn_cache: dict[FunctionID, bytes] = {}

        self._tasks_executed = 0
        self._workers_crashed = 0

        self._mp = multiprocessing.get_context("spawn")
        with self._cond:
            for index in range(num_workers):
                self._workers.append(None)  # type: ignore[arg-type]
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
            self._functions[function_id] = (name, function)
        return function_id

    def submit_call(
        self,
        template: CallTemplate,
        args: tuple,
        kwargs: dict,
        root_task_id: Any = None,
        parent_task_id: Any = None,
    ) -> Any:
        """Submit one call of ``template`` (what ``.remote()`` calls):
        per call, two fresh ids, one argument scan, the write-ahead
        record and a placement."""
        self._check_open()
        template.check_feasible(self.cluster)
        with self._cond:
            self._objects.drain(batched=True)
            spec = template.stamp(
                self.ids, args, kwargs, self.head_node_id,
                root_task_id, parent_task_id,
            )
            self._submit_spec(spec)
            return spec.public_result()

    def _submit_spec(self, spec: TaskSpec) -> None:
        """Gate on unproduced dependencies, else enqueue (lock held).

        The control write is the write-ahead lineage record: synchronous,
        and strictly before the task can reach any worker, so a crash at
        any later point finds the spec in the task table and can replay.
        The task's pins come first: the record (and everything else
        that keeps the spec) names its arguments without holding them.
        """
        if spec.argument_refs() or spec.extra_dependencies:
            self._objects.pin_task(spec)
        self._control.task_put(spec.task_id, spec, node=self.head_node_id)
        if self._obs.enabled:
            self._obs.record(
                "task_submitted",
                task_id=str(spec.task_id),
                function=spec.function_name,
                root_task_id=str(spec.root_task_id or spec.task_id),
                parent_task_id=(
                    str(spec.parent_task_id)
                    if spec.parent_task_id is not None
                    else None
                ),
                worker_born=False,
            )
        self._lifecycle.register(spec)
        missing = None
        if spec.pins:
            has = self._objects.has
            missing = {dep for dep in spec.pins if not has(dep)}
        if missing:
            self._deps.add(spec, missing)
        else:
            self._enqueue(spec)
        self._cond.notify_all()

    def _enqueue(self, spec: TaskSpec) -> None:
        """Route a runnable spec to its queue (lock held)."""
        if self._dropped_cancelled(spec):
            return
        if spec.actor_id is None:
            self._place_bottom_up(spec)
            return
        record = self.actors.get(spec.actor_id)
        if record is None or record.dead:
            # Dead/unknown actor: any service thread resolves it to an
            # error through the pre-dispatch check.
            self._queue.append(spec)
            self._obs_placed(spec, None)
            return
        # It has stood in its actor's lane since submission; being
        # runnable, it may be what the lane's head was waiting for.
        self._obs_placed(spec, self._wake_lane(record.lane))

    def _wake_lane(self, lane: _ActorLane) -> Optional[_WorkerHandle]:
        """Put the lane before its actor's worker if it has something to
        dispatch (lock held): a head whose arguments are in, and no call
        still out.  Called wherever one of the two may have become true;
        returns the worker (None while the actor is between homes: the
        crash path wakes its lane again once it has one)."""
        home = self._by_node.get(lane.record.node_id)
        if (
            home is not None
            and not lane.queued
            and not lane.open
            and lane.calls
            and not self._deps.is_waiting(lane.calls[0].task_id)
        ):
            lane.queued = True
            home.pinned.append(lane)
        return home

    def _obs_placed(
        self, spec: TaskSpec, home: Optional[_WorkerHandle]
    ) -> None:
        """One driver-tier placement span (lock held); ``home=None`` means
        the global spillover queue, drained by whichever worker idles."""
        if self._obs.enabled:
            self._obs.record(
                "task_placed",
                task_id=str(spec.task_id),
                function=spec.function_name,
                worker=None if home is None else f"worker-{home.index}",
            )

    def _place_bottom_up(self, spec: TaskSpec) -> None:
        """The driver tier's placement decision (lock held): score every
        live worker through the shared :class:`PlacementPolicy` — idle
        workers have estimated capacity, and residency supplies the
        locality bytes — or fall back to the global spillover queue,
        drained by whichever worker idles first.  A task with no ref
        argument and no hint has no locality to score and takes
        :func:`place_without_locality`: same choice, no candidates."""
        if (
            not spec.argument_refs()
            and not spec.extra_dependencies
            and spec.placement_hint is None
        ):
            home = place_without_locality(self._workers, spec.resources)
            if home is not None:
                self._sched.tasks_placed_global += 1
        else:
            dependencies = [dep.hex for dep in spec.dependencies()]
            max_lookups = _PLACEMENT.max_locality_lookups
            candidates = [
                WorkerCandidate(
                    node_id=worker.node_id,
                    est_cpus=0 if (worker.busy or worker.inflight) else 1,
                    est_gpus=0,
                    queue_length=_queue_length(worker),
                    locality_bytes=self._objects.residency.locality_bytes(
                        worker.index, dependencies, max_lookups
                    ),
                )
                for worker in self._workers
                if worker is not None and worker.alive
            ]
            chosen = plan_placement(spec, candidates, _PLACEMENT, self._sched)
            home = self._by_node.get(chosen) if chosen is not None else None
        if home is None or not home.alive:
            self._queue.append(spec)
            self._obs_placed(spec, None)
            return
        home.placed.append(spec)
        self._obs_placed(spec, home)

    # ------------------------------------------------------------------
    # Actor protocol
    # ------------------------------------------------------------------

    def create_actor(
        self,
        actor_class: type,
        class_name: str,
        args: tuple,
        kwargs: dict,
        resources: ResourceRequest,
        placement_hint: Optional[NodeID] = None,
        name: Optional[str] = None,
    ) -> ActorHandle:
        """Create a process-pinned actor; returns its handle immediately.

        The constructor runs on the chosen worker process and the live
        instance stays there; every method call follows it through the
        actor's lane (:class:`_ActorLane`), which the constructor heads:
        it ships alone (nothing estimates it) and no call leaves before
        it is reported.  ``name`` registers the
        actor for :meth:`get_actor` lookup (collisions with a live holder
        raise).
        """
        self._check_open()
        check_cluster_feasible(
            self.cluster, resources, f"{class_name}.{CREATION_METHOD}"
        )
        with self._cond:
            actor_id = self.ids.actor_id()
            spec = build_creation_spec(
                self.ids, actor_id, actor_class, class_name, args, kwargs,
                resources, self.head_node_id, placement_hint=placement_hint,
            )
            home = self._choose_worker_for_actor(placement_hint)
            spec.placement_hint = home.node_id
            record = self.actors.create(
                actor_id, class_name, resources, home.node_id, name=name
            )
            self._control.actor_register(
                actor_id,
                spec={"class_name": class_name, "resources": resources},
                name=name,
                node=home.node_id,
            )
            home.actors_bound += 1
            record.lane = _ActorLane(record, deque([spec]))
            handle = handle_for(record, actor_class)
            record.handle = handle
            self._submit_spec(spec)
        return handle

    def get_actor(self, name: str) -> ActorHandle:
        """Look up a live named actor's handle (shared semantics)."""
        self._check_open()
        with self._cond:
            return get_actor_handle(self.actors, name)

    def call_actor(
        self,
        actor_id: ActorID,
        method_name: str,
        args: tuple,
        kwargs: dict,
        num_returns: int = 1,
    ) -> Any:
        """Submit one actor method invocation; returns its future
        (a tuple of ``num_returns`` futures when more than one).

        The call joins its actor's lane (:class:`_ActorLane`) here, and
        the lane's order is what serializes the actor's methods — there
        is no per-actor lock, and no dependency on the previous call's
        result: a call waits for its own arguments and for nothing else.
        """
        with self._cond:
            return self._call_actor(
                actor_id, method_name, args, kwargs, num_returns
            ).public_result()

    def _call_actor(
        self,
        actor_id: ActorID,
        method_name: str,
        args: tuple,
        kwargs: dict,
        num_returns: int,
        born_in: Optional[str] = None,
    ) -> TaskSpec:
        """Build one actor call, stand it in its actor's lane and submit
        it (lock held); ``born_in`` is the raw id of the worker task
        that made it."""
        self._check_open()
        record = self.actors.get(actor_id)
        if record is None:
            raise BackendError(f"unknown actor {actor_id}")
        spec = build_call_spec(
            self.ids, record, method_name, args, kwargs,
            self.head_node_id, num_returns=num_returns,
        )
        record.num_calls += 1
        self._control.async_actor_update(actor_id, method_inc=True)
        if born_in is not None:
            self._objects.hold_born(born_in, spec.all_return_ids())
        if not record.dead:
            record.lane.calls.append(spec)
        self._submit_spec(spec)
        return spec

    def _choose_worker_for_actor(
        self, placement_hint: Optional[NodeID]
    ) -> _WorkerHandle:
        """Fewest actors first, stable tie-break by index (lock held)."""
        if placement_hint is not None:
            hinted = self._by_node.get(placement_hint)
            if hinted is not None and hinted.alive:
                return hinted
        alive = [w for w in self._workers if w.alive]
        if not alive:
            raise BackendError("no live workers to host the actor")
        return min(alive, key=lambda w: (w.actors_bound, w.index))

    # ------------------------------------------------------------------
    # Blocking primitives
    # ------------------------------------------------------------------

    def get(self, refs: Any, timeout: Optional[float] = None) -> Any:
        self._check_open()
        ref_list, single = normalize_get_refs(refs)
        deadline = None if timeout is None else time.monotonic() + timeout
        values = []
        for ref in ref_list:
            values.append(self._wait_for_value(ref.object_id, deadline))
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
        has = self._objects.has
        with self._cond:
            self._objects.drain(batched=True)
            while True:
                ready = [r for r in ref_list if has(r.object_id)]
                if len(ready) >= num_returns:
                    break
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(timeout=remaining)
            ready_ids = {r.object_id for r in ref_list if has(r.object_id)}
        return partition_by_ready(ref_list, lambda r: r.object_id in ready_ids)

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
        """Cancel the task producing ``ref`` (shared core semantics)."""
        self._check_open()
        return lifecycle.cancel(self, ref, recursive=recursive)

    # -- lifecycle hooks (see repro.core.lifecycle); lock held ----------

    def _lifecycle_guard(self):
        return self._cond

    def _result_ready(self, object_id: ObjectID) -> bool:
        return self._objects.has(object_id)

    def _store_cancelled(self, spec: TaskSpec) -> None:
        self._objects.store_error(
            spec,
            cancelled_error_value(spec, "cancelled before a result was produced"),
        )
        self._drop_cancelled_from_plane(spec)

    def _drop_cancelled_from_plane(self, spec: TaskSpec) -> None:
        """Evict a cancelled task from wherever the scheduling plane
        queued it (lock held).  Driver-side queues (global, placed) are
        covered by dispatch-time ``is_cancelled`` checks; a task sitting
        in a *worker's* local queue additionally gets a CANCEL_NOTICE so
        the owner drops it before dispatch — the worker-side half of the
        never-executes guarantee.  A cancel initiated by the owner
        worker itself is fully race-free: the notice is queued on its
        pipe before the CANCEL rpc's reply, so the tombstone is local by
        the time ``cancel()`` returns in the task body."""
        task_hex = spec.task_id.hex
        for worker in self._workers:
            if worker is None or not worker.alive:
                continue
            if task_hex in worker.mirror:
                worker.mirror.remove(task_hex)
                self._payloads.pop(task_hex, None)
                try:
                    self._send_control(worker, (msg.CANCEL_NOTICE, task_hex))
                except OSError:
                    pass  # dying worker: the crash handler owns cleanup
                break

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
                "sched": self._sched.snapshot(),
                "obs": self._obs.stats(),
                "serve": serve_stats(self._serve_pools, self._completions),
                "control": self._control.stats(),
                # One node (the dist backend overrides this section).
                "cluster": one_host_cluster_stats(
                    len(self._workers),
                    [
                        (
                            alive,
                            objects["shm_enabled"],
                            objects["objects_stored"],
                            objects["object_store_bytes"],
                        )
                    ],
                ),
            }

    # ------------------------------------------------------------------
    # Fault injection / introspection
    # ------------------------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """Fault injection: SIGKILL one worker process (the ``proc``
        analogue of the sim backend's ``kill_node``).  Detection happens
        on the worker's pipe; recovery follows ``worker_crash_policy``."""
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
            home = self._by_node.get(record.node_id)
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
            return [w.node_id for w in self._workers if w is not None and w.alive]

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
            workers = [w for w in self._workers if w is not None]
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
            # The handles on everything the dead driver knew died with
            # it, uncounted by this one's ledger: all of it is escaped.
            restored = [*plan.ready_payloads, *plan.unrecoverable]
            for spec in plan.pending_specs:
                restored += spec.all_return_ids()
            for spec, _payload in plan.pending_payloads:
                restored += spec.all_return_ids()
            plane = self._objects
            plane.escape([object_id.hex for object_id in restored])
            for object_id, payload in plan.ready_payloads.items():
                if not plane.has(object_id):
                    plane.store_bytes(object_id, payload)
            for object_id in plan.unrecoverable:
                # A large driver ``put`` has no lineage to replay: an
                # error marker beats a ``get`` that hangs forever.
                plane.store_bytes(
                    object_id,
                    serialize(
                        ErrorValue(
                            task_id=None,
                            function_name="driver",
                            cause_repr=(
                                f"object {object_id} was lost with the failed "
                                "driver: no inline payload in the control "
                                "store and no producing task to replay"
                            ),
                            chain=("driver",),
                        )
                    ),
                )
            for entry in plan.actor_entries:
                if self.actors.get(entry.actor_id) is not None:
                    continue
                record = self.actors.create(
                    entry.actor_id,
                    entry.spec["class_name"],
                    entry.spec["resources"],
                    None,
                    name=entry.name,
                )
                # Provenance without state: the live instance died with
                # the old driver's worker pool.
                record.dead = True
                record.instance = None
            for spec in plan.pending_specs:
                if spec.actor_id is not None:
                    record = self.actors.get(spec.actor_id)
                    error = (
                        actor_lost_error_value(spec, record)
                        if record is not None
                        else ErrorValue(
                            task_id=spec.task_id,
                            function_name=spec.function_name,
                            cause_repr="actor state lost with the failed driver",
                            chain=(spec.function_name,),
                            kind="actor_lost",
                            actor_id=spec.actor_id,
                        )
                    )
                    plane.store_error(spec, error)
                else:
                    self._submit_spec(spec)
            for spec, payload in plan.pending_payloads:
                # Worker-born: the record carries the wire entry and the
                # function it names, so nothing of the dead driver's
                # function table is needed to run it again.
                entry, name, code = payload
                self._control.task_put(
                    spec.task_id, {"spec": spec, "payload": payload}
                )
                self._functions.setdefault(spec.function_id, (name, None))
                self._fn_cache.setdefault(spec.function_id, code)
                self._payloads[spec.task_id.hex] = entry
                self._lifecycle.register(spec)
                plane.pin(spec, list(spec.pins))  # the dead driver's, again
                self._enqueue(spec)
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
            ),
            name=f"repro-proc-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        worker.process = process
        return self._serve_worker(worker)

    def _serve_worker(self, worker: _WorkerHandle) -> _WorkerHandle:
        """Enter a spawned worker into the pool and start the service
        thread that feeds it (lock held)."""
        self._workers[worker.index] = worker
        self._by_node[worker.node_id] = worker
        worker.thread = threading.Thread(
            target=self._service_loop,
            args=(worker,),
            name=f"repro-service-{worker.index}",
            daemon=True,
        )
        worker.thread.start()
        return worker

    def _send(self, worker: _WorkerHandle, message: tuple) -> None:
        """One driver->worker send, serialized per pipe: the service
        thread's replies interleave with steal requests and cancel
        notices originated by other threads.  Parked control messages
        go first, so a deferred CANCEL_NOTICE still precedes the reply
        of the rpc whose handler queued it."""
        with worker.send_lock:
            self._send_held(worker, message)

    def _send_held(self, worker: _WorkerHandle, message: tuple) -> None:
        """:meth:`_send` for a caller that already holds ``send_lock``."""
        while worker.outbox:
            worker.conn.send(worker.outbox.popleft())
        worker.conn.send(message)

    def _send_control(self, worker: _WorkerHandle, message: tuple) -> None:
        """A one-way control send that NEVER blocks — safe under the
        runtime lock.  ``Connection.send`` blocks when the OS pipe
        buffer is full (a busy worker drains control at dispatch
        boundaries and watchdog ticks), and blocking here would freeze
        the whole runtime;
        a congested message parks in the outbox instead, delivered by
        the worker's own service thread (:meth:`_flush_outbox`, called
        lock-free at every serving point) or ahead of its next reply."""
        with worker.send_lock:
            if not worker.outbox and worker.conn.writable():
                worker.conn.send(message)
                return
            worker.outbox.append(message)
        self._cond.notify_all()  # a thread blocked for the worker delivers it

    def _flush_outbox(self, worker: _WorkerHandle) -> None:
        """Deliver parked control messages (service thread only, runtime
        lock NOT held).  Blocking is acceptable here: only this worker's
        session stalls, and the thread was about to block on this very
        pipe anyway.  Outbox messages only exist for busy workers, whose
        service thread passes through here every serving iteration — so
        nothing can stay parked indefinitely."""
        if not worker.outbox:
            return
        with worker.send_lock:
            while worker.outbox:
                worker.conn.send(worker.outbox.popleft())

    def _pop_runnable(
        self, worker: _WorkerHandle, *, raid: bool = False
    ) -> Optional[TaskSpec]:
        """The next spec this worker may run, or None (lock held): the
        head of a pinned actor's lane first, then its placed queue and
        the global queue, then — ``raid`` — another worker's placed
        queue.  A task cancelled while queued is dropped here and never
        shipped; actor tasks pass their pre-dispatch checks."""
        while True:
            if worker.pinned:
                lane = worker.pinned.popleft()
                lane.queued = False
                spec = self._claim_lane_head(worker, lane)
                if spec is None:
                    continue
                return spec
            if worker.placed:
                spec = worker.placed.popleft()
            elif self._queue:
                spec = self._queue.popleft()
            else:
                spec = self._steal_placed(worker) if raid else None
                if spec is None:
                    return None
            if self._dropped_cancelled(spec):
                continue
            if spec.actor_id is not None:
                # Only a dead or unknown actor's tasks take the global
                # queue (``_enqueue``): here they become its error.
                self._objects.store_error(
                    spec, self._actor_predispatch_error(spec)
                )
                continue
            return spec

    def _dropped_cancelled(self, spec: TaskSpec) -> bool:
        """The dispatch-time drop (lock held): whether ``spec``, on its
        way to a queue or a worker, was cancelled in the meantime and
        goes nowhere.  The marker already owns its return slots; what
        goes with the task is the wire entry kept for a worker-born
        one."""
        if not self._lifecycle.is_cancelled(spec.task_id):
            return False
        self._payloads.pop(spec.task_id.hex, None)
        return True

    def _claim_lane_head(
        self, worker: _WorkerHandle, lane: _ActorLane
    ) -> Optional[TaskSpec]:
        """Open a window on ``lane`` for ``worker``: its head task, or
        None if it has nothing to dispatch after all (lock held).  Tasks
        that fail their pre-dispatch checks (the constructor failed)
        resolve to that error on the way; a lane whose actor was
        re-homed since it was queued goes before its new worker."""
        if lane.record.node_id != worker.node_id:
            self._wake_lane(lane)
            self._cond.notify_all()
            return None
        while lane.calls:
            spec = lane.calls[0]
            if self._deps.is_waiting(spec.task_id):
                break
            lane.calls.popleft()
            error = self._actor_predispatch_error(spec)
            if error is None:
                lane.open = 1
                return spec
            self._objects.store_error(spec, error)
        return None

    def _settle_call(self, spec: TaskSpec) -> None:
        """One dispatched task of an actor is accounted for — reported
        done, or resolved to an error unsent (lock held); the last one
        of a window lets the lane dispatch again."""
        lane = self.actors.get(spec.actor_id).lane
        lane.open -= 1
        if not lane.open:
            self._wake_lane(lane)

    def _actor_predispatch_error(self, spec: TaskSpec) -> Optional[ErrorValue]:
        """Driver-side half of ``resolve_actor_callable`` (lock held):
        liveness checks that cannot wait for the worker, with identical
        error text to the other backends."""
        record = self.actors.get(spec.actor_id)
        if record is None:
            return ErrorValue(
                task_id=spec.task_id,
                function_name=spec.function_name,
                cause_repr=f"unknown actor {spec.actor_id}",
                chain=(spec.function_name,),
            )
        if record.dead:
            return actor_lost_error_value(spec, record)
        if spec.actor_method != CREATION_METHOD and record.instance is None:
            return ErrorValue(
                task_id=spec.task_id,
                function_name=spec.function_name,
                cause_repr=(
                    f"actor {record.class_name} has no live instance "
                    "(its constructor failed or was lost)"
                ),
                chain=(spec.function_name,),
            )
        return None

    # ------------------------------------------------------------------
    # Sessions, the mirror, and the steal broker
    # ------------------------------------------------------------------

    def _service_loop(self, worker: _WorkerHandle) -> None:
        """The driver tier's per-worker loop: hand the idle worker one
        TASK frame to open a *session*, then serve
        everything the session produces (rpc requests, SUBMIT_LOCAL
        notices, DONE frames, steal grants) until the worker reports its
        queue drained."""
        while True:
            frame = self._next_frame(worker)
            if frame is None:
                try:
                    self._send(worker, (msg.SHUTDOWN,))
                except OSError:
                    pass
                return
            try:
                self._run_session(worker, frame)
            except (EOFError, OSError) as exc:
                # The inflight table plus the mirror are exactly what
                # died with the worker (a frame that never reached the
                # pipe was never registered in either).
                self._handle_worker_crash(worker, exc)
                return  # a replacement thread owns the slot now

    def _next_frame(self, worker: _WorkerHandle) -> Optional[list]:
        """Block until this worker has work (or shutdown) and claim one
        frame of it: its pinned actors first, then its placed queue,
        then the global spillover queue — and, failing all three,
        *steal*: raid another worker's placed queue directly, or ask a
        busy worker to give up the tail of its local queue (answered
        asynchronously by a STEAL_GRANT)."""
        with self._cond:
            while True:
                if self.closed or not worker.alive:
                    return None
                frame = self._claim_frame(worker)
                if frame:
                    worker.busy = True
                    return frame
                self._request_remote_steal(worker)
                # The grant lands on the victim's pipe and is applied by
                # the victim's thread; that, like a submit or an
                # arrival, notifies the cond.
                self._cond.wait(timeout=_IDLE_WAIT_BACKSTOP)

    def _claim_frame(self, worker: _WorkerHandle) -> list:
        """Pop the specs of this worker's next TASK frame (lock held).

        The head is whatever it would have been handed alone; what is
        queued behind it rides along while the frame's *estimated* work
        stays within ``FRAME_BUDGET_S`` — the one frame rule, on every
        wire backend.  Behind a stateless head that is stateless tasks
        (what the estimate gets wrong the worker gives back,
        ``ProcWorker._watch_done``); behind an actor call, the following
        calls of the *same* actor's lane whose arguments are in — a
        window never mixes actors, and all of it counts against the lane
        as dispatched (``_ActorLane.open``).  A function or method with
        no estimate yet (so every constructor), or one estimated over
        the budget, therefore ships alone."""
        head = self._pop_runnable(worker, raid=True)
        if head is None:
            return []
        frame = [head]
        spent = self._estimate(head)
        if head.actor_id is not None:
            lane = self.actors.get(head.actor_id).lane
            calls = lane.calls
            while (
                spent is not None
                and spent < msg.FRAME_BUDGET_S
                and calls
                and not self._deps.is_waiting(calls[0].task_id)
            ):
                cost = self._estimate(calls[0])
                if cost is None or spent + cost > msg.FRAME_BUDGET_S:
                    break
                frame.append(calls.popleft())
                spent += cost
            lane.open = len(frame)
            return frame
        while spent is not None and spent < msg.FRAME_BUDGET_S:
            source = worker.placed or self._queue
            if not source or source[0].actor_id is not None:
                break  # nothing, or a dead actor's call on its way to its error
            cost = self._estimate(source[0])
            if cost is None or spent + cost > msg.FRAME_BUDGET_S:
                break
            spec = source.popleft()
            if not self._dropped_cancelled(spec):
                frame.append(spec)
                spent += cost
        return frame

    def _estimate(self, spec: TaskSpec) -> Optional[float]:
        """Estimated execution seconds of one task for frame sizing, or
        None when there is nothing to go on (functions and actor methods
        not yet seen to complete, constructors, worker-born one-off
        function ids)."""
        estimate = self._exec_estimate.get(spec.function_id)
        if estimate is None:
            return None
        return max(estimate, _MIN_TASK_ESTIMATE_S)

    def _steal_placed(self, thief: _WorkerHandle) -> Optional[TaskSpec]:
        """Driver-side steal: move one task from the longest placed
        queue of another live worker (lock held).  No wire protocol —
        placed queues live on the driver, so the raid is a deque pop."""
        victim = None
        for worker in self._workers:
            if worker is None or worker is thief or not worker.alive:
                continue
            if not worker.placed:
                continue
            if victim is None or len(worker.placed) > len(victim.placed):
                victim = worker
        if victim is None:
            return None
        self._sched.tasks_stolen += 1
        spec = victim.placed.popleft()
        if self._obs.enabled:
            self._obs.record(
                "task_stolen",
                task_id=str(spec.task_id),
                thief=f"worker-{thief.index}",
                victim=f"worker-{victim.index}",
                wire=False,
            )
        return spec

    def _request_remote_steal(
        self, thief: _WorkerHandle, include_self: bool = False
    ) -> None:
        """Ask the most-backlogged busy worker for the tail of its local
        queue (lock held).  At most one request per victim is in flight;
        the victim answers within a watchdog tick or two whatever it is
        doing — between tasks, from an rpc's reply loop, or from its
        watchdog thread while a task runs, which is what takes a
        frame's tail back from behind a head that outran its estimate —
        and the grant comes back on the victim's pipe and is applied by
        the victim's own service thread, woken here if it is parked on
        the cond in :meth:`_wait_serving` instead of reading that pipe.

        A prompt answer must not become a request loop.  The mirror
        counts tasks the victim is running or has not reported yet, so
        its length can promise a tail that is not there: a victim that
        granted nothing is not asked again until something new was
        pushed to its mirror (a frame's tail, a SUBMIT_LOCAL).

        ``include_self`` lets a *blocked* worker raid its own queue: the
        child answers the request from its reply-wait loop, the grant
        re-homes the tasks through the global queue, and the service
        thread can then inject them back reentrantly — which is how a
        worker blocked on work that its own queue holds, but that it
        could not run inline itself (a task that is not the producer of
        what it waits for, only upstream of it), unwedges itself."""
        victim = None
        for worker in self._workers:
            if worker is None or not worker.alive:
                continue
            if worker is thief and not include_self:
                continue
            if not worker.busy or worker.steal_outstanding:
                continue
            if worker.steal_dry_at == worker.mirror.pushed:
                continue
            if not _STEAL.should_steal(len(worker.mirror)):
                continue
            if victim is None or len(worker.mirror) > len(victim.mirror):
                victim = worker
        if victim is None:
            return
        victim.steal_outstanding = True
        victim.steal_dry_at = victim.mirror.pushed
        try:
            self._send_control(
                victim,
                (msg.STEAL_REQUEST, _STEAL.batch_size(len(victim.mirror))),
            )
        except OSError:
            return  # victim died; its crash handler owns the cleanup
        if victim.parked:
            self._cond.notify_all()

    def _handle_async_report(self, worker: _WorkerHandle, message: tuple) -> bool:
        """One arm for the one-way worker reports every serving loop
        shares; False if the message was something else (an rpc
        request)."""
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
            return False
        return True

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

    def _fail_payload(self, spec: TaskSpec, exc: BaseException) -> None:
        """A task whose payload could not be built (lost argument,
        unpicklable code) resolves to an error value in every slot."""
        with self._cond:
            self._objects.store_error(spec, error_value_from(spec, exc))
            if spec.actor_id is not None:
                self._settle_call(spec)

    def _return_unshipped(self, specs: list) -> None:
        """A claimed frame whose worker died before it was sent goes
        back where it was claimed from (lock held): stateless tasks to
        the plane, an actor's to the front of its lane, in order — or,
        the actor having died with the worker, to their error."""
        for spec in reversed(specs):
            if spec.actor_id is None:
                self._enqueue(spec)
                continue
            lane = self.actors.get(spec.actor_id).lane
            lane.open -= 1
            if lane.record.dead:
                self._queue.append(spec)
            else:
                lane.calls.appendleft(spec)
                self._wake_lane(lane)

    def _ship_frame(self, worker: _WorkerHandle, specs: list) -> bool:
        """Encode, register and send one TASK frame; False if nothing was
        left to send.

        Until this point the specs were owned by the calling service
        thread alone (popped from every queue, registered nowhere).  A
        task that cannot be encoded resolves to an error; a task
        cancelled in the meantime is dropped, unshipped.  The rest
        become the worker's: the head joins its ``inflight`` table (it
        runs on arrival), the tail its mirror (queued there, and from
        now on stealable, cancellable, re-homable) — unless the frame is
        an actor's window, which is ``inflight`` whole: the worker runs
        it through without queueing it, so it is committed there — not
        stealable, not re-homable, and lost with the actor if the
        worker dies.  Registration and
        taking the pipe's send lock happen under one hold of the runtime
        lock, so a CANCEL_NOTICE for a mirrored task can only ever
        follow the frame that carries it."""
        def slot_for(object_id: ObjectID, inline: dict) -> SlotRef:
            with self._cond:
                return self._objects.arg_slot(object_id, worker.index, inline)

        functions: dict = {}
        encoded = []
        for spec in specs:
            try:
                entry = self._encode_task(spec, worker, functions, slot_for)
                encoded.append((spec, entry))
            except (TypeError, ReproError) as exc:
                self._fail_payload(spec, exc)
        with self._cond:
            if self.closed:
                return False
            if not worker.alive:
                # The worker died under us (dist: its node's link).
                # Nothing was sent, so nothing is lost: back to the plane.
                self._return_unshipped([spec for spec, _entry in encoded])
                self._cond.notify_all()
                return False
            shipped = [
                (spec, entry) for spec, entry in encoded
                if not self._dropped_cancelled(spec)
            ]
            if not shipped:
                return False
            head, head_entry = shipped[0]
            worker.inflight[head_entry[0]] = head
            if head.actor_id is None:
                for spec, entry in shipped[1:]:
                    worker.mirror.push(entry[0], spec)
            else:
                for spec, entry in shipped[1:]:
                    worker.inflight[entry[0]] = spec
            self._sched.frames_sent += 1
            self._sched.tasks_shipped += len(shipped)
            if self._obs.enabled:
                span = {
                    "worker": f"worker-{worker.index}",
                    "size": len(shipped),
                    "est_ms": 1e3 * sum(
                        self._estimate(spec) or 0.0 for spec, _ in shipped
                    ),
                }
                if head.actor_method not in (None, CREATION_METHOD):
                    span["actor"] = str(head.actor_id)
                self._obs.record("task_frame", **span)
            worker.send_lock.acquire()
        try:
            worker.functions_sent.update(functions)
            self._send_held(
                worker,
                (
                    msg.TASK,
                    [entry for _spec, entry in shipped],
                    {fid.hex: row for fid, row in functions.items()},
                ),
            )
        finally:
            worker.send_lock.release()
        return True

    def _run_session(self, worker: _WorkerHandle, frame: list) -> None:
        """Ship one frame and serve the whole session it opens."""
        if not self._ship_frame(worker, frame):
            with self._cond:
                worker.busy = False
                self._cond.notify_all()
            return
        while True:
            self._flush_outbox(worker)
            message = worker.conn.recv()
            if not self._handle_async_report(worker, message):
                self._serve_rpc(worker, message)
            elif message[0] == msg.DONE and message[2]:
                return  # the worker's queue drained: session over

    def _apply_done_frame(self, worker: _WorkerHandle, message: tuple) -> None:
        """One DONE frame: every completion it carries, the session end
        if it says so, and the control-store writes they cause — under
        one hold of the runtime lock, with one wake-up of whoever waits
        on it, one enqueue into the control store's writer and one
        update of each function's execution-time estimate."""
        completions, idle = message[1], message[2]
        if len(message) > 3:  # optional trailing obs blob
            self._ingest_worker_obs(worker, message[3])
        with self._cond, self._control.async_batch():
            self._objects.drain(batched=True)
            self._sched.done_frames += 1
            times: dict = {}
            for task_hex, blobs, failed, exec_seconds in completions:
                spec = self._finish_done(worker, task_hex, blobs, failed)
                if spec is not None and (
                    spec.function_id in self._functions
                    or spec.actor_method not in (None, CREATION_METHOD)
                ):
                    times.setdefault(spec.function_id, []).append(exec_seconds)
            for function_id, samples in times.items():
                self._note_exec_times(function_id, samples)
            if idle:
                worker.busy = False
            self._objects.flush_deletes()
            self._cond.notify_all()

    def _note_exec_times(self, function_id: FunctionID, samples: list) -> None:
        """Fold one DONE frame's execution times of one function into
        its estimate (lock held): the upper median of the latest few —
        with an even count it errs high."""
        recent = self._exec_samples.get(function_id)
        if recent is None:
            recent = self._exec_samples[function_id] = deque(
                maxlen=_ESTIMATE_WINDOW
            )
        recent.extend(samples)
        estimate = sorted(recent)[len(recent) // 2]
        slowest = max(samples)
        if slowest >= msg.FRAME_BUDGET_S:
            # A run that filled a frame's budget by itself is believed
            # at once: the cost may follow the arguments.
            estimate = max(estimate, slowest)
        self._exec_estimate[function_id] = estimate

    def _register_local_submit(
        self, worker: _WorkerHandle, entries: list, table: dict, escaped=()
    ) -> None:
        """A worker kept nested tasks on its own queue (the fast path);
        register lineage/lifecycle state from the one-way notice batch,
        mirror the queue entries, and ack the batch with one PLACED.
        ``table`` names the functions the worker submits here for the
        first time, ``escaped`` the objects whose refs the worker
        pickled or kept past their task (a notice may carry nothing
        else).  Pipe FIFO guarantees this runs before any DONE or
        STEAL_GRANT mentioning any of the tasks, and before any bytes
        that carry one of those refs."""
        with self._cond, self._control.async_batch():
            plane = self._objects
            plane.escape(escaped)
            for function_hex, (name, code) in table.items():
                function_id = FunctionID(function_hex)
                self._functions.setdefault(function_id, (name, None))
                self._fn_cache.setdefault(function_id, code)
                worker.functions_sent.add(function_id)
            msg.register_functions(self._peer_templates, table)
            for entry in entries:
                spec = msg.decode_entry(
                    entry, self._peer_templates, submitted_from=worker.node_id
                )
                self._lifecycle.register(spec)
                plane.hold_born(entry[5].get("parent"), spec.all_return_ids())
                deps = entry[5].get("deps")
                if deps:
                    plane.pin(spec, [ObjectID(dep) for dep in deps])
                worker.mirror.push(entry[0], spec)
                self._payloads[entry[0]] = entry
                # Worker-born lineage: async by design (the fast path is
                # already acked one-way).  The record is self-contained:
                # the wire entry is the replay form, the function row
                # what a driver that never saw this table needs with it,
                # the spec the bookkeeping form.
                self._control.async_task_put(
                    spec.task_id,
                    {
                        "spec": spec,
                        "payload": (
                            entry,
                            self._functions[spec.function_id][0],
                            self._fn_cache[spec.function_id],
                        ),
                    },
                    node=worker.node_id,
                )
                self._sched.tasks_placed_local += 1
            self._cond.notify_all()  # idle thieves may now see a victim
        if entries:
            self._send(worker, (msg.PLACED, len(entries)))

    def _apply_steal_grant(
        self, victim: _WorkerHandle, task_hexes: list, midtask: bool = False
    ) -> None:
        """The victim gave up the tail of its local queue: re-home those
        tasks through the global queue.  The victim is the queue's only
        executor, so everything granted is provably not running there;
        ids missing from the mirror were cancelled in the meantime and
        stay dropped.  ``midtask``: the victim was inside a task (its
        watchdog answered) — these tasks were recalled from behind it."""
        with self._cond:
            victim.steal_outstanding = False
            if task_hexes:
                victim.steal_dry_at = -1  # it may have more to give
            for task_hex in task_hexes:
                spec = victim.mirror.remove(task_hex)
                if spec is None or self._dropped_cancelled(spec):
                    continue
                self._sched.tasks_stolen += 1
                if midtask:
                    self._sched.tasks_recalled += 1
                if self._obs.enabled:
                    self._obs.record(
                        "task_stolen",
                        task_id=str(spec.task_id),
                        victim=f"worker-{victim.index}",
                        wire=True,
                        midtask=midtask,
                    )
                self._control.async_task_update(spec.task_id, state="stolen")
                self._queue.append(spec)
            self._cond.notify_all()

    def _finish_done(
        self, worker: _WorkerHandle, task_hex: str, blobs: list, failed: bool
    ) -> Optional[TaskSpec]:
        """One completion of a DONE frame (lock held): resolve the raw
        task id against the worker's inflight table (handed over to run)
        or its mirror (queued there: locally-born, or shipped ahead in a
        frame), record the task finished and return its spec — None for
        a task cancelled while it ran."""
        spec = worker.inflight.pop(task_hex, None)
        if spec is None:
            spec = worker.mirror.remove(task_hex)
        payload = self._payloads.pop(task_hex, None) if self._payloads else None
        if spec is None:
            # Cancelled while mid-run on the worker: the marker owns
            # the result slots; drop the blobs.
            self._objects.discard(blobs)
        else:
            self._finish_spec(worker, spec, blobs, failed, payload)
            if spec.actor_id is not None:
                self._settle_call(spec)
        self._objects.drop_born(task_hex)
        return spec

    def _read_steal_grant(self, worker: _WorkerHandle) -> None:
        """Read a blocked worker's pipe until the STEAL_GRANT it owes
        arrives (its service thread, lock not held).

        The child is parked in the reply-wait loop of its get/wait rpc
        and answers a STEAL_REQUEST from there at once, so this is one
        bounded exchange on a pipe only this thread reads — not a wait:
        the grant (possibly the very tasks the worker is blocked on) is
        re-homed the moment it lands, and a dead child raises into the
        crash path like any other ``recv``."""
        self._flush_outbox(worker)
        while worker.steal_outstanding:
            message = worker.conn.recv()
            if not self._handle_async_report(worker, message):
                # The blocked child is awaiting OUR reply: it cannot have
                # issued another request, so anything else is a protocol bug.
                raise BackendError(
                    f"unexpected worker message {message[0]!r} while "
                    "serving a blocked worker"
                )

    # ------------------------------------------------------------------
    # One task on one worker
    # ------------------------------------------------------------------

    def _execute_remote(self, worker: _WorkerHandle, spec: TaskSpec) -> None:
        """Ship one task as a frame of one and serve the worker until
        the DONE frame that reports it: how a task runs *inside* a
        worker that is blocked awaiting an RPC reply (it executes
        reentrantly there; notices and grants may interleave meanwhile).

        Pipe failures propagate to the caller (crash handling); anything
        unserializable resolves the task to an error value instead."""
        if not self._ship_frame(worker, [spec]):
            return
        task_hex = spec.task_id.hex
        while True:
            self._flush_outbox(worker)
            message = worker.conn.recv()
            if not self._handle_async_report(worker, message):
                self._serve_rpc(worker, message)
            elif message[0] == msg.DONE and any(
                done[0] == task_hex for done in message[1]
            ):
                return

    def _encode_task(
        self, spec: TaskSpec, worker: _WorkerHandle, functions: dict, slot_for
    ) -> tuple:
        """One frame entry (``messages.encode_entry``, with the frame's
        ``slot_for`` resolving ref arguments against this driver's
        stores), and the task's function into ``functions`` — the
        frame's function table — unless this worker already has it.

        Worker-born tasks (the fast path) already have their
        entry — built by the submitting worker and mirrored here via
        SUBMIT_LOCAL — so steal and crash-replay dispatches reuse it
        verbatim; ref slots resolve through FETCH/shm on the executing
        worker.  Actor tasks name no registered function: what they run
        lives on the worker already, except a constructor's class, which
        rides in the entry."""
        if spec.actor_id is not None:
            record = self.actors.get(spec.actor_id)
            extras = {
                "actor": (
                    spec.actor_id,
                    spec.actor_method,
                    record.class_name if record else spec.function_name,
                    spec.resources,
                )
            }
            if spec.actor_method == CREATION_METHOD:
                extras["code"] = self._function_bytes(spec)
            return msg.encode_entry(spec, slot_for, **extras)
        entry = self._payloads.get(spec.task_id.hex) if self._payloads else None
        if entry is None:
            entry = msg.encode_entry(spec, slot_for)
        if spec.function_id not in worker.functions_sent:
            with self._cond:
                # A spec that outlived its registration (replayed by a
                # recovered driver) or was submitted with an id of the
                # caller's own is registered by what it carries.
                name = self._functions.setdefault(
                    spec.function_id, (spec.function_name, spec.function)
                )[0]
            functions[spec.function_id] = (name, self._function_bytes(spec))
        return entry

    def _function_bytes(self, spec: TaskSpec) -> bytes:
        cached = self._fn_cache.get(spec.function_id)
        if cached is None:
            function = spec.function
            if function is None:
                with self._cond:
                    function = self._functions.get(spec.function_id, (None, None))[1]
            if function is None:
                raise BackendError(
                    f"function {spec.function_name!r} not registered"
                )
            cached = serialize_portable(function)
            self._fn_cache[spec.function_id] = cached
        return cached

    def _finish_spec(
        self,
        worker: _WorkerHandle,
        spec: TaskSpec,
        blobs: list,
        failed: bool,
        payload: Optional[tuple] = None,
    ) -> None:
        """Record one completed task and publish its results (lock held;
        the spec is already off the inflight stack / mirror).  ``payload``
        is a worker-born task's wire entry, which the object plane keeps
        while a lost node could still make the task run again."""
        worker.tasks_done += 1
        self._tasks_executed += 1
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
                    # the driver records only that binding.
                    register_instance(record, REMOTE_INSTANCE, worker.node_id)
                    self._control.async_actor_update(
                        spec.actor_id, state="alive", node=worker.node_id
                    )
                else:
                    record.methods_executed += 1
        if self._lifecycle.is_cancelled(spec.task_id):
            # Cancelled mid-run: the marker owns the slots.
            self._objects.discard(blobs)
            return
        self._objects.finish(spec, blobs, worker.index, payload)
        if self._obs.enabled:
            self._obs.record(
                "result_stored",
                task_id=str(spec.task_id),
                function=spec.function_name,
                worker=f"worker-{worker.index}",
                num_returns=spec.num_returns,
                failed=failed,
            )

    # ------------------------------------------------------------------
    # Worker request service
    # ------------------------------------------------------------------

    def _serve_rpc(self, worker: _WorkerHandle, message: tuple) -> None:
        tag = message[0]
        try:
            plane = self._objects
            if tag == msg.FETCH:
                plane.pull(message[1])  # a node-resident one comes here first
                with self._cond:
                    reply = plane.fetch_bytes(message[1], worker.index)
            elif tag == msg.SUBMIT:
                reply = self._submit_from_worker(message[1])
            elif tag == msg.GET:
                reply = self._serve_get(worker, message[1], message[2])
            elif tag == msg.WAIT:
                reply = self._serve_wait(
                    worker, message[1], message[2], message[3]
                )
            elif tag == msg.PUT:
                data, born_in = message[1], message[2]
                with self._cond:
                    reply = self.ids.object_id()
                    plane.hold_born(born_in, (reply,))
                    plane.store_bytes(reply, data)
                    # The putting worker keeps a copy in its cache.
                    plane.residency.record(worker.index, reply.hex, len(data))
            elif tag == msg.SHM_ATTACH:
                plane.pull(message[1])
                with self._cond:
                    reply = plane.attach(message[1], worker.index)
            elif tag == msg.SHM_CREATE:
                # No id named: a put, which gets a fresh one.
                with self._cond:
                    reply = plane.grant(
                        message[1] or self.ids.object_id(), message[2], worker.index
                    )
            elif tag == msg.SHM_SEAL:
                with self._cond:
                    reply = plane.seal_put(message[1], worker.index, message[2])
            elif tag == msg.SHM_ABORT:
                with self._cond:
                    reply = plane.abort_grant(message[1])
            elif tag == msg.CANCEL:
                reply = self.cancel(
                    ObjectRef._uncounted(message[1]), recursive=message[2]
                )
            elif tag == msg.GET_ACTOR:
                reply = self.get_actor(message[1])
            elif tag == msg.CREATE_ACTOR:
                reply = self._create_actor_from_worker(message[1])
            elif tag == msg.CALL_ACTOR:
                payload = message[1]
                args, kwargs = msg.restore_refs(
                    *deserialize_portable(payload["call_bytes"])
                )
                with self._cond:
                    reply = _wire_ids(
                        self._call_actor(
                            payload["actor_id"], payload["method"], args,
                            kwargs, payload.get("num_returns", 1),
                            born_in=payload["parent"],
                        )
                    )
            else:
                raise BackendError(f"unknown worker message {tag!r}")
        except (EOFError, OSError):
            raise  # pipe failure: crash handling, not an error reply
        except BaseException as exc:  # noqa: BLE001 - user payloads can
            # raise anything (hostile __setstate__, unpicklable args); the
            # service thread must survive and answer, or the parked child
            # process is stranded forever with no crash to detect.
            self._send(worker, (msg.ERR, _pipe_safe_error(tag, exc)))
        else:
            self._send(worker, (msg.OK, reply))

    def _serve_get(
        self, worker: _WorkerHandle, object_ids: list, timeout: Optional[float]
    ) -> list:
        """A worker-side ``get``: like the driver's, but while blocked it
        keeps the worker's pinned actors' lanes moving (see
        :meth:`_wait_serving`) so an actor task cannot deadlock against
        the very worker that must run it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        plane = self._objects
        blobs = []
        for object_id in object_ids:
            while True:
                arrived = self._wait_serving(
                    worker, lambda oid=object_id: plane.has(oid), deadline
                )
                if not arrived:
                    raise GetTimeoutError(f"get timed out waiting for {object_id}")
                with self._cond:
                    blob = plane.blob_for(object_id)
                if blob is not None:
                    blobs.append(blob)
                    break
                # It lives on a node alone: bring a copy here.  A pull
                # that fails (the node was lost under it) leaves a
                # reconstruction, or its error marker, to wait for.
                if not plane.pull(object_id):
                    _time_left(deadline, object_id)
        return blobs

    def _serve_wait(
        self,
        worker: _WorkerHandle,
        object_ids: list,
        num_returns: int,
        timeout: Optional[float],
    ) -> list:
        """A worker-side ``wait`` (the worker validated its arguments
        and partitions its own refs): the ready ids, after the same
        lane service as get."""
        deadline = None if timeout is None else time.monotonic() + timeout
        has = self._objects.has
        self._wait_serving(
            worker,
            lambda: sum(1 for object_id in object_ids if has(object_id))
            >= num_returns,
            deadline,
        )
        with self._cond:
            return [object_id for object_id in object_ids if has(object_id)]

    def _wait_serving(
        self,
        worker: _WorkerHandle,
        predicate: Callable[[], bool],
        deadline: Optional[float],
    ) -> bool:
        """Block until ``predicate()`` holds (True) or the deadline passes
        (False), dispatching the worker's pinned actors' calls in the
        meantime.

        ``worker``'s child process is parked in ``recv`` awaiting our
        reply, so tasks pinned to it — possibly the very ones the blocked
        task is getting — can only run if we feed them to it now, one
        at a time; the child executes them reentrantly, on top of the
        blocked task (see ``ProcWorker.rpc``).  Which is why a lane with
        a call still out dispatches nothing (``_ActorLane.open``): the
        blocked task may *be* that call, and its successor, run on top
        of it, would overtake it.  Other actors' lanes keep moving.

        A blocked worker stays a full execution resource, which is
        what makes a fully-blocked pool deadlock-free:

        * runnable stateless work — its placed queue, the global queue —
          is injected reentrantly exactly like pinned tasks;
        * what it waits for and holds in its own local queue it has
          already run inline (``ProcWorker.run_producers``); what is
          left there — work only upstream of what it waits for — is
          recovered by *self-steal*: the blocked child answers
          STEAL_REQUESTs from its reply-wait loop, the grant re-homes
          the tasks into the global queue, and they come back through
          the injection path above;
        * a grant owed to this worker's pipe — to that self-steal, or to
          an idle peer's request — is read off it at once (this thread
          is the pipe's only reader; :meth:`_read_steal_grant`), and
          busy peers are raided on this worker's behalf.  Everything
          else that can end the wait notifies the cond.
        """
        while True:
            nested: Optional[TaskSpec] = None
            with self._cond:
                while True:
                    self._check_open()  # the wait ends with the pool
                    if predicate():
                        return True
                    nested = self._pop_runnable(worker)
                    if nested is not None:
                        break
                    remaining = _BLOCKED_WAIT_BACKSTOP
                    if deadline is not None:
                        remaining = min(remaining, deadline - time.monotonic())
                        if remaining <= 0:
                            return False
                    self._request_remote_steal(worker, include_self=True)
                    if worker.steal_outstanding or worker.outbox:
                        break
                    worker.parked = True
                    self._cond.wait(timeout=remaining)
                    worker.parked = False
            if nested is not None:
                self._execute_remote(worker, nested)
            else:
                self._read_steal_grant(worker)

    def _submit_from_worker(self, payload: dict) -> Any:
        """A worker-born task that could not take the fast path
        (unresolved/non-resident deps, misfit resources, backlog): the
        paper's spillover stream into the driver tier.  The function
        keeps the id its worker gave it, so its code is registered (and
        later shipped, and its execution time learned) once."""
        function_id = FunctionID(payload["function_hex"])
        args, kwargs = msg.restore_refs(
            *deserialize_portable(payload["call_bytes"])
        )
        with self._cond:
            if function_id not in self._functions:
                self._functions[function_id] = (payload["function_name"], None)
                self._fn_cache[function_id] = payload["function_bytes"]
                # Its worker may get the function back in a frame's table
                # and then submit it on the fast path without a row.
                msg.register_functions(
                    self._peer_templates,
                    {payload["function_hex"]: (payload["function_name"], None)},
                )
            self._sched.tasks_spilled += 1
            if self._obs.enabled:
                self._obs.record(
                    "task_spilled", function=payload["function_name"]
                )
        template = CallTemplate(
            None, function_id, payload["function_name"], payload["options"]
        )
        self._check_open()
        template.check_feasible(self.cluster)
        parent = payload["parent_task_id"]
        with self._cond:
            spec = template.stamp(
                self.ids, args, kwargs, self.head_node_id,
                payload["root_task_id"], parent,
            )
            self._objects.hold_born(
                None if parent is None else parent.hex, spec.all_return_ids()
            )
            self._submit_spec(spec)
        return _wire_ids(spec)

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
            self._enqueue(spec)
        self._completions.notify(object_id)
        self._cond.notify_all()

    def _requeue_lost(self, spec: TaskSpec, payload: Optional[tuple]) -> None:
        """A task whose results were lost runs again, through the global
        queue (lock held).  A worker-born one is reshipped as the exact
        entry its worker built: still in ``_payloads`` if it died
        unreported, handed back here if it had completed."""
        if payload is not None:
            self._payloads[spec.task_id.hex] = payload
        self._queue.append(spec)

    def watch_object(self, object_id: ObjectID, callback) -> None:
        """Event-driven completion: ``callback(object_id)`` fires exactly
        once, on the pump thread, when the object is (or already was)
        resident — the serving plane's alternative to a blocked ``get``."""
        with self._cond:
            self._completions.add_watch(
                object_id, callback, ready=self._objects.has(object_id)
            )

    def _wait_for_value(self, object_id: ObjectID, deadline: Optional[float]) -> Any:
        """Block until an object is resident, then load and unwrap it —
        zero-copy from shm, deserialized from bytes on the pipe plane,
        pulled into the pipe store first when it lives on a node alone.
        Deserialization of either plane happens outside the lock (the
        lease holds the window, this frame the bytes)."""
        plane = self._objects
        while True:
            with self._cond:
                plane.drain(batched=True)
                while not plane.has(object_id):
                    self._cond.wait(timeout=_time_left(deadline, object_id))
                if not plane.only_on_node(object_id):
                    view, data = plane.read(object_id)
                    break
            # A pull that fails (the node was lost under it) leaves a
            # reconstruction, or its error marker, to wait for.
            if not plane.pull(object_id):
                _time_left(deadline, object_id)
        if view is not None:
            return unwrap_loaded(deserialize_frame(view))
        return unwrap_value(data)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------

    def _handle_worker_crash(
        self, worker: _WorkerHandle, exc: BaseException
    ) -> None:
        """A worker process died (EOF/error on its pipe).

        Mirrors the sim backend's node-death semantics: actors whose state
        lived there are lost for good (ActorLostError), stateless tasks
        are replayed from their spec (lineage), and the pool heals by
        spawning a replacement process into the same slot."""
        with self._cond:
            if self.closed or not worker.alive:
                return
            doomed, replaced = self._retire_worker(worker)
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
            for spec in doomed:
                self._resolve_crashed_task(spec)
            survivors = self._fail_lanes_on(worker)
            replacement = self._spawn_worker(worker.index)
            # Every surviving actor still homed on the dead node is an
            # unconstructed one (mark_dead_on_node killed the rest; its
            # constructor never ran, so nothing is lost): re-point them
            # all at the replacement — a lane goes where its record
            # points, whether its constructor is runnable yet or not.
            for lane in survivors:
                lane.record.node_id = replacement.node_id
                replacement.actors_bound += 1
                self._wake_lane(lane)
            for spec in replaced:
                self._enqueue(spec)
            self._cond.notify_all()

    def _fail_lanes_on(self, worker: _WorkerHandle) -> list:
        """The actors homed on a lost worker, after its in-flight tasks
        were resolved (lock held).  A dead actor's lane is emptied into
        :class:`~repro.errors.ActorLostError` — the calls whose
        arguments are in, now; one still parked on an argument, through
        the global queue when that arrives — and stays empty.  Returns
        the lanes of the live ones (unconstructed), to be re-homed."""
        survivors = []
        for record in self.actors.on_node(worker.node_id):
            lane = record.lane
            if not record.dead:
                survivors.append(lane)
                continue
            calls, lane.calls = lane.calls, deque()
            for spec in calls:
                if not self._deps.is_waiting(spec.task_id):
                    self._objects.store_error(
                        spec, actor_lost_error_value(spec, record)
                    )
        return survivors

    def _retire_worker(self, worker: _WorkerHandle) -> tuple:
        """What every way of losing a worker starts with (lock held):
        mark it dead, empty its tables, kill the actors whose state lived
        there.  Returns ``(doomed, replaced)``: the tasks that died with
        it, to go through :meth:`_resolve_crashed_task`, and the ones the
        driver had only placed on it, to be placed again (no replay
        budget consumed: they never reached the worker)."""
        worker.alive = False
        # Everything on the reentrant stack died with the process.
        doomed = list(worker.inflight.values())
        worker.inflight.clear()
        # The worker's local queue died with it, but the
        # mirror has every task (SUBMIT_LOCAL precedes everything else
        # on the pipe, frame tails are mirrored before the frame is
        # sent) and _payloads still holds the worker-born ones' entries
        # — they go through the same lineage-replay gate as the
        # in-flight stack: a shipped-ahead task may have run to
        # completion with its report still buffered in the dead
        # process, so each counts as a replay.  This also covers tasks
        # mid-steal: a grant the victim never delivered leaves them in
        # the mirror.
        for _task_hex, mirrored in worker.mirror.drain():
            if mirrored not in doomed:
                doomed.append(mirrored)
        # Lanes waiting here for dispatch go back to standing nowhere:
        # the crash path fails or re-homes them (``_fail_lanes_on``).
        for lane in worker.pinned:
            lane.queued = False
        worker.pinned.clear()
        replaced = list(worker.placed)
        worker.placed.clear()
        for spec in replaced:
            # Placement re-runs against the surviving pool; a stale
            # placement_hint pointing at the dead node must not pin the
            # task to a queue nobody drains.
            if spec.placement_hint == worker.node_id:
                spec.placement_hint = None
        worker.busy = False
        worker.steal_outstanding = False
        self._objects.worker_lost(worker.index)
        self._workers_crashed += 1
        self._by_node.pop(worker.node_id, None)
        self.actors.mark_dead_on_node(worker.node_id)
        return doomed, replaced

    def _resolve_crashed_task(
        self, spec: TaskSpec, lost_node: Optional[int] = None
    ) -> None:
        """Decide the fate of a task that died with its worker — or, on
        the dist backend, with the whole node ``lost_node`` (lock held)."""
        # The refs its process held to what was born in it are gone.
        self._objects.drop_born(spec.task_id.hex)
        if spec.actor_id is not None:
            record = self.actors.get(spec.actor_id)
            if record is not None:
                if not record.dead:
                    # The constructor was mid-run: its half-built state
                    # died with the process.
                    record.dead = True
                    record.instance = None
                self._objects.store_error(
                    spec, actor_lost_error_value(spec, record)
                )
            return
        # Worker-born tasks keep their _payloads entry while they can run
        # again: the replay dispatch reships the exact payload the dead
        # worker built.
        if not self._objects.replay_or_fail(spec, lost_node):
            self._payloads.pop(spec.task_id.hex, None)
