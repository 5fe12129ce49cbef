"""Worker-process side of the ``proc`` backend.

One :class:`ProcWorker` runs per child process: a synchronous loop that
receives task messages over its pipe, executes them, and sends results
back.  Everything user code can do inside a task — nested ``.remote()``
calls, ``repro.get``/``wait``/``put``, actor creation and calls, the
generator effect vocabulary — is served by :class:`WorkerRuntime`, a
proxy implementing the backend surface via requests to the driver's
per-worker service thread.

The worker shares the execution-side semantics of the other backends
through the core modules: :func:`~repro.core.worker.execute_task` is the
task body ``local``'s threads run too (function lookup, actor
constructor and method, with identical error text),
:func:`~repro.core.effect_driver.run_effect_loop_sync` drives generator
bodies, and failures are captured as
:class:`~repro.core.worker.ErrorValue`\\ s exactly like a thread or a
simulated worker would.  An argument and a ``get``'s value are read the
same way, from the slot the driver filled (:meth:`ProcWorker.read_slot`);
the bytes of one it fetched are cached in a per-worker
:class:`~repro.objectstore.store.LocalObjectStore` (the same LRU
byte-store used on every node of the simulated cluster).

The worker also owns the bottom tier of the scheduling plane
(:mod:`repro.sched_plane`): a
:class:`~repro.sched_plane.queues.LocalTaskQueue` it is the sole
executor of.  A nested ``.remote()`` whose dependencies are already
resident here (argument cache, own shared-memory descriptors) builds
its spec *locally* — the worker allocates task and object ids from its
own collision-free namespace — enqueues it to itself, and tells the
driver with a one-way ``SUBMIT_LOCAL`` notice: **zero driver
round-trips** on the submission path.  One that cannot stay (a
dependency not resident here, among others) rides the same notice to
the driver tier, which places it: a spill is no round trip either, and
neither is an actor call or a ``put`` made here — ids minted here, the
call or the bytes (or the seal of a filled shared-memory grant) on the
notice.
Driver-born work arrives in ``TASK`` frames whose tail lands on the
same queue (shipped ahead of need) — except an actor's window, which is
run through in frame order without being queued (``_queue_frame``) —
and completions go back coalesced in ``DONE`` frames — see
:mod:`repro.proc.messages` for the frame protocol.  The worker drains
the queue until it is empty, answers ``STEAL_REQUEST``\\ s by granting
the tail of the queue (ownership makes the grant race-free: what it
gives away it provably never runs), and honors ``CANCEL_NOTICE``
tombstones — both the moment they arrive, whatever the tasks are doing:
a frame's tail can be taken back at any moment, not only at the next
dispatch boundary.

**Threads.**  One *reader* thread owns the pipe's read side: it answers
``STEAL_REQUEST``, ``CANCEL_NOTICE`` and ``PLACED`` itself, hands each
reply to the thread that asked, queues ``TASK`` frames, and is the only
timer (:meth:`ProcWorker._read`).  Tasks run on *executor* threads that
share one token, so one task runs at a time.  A ``get``/``wait`` the
driver cannot answer at once is *parked*: its thread gives the token
up, the session goes on on another executor thread, and the task takes
the token back — before any new task starts — once the late reply
naming it arrives (:meth:`ProcWorker.rpc`).  Nothing ever runs on top of
a blocked task but the producers of what it waits for
(:meth:`ProcWorker.run_producers`).
"""

from __future__ import annotations

import os
import select
import threading
import time
from collections import deque
from typing import Any, Optional, Sequence

from repro import obs
from repro.cluster.spec import ClusterSpec
from repro.core.actors import CREATION_METHOD, ActorRecord, ActorRegistry
from repro.core.effect_driver import BlockingEffectHandler
from repro.core import object_ref
from repro.core.object_ref import ObjectRef, RefLedger
from repro.core.protocol import (
    normalize_get_refs,
    partition_by_ready,
    unwrap_loaded,
    validate_wait_args,
)
from repro.core.task import CallTemplate, TaskSpec, scan_arg_refs
from repro.core.worker import (
    ErrorValue,
    error_value_from,
    execute_task,
    propagate_error,
    split_result_values,
)
from repro.errors import ReproError
from repro.objectstore.store import LocalObjectStore
from repro.proc import messages as msg
from repro.proc.messages import ShmDescriptor, SlotRef
from repro.proc.transport import ensure_transport
from repro.scheduling.policies import SpilloverPolicy
from repro.sched_plane.dispatch import FRAME_BUDGET_S
from repro.sched_plane.queues import LocalTaskQueue
from repro.utils.ids import FunctionID, IDGenerator, NodeID, ObjectID

#: How long a buffered completion or ``SUBMIT_LOCAL`` notice may wait
#: for the next task boundary before the reader thread sends it anyway
#: (``ProcWorker._read``).
_DONE_WATCHDOG_S = 0.005

#: Descriptors a worker remembers (``ProcWorker._known_shm``).
_KNOWN_SHM_CAP = 1024

#: Byte capacity of a worker process's LRU cache of the pipe-path
#: objects it fetched.
WORKER_CACHE_BYTES = 64 * 1024**2

#: Backpressure on what a task makes: the most ``SUBMIT_LOCAL`` notice
#: items — nested tasks, kept or routed, actor calls, puts and seals —
#: that may be unacknowledged (no PLACED yet) at once.  A ``.remote()``
#: or ``put`` that would pass it flushes the notices and waits for the
#: PLACED that brings the window back under it.  Bounds the work that
#: only the submitting task's own replay could rebuild after a crash.
MAX_UNACKED_LOCAL = 4096

#: The keep-or-spill decision of the fast path.  The threshold is
#: deliberately high: on this plane the primary rebalancer is work
#: stealing (idle workers pull), so spillover only guards against a
#: worker hoarding an enormous fan-out the pool provably cannot drain
#: behind it.
_SPILLOVER = SpilloverPolicy(mode="hybrid", queue_threshold=512.0)
from repro.utils.serialization import (
    DEFAULT_INLINE_THRESHOLD,
    deserialize,
    deserialize_portable,
    serialize,
    serialize_buffers,
    serialize_portable,
    should_inline,
    write_frame,
)


class WorkerRuntime:
    """The backend surface visible to user code inside a worker process.

    Mirrors the driver-side :class:`~repro.proc.runtime.ProcRuntime`
    method-for-method, but every operation is a request over the pipe.
    Installed as the process's current runtime so ``repro.get``,
    ``fn.remote`` and actor handles work unchanged inside task bodies.
    """

    def __init__(self, worker: "ProcWorker") -> None:
        self._worker = worker
        self.closed = False
        self.ids = worker.ids

    # Function registration is local: the id keys the function's row in
    # this worker's table, and the driver learns the row with the first
    # submission that names it (``ProcWorker.rows_to_tell``).
    def register_function(self, function, name: str):
        return self.ids.function_id()

    def submit_call(self, template: CallTemplate, args: tuple, kwargs: dict) -> Any:
        """A nested ``.remote()``: no request (:meth:`ProcWorker.try_submit_local`)."""
        return self._worker.try_submit_local(template, args, kwargs)

    def cancel(self, ref: ObjectRef, recursive: bool = False) -> bool:
        if not isinstance(ref, ObjectRef):
            raise TypeError(
                f"cancel expects an ObjectRef, got {type(ref).__name__}"
            )
        return self._worker.rpc(
            msg.CANCEL, ref.object_id, recursive, ref.producer_task
        )

    def get_actor(self, name: str):
        return self._worker.rpc(msg.GET_ACTOR, name)

    def get(self, refs: Any, timeout: Optional[float] = None) -> Any:
        """Work-first: run the producers queued here first
        (:meth:`ProcWorker.run_producers`).  When those runs produced
        every requested value, the values are read from their results and
        no ``GET`` is sent (:meth:`ProcWorker.answer` says when that is
        allowed); otherwise one ``GET`` asks the driver for the whole
        list, and each slot of its reply is read as an argument's is
        (:meth:`ProcWorker.read_slot`)."""
        worker = self._worker
        ref_list, single = normalize_get_refs(refs)
        ran: dict = {}
        timeout = worker.run_producers(ref_list, timeout, len(ref_list), ran)
        blobs = worker.answer(ref_list, ran) if ran else None
        if blobs is not None:
            values = [deserialize(blob) for blob in blobs]
        else:
            object_ids = [ref.object_id for ref in ref_list]
            slots = worker.rpc(msg.GET, object_ids, timeout)
            values = list(map(worker.read_slot, object_ids, slots))
        values = [unwrap_loaded(value) for value in values]
        return values[0] if single else values

    def wait(
        self,
        refs: Sequence[ObjectRef],
        num_returns: int = 1,
        timeout: Optional[float] = None,
    ) -> tuple:
        ref_list = list(refs)
        validate_wait_args(ref_list, num_returns)
        timeout = self._worker.run_producers(ref_list, timeout, num_returns)
        ready = set(
            self._worker.rpc(
                msg.WAIT, [ref.object_id for ref in ref_list], num_returns,
                timeout,
            )
        )
        return partition_by_ready(ref_list, lambda ref: ref.object_id in ready)

    def put(self, value: Any) -> ObjectRef:
        """No request but a large value's grant (``SHM_CREATE``, which
        names its id): the bytes under an id minted here, or the seal of
        the filled grant, ride the next notice (:meth:`ProcWorker.buffer`)."""
        worker = self._worker
        if worker.shm_enabled:
            serialized = serialize_buffers(value)
            if not should_inline(serialized.total_bytes, worker.inline_threshold):
                granted = worker._ship_value(None, serialized)
                if granted is not None:
                    # Not remembered in _known_shm, like a result's
                    # grant (_pack_one): the driver seals it when it
                    # reads the notice, and nothing here may lease it
                    # before — a nested task on it is routed.
                    worker.buffer(
                        (granted.object_id.hex, None, worker.cur_hex()), put=True
                    )
                    return ObjectRef(granted.object_id)
            data = serialized.joined()
        else:
            data = serialize(value)
        object_id = worker.ids.object_id()
        worker.buffer((object_id.hex, data, worker.cur_hex()), put=True)
        worker.remember_bytes(object_id, data)
        return ObjectRef(object_id)

    def create_actor(
        self, actor_class, class_name, args, kwargs, resources,
        placement_hint=None, name=None,
    ):
        payload = {
            "class_bytes": serialize_portable(actor_class),
            "class_name": class_name,
            "call_bytes": msg.encode_call(args, kwargs),
            "resources": resources,
            "placement_hint": placement_hint,
            "name": name,
        }
        return self._worker.rpc(msg.CREATE_ACTOR, payload)

    def call_actor(
        self, actor_id, method_name: str, args, kwargs, num_returns: int = 1
    ) -> Any:
        """A ``handle.m.remote()`` made here, with no round trip: the
        call's task and return ids are stamped from this worker's
        namespace and its wire entry joins the routed list of the next
        notice, in submission order with the tasks routed there; the
        driver stands that entry in its actor's lane under those ids.
        Like every call's, the entry names its actor and method only —
        each receiver names the task from its own record of the actor —
        and, like a routed task's, its ref arguments (``deps``), so the
        driver never unpickles it.  Built by a record that knows only
        the actor's id: this process may have none."""
        worker, ids = self._worker, self.ids
        return_ids = tuple([ids.object_id() for _ in range(num_returns)])
        refs = scan_arg_refs(args, kwargs)
        spec = ActorRecord(actor_id, None, None).call_spec(
            method_name, FunctionID(actor_id.hex), ids.task_id(), return_ids,
            worker.node_id, worker._cur_root, worker._cur_task, args, kwargs, refs,
        )
        extras = {"deps": tuple([ref.object_id.hex for ref in refs])} if refs else {}
        worker.buffer(
            msg.encode_entry(spec, actor=(actor_id, method_name, None, None), **extras)
        )
        return spec.public_result()

    def sleep(self, duration: float) -> None:
        time.sleep(duration)

    @property
    def now(self) -> float:
        return time.monotonic()

    def stats(self) -> dict:
        return {}

    def shutdown(self) -> None:  # the driver owns the lifecycle
        pass


class _Waiter(threading.Condition):
    """A request the driver parked, waited on under the worker's lock:
    the late reply that names it, and whether its thread has the token
    back."""

    reply: Any = None
    granted = False


class ProcWorker:
    """One child process: executes tasks and hosts pinned actor state."""

    def __init__(
        self,
        conn,
        index: int,
        seed: int,
        cache_capacity: int,
        shm_enabled: bool = False,
        inline_threshold: Optional[int] = None,
        spawn_token: int = 0,
        tracing: bool = False,
        cluster: Optional[ClusterSpec] = None,
    ) -> None:
        # Spawn ships a raw pipe Connection (the only picklable channel);
        # everything below talks the Transport surface.
        self.conn = ensure_transport(conn)
        self.index = index
        #: What a nested submission is checked against: a task no node
        #: of it could hold raises at ``.remote()``.
        self.cluster = cluster or ClusterSpec.uniform(num_nodes=1)
        self.node_id = NodeID.from_seed(f"repro-proc/{seed}/worker/{index}")
        #: Collision-free id namespace for locally-born specs: the spawn
        #: token distinguishes a replacement worker in the same slot from
        #: its dead predecessor, so replayed lifetimes never reuse ids.
        self.ids = IDGenerator(
            namespace=f"repro-proc-worker/{seed}/{index}/{spawn_token}"
        )
        #: LRU byte-cache of fetched (non-inline) arguments; immutable
        #: objects make invalidation a non-problem.
        self.cache = LocalObjectStore(self.node_id, capacity=cache_capacity)
        #: Actors whose state lives in this process.
        self.actors = ActorRegistry()
        self.proxy = WorkerRuntime(self)
        #: Effects in a task body here are driver round-trips (blocking, real).
        self._effect_handler = BlockingEffectHandler(self.proxy)
        self.tasks_executed = 0
        #: The bottom tier of the scheduling plane: the run queue this
        #: process is the sole executor of.
        self.local_queue = LocalTaskQueue()
        #: Worker-born tasks sent in SUBMIT_LOCAL notices and not yet
        #: PLACED-acked by the driver: the window whose mirroring or
        #: write-ahead record is still in flight.  A nested submission
        #: waits (``_placed``) while the window is at MAX_UNACKED_LOCAL,
        #: bounding how much work could need rebuilding from the
        #: submitting task's own replay.
        self.unacked_local = 0
        #: Notices buffered for the next pipe touch — the wire entries
        #: of the tasks kept here and of those routed through the
        #: driver (actor calls among them), the puts ``(object_hex,
        #: bytes or None for a seal, parent_hex)``, and the rows of the
        #: functions this worker submits for the first time: batching
        #: turns a K-task fan-out's control traffic into one send (or
        #: the reader's, ``_DONE_WATCHDOG_S`` later).  The
        #: flush-before-every-outbound-message discipline (see
        #: :meth:`_flush_notices`) keeps the causal order the mirror
        #: depends on.
        self._pending_notices: list = []
        self._pending_routed: list = []
        self._pending_puts: list = []
        self._pending_rows: list = []  # function hexes
        #: What a function id means here: what TASK frames' tables
        #: delivered, and what this worker submitted itself.
        self.functions = msg.FunctionTable()
        #: The functions the driver has: it sent them, or was sent them.
        self.functions_sent: set = set()
        #: Completions not yet reported — ``(task_hex, blobs,
        #: failed, exec_seconds)`` — and when the oldest of them and of
        #: the notices above was buffered.
        self._done: list = []
        self._held_since = 0.0
        #: Tasks a ``get`` ran inline whose results may still answer it
        #: (:meth:`answer`); a CANCEL_NOTICE read for one takes it out.
        self._answerable: set = set()
        #: The worker's one lock: the pipe's send side, the two outbound
        #: buffers (``_pending_notices``, ``_done``), ``local_queue`` and
        #: everything below up to ``_untimed`` — the reader thread flushes
        #: and grants while an executor thread is inside a task.
        self._lock = threading.RLock()
        #: The executor thread (:meth:`_execute`; None once the reader
        #: is gone) waits on ``_wake`` for something to run; the thread
        #: whose request is out waits on ``_answered`` for ``_replies``.
        self._executor: Optional[threading.Thread] = None
        self._wake = threading.Condition(self._lock)
        self._answered = threading.Condition(self._lock)
        self._placed = threading.Condition(self._lock)
        self._replies: deque = deque()
        #: The execution token: free, or held by the one running task.
        #: A parked task's ``_Waiter`` is in ``_parked`` by the key its
        #: late reply names, then in ``_resumed`` until the token is its.
        self._token_free = True
        self._parked: dict = {}
        self._resumed: deque = deque()
        #: TASK frames the reader received, each one item to run: a
        #: head (its tail went on the queue), or an actor's window.
        self._frames: deque = deque()
        #: The session is open: from a frame or a late reply until the
        #: idle ``DONE``.
        self._session = False
        #: Late replies read: an idle ``DONE`` says how many, so that
        #: the driver knows whether one it sent is still on its way.
        self._late = 0
        #: Set while the reader waits with no deadline: whoever holds
        #: something it must time then writes a byte to ``_alarm``.
        self._untimed = False
        self._alarm: Optional[tuple] = None
        #: Shared-memory descriptors this process has seen (attached
        #: arguments and values it read), used for residency checks and to
        #: embed descriptors in locally-built payloads; the latest
        #: ``_KNOWN_SHM_CAP`` of them, or the dict would grow by one
        #: entry per large object this worker ever saw.  An entry can
        #: outlive its object, harmlessly: object ids are never reused,
        #: and a descriptor is only looked up for an id some task here
        #: still holds a ref to — which is what keeps the object alive —
        #: so a stale entry is unreachable rather than wrong.  A dropped
        #: one only makes the next nested submit on that object spill.
        self._known_shm: dict = {}
        #: The shared-memory data plane (lazy segment attach; refcount
        #: cell column = worker index + 1, 0 being the driver's).
        self.shm_enabled = shm_enabled
        self.inline_threshold = (
            inline_threshold if inline_threshold is not None
            else DEFAULT_INLINE_THRESHOLD
        )
        self.shm = None
        if shm_enabled:
            try:
                from repro.shm.store import ShmClient

                self.shm = ShmClient(client_index=index + 1)
            except Exception:  # pragma: no cover - shm-less host
                self.shm_enabled = False
        #: This process's ref instances (installed by :meth:`run`).  The
        #: driver cannot see them, so the worker answers for them: what
        #: a task received or created and still holds when it ends, and
        #: every id whose ref was pickled here, is reported escaped —
        #: ``_escaped`` until the next SUBMIT_LOCAL notice carries it,
        #: ``_reported`` from then on (each id goes once).
        self._refs = RefLedger(track_touched=True)
        self._escaped: set = set()
        self._reported: set = set()
        #: The tracing plane's per-process buffer (no-op unless
        #: ``tracing=True`` was threaded down from init).  Flushed as a
        #: trailing element on DONE and, when large, as a
        #: dedicated SPANS frame at the next rpc.
        self.obs = obs.SpanRecorder(enabled=tracing)
        #: Trace context of the task that holds the token (saved and
        #: restored around an inline run and across a park): nested
        #: submissions inherit the current root so a span tree
        #: reconstructs per driver-born request, worker-born fast-path
        #: tasks included.
        self._cur_task: Any = None
        self._cur_root: Any = None

    # ------------------------------------------------------------------
    # Shared-memory plumbing
    # ------------------------------------------------------------------

    def materialize(self, blob: Any) -> Any:
        """Turn a pipe blob — bytes or ShmDescriptor — into a value.

        Descriptors deserialize zero-copy: reconstructed buffers (numpy
        arrays) alias the shared segment and lease its slot, so they
        stay valid for as long as any of them is alive — in actor state
        long after the task, if the program keeps one.  (A slot the
        ``dist`` agent landed a pickle in, not a frame, is unpickled
        from it.)  If the segment cannot be mapped here (exotic
        namespaces, a client that failed to construct), whoever
        described it still has the object — fall back to a one-off
        FETCH of its bytes."""
        if isinstance(blob, ShmDescriptor):
            if self.shm is not None:
                try:
                    value = deserialize(self.shm.lease(blob.segment, blob.slot))
                    self.note_shm(blob)
                    if self.obs.enabled:
                        self.obs.record(
                            "shm_fetch",
                            object_id=str(blob.object_id),
                            size=blob.size,
                        )
                    return value
                except OSError:
                    pass
            blob = self.rpc(msg.FETCH, blob.object_id, True)
        return deserialize(blob)

    def note_shm(self, descriptor: ShmDescriptor) -> None:
        """Remember a descriptor this process can re-attach (residency)."""
        if self.shm is not None:
            known = self._known_shm
            known.pop(descriptor.object_id, None)  # re-insert at the fresh end
            known[descriptor.object_id] = descriptor
            if len(known) > _KNOWN_SHM_CAP:
                del known[next(iter(known))]

    def remember_bytes(self, object_id: ObjectID, data: bytes) -> None:
        """Opportunistically cache bytes known to equal the driver-stored
        object (puts, inline args) so later nested submissions can treat
        the object as locally resident."""
        try:
            self.cache.put(object_id, data)
        except ReproError:
            pass  # larger than the cache: not resident, just unlucky

    def rows_to_tell(self, template: CallTemplate) -> dict:
        """The table the driver still has to be sent for ``template``'s
        function: its row, once per function — at the first submission
        from here of one no frame's table brought — and nothing after.
        The row is entered and its code serialized now, on the
        submitting thread, where a failure is the caller's; from now on
        it counts as told (who asks, sends: the next notice, which
        carries the entry too, kept here or routed).  An actor call
        names no function, so it has no row to tell."""
        function_hex = template.function_id.hex
        if function_hex in self.functions_sent:
            return {}
        function = template.function
        self.functions.add(
            function_hex,
            getattr(function, "__name__", template.function_name),
            function,
        )
        rows = self.functions.rows((function_hex,))
        self.functions_sent.add(function_hex)
        return rows

    def _ship_value(self, object_id, serialized) -> Any:
        """Write a split value into shm and return its descriptor, or
        ``None`` when the data plane cannot take it (disabled, budget
        full, attach failure) — the caller then ships bytes."""
        if not self.shm_enabled:
            return None
        try:
            granted = self.rpc(msg.SHM_CREATE, object_id, serialized.frame_bytes)
        except ReproError:
            return None
        if granted is None:
            return None
        try:
            write_frame(
                self.shm.write_view(granted.segment, granted.slot), serialized
            )
            return granted
        except (ReproError, OSError):
            # An unmappable segment: hand the grant back (else its unsealed
            # allocation would bleed shm budget forever) and take the
            # pipe.  (Pipe failures resurface on the next send/recv and
            # follow the normal crash path.)
            try:
                self.rpc(msg.SHM_ABORT, granted.object_id)
            except ReproError:
                pass
            return None

    # ------------------------------------------------------------------
    # Driver round-trips
    # ------------------------------------------------------------------

    def rpc(self, tag: str, *parts: Any) -> Any:
        """One request/reply exchange with the driver.

        Buffered completions go out first: the driver must not serve a
        request — least of all a blocking one — while this worker still
        holds results it has not reported.  The reader thread hands the
        reply over.  A ``get``/``wait`` the driver cannot answer yet is
        answered "pending": this thread then parks, giving the token up
        so that the session goes on without it — nothing is run on top
        of it — and takes it back when the late reply that names the
        request arrives (the proc analogue of blocked sim workers
        releasing their resource slots, R3)."""
        self._flush_done()
        if self.obs.should_flush():
            self._flush_spans()
        with self._lock:
            self.conn.send((tag,) + parts)
            while not self._replies:
                self._answered.wait()
            reply = self._replies.popleft()
            if reply[0] == msg.PENDING:
                # Parked: the token goes (an executor hands its role on
                # to a new thread first) until the late reply is in and
                # the token is this task's again — and its trace context.
                waiter, context = reply[1], (self._cur_task, self._cur_root)
                touched = self._refs.touched
                self._release()
                if self._executor is threading.current_thread():
                    self._start_executor()
                while not waiter.granted:
                    waiter.wait()
                reply, (self._cur_task, self._cur_root) = waiter.reply, context
                self._charge(touched)
        if reply[0] == msg.ERR:
            raise reply[1]
        return reply[1]

    # ------------------------------------------------------------------
    # The token: one executor thread, one running task
    # ------------------------------------------------------------------

    def _start_executor(self) -> None:
        self._executor = threading.Thread(
            target=self._execute, name="repro-worker-executor", daemon=True
        )
        self._executor.start()

    def _execute(self) -> None:
        """The executor: take the free token for what runs next — the
        oldest frame's head or window, else the head of the local queue
        — run it, give the token back, repeat; with the token free and
        nothing left to run (whatever emptied the queue: the last task,
        a steal, a cancel), the session ends.  One thread at a time is
        the executor: one whose task parks hands the role on
        (:meth:`rpc`), and ends once that task does."""
        me = threading.current_thread()
        touched: list = []  # what the tasks run on this thread touched
        try:
            with self._lock:
                while self._executor is me:
                    if not (self._token_free and (self._frames or self.local_queue)):
                        if self._token_free and self._session:
                            self._session = False
                            self._flush_done(idle=True)
                        self._wake.wait()
                        continue
                    if self._frames:
                        items = self._frames.popleft()
                    else:
                        items = (self.local_queue.pop_head()[1],)
                    self._token_free = False
                    self._charge(touched)
                    self._lock.release()
                    try:
                        for item in items:
                            self._run_queued(item)
                    finally:
                        self._lock.acquire()
                    self._release()
        except (EOFError, OSError):
            return  # driver gone: the reader is exiting too

    def _charge(self, touched: list) -> None:
        """This thread took the token (lock held): the refs born so far
        were its last holder's, those born from now on are this
        thread's — its tasks end in the reverse order they started, so
        each checks the end of ``touched`` (:meth:`_report_survivors`),
        whichever tasks of other threads ended meanwhile."""
        if self._refs.born:
            self._refs.drain(self._escaped, died=False)
        self._refs.touched = touched

    def _release(self) -> None:
        """Give the token back (lock held): to the oldest resumed task
        if there is one — it was not budgeted, so what is held is
        reported first — else to the executor."""
        self._token_free = True
        if self._resumed:
            self._flush_done()
            self._token_free = False
            waiter = self._resumed.popleft()
            waiter.granted = True
            waiter.notify()
        else:
            self._wake.notify()

    # ------------------------------------------------------------------
    # Tracing-aware sends
    # ------------------------------------------------------------------
    # The recorder piggybacks on a message the worker sends anyway: DONE
    # grows an optional trailing obs blob (receivers index from the
    # front, so tracing-off wire shapes are byte-identical).
    # With tracing off, drain() returns None and these collapse to the
    # plain sends.

    def _flush_done(self, idle: bool = False) -> None:
        """Report buffered completions in one DONE frame (``idle`` also
        closes the session: the frame then counts the late replies read,
        else it carries None).  Notices go first, always: by pipe FIFO the
        driver registers a locally-born task before it can see the
        task's completion or any request in which its ref could
        escape."""
        with self._lock:
            self._flush_notices()
            if not (self._done or idle):
                return
            completions, self._done = self._done, []
            done = (msg.DONE, completions, self._late if idle else None)
            blob = self.obs.drain()
            self.conn.send(done if blob is None else done + (blob,))

    def _read(self) -> None:
        """The reader thread: the pipe's only reader, and the worker's
        only timer.  It sleeps until a message arrives or the oldest
        held completion or notice is ``_DONE_WATCHDOG_S`` old, and then
        sends what is held (notices first, :meth:`_flush_done`): what a
        task that breaks its estimate — mispredicted, or waiting on
        something the driver only does once it has seen an earlier
        result — cannot hold up.

        *Completions* are buffered on the expectation that another task
        boundary follows within the frame budget (``FRAME_BUDGET_S``,
        the driver's frame rule: ``DispatchPlane.claim_frame`` sized the
        frame by estimates this worker reported — or a parent running
        its children inline); a task that runs long would sit on its
        frame mates' or siblings' results.  *Notices* wait for the task
        that submitted them to touch the pipe; one that computes on
        would hide its children from the driver's mirror, and so from
        every idle peer.  Nothing wakes it on a period: while nothing is
        held it waits on the pipe alone, and whoever holds something
        across a task start, or the first notice, rings ``_alarm``
        (:meth:`_hold`).  (A task inside a C call that keeps the GIL
        stops this thread too.)

        Returns at SHUTDOWN; a lost driver raises out of ``recv``."""
        self._alarm = os.pipe()
        message = None
        try:
            while True:
                with self._lock:  # one hold: the message, then the timer
                    if message is not None and not self._receive(message):
                        return
                    message, timeout = None, None
                    if self._done or self._held():
                        timeout = self._held_since + _DONE_WATCHDOG_S - time.monotonic()
                        if timeout <= 0:
                            self._flush_done()
                            continue
                    self._untimed = timeout is None
                ready = select.select([self.conn, self._alarm[0]], [], [], timeout)[0]
                if self._alarm[0] in ready:
                    os.read(self._alarm[0], 64)
                if self.conn in ready:
                    message = self.conn.recv()
        finally:
            with self._lock:
                self._executor, self._untimed = None, False
                self._wake.notify_all()
            for fd in self._alarm:
                os.close(fd)

    def _hold(self) -> None:
        """Something was held that a running task may sit on (lock
        held): the reader, if it waits with no deadline, must time it."""
        if self._untimed:
            self._untimed = False
            os.write(self._alarm[1], b"\0")

    def _receive(self, message: tuple) -> bool:
        """Handle one driver message on the reader thread (lock held);
        False for SHUTDOWN.  Every touch of the local queue is under the
        lock, which executors take to pop, push and remove: a task
        leaves the queue through exactly one door."""
        tag = message[0]
        if tag == msg.TASK:
            self._queue_frame(message)
        elif tag in (msg.OK, msg.ERR, msg.PENDING):
            self._route_reply(message)
        elif tag == msg.STEAL_REQUEST:
            granted = self.local_queue.steal_tail(message[1])
            # The grant is authoritative: whoever takes a task off
            # the queue does so under this lock, so a task id sent
            # away can never also run here.  Payloads are dropped —
            # the driver re-homes the tasks from its mirror, which
            # the flush below guarantees already knows every granted
            # id.  A grant made during a task says so (a trailing
            # element, like DONE's): its tasks were *recalled*.
            self._flush_notices()
            grant = (msg.STEAL_GRANT, [task_hex for task_hex, _ in granted])
            self.conn.send(grant if self._token_free else grant + (True,))
            self._wake.notify()  # it may have emptied the queue: idle?
        elif tag == msg.CANCEL_NOTICE:
            # The worker-side dispatch-time drop: gone from the queue,
            # the task can never be popped, so it never executes.  One
            # that already ran inline may no longer answer its get.
            self.local_queue.remove(message[1])
            self._answerable.discard(message[1])
            self._wake.notify()  # (as for a grant)
        elif tag == msg.PLACED:
            self.unacked_local = max(0, self.unacked_local - message[1])
            self._placed.notify_all()
        elif tag == msg.SHUTDOWN:
            self._flush_spans()  # final flush: nothing else will
            return False
        else:
            raise RuntimeError(f"unexpected driver message {tag!r}")
        return True

    def _queue_frame(self, message: tuple) -> None:
        """One TASK frame (lock held): its head to run next, its tail on
        the queue — in pipe order, so a CANCEL_NOTICE or STEAL_REQUEST
        read after the frame finds the tail there.

        The head is what the driver handed this worker to *run*; the
        tail was shipped ahead of need and stays stealable, cancellable
        and re-homable until the queue reaches it.  An actor's window (a
        frame headed by an actor call holds calls of that one actor and
        nothing else) is not queued: its order is the actor's order, and
        the driver keeps every call of it in-flight here, so it is one
        item, run through back to back by one thread (a call that parks
        keeps its successors behind it)."""
        _, entries, functions = message
        if functions:
            self.functions.learn(functions, self.functions_sent)
        if "actor" not in (entries[0][5] or ()):
            for entry in entries[1:]:
                self.local_queue.push(entry[0], (entry, True), entry[2])
            entries = entries[:1]
        self._frames.append([(entry, True) for entry in entries])
        self._session = True
        self._wake.notify()

    def _route_reply(self, message: tuple) -> None:
        """A reply, to the thread that asked (lock held).  A late one
        names the request the driver parked: that task is resumed — it
        reopens the session and takes the token as soon as it is free.
        "Pending" parks the asking thread on a new waiter."""
        if len(message) > 2:
            self._late += 1
            waiter = self._parked.pop(message[2])
            waiter.reply = message[:2]
            self._resumed.append(waiter)
            self._session = True
            if self._token_free:
                self._release()
            return
        if message[0] == msg.PENDING:
            waiter = self._parked[message[1]] = _Waiter(self._lock)
            message = (msg.PENDING, waiter)
        self._replies.append(message)
        self._answered.notify()

    def _flush_spans(self) -> None:
        """Ship buffered spans on a dedicated one-way SPANS frame."""
        with self._lock:
            blob = self.obs.drain()
            if blob is not None:
                self.conn.send((msg.SPANS, blob))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        from repro.api import runtime_context

        # Nested .remote()/get/put calls inside task bodies resolve the
        # current runtime; in this process that is the driver proxy.
        runtime_context._current_runtime = self.proxy
        object_ref.install_ledger(self._refs)
        try:
            self._run_sessions()
        except (EOFError, OSError, KeyboardInterrupt):
            return  # driver went away (shutdown or crash): just exit
        finally:
            runtime_context._current_runtime = None
            object_ref.install_ledger(None)
            if self.shm is not None:
                self.shm.detach_all()
            try:
                self.conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Local queue, steal grants, cancellation tombstones
    # ------------------------------------------------------------------

    def _run_sessions(self) -> None:
        """The session loop: this thread reads the pipe (:meth:`_read`)
        until SHUTDOWN, executor threads run what it delivers.

        One driver ``TASK`` frame opens a session; the worker runs the
        frame's head, then drains its local queue — the frame's tail
        plus whatever those tasks grew via the fast path — buffering
        completions.  The ``DONE`` frame that reports nothing left to
        run (an idle one) closes the session; tasks parked in a
        ``get``/``wait`` do not keep it open, and a late reply that
        resumes one opens the next.  Driver control messages are handled
        the moment they arrive, so a cancellation or steal takes effect
        before the next task starts — or while one runs (cancellation
        needs no check at pop time: a CANCEL_NOTICE removes the task
        from the queue the moment it is handled).
        """
        # At spawn the driver already counts this worker idle — the
        # first session opens with a TASK, not with an idle announcement.
        self._start_executor()
        self._read()

    def _run_queued(self, item: tuple, inline_run: bool = False) -> tuple:
        """Run one task taken off the local queue — by the session loop
        from its head, or (``inline_run``) by :meth:`run_producers`
        from wherever it stood — and return its ``(blobs, failed)``.

        Only a task the driver budgeted (a frame's tail) or one its
        blocked parent runs inline may start with results held back; a
        locally-born task the session loop reaches can take arbitrarily
        long, or be what a ref just returned to the driver is waiting
        on, so it reports what is held first.  An inline run's parent is
        blocked on it and returns nothing to the driver meanwhile: its
        children's completions ride together, like a tail's, to the
        next flush point."""
        entry, windowed = item
        if not (windowed or inline_run):
            self._flush_done()
        elif self._done and self._untimed:
            with self._lock:
                self._hold()  # held across a task: time it
        return self._run_task(entry, inline_run)

    def run_producers(
        self,
        refs: list,
        timeout: Optional[float],
        limit: int,
        ran: Optional[dict] = None,
    ) -> Optional[float]:
        """Work-first ``get``/``wait``: before this worker blocks on
        ``refs``, run — here, now, on the blocked task's stack — up to
        ``limit`` of the tasks in its own queue that produce them, and
        return what is left of ``timeout`` for the rpc that follows.
        Their completions are held (:meth:`_run_queued`).  A ``get``
        passes ``ran``, which collects what each run produced —
        ``{return_hex: (task_hex, blob, or None if the task failed)}`` —
        for :meth:`answer`.

        The caller holds the token, so the rules are the session loop's:
        a task is taken off the queue under the lock, where the reader
        also takes what a CANCEL_NOTICE or an idle peer's STEAL_REQUEST
        names — a task granted away is no longer here and is waited for
        through the driver like any other — and no task starts once the
        caller's deadline has passed."""
        queue = self.local_queue
        if not queue:
            return timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        for ref in refs:
            if limit <= 0:
                break
            return_hex = ref.object_id.hex
            if queue.producer_of(return_hex) is None:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                break
            with self._lock:
                item = queue.remove(queue.producer_of(return_hex))
                if item is not None and ran is not None:
                    # From now on a cancel the reader reads for it —
                    # mid-run, too — takes it out again.
                    self._answerable.add(item[0][0])
            if item is None:
                continue  # cancelled or granted away just now
            blobs, failed = self._run_queued(item, inline_run=True)
            if ran is not None:
                task_hex, _function, return_hexes = item[0][:3]
                for produced, blob in zip(return_hexes, blobs):
                    ran[produced] = (task_hex, None if failed else blob)
            limit -= 1
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    def answer(self, refs: list, ran: dict) -> Optional[list]:
        """The blobs of ``refs`` read from what the ``get``'s own inline
        runs produced (``ran``, :meth:`run_producers`), or None: the
        driver is asked.  A ref is answered here only if

        * its producer ran in this get and did not fail (its blob is
          None then);
        * its blob is bytes — a ``ShmDescriptor`` is sealed only when
          the driver receives the ``DONE``;
        * its id never escaped this process — an unescaped ref has no
          second reader who could see a different outcome;
        * no ``CANCEL_NOTICE`` naming its producer was read since it ran
          — the reader handles one the moment it arrives.  A cancel the
          worker has not read yet counts as arriving after the task
          finished, which is an order the driver can give it too.

        Every ref must pass, or none is answered here."""
        blobs = []
        for ref in refs:
            found = ran.get(ref.object_id.hex)
            if found is None or not isinstance(found[1], bytes):
                blobs = None
                break
            blobs.append(found[1])
        tasks = {task_hex for task_hex, _blob in ran.values()}
        with self._lock:
            if blobs is not None and not tasks <= self._answerable:
                blobs = None  # a cancel named one of them
            self._answerable -= tasks
            if blobs is not None:
                escaped, reported = self._escaped, self._reported
                if self._refs.escaped:
                    self._refs.drain(escaped, died=False)
                for ref in refs:
                    object_hex = ref.object_id.hex
                    if object_hex in escaped or object_hex in reported:
                        return None
        if blobs is not None and self.obs.enabled:
            self.obs.record("get_local", task_id=str(self._cur_task), refs=len(refs))
        return blobs

    def _run_task(self, entry: tuple, inline_run: bool = False) -> tuple:
        """Execute one task and buffer its completion — flushed here
        once the oldest buffered one has waited out the frame budget;
        returns ``(blobs, failed)``."""
        refs = self._refs
        if refs.born:
            with self._lock:
                refs.drain(self._escaped, died=False)
        mark = len(refs.touched)
        started = time.monotonic()
        data, failed = self.execute(entry, inline_run)
        now = time.monotonic()
        if refs.born or refs.died or len(refs.touched) > mark:
            self._report_survivors(mark)
        if self.shm is not None:
            self.shm.settle_leases()
        with self._lock:
            if not (self._done or self._held()):
                self._held_since = now
            self._done.append((entry[0], data, failed, now - started))
            if now - self._held_since >= FRAME_BUDGET_S:
                self._flush_done()
            elif inline_run:
                self._hold()  # its parent runs on: time it
        return data, failed

    def _report_survivors(self, mark: int) -> None:
        """A task ended: every ref instance it received or created
        (``touched`` since ``mark``, its thread's: :meth:`_charge`) that
        is still alive now — kept in
        actor state, a global, a cycle the collector has not met — is
        one the driver will never hear of again, so its object escapes
        (reported ahead of the task's DONE, which is what ends the
        driver's hold on the ids born in it)."""
        with self._lock:
            refs = self._refs
            refs.drain(self._escaped)
            touched = refs.touched
            counts = refs.counts
            for object_hex in touched[mark:]:
                if object_hex in counts:
                    self._escaped.add(object_hex)
            del touched[mark:]

    def cur_hex(self) -> Optional[str]:
        """Raw id of the innermost running task: what the driver holds
        ids born on this worker's behalf against."""
        return None if self._cur_task is None else self._cur_task.hex

    def try_submit_local(self, template: CallTemplate, args: tuple, kwargs: dict) -> Any:
        """A nested ``.remote()``, with no round trip: the spec is
        stamped here, from this worker's id namespace, its wire entry
        built once, and its refs (``public_result`` shape) returned.

        The entry stays on this worker's queue (the fast path) when
        every dependency is resident here; otherwise the driver tier
        places it — a non-resident dependency, a placement hint for
        another node, resources one worker slot cannot hold, or a local
        backlog past the spillover threshold (all but the first decided
        by the shared :class:`SpilloverPolicy`).  Either way it leaves
        on the next ``SUBMIT_LOCAL`` notice.  A task no node of the
        cluster could hold raises here, with the text of every backend.
        """
        template.check_feasible(self.cluster)
        spec = template.stamp(
            self.ids, args, kwargs, self.node_id, self._cur_root, self._cur_task
        )
        refs = spec.arg_refs
        if refs:
            local = all([self._locally_resident(ref.object_id) for ref in refs])
            known = self._known_shm
            entry = msg.encode_entry(
                spec,
                {
                    ref.object_id: known[ref.object_id]
                    for ref in refs if ref.object_id in known
                },
                deps=tuple([ref.object_id.hex for ref in refs]),
            )
        else:
            local = True
            entry = msg.encode_entry(spec)
        local = local and not _SPILLOVER.should_spill(
            spec,
            node_cpus=1,
            node_gpus=0,
            backlog=len(self.local_queue),
            this_node=self.node_id,
        )
        with self._lock:
            first = self._make_room()
            self._pending_rows.extend(self.rows_to_tell(template))  # its keys
            if local:
                self._pending_notices.append(entry)
                self.local_queue.push(entry[0], (entry, False), entry[2])
            else:
                self._pending_routed.append(entry)
            if first:
                self._hold()
        if local and self.obs.enabled:
            # Worker-born fast-path tasks get their submitted/placed
            # spans here — the driver never sees the submission itself,
            # only the (batched, async) notice.
            obs.task_submitted(self.obs, spec, True)
            obs.task_placed(self.obs, spec, local=True)
        return spec.public_result()

    def _held(self) -> int:
        """Notice items buffered and not yet sent (lock held)."""
        return (
            len(self._pending_notices) + len(self._pending_routed)
            + len(self._pending_puts)
        )

    def _make_room(self) -> bool:
        """Room for one more item of the next ``SUBMIT_LOCAL`` notice
        (lock held) — a kept entry, a routed one, a put — and whether it
        is the first one held: its caller, having buffered it, then
        starts the reader's timer (:meth:`_hold`).

        The notice is one-way and *buffered*: a fan-out's items coalesce
        into a single send at the next pipe touch (or the reader's
        timer), and the driver's (batched) PLACED ack arrives
        asynchronously, carrying the lineage guarantee — the window of
        unacked items is the only thing a task waits for.
        :meth:`_flush_notices` before every other outbound message is
        what keeps the mirror causally ahead of any DONE or STEAL_GRANT
        that could mention a task, and the driver ahead of any request
        naming a put.  The timer is there because a parent that goes on
        computing must not hide its children from idle peers, or from
        the driver tier (:meth:`_read`)."""
        while self.unacked_local + self._held() >= MAX_UNACKED_LOCAL:
            self._flush_notices()
            self._placed.wait()
        if self._held():
            return False
        if not self._done:
            self._held_since = time.monotonic()
        return True

    def buffer(self, item: tuple, put: bool = False) -> None:
        """Hold an actor call's routed entry, or a put, for the next
        notice (:meth:`try_submit_local` holds the tasks)."""
        with self._lock:
            first = self._make_room()
            (self._pending_puts if put else self._pending_routed).append(item)
            if first:
                self._hold()

    def _flush_notices(self) -> None:
        """Ship buffered SUBMIT_LOCAL notices (one message for all: the
        entries kept here, then — with the escaped ids — those the
        driver places and the puts it stores).

        Called before *every* other outbound pipe message — DONE,
        STEAL_GRANT, and any rpc request — so by pipe FIFO the driver
        registers a locally-born task strictly before it can see the
        task's completion, a grant giving it away, or any value/request
        in which its ref could escape this process."""
        with self._lock:
            refs = self._refs
            if refs.escaped:
                refs.drain(self._escaped, died=False)
            escaped: Any = ()
            if self._escaped:
                escaped = self._escaped - self._reported
                self._escaped.clear()
            if escaped or self._held():
                batch, self._pending_notices = self._pending_notices, []
                routed, self._pending_routed = self._pending_routed, []
                puts, self._pending_puts = self._pending_puts, []
                told, self._pending_rows = self._pending_rows, []
                notice = (msg.SUBMIT_LOCAL, batch, self.functions.rows(told))
                if escaped or routed or puts:
                    # Each id is reported once, on a notice that may
                    # carry nothing else: the mark must not arrive after
                    # the bytes that carry the ref.
                    self._reported.update(escaped)
                    notice += (list(escaped), routed) + ((puts,) if puts else ())
                self.conn.send(notice)
                self.unacked_local += len(batch) + len(routed) + len(puts)

    def _locally_resident(self, object_id: ObjectID) -> bool:
        """Whether this process can materialize the object without the
        driver: cached bytes or an attachable shm descriptor."""
        return self.cache.contains(object_id) or object_id in self._known_shm

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    def execute(self, entry: tuple, inline_run: bool = False) -> tuple:
        """Run one task entry to completion (``inline_run``: inside its
        blocked parent's ``get``, which only the trace needs to know).

        Returns ``([result_bytes, ...], failed)``: one serialized blob
        per return slot (an :class:`ErrorValue` when anything went wrong)
        plus the flag the driver needs for actor bookkeeping — shipped
        alongside so the driver never has to deserialize the payload to
        learn it."""
        spec = msg.decode_entry(entry, self.functions, self.node_id, self.actors)
        _task, _function, _returns, call_bytes, inline, extras = entry
        root_id = spec.root_task_id
        t_start = time.monotonic()
        if self.obs.enabled:
            obs.task_started(self.obs, spec, t_start, inline=inline_run)
        # An inline run (a producer its blocked parent runs) must not
        # inherit the outer task's context.
        prev_ctx = (self._cur_task, self._cur_root)
        self._cur_task, self._cur_root = spec.task_id, root_id
        try:
            try:
                args, kwargs, upstream = self._resolve_call(call_bytes, inline)
            except ReproError as exc:
                # An argument could not be materialized (e.g. lost in the
                # driver store): the task must still produce a result.
                return self._finish_obs(
                    spec, t_start, self._pack(spec, error_value_from(spec, exc))
                )
            if upstream is not None:
                result = propagate_error(upstream, spec)
            else:
                result = self._load_class(spec, extras)
                if result is None:
                    result = execute_task(
                        spec, args, kwargs, self._lookup, self.actors,
                        self.node_id, self._effect_handler,
                    )
            self.tasks_executed += 1
            return self._finish_obs(spec, t_start, self._pack(spec, result))
        finally:
            self._cur_task, self._cur_root = prev_ctx

    def _finish_obs(self, spec: TaskSpec, t_start: float, packed: tuple) -> tuple:
        if self.obs.enabled:
            end = time.monotonic()
            obs.task_finished(self.obs, spec, end - t_start, packed[1], end)
        return packed

    def _pack(self, spec: TaskSpec, result: Any) -> tuple:
        """Serialize a result into ``([blob, ...], failed)``: one entry
        per return slot (``num_returns``), each either bytes (small
        values, errors, shm-less fallback) or a :class:`ShmDescriptor`
        the worker has already written through its own mapping — the
        payload then never crosses the pipe.  Serialization wraps every
        pickling failure (PicklingError, recursion, weird user
        __reduce__) in TypeError, so this cannot let an unpicklable
        return crash the worker."""
        values = split_result_values(spec, result)
        blobs = []
        failed = False
        for value, object_id in zip(values, spec.all_return_ids()):
            try:
                blob = self._pack_one(value, object_id)
            except TypeError as exc:
                value = error_value_from(spec, exc)
                blob = serialize(value)
            blobs.append(blob)
            failed = failed or isinstance(value, ErrorValue)
        return blobs, failed

    def _pack_one(self, value: Any, object_id) -> Any:
        """One return slot: a ShmDescriptor for large values when the
        data plane accepts them, else serialized bytes."""
        if self.shm_enabled and not isinstance(value, ErrorValue):
            serialized = serialize_buffers(value)
            if not should_inline(serialized.total_bytes, self.inline_threshold):
                granted = self._ship_value(object_id, serialized)
                if granted is not None:
                    # NOT remembered in _known_shm: the driver seals this
                    # grant only on DONE receipt, and aborts it instead if
                    # the task was cancelled mid-run — a remembered
                    # descriptor could alias a reused slot.
                    return granted
            # Small (or shm refused): the plain pipe path, from the
            # parts already pickled.
            return serialized.joined()
        return serialize(value)

    def _resolve_call(self, call_bytes: bytes, inline: Optional[dict]):
        """Materialize argument slots into values (:meth:`read_slot`).

        Returns ``(args, kwargs, upstream_error)`` exactly like the other
        backends' workers: an upstream :class:`ErrorValue` skips execution
        and propagates as this task's result.  ``inline=None`` says the
        call had no ref argument: what unpickles is what runs.
        """
        args_template, kwargs_template = deserialize_portable(call_bytes)
        if inline is None:
            return args_template, kwargs_template, None
        upstream: Optional[ErrorValue] = None

        def resolve(value: Any) -> Any:
            nonlocal upstream
            if not isinstance(value, SlotRef):
                return value
            resolved = self.read_slot(value.object_id, inline.get(value.object_id))
            if isinstance(resolved, ErrorValue) and upstream is None:
                upstream = resolved
            return resolved

        args = tuple(resolve(value) for value in args_template)
        kwargs = {key: resolve(value) for key, value in kwargs_template.items()}
        return args, kwargs, upstream

    def read_slot(self, object_id, slot: Any) -> Any:
        """One object's value from its slot — an argument's in a task
        entry's ``inline`` table, or a ``GET`` reply's: a shared-memory
        descriptor is attached zero-copy (:meth:`materialize`; no byte
        cache — attaching costs nothing and the payload is never
        copied), bytes are read, and nothing means the local LRU cache,
        else a FETCH — whose reply on ``dist`` is a descriptor into the
        node's arena, read there instead.  The value holds what it
        needs: nothing here stays pinned."""
        if type(slot) is ShmDescriptor:
            return self.materialize(slot)
        data = slot
        if data is None:
            data = self.cache.get(object_id)
            if data is None:
                data = self.rpc(msg.FETCH, object_id)
                if type(data) is ShmDescriptor:
                    return self.materialize(data)
                try:
                    self.cache.put(object_id, data)
                except ReproError:
                    pass  # larger than the whole cache: run uncached
        elif not self.cache.contains(object_id):
            # Slot bytes are tiny; caching them makes the object count
            # as locally resident for the fast path.
            self.remember_bytes(object_id, data)
        return deserialize(data)

    def _lookup(self, spec: TaskSpec) -> Any:
        return self.functions.callable(spec.function_id.hex)

    def _load_class(self, spec: TaskSpec, extras: dict) -> Optional[ErrorValue]:
        """A constructor is how this process first hears of its actor:
        the record is made here and the class unpickled from the entry
        (an :class:`ErrorValue` if it cannot be)."""
        if spec.actor_method != CREATION_METHOD or self.actors.get(spec.actor_id):
            return None
        _actor_id, _method, class_name, resources = extras["actor"]
        self.actors.create(spec.actor_id, class_name, resources, self.node_id)
        try:
            spec.function = deserialize_portable(extras["code"])
        except BaseException as exc:  # noqa: BLE001 - code-shipping boundary
            return error_value_from(spec, exc)
        return None


def worker_main(
    conn,
    index: int,
    seed: int,
    shm_enabled: bool = False,
    inline_threshold: Optional[int] = None,
    spawn_token: int = 0,
    tracing: bool = False,
    cluster: Optional[ClusterSpec] = None,
) -> None:
    """Entry point of a worker child process (importable for spawn)."""
    ProcWorker(
        conn,
        index=index,
        seed=seed,
        cache_capacity=WORKER_CACHE_BYTES,
        shm_enabled=shm_enabled,
        inline_threshold=inline_threshold,
        spawn_token=spawn_token,
        tracing=tracing,
        cluster=cluster,
    ).run()
