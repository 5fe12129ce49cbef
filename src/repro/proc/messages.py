"""Wire protocol between the proc driver and its worker processes.

Each worker owns one duplex pipe.  In ``dispatch_mode="driver"`` traffic
is strictly alternating from the worker's point of view: the driver
sends a task (a ``TASK`` frame of one entry); while executing it the
worker may issue any number of *requests* (fetch an argument, submit a
nested task, block in ``get``/``wait``, ``put`` a value, create or call
an actor), each answered by
exactly one reply from the driver's per-worker service thread; the
exchange ends with the worker's ``RESULT`` message.  Because the worker
is single-threaded, requests never interleave — the protocol needs no
sequence numbers.

``dispatch_mode="bottom_up"`` (the two-level scheduling plane,
:mod:`repro.sched_plane`) adds **one-way messages** in both directions
on top of the same request/reply core, and moves driver-born work in
**dispatch frames**:

* ``(TASK, [entry, ...], {function_id: code})`` — the driver ships a
  *window* of tasks at once.  The worker runs the first entry
  immediately and pushes the rest onto its own local queue, where they
  are ordinary queue residents: a ``CANCEL_NOTICE`` drops them, a
  ``STEAL_REQUEST`` may give them away, a blocked worker self-steals
  them, and the driver mirrors them for crash re-homing exactly like
  locally-born tasks.  Entries are the per-task payload dicts; the code
  of a registered remote function crosses the wire **once per (worker,
  function)** in the frame's function table and the worker keeps the
  unpickled callable by ``function_id`` (payloads built elsewhere —
  worker-born, spilled — still carry their own ``function_bytes``).
* **The budget rule.**  A frame holds as many stateless tasks as fit
  :data:`FRAME_BUDGET_S` of *estimated* work.  The estimate is the
  execution time the worker measures and reports per completion, kept
  per ``function_id`` (the median of the last few, so one sample that
  caught a context switch does not shrink the next frames).  A backend
  may also cap a frame's task count (``dist`` does, for now).  A
  function with no estimate yet, or one estimated above the
  budget, ships alone — the one-task-at-a-time exchange is simply the
  window-of-one case.  Actor tasks always ship alone: their ordering
  and their pinning leave nothing to window.
* ``(DONE, [(task_id, [blob, ...], failed, exec_seconds), ...], idle)``
  — the worker coalesces completions and flushes them at **three
  points**: when its queue drains (``idle=True``: the session is over
  and it parks awaiting the next frame), before any rpc request (so the
  driver never serves a request with stale knowledge, and a blocked
  worker holds nothing back), and at the first task boundary at least
  :data:`FRAME_BUDGET_S` after the oldest buffered completion (so a
  result waits at most one budget plus one task behind its frame
  mates).  The driver applies a whole frame under one lock hold.

Locally-born work is announced with one-way ``SUBMIT_LOCAL`` notices.
The driver's one-way messages (``STEAL_REQUEST``, ``CANCEL_NOTICE``,
``PLACED``) may arrive at the worker interleaved with request replies;
the worker processes them at every pipe touch-point — before
dispatching each local task, inside its reply-wait loop, and while
idle.  Pipe FIFO ordering is the protocol's only synchronization: a
``SUBMIT_LOCAL`` always precedes any ``DONE`` or ``STEAL_GRANT`` that
mentions its task, and a ``CANCEL_NOTICE`` always follows the ``TASK``
frame that shipped its task, so the driver's mirror of each worker
queue is maintained in causal order.

Messages are tuples ``(tag, *payload)``.  Everything crossing the pipe is
picklable by construction: user *code* is pre-serialized with
:func:`~repro.utils.serialization.serialize_portable`, user *values* with
plain pickle, and framework objects (ids, refs, resource requests,
:class:`~repro.core.worker.ErrorValue`) are simple dataclasses.

Large user values do not cross the pipe at all when the shared-memory
data plane is on: FETCH/GET replies and RESULT blobs carry a
:class:`ShmDescriptor` (segment name + slot + size) instead of bytes,
and the payload moves through :mod:`repro.shm` zero-copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.ids import ObjectID

#: Seconds of *estimated* work one bottom-up TASK frame may carry, and
#: the longest a buffered completion waits for the next task boundary.
FRAME_BUDGET_S = 0.001

# -- driver -> worker ---------------------------------------------------
TASK = "task"          # (TASK, [payload_dict, ...], {function_id: code}):
                       # a dispatch frame — run the first entry now, queue
                       # the rest; the table carries the code of registered
                       # functions this worker has not been sent before
SHUTDOWN = "shutdown"  # (SHUTDOWN,): exit the worker loop

# -- worker -> driver (task lifecycle) ----------------------------------
RESULT = "result"      # (RESULT, [blob, ...], failed): the task finished;
                       # one entry per return slot (num_returns), each
                       # either result bytes or a ShmDescriptor the worker
                       # already filled (the driver seals it on receipt)

# -- worker -> driver (requests while a task runs) ----------------------
FETCH = "fetch"                # (FETCH, object_id) -> (OK, bytes)
SUBMIT = "submit"              # (SUBMIT, payload) -> (OK, ObjectRef | tuple)
GET = "get"                    # (GET, [object_id], timeout) -> (OK, [bytes | ShmDescriptor])
WAIT = "wait"                  # (WAIT, [refs], num_returns, timeout) -> (OK, (ready, pending))
PUT = "put"                    # (PUT, bytes) -> (OK, ObjectRef)
CANCEL = "cancel"              # (CANCEL, ref, recursive) -> (OK, bool)
CREATE_ACTOR = "create_actor"  # (CREATE_ACTOR, payload) -> (OK, ActorHandle)
CALL_ACTOR = "call_actor"      # (CALL_ACTOR, payload) -> (OK, ObjectRef)
GET_ACTOR = "get_actor"        # (GET_ACTOR, name) -> (OK, ActorHandle)

# -- worker -> driver (the shared-memory data plane) --------------------
# Metadata-only variants of FETCH/PUT/RESULT: large objects cross the
# pipe as ~100-byte ShmDescriptors; only small ones ship as bytes.
# Argument descriptors ship embedded in SlotRef (no round trip);
# SHM_ATTACH is the explicit metadata refetch for everything else.
SHM_ATTACH = "shm_attach"  # (SHM_ATTACH, object_id) -> (OK, ShmDescriptor | bytes)
                           # descriptor when shm-resident; bytes fallback
SHM_CREATE = "shm_create"  # (SHM_CREATE, object_id | None, nbytes)
                           #   -> (OK, ShmDescriptor | None): reserve an
                           # unsealed allocation the worker fills through
                           # its own mapping (None: budget full, take the
                           # pipe); object_id=None allocates a fresh id
SHM_SEAL = "shm_seal"      # (SHM_SEAL, object_id) -> (OK, ObjectRef):
                           # publish a worker-filled allocation (put path;
                           # result blobs seal implicitly on RESULT)
SHM_ABORT = "shm_abort"    # (SHM_ABORT, object_id) -> (OK, None): return
                           # a granted-but-unwritable allocation to the
                           # arena (the worker is falling back to bytes)

# -- the bottom-up scheduling plane (dispatch_mode="bottom_up") ---------
# One-way messages; no tag below ever gets a reply.

# worker -> driver:
SUBMIT_LOCAL = "submit_local"  # (SUBMIT_LOCAL, [notice, ...]): nested
                               # tasks were enqueued on the worker's own
                               # local queue with zero round-trips.  The
                               # worker batches notices and flushes the
                               # batch before any other outbound message,
                               # so the driver registers lineage/mirror
                               # state causally first; it acks the batch
                               # with one PLACED
DONE = "done"          # (DONE, [(task_id, [blob, ...], failed, exec_s),
                       # ...], idle): coalesced completions (the bottom-up
                       # RESULT).  idle=True: the local queue drained, the
                       # session is over, the worker parks awaiting the
                       # next TASK frame; the list may then be empty
                       # (everything shipped was stolen or cancelled)
STEAL_GRANT = "steal_grant"  # (STEAL_GRANT, [task_id, ...]): the worker
                             # (sole owner of its queue) gives away the
                             # tail of its local queue; the driver
                             # re-homes the tasks from its mirror.  May
                             # be empty (nothing left to give).

# -- the tracing plane (init(..., tracing=True)) ------------------------
# Span records normally piggyback on messages the worker already sends:
# DONE and RESULT each grow one OPTIONAL trailing element — an
# "obs blob" (send_monotonic, [(t, kind, payload), ...], dropped_total)
# appended only when the worker's SpanRecorder has something to flush.
# Receivers index those messages positionally from the front, so the
# trailing element is invisible to tracing-unaware paths (including the
# dist agent's blob rewrite, which preserves trailing elements).  A
# buffer that grows large mid-session (or the final flush at SHUTDOWN)
# rides this dedicated one-way frame instead:
SPANS = "spans"  # (SPANS, obs_blob): worker -> driver, never replied to

# driver -> worker:
STEAL_REQUEST = "steal_request"  # (STEAL_REQUEST, max_count): an idle
                                 # worker wants work; answer with a
                                 # STEAL_GRANT of up to max_count tasks
CANCEL_NOTICE = "cancel_notice"  # (CANCEL_NOTICE, task_id): the task was
                                 # cancelled; drop it from the local
                                 # queue — it must never execute
PLACED = "placed"      # (PLACED, [task_id, ...]): the placement ack —
                       # the driver has registered a SUBMIT_LOCAL batch
                       # for lineage (crash replay covers those tasks
                       # from here on)

# -- driver -> worker (replies) -----------------------------------------
OK = "ok"    # (OK, value)
ERR = "err"  # (ERR, exception): re-raised inside the worker at the call site


@dataclass(frozen=True)
class SlotRef:
    """Placeholder for a task argument that was an :class:`ObjectRef`.

    The driver substitutes one of these for every top-level ref argument
    when building a task message; small objects ride along serialized in
    the message's ``inline`` table, large ones stay in the driver store
    and the worker fetches them on demand into its local cache (the
    inline-vs-store threshold of :mod:`repro.utils.serialization`).
    Shared-memory-resident objects ship their :class:`ShmDescriptor`
    *embedded* in ``shm`` — the worker attaches and reads zero-copy with
    no extra driver round trip (descriptors stay valid for the object's
    lifetime: stored objects are pinned).
    """

    object_id: ObjectID
    shm: "ShmDescriptor | None" = None


@dataclass(frozen=True)
class ShmDescriptor:
    """Where a large object's payload lives in shared memory.

    This is what crosses the pipe in place of the payload: the receiver
    attaches ``segment`` lazily (cached per segment), takes its refcount
    cell for ``slot``, and reads ``size`` framed bytes zero-copy.  Sent
    in FETCH/GET replies, RESULT blobs, and SHM_CREATE grants.
    """

    object_id: ObjectID
    segment: str
    slot: int
    size: int
