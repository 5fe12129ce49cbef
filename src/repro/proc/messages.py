"""Wire protocol between the proc driver and its worker processes.

Each worker owns one duplex pipe carrying tuples ``(tag, *payload)``.
The core is request/reply: while a task runs, the worker may issue any
number of *requests* (fetch an argument, block in ``get``/``wait``,
reserve shared memory for a large value, create or look up an actor,
cancel), each answered by exactly one reply from the driver's
per-worker service thread — only what needs the driver's answer is a
request: what a task makes (nested tasks, actor calls, puts) rides the
one-way ``SUBMIT_LOCAL`` notice below.  Only the task holding the
worker's execution token sends requests, and it waits for each reply,
so requests never interleave and an immediate reply needs no sequence
number; the one exception, a *parked* ``get``/``wait``, is named by a
key (below).  Around that core,
tasks go down in ``TASK`` frames and completions come back in ``DONE``
frames, which the two-level scheduling plane (:mod:`repro.sched_plane`)
windows and coalesces, and **one-way messages** flow in both
directions.  (Who reads the worker's end is said below.)

**What crosses the wire per task** is one *entry* — every task, however
it was born, is this one positional tuple, written by
:func:`encode_entry` and read by :func:`decode_entry`::

    (task_hex, function_hex, (return_hex, ...), call_bytes, inline, extras)

* It is built **once**, by the process that submits the task to the
  driver tier: the driver at ``.remote()`` (its arguments pickled before
  the driver's lock is taken), or a worker for a task it makes.  The
  driver keeps it on the task's spec (``TaskSpec.wire``) and nowhere
  else: the write-ahead lineage record, every ship, a steal, a replay
  after a worker's or a node's loss and a recovered driver all reuse
  it.  A shipped entry is the birth entry with a fresh ``inline``.
* Ids are their hex strings: a tuple of strings pickles at a fraction
  of the cost of id objects, and a frame's repeated ``function_hex`` is
  one memoized reference after its first use.
* ``call_bytes`` is the pickled ``(args, kwargs)`` with every top-level
  ref argument replaced by a bare :class:`SlotRef` (:func:`encode_call`):
  it names the object, not where it lives, so it is right wherever the
  entry goes.  ``inline`` is ``None`` when the call has no ref argument
  at all (the worker then skips slot resolution); otherwise it maps an
  object id to where the worker finds the value — its bytes when small,
  its :class:`ShmDescriptor` when it lives in shared memory — filled per
  ship from the driver's stores (``ObjectPlane.arg_slot``), and at birth
  on a worker from what that worker has attached.  An id it does not
  name is fetched on demand.
* ``extras`` is ``None`` for a plain top-level call of a function under
  its default options; otherwise a dict with only the keys that apply:
  ``"options"`` (a non-default :class:`~repro.core.task.TaskOptions`:
  display name, ``num_returns``, replay budget), ``"root"``/``"parent"``
  (trace context of a nested task), ``"actor"`` (``(actor_id, method,
  class_name, resources)`` — on a frame's first entry it also says the
  frame is that actor's *window*, below.  A method call's entry names
  its actor and method only, ``None`` for the rest, wherever it was
  made: each receiver names the task from its own record of the actor
  (:func:`decode_entry`), and the driver keys the method's estimates on
  its record, not on the entry's ``function_hex``.  Only a
  constructor's entry carries the class name and resources, which is
  how a worker first hears of its actor), ``"code"`` (an actor
  constructor's class — the one piece of code that is not a registered
  function) and ``"deps"`` (a worker-born entry's ref arguments, by id,
  an actor call's too: the driver never unpickles ``call_bytes``, and
  pins what a task depends on).

**What crosses once per (worker, function)** is a row of the
:class:`FunctionTable` each end keeps: ``{function_hex: (registered
name, code)}`` for the functions the receiver has not been told about,
beside the entries of a ``TASK`` frame (driver to worker), or in a
``SUBMIT_LOCAL`` notice (worker to driver).  The receiver *learns* the
rows into its own table, which builds the function's call template
(:class:`~repro.core.task.CallTemplate`) on first use and from the
template, per entry, a spec — so nothing that is the same for every
call of a function is sent, or computed, per call; its code is
serialized once by the process that has the callable and unpickled once
by each process that runs it.  A driver-born function reaches a worker
with the first frame that needs it; a worker-born one reaches the
driver with the first message that names it, keeps the id its worker
gave it, and from then on is shipped to other workers (steals, crash
replay) like any registered function.  Who has been told what is a set
per peer: ``functions_sent`` on the driver's handle of each worker, and
one in each worker for the driver.

**Dispatch frames**:

* ``(TASK, [entry, ...], table)`` — the worker runs the first entry
  immediately and pushes the rest onto its own local queue, where they
  are ordinary queue residents: a ``CANCEL_NOTICE`` drops them, a
  ``STEAL_REQUEST`` may give them away, a task that blocks on one runs
  it inline, and the driver mirrors them for crash re-homing exactly
  like locally-born tasks.
* **An actor's window** is the exception.  A frame whose first entry is
  an actor call carries calls of that one actor, in the order they were
  submitted, and the worker runs them through back to back without
  queueing them: the order of the entries is the actor's order.  The
  driver registers all of them as handed over to *run* — committed to
  that worker, nothing a ``STEAL_REQUEST`` can reach, lost with the
  actor if the worker dies — and ships no further call of that actor
  until every one is reported (a call dispatched while an earlier call
  of the same actor is parked would run beside it and overtake it).
* **What a blocked worker does with its own queue.**  Before a task
  sends ``GET``/``WAIT``, its worker runs inline — on the blocked task's
  stack, the caller's deadline checked before each — every queued task
  that *produces* a ref it is about to wait for: no message at all.
  Their completions are held like a frame tail's (the parent is blocked
  on them and reports nothing meanwhile), and a ``get`` whose inline
  runs produced every value it asked for reads them from those results
  and sends no ``GET`` — when each blob is bytes (a descriptor is sealed
  only by the ``DONE``), no producer failed, no requested id escaped the
  worker, and no ``CANCEL_NOTICE`` naming a producer was read after it
  ran.  A cancel it has not read by then counts as arriving after the
  child finished — an order the driver can give it anyway — and an
  unescaped ref has no second reader who could see another outcome.
  Otherwise one ``GET`` asks for the whole list.
* **A parked request.**  A ``GET``/``WAIT`` the driver cannot answer at
  once is answered ``(PENDING, key)``: the driver keeps it in the
  worker's table of pending waits, and the task's thread parks and
  gives up the worker's execution token.  Nothing else runs on its
  stack.  The session goes on on another thread — the rest of the
  queue, including work the task waits for only *indirectly* (the
  inputs of a spilled ``combine(*refs)``), stealable by idle peers as
  ever — and when nothing is left to run the worker reports idle: from
  then on the driver serves it exactly like an idle worker (budget-sized
  frames, steals).  The answer comes later as ``(OK, value, key)`` or
  ``(ERR, exception, key)`` — a reply that names the parked request —
  and the resumed task takes the token before any new task starts.  The
  driver sends a late reply once the answer is due and it next hears
  from the worker — after a request, after a ``DONE`` (a completion is
  reported at most ``_DONE_WATCHDOG_S`` after its task ends), or at
  once while the worker is idle.  So a parked task waits out at most
  the task that holds the token when its answer comes in, and one that
  starts before the reply reaches the worker.  A late reply reopens the
  session, and may cross the worker's idle ``DONE``: that ``DONE``
  counts the late replies the worker had read, and the driver takes the
  session for closed only when the count is every one it sent.
* **The budget rule** (applied by
  :meth:`repro.sched_plane.dispatch.DispatchPlane.claim_frame`).  A frame
  holds as many stateless tasks as fit
  :data:`~repro.sched_plane.dispatch.FRAME_BUDGET_S` of *estimated*
  work.  The estimate is the
  execution time the worker measures and reports per completion, kept
  per function (the median of the last few, so one sample that caught a
  context switch does not shrink the next frames; folded in once per
  ``DONE`` frame).  The budget is the only rule, on every backend: an
  estimate can be wrong by any factor, and what it gets wrong the
  worker gives back — it answers ``STEAL_REQUEST``/``CANCEL_NOTICE``
  while a task runs (below).  A function with no estimate yet, or one
  estimated above the budget, ships alone.  An actor's methods are
  estimated the same way (per actor and method), and its window is
  filled from its own calls only; a constructor always ships alone.
* ``(DONE, [(task_hex, [blob, ...], failed, exec_seconds), ...], late)``
  — what DONE carries per task is the raw id the entry came with, one
  blob per return slot (result bytes, or a :class:`ShmDescriptor` the
  worker already filled and the driver seals on receipt), the failure
  flag the driver needs for actor bookkeeping, and the measured time.
  The worker coalesces completions — a frame tail's, and those of the
  children a blocked parent runs inline — and flushes them at **three
  points**: when it has nothing left to run (``late`` is then the count
  of late replies read, None otherwise: the session is over and it
  waits for the next frame; the list may then be empty — everything
  shipped was stolen or cancelled), before any rpc request
  (so the driver never serves a request with stale knowledge, and a
  blocked worker holds nothing back), and at the first task boundary at
  least ``FRAME_BUDGET_S`` after the oldest buffered completion (or
  notice).  What a task that outlasts ``_DONE_WATCHDOG_S`` holds without
  reaching one of them is sent by the worker's reader thread.  The driver
  applies a whole frame under one lock hold.

What a task makes on a worker is announced with one-way
``SUBMIT_LOCAL`` notices, batched and flushed before any other outbound
message, so the driver learns of each item causally first; it applies
a notice under one lock hold and acks all of its items with one
``PLACED``.  A notice carries two lists of entries and a list of puts.
The first list holds the tasks the worker kept on its own queue; the
driver *mirrors* them.  The second holds the tasks the worker could not
keep — a dependency not resident there, a placement hint for another
node, resources one slot cannot hold, a backlog over the spill
threshold — which the driver places (*routed*, the paper's spillover),
and the actor calls the task made, in submission order: it submits each
like one of its own, under the ids and with the entry the worker gave
it (its arguments stay pickled) — a call in its actor's lane.  The puts
are ``(object_hex, bytes, parent_hex)`` — the bytes under an id the
worker minted, or ``None`` for the seal of a shared-memory grant it
filled — and are applied first, then the kept entries, the escaped
ids and the routed list.  So creating a task, calling an actor or
putting a small value is no round trip: the worker checks a task
against the :class:`~repro.cluster.spec.ClusterSpec` it was spawned
with itself, and waits for a ``PLACED`` only when the window of
unacknowledged items is full.  A put or seal the driver cannot apply,
or a call to an actor it does not know, resolves the object's or the
call's returns to an error value; the task that made it runs on.  Of a
mirrored entry the driver keeps the entry and nothing more: it
*adopts* the task — decodes the spec, pins its arguments and writes
its lineage row — only
when something needs it (a steal, a cancel, the loss of the worker, an
escape of one of its refs, a failure or a result that is not inline
bytes, or its parent ending first;
:mod:`repro.sched_plane.dispatch`).  A task run where it was born and
read only there costs the driver its entry, and its results.  A notice
is held at most ``_DONE_WATCHDOG_S``: a parent that fans out and then
computes, or a chain of inline runs, does not hide its children from
the mirror (and so from idle peers) until it next touches the pipe.
The driver's one-way messages (``STEAL_REQUEST``, ``CANCEL_NOTICE``,
``PLACED``) may arrive at the worker interleaved with replies and
frames; the worker's reader handles each the moment it arrives,
whatever its tasks are doing.  Pipe FIFO ordering is the protocol's only
synchronization: a ``SUBMIT_LOCAL`` always precedes any ``DONE`` or
``STEAL_GRANT`` that mentions its task, and a ``CANCEL_NOTICE`` always
follows the ``TASK`` frame that shipped its task, so the driver's
mirror of each worker queue is maintained in causal order.

**Who reads the worker's end.**  One reader thread, for the worker's
whole life.  It queues ``TASK`` frames (the tail on the local queue at
once, in pipe order), hands each reply to the thread that asked, and
answers ``STEAL_REQUEST``, ``CANCEL_NOTICE`` and ``PLACED`` itself —
touching the local queue under the worker's lock, which the executor
threads take too: a task leaves it through one door.  A ``STEAL_GRANT``
made while a task holds the token carries a trailing ``True`` (the
driver counts its tasks as *recalled*).  This is what makes a frame's
tail recallable while its head runs; the idle peer's edge-triggered
``STEAL_REQUEST`` is the recall, and the driver times nothing.  The
answer being prompt, an empty one must be final: the mirror still
counts tasks the worker is running or has not reported, so the driver
does not ask a victim that granted nothing again until something new
was pushed to its mirror.

**Object lifetime on the wire.**  The driver releases an object when
nothing it can see still needs it (``proc/runtime.py``, "Object
lifetime"), so the protocol keeps three promises.  (1) Its own fields
name objects by id, never by a pickled :class:`ObjectRef`: ``GET``,
``WAIT`` and ``CANCEL`` carry object ids, a notice names the ids a
worker minted for its tasks, calls and puts (and ``SHM_CREATE``
answers a large put with its id), which the worker wraps in refs of
its own, an entry's ``inline`` table is keyed by object id, and the
top-level ref arguments of every call are bare :class:`SlotRef`
placeholders in its ``call_bytes`` (:func:`encode_call`), pickled once
when the task is born — a ref that *is* pickled (nested in an argument,
in a stored value, captured by a shipped closure) marks its object
escaped, which pins it until shutdown.  (2) Every notice item
says which task made it (an entry's ``extras["parent"]``, a put's
``parent_hex``), and a locally-born entry that has ref arguments names
them (``extras["deps"]``): the driver holds ids born in a task until
that task's ``DONE`` is applied, and pins a task's arguments until its
own.  An id a worker mints needs no answer to say whose it is; the one
id the driver still mints for a worker, a large put's, comes with its
grant and is held once the seal names its ``parent``.  (3) A worker
reports the ids that escaped through it — refs it pickled, and refs it
still holds an instance of when the task that received or created them
ends (actor state) — as a trailing element of the ``SUBMIT_LOCAL``
notice, which already goes out ahead of every other outbound message:
the mark is applied no later than the bytes that carry the ref.

Everything crossing the pipe is picklable by construction: user *code*
is pre-serialized with
:func:`~repro.utils.serialization.serialize_portable`, user *values*
with plain pickle, and framework objects (refs, resource requests,
:class:`~repro.core.worker.ErrorValue`) are simple dataclasses.  Large
user values do not cross the pipe at all when the shared-memory data
plane is on: FETCH/GET replies and DONE blobs carry a
:class:`ShmDescriptor` (segment name + slot + size) instead of bytes,
and the payload moves through :mod:`repro.shm` zero-copy.  A GET reply
is one slot per object, filled and read exactly as an entry's
``inline`` table is (``ObjectPlane.arg_slot``, ``ProcWorker.read_slot``):
bytes when small, a descriptor, or nothing — the worker then reads its
cache or sends a FETCH, which on ``dist`` its node agent answers from
the node's arena when the object lies there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.actors import ActorRecord
from repro.core.object_ref import ObjectRef
from repro.core.task import CallTemplate, TaskOptions, TaskSpec
from repro.errors import BackendError
from repro.utils.ids import FunctionID, NodeID, ObjectID, TaskID
from repro.utils.serialization import (
    deserialize_portable,
    serialize_call,
    serialize_portable,
)

# -- driver -> worker ---------------------------------------------------
TASK = "task"          # (TASK, [entry, ...], {function_hex: (name, code)})
SHUTDOWN = "shutdown"  # (SHUTDOWN,): exit the worker loop

# -- worker -> driver (requests while a task runs) ----------------------
FETCH = "fetch"                # (FETCH, object_id[, as_bytes])
                               #   -> (OK, bytes | ShmDescriptor): for an
                               # empty slot (an argument's or a GET's); a
                               # descriptor on dist, into the node arena;
                               # as_bytes (a worker that cannot map the
                               # arena it was described in): bytes, which
                               # that node's agent has
GET = "get"                    # (GET, [object_id], timeout)
                               #   -> (OK, [bytes | ShmDescriptor | None]):
                               # one slot per id, filled as an entry's
                               # inline table is (None: FETCH it)
WAIT = "wait"                  # (WAIT, [object_id], num_returns, timeout)
                               #   -> (OK, [the ready object_ids])
CANCEL = "cancel"              # (CANCEL, object_id, recursive, producer_task)
                               #   -> (OK, bool); producer_task: the ref's
                               # (None for a put)
CREATE_ACTOR = "create_actor"  # (CREATE_ACTOR, payload) -> (OK, ActorHandle)
GET_ACTOR = "get_actor"        # (GET_ACTOR, name) -> (OK, ActorHandle)

# -- worker -> driver (the shared-memory data plane) --------------------
# Large puts and results cross the pipe as ~100-byte ShmDescriptors;
# only small ones ship as bytes.  Argument descriptors ship in the
# entry's inline table (no round trip).
SHM_CREATE = "shm_create"  # (SHM_CREATE, object_id | None, nbytes)
                           #   -> (OK, ShmDescriptor | None): reserve an
                           # unsealed allocation the worker fills through
                           # its own mapping (None: budget full, take the
                           # pipe); object_id=None is a put, allocated a
                           # fresh id (its seal rides the SUBMIT_LOCAL
                           # notice; a result's is its DONE)
SHM_ABORT = "shm_abort"    # (SHM_ABORT, object_id) -> (OK, None): return
                           # a granted-but-unwritable allocation to the
                           # arena (the worker is falling back to bytes)

# -- one-way messages: no tag below ever gets a reply --------------------
# worker -> driver:
DONE = "done"                  # (DONE, [(task_hex, blobs, failed, exec_s), ...], late)
SUBMIT_LOCAL = "submit_local"  # (SUBMIT_LOCAL, [entry, ...], {function_hex:
                               # (name, code)}[, [escaped object_hex, ...],
                               # [routed entry, ...][, [(object_hex, bytes |
                               # None, parent_hex), ...]]]): what a task
                               # made, zero round-trips — the first list
                               # enqueued on the worker's own queue, the
                               # routed tasks and actor calls for the driver
                               # to place, the puts and seals for it to
                               # store; the optional tail also reports
                               # escaped objects (and may be all the notice
                               # carries: no items, no PLACED)
STEAL_GRANT = "steal_grant"    # (STEAL_GRANT, [task_hex, ...][, True]): the
                               # worker (sole owner of its queue) gives away
                               # its tail; the driver re-homes the tasks from
                               # its mirror.  May be empty.  The optional
                               # tail marks a grant made while a task ran.
# Span records (init(..., tracing=True)) piggyback on DONE, which grows
# one OPTIONAL trailing element — an "obs blob" (send_monotonic,
# [(t, kind, payload), ...], dropped_total) — only when the worker's
# SpanRecorder has something to flush.  Receivers index DONE from the
# front, so the element is invisible to tracing-unaware paths (including
# the dist agent's blob rewrite, which preserves trailing elements).  A
# buffer that grows large mid-session (or the final flush at SHUTDOWN)
# rides this dedicated frame instead:
SPANS = "spans"                # (SPANS, obs_blob)

# driver -> worker:
STEAL_REQUEST = "steal_request"  # (STEAL_REQUEST, max_count): an idle
                                 # worker wants work; answer with a
                                 # STEAL_GRANT of up to max_count tasks
CANCEL_NOTICE = "cancel_notice"  # (CANCEL_NOTICE, task_hex): drop the task
                                 # from the local queue — it must never
                                 # execute
PLACED = "placed"      # (PLACED, count): a SUBMIT_LOCAL batch of that many
                       # items is applied — tasks mirrored or routed,
                       # calls in their lanes, puts stored (the loss of
                       # this worker replays its tasks from here on; a
                       # routed one's lineage row is written, a mirrored
                       # one's when the driver adopts it)

# -- driver -> worker (replies) -----------------------------------------
OK = "ok"    # (OK, value[, key])
ERR = "err"  # (ERR, exception[, key]): re-raised inside the worker at the
             # call site; with a key, a *late* reply to the request
             # parked under it
PENDING = "pending"  # (PENDING, key): a GET/WAIT the driver cannot answer
                     # yet; the task parks until a late reply names key


@dataclass(frozen=True)
class SlotRef:
    """Placeholder for a task argument that was an :class:`ObjectRef`.

    Every top-level ref argument of a call is one of these in its
    ``call_bytes`` (:func:`encode_call`): it names the object and says
    nothing of where its value is, so the bytes stay right wherever the
    entry ships.  Where the value is, is the entry's ``inline`` table,
    filled per ship: the object's bytes when small, its
    :class:`ShmDescriptor` when it lives in shared memory (the worker
    attaches and reads zero-copy with no round trip; the descriptor
    stays valid until the task is reported done, since a task pins its
    arguments), nothing when the worker fetches it on demand (a large
    pipe-store object, or one living on a node).  A bare one is also
    how a worker's request names a call's top-level ref arguments
    (:func:`strip_refs`).
    """

    object_id: ObjectID


@dataclass(frozen=True)
class ShmDescriptor:
    """Where a large object's payload lives in shared memory.

    This is what crosses the pipe in place of the payload: the receiver
    attaches ``segment`` lazily (cached per segment), takes its refcount
    cell for ``slot``, and reads ``size`` framed bytes zero-copy.  Sent
    in FETCH/GET replies, DONE blobs, and SHM_CREATE grants.
    """

    object_id: ObjectID
    segment: str
    slot: int
    size: int


@dataclass(frozen=True)
class ObjectBytes:
    """A large object's bytes in a ``dist`` driver's FETCH reply into a
    node with an arena, named: the node agent lands them in the
    arena and hands its worker a :class:`ShmDescriptor` instead (the
    bytes themselves when the arena has no room).  ``data`` is a
    ``pickle.PickleBuffer`` TCP sends out of band; it arrives as the
    memory it was received into."""

    object_id: ObjectID
    data: Any


def strip_refs(args: tuple, kwargs: dict) -> tuple:
    """``(args, kwargs)`` with every top-level ref replaced by a bare
    :class:`SlotRef`: how every entry's ``call_bytes`` and a worker's
    CREATE_ACTOR request carry a call, so that naming an argument is not
    pickling a ref (which would mark the object escaped)."""

    return (
        tuple([
            SlotRef(value.object_id) if isinstance(value, ObjectRef) else value
            for value in args
        ]),
        {
            key: SlotRef(value.object_id) if isinstance(value, ObjectRef) else value
            for key, value in kwargs.items()
        } if kwargs else kwargs,
    )


def restore_refs(args: tuple, kwargs: dict) -> tuple:
    """The driver-side inverse of :func:`strip_refs`, for the one call it
    still reads: a worker's CREATE_ACTOR request (the ``call_bytes`` of
    an entry are never unpickled on the driver).  The refs are
    uncounted: the submission that follows pins what they name."""

    def restore(value: Any) -> Any:
        if isinstance(value, SlotRef):
            return ObjectRef._uncounted(value.object_id)
        return value

    return (
        tuple([restore(value) for value in args]),
        {key: restore(value) for key, value in kwargs.items()},
    )


def encode_call(args: tuple, kwargs: dict) -> bytes:
    """One call's ``call_bytes``: its ``(args, kwargs)`` pickled with
    every top-level ref argument a bare :class:`SlotRef`.  Raises
    ``TypeError`` for an argument that does not pickle."""
    return serialize_call(*strip_refs(args, kwargs))


# -- TASK / SUBMIT_LOCAL entries ------------------------------------------

#: Position of the inline-object table in an entry (the driver fills a
#: fresh one per ship; nothing between it and the worker reads it).
ENTRY_INLINE = 4

def encode_entry(
    spec: TaskSpec,
    inline: Optional[dict] = None,
    call_bytes: Optional[bytes] = None,
    **extras: Any,
) -> tuple:
    """The wire form of one task (module docstring), built once, by the
    process that submits it to the driver tier.

    ``call_bytes`` are :func:`encode_call`'s (pickled here from the
    spec's arguments when not given: a caller that has them pickles
    them outside its lock).  ``inline`` is None for a call without ref
    arguments; for one with, the table the worker resolves its slots
    in — empty at birth, or a submitting worker's descriptors of the
    shared-memory objects it has attached.  A shipped entry is this one
    with a fresh table (``ProcRuntime._encode_task``).  ``extras`` are
    the caller's (``actor=``, ``code=``, ``deps=``); the option set and
    the trace context are read off the spec."""
    if call_bytes is None:
        call_bytes = encode_call(spec.args, spec.kwargs)
    if inline is None and spec.argument_refs():
        inline = {}
    task_id = spec.task_id
    if spec.options is not None:
        extras["options"] = spec.options
    root = spec.root_task_id
    if root is not None and root is not task_id and root != task_id:
        extras["root"] = root.hex
    if spec.parent_task_id is not None:
        extras["parent"] = spec.parent_task_id.hex
    return (
        task_id.hex,
        spec.function_id.hex,
        tuple([object_id.hex for object_id in spec.all_return_ids()]),
        call_bytes,
        inline,
        extras or None,
    )


class FunctionTable:
    """What a function id means, on either end of a pipe.

    One row per function, keyed by the id's hex: its registered name,
    the callable if this process has it, its code bytes, and the call
    templates :func:`decode_entry` stamps specs from.  The driver and
    every worker keep one, and tell each other rows (``{function_hex:
    (name, code)}``, :meth:`rows` out and :meth:`learn` in) beside the
    first entry that needs one — what a peer has been told is a set the
    owner keeps per peer, not the table's business.  Code is serialized
    at most once (the first time a row leaves) and unpickled at most
    once (the first time the function runs here)."""

    def __init__(self) -> None:
        self._rows: dict = {}  # function_hex -> [name, callable, code]
        self._templates: dict = {}  # (function_hex, options) -> CallTemplate

    def __contains__(self, function_hex: str) -> bool:
        return function_hex in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def add(
        self, function_hex: str, name: str, function: Any = None, code: Any = None
    ) -> None:
        """Enter a function this process registered (``function``) or
        was told of (``code``); the first word on an id stands."""
        self._rows.setdefault(function_hex, [name, function, code])

    def learn(self, table: dict, sender: Optional[set] = None) -> None:
        """A peer's rows; ``sender`` is the set of functions that peer
        has been told — it evidently has what it sent."""
        for function_hex, (name, code) in table.items():
            self.add(function_hex, name, code=code)
        if sender is not None:
            sender.update(table)

    def code(self, function_hex: str) -> bytes:
        row = self._rows[function_hex]
        if row[2] is None:
            if row[1] is None:
                raise BackendError(f"function {row[0]!r} not registered")
            row[2] = serialize_portable(row[1])
        return row[2]

    def callable(self, function_hex: str) -> Callable:
        row = self._rows[function_hex]
        if row[1] is None:
            row[1] = deserialize_portable(row[2])
        return row[1]

    def rows(self, function_hexes: Any) -> dict:
        """The wire rows of these functions, for a peer to :meth:`learn`."""
        return {
            function_hex: (self._rows[function_hex][0], self.code(function_hex))
            for function_hex in function_hexes
        }

    def template(
        self, function_hex: str, options: Optional[TaskOptions] = None
    ) -> CallTemplate:
        """The function's call template under ``options`` (None: its
        defaults), built on first use."""
        template = self._templates.get((function_hex, options))
        if template is None:
            template = self._templates[function_hex, options] = CallTemplate(
                None,
                FunctionID(function_hex),
                self._rows[function_hex][0],
                TaskOptions() if options is None else options,
            )
        return template


def decode_entry(
    entry: tuple,
    functions: FunctionTable,
    submitted_from: Optional[NodeID] = None,
    actors: Any = None,
    ids: Any = None,
) -> TaskSpec:
    """The spec of a received entry, without its arguments (they stay in
    ``call_bytes`` until the task runs; the lineage mirror never reads
    them).  ``functions`` is the receiver's table, which learnt the
    entry's function from a table that preceded it.  An actor's task is
    named by the receiver's record of its actor in ``actors``
    (:meth:`~repro.core.actors.ActorRecord.call_spec`) — or, where there
    is none, by the record its entry describes: a constructor's names
    its class, which is how a worker first hears of its actor, a call's
    only the actor.  ``ids`` mints the method's id on the driver, whose
    estimates read it."""
    task_hex, function_hex, return_hexes, _call, _inline, extras = entry
    task_id = TaskID(task_hex)
    return_ids = tuple([ObjectID(return_hex) for return_hex in return_hexes])
    if extras is None:
        return functions.template(function_hex).instantiate(
            task_id, return_ids, submitted_from
        )
    root = extras.get("root")
    parent = extras.get("parent")
    root = TaskID(root) if root is not None else None
    parent = TaskID(parent) if parent is not None else None
    actor = extras.get("actor")
    if actor is not None:
        actor_id, method, class_name, resources = actor
        record = actors.get(actor_id) or ActorRecord(actor_id, class_name, resources)
        function_id = (
            FunctionID(function_hex) if ids is None else record.method_id(method, ids)
        )
        return record.call_spec(
            method, function_id, task_id, return_ids, submitted_from, root, parent
        )
    return functions.template(function_hex, extras.get("options")).instantiate(
        task_id, return_ids, submitted_from, root, parent
    )
