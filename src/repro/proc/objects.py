"""The driver's object plane on ``proc`` and ``dist``: where an object
lives and what holds it, in one place.

One :class:`ObjectPlane` per runtime.  It owns the driver's two stores
(:class:`ObjectStores`), the table of results that live on a *node* and
are only described here (``dist``), the lifetime tables, worker
residency (what placement scores locality by) and the object byte
accountants, and it answers what the runtime asks — is it here, its
slot in a task's entry or a get's reply, or its value, these results
arrived, this task pins / unpins, this id was born in that task,
release what nothing holds, ``stats()`` — speaking back through two
callbacks: ``arrived(object_id)`` (wake dependents, watchers and the
cond) and ``requeue(spec)`` (a lost task runs again, from the wire
entry it carries).

**Two data planes.**  Small objects (≤ ``inline_threshold``) ride the
pipes as bytes, out of the pipe store.  Large ones take the zero-copy
shared-memory plane (:mod:`repro.shm`, capability-gated by
``shm_capacity`` and host support): payloads are written once into a
sealed shm arena — by the driver on ``put``, by the *worker itself*
for large results (``SHM_CREATE`` grant, then a descriptor in
``DONE``) — and every subsequent hop (argument attach, driver get,
broadcast) moves only a descriptor while readers reconstruct views
aliasing the arena.  The arena's reaper reclaims refcounts held by
crashed workers, and shutdown unlinks every segment.

**Locking.**  Every method runs under the runtime lock (``cond``, which
the caller holds) except the two that move megabytes and say so:
:meth:`ObjectPlane.pull` and :meth:`ObjectPlane.put_large` take it
themselves, around the copy.

**Object lifetime.**  An object lives exactly as long as something
the driver can see still needs it, and then gives its memory back —
the pipe store's bytes, the arena slot (which the next large object
lands on, warm), the owning node's slot and every copy landed on a
node.
What holds an object, and nothing else does: a live
:class:`~repro.core.object_ref.ObjectRef` *handle* in this process
(counted by a :class:`~repro.core.object_ref.RefLedger`); a *task
pin* — a submitted task pins its arguments until its completion is
applied (or it is cancelled or resolved to an error), so any replay
finds them, and a task whose result stays node-resident keeps them
until every such result is released or has a driver copy, because
losing the node would run it again; a *born-in-task hold* — an id born
inside a task on a worker is held until that task's ``DONE`` is
applied or its crash resolved; a *buffer lease* — a zero-copy value
keeps its arena slot, not its object, until its last buffer dies; and
*escape* — an id whose ref was pickled into bytes, or that a worker
still holds after the task that got it ended, is pinned until
shutdown and counted.  Handles and leases end in finalizers, which
only append to a deque; :meth:`ObjectPlane.drain` applies them at the
runtime's next lock hold and :meth:`ObjectPlane._release` is the one
place an object is forgotten.

**Residence on a node** is what ``dist`` adds, through three hooks.
*Pull*: a consumer elsewhere brings one copy into the pipe store
(``nodes.pull``, deduplicated; :meth:`ObjectPlane.pull`).  A reply
that carries an object's bytes on into a node with an arena names
them, and that node's agent *lands* them in its arena, its one store,
where each of its workers reads them (:meth:`ObjectPlane._into_node`).
*Delete*: a release reaches the owning node and every node a copy
landed on, one ``nodes.delete`` per node for everything released since
the last :meth:`ObjectPlane.flush_deletes`.  *Lost with its node*
(:meth:`ObjectPlane.node_lost`): each result without a driver copy
ends in :meth:`ObjectPlane.replay_or_fail` — the same verdict a task
that died with its worker gets.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from typing import Any, Callable, Optional

from repro.core import object_ref
from repro.core.object_ref import ObjectRef, RefLedger
from repro.core.task import TaskSpec
from repro.core.worker import ErrorValue, error_value_from
from repro.errors import ObjectLostError, ReproError
from repro.objectstore.store import LocalObjectStore, ObjectStoreFullError
from repro.proc.messages import ObjectBytes, ShmDescriptor
from repro.sched_plane import ResidencyTracker
from repro.shm.segment import shm_available, usable_shm_budget
from repro.shm.store import SharedObjectStore
from repro.utils.ids import NodeID, ObjectID
from repro.utils.serialization import (
    ByteAccountant,
    serialize,
    should_inline,
    write_frame,
)

#: Dead handles that make the per-task paths (submit, get, wait, a DONE
#: frame) stop and drain.  A drain has a fixed cost several times what
#: one more object adds to it, and a one-call-at-a-time loop would pay
#: it on every call; what needs the memory at once — ``put``, a worker's
#: shm grant, ``stats()`` — does not wait for a batch.
DRAIN_BATCH = 16

#: Bound on how long an object pull (or a wait on a racing pull /
#: in-flight reconstruction) may take before the caller gives up and
#: surfaces a lost-object error.
PULL_TIMEOUT = 30.0


def _bare(value: Any) -> Any:
    """A counted ref argument as an uncounted one (anything else as it
    is): what a spec keeps once its task is pinned."""
    if isinstance(value, ObjectRef) and value._ledger is not None:
        return ObjectRef._uncounted(value.object_id, value.producer_task)
    return value


class ObjectStores:
    """One process's data planes (module docstring) and what is served
    out of them: the pipe store, unless ``store_capacity`` is 0, and,
    where the host has POSIX shm and ``shm_capacity > 0``, the arena.
    The driver's :class:`ObjectPlane` is one, with lifetime and
    residence on top; a ``dist`` node agent keeps a bare one with no
    pipe store: its node's one store is the arena."""

    def __init__(
        self,
        node_id: NodeID,
        store_capacity: int,
        shm_capacity: int,
        num_workers: int,
        seed: int,
    ) -> None:
        self.store: Optional[LocalObjectStore] = None
        if store_capacity:
            self.store = LocalObjectStore(node_id, capacity=store_capacity)
        self.shm: Optional[SharedObjectStore] = None
        if shm_capacity > 0 and shm_available():
            # Clamp to what the host's shm filesystem can actually back
            # (Docker defaults /dev/shm to 64 MB; overrunning it is a
            # SIGBUS, not an exception).  Too small ⇒ pipe-only.
            shm_capacity = usable_shm_budget(shm_capacity)
            if shm_capacity > 0:
                # Short prefix by necessity: POSIX shm names are capped
                # at 31 chars (incl. the leading slash) on macOS, and the
                # full name is "<prefix>[o]_<8 hex>".  "rs<pid hex>s<seed
                # hex>" stays under it while staying per-runtime unique.
                self.shm = SharedObjectStore(
                    node_id, capacity=shm_capacity,
                    max_clients=num_workers + 1,
                    name_prefix=f"rs{os.getpid():x}s{seed & 0xFFFF:x}",
                )
        #: The data-plane ledger: zero_copy_bytes/shm_hits count objects
        #: served as descriptors, pipe_fallbacks the large objects that
        #: crossed the pipe anyway.
        self._acct_shm = ByteAccountant()

    def descriptor(self, object_id: ObjectID) -> Optional[ShmDescriptor]:
        """Where a shared-memory-resident object lives, for a worker to
        attach and read zero-copy (counted as served that way)."""
        described = self.shm.describe(object_id) if self.shm is not None else None
        if described is None:
            return None
        segment, slot, size = described
        self._acct_shm.record_zero_copy(size)
        return ShmDescriptor(object_id, segment, slot, size)

    def bytes_of(self, object_id: ObjectID) -> Any:
        """An object's bytes for someone who cannot map the arena, or
        None: the pipe store's serialized bytes, or a shm-resident
        object's frame as it lies in the arena, wrapped in a
        ``pickle.PickleBuffer`` (nothing is deserialized or copied
        here).  A pipe copies the frame into its message in-band; a
        :class:`~repro.proc.transport.TcpTransport` sends it out of band
        straight from the arena, so it must be sent before the slot can
        be reused.  :func:`~repro.utils.serialization.deserialize` reads
        either form."""
        data = self.store.get(object_id) if self.store is not None else None
        if data is None and self.shm is not None:
            view = self.shm.get(object_id)
            if view is not None:
                self._acct_shm.record_pipe_fallback(view.nbytes)
                return pickle.PickleBuffer(view)
        return data

    def land(self, object_id: ObjectID, data: Any) -> Optional[ShmDescriptor]:
        """Copy an object's bytes that crossed into this node into an
        arena slot and seal it (one already there stays as it is): the
        descriptor its workers read it by, or None when there is no
        arena or it has no room."""
        if self.shm is None:
            return None
        try:
            self.shm.put(object_id, data)
        except ObjectStoreFullError:
            return None
        return self.descriptor(object_id)

    def grant(
        self, object_id: ObjectID, nbytes: int, worker_index: int
    ) -> Optional[ShmDescriptor]:
        """Grant (or refuse) a worker's request to write ``nbytes``
        directly into shared memory."""
        if self.shm is None:
            return None
        try:
            entry = self.shm.create(object_id, nbytes, client=worker_index + 1)
        except ObjectStoreFullError:
            return None  # the worker ships bytes over the pipe
        if entry is None:
            return None
        return ShmDescriptor(object_id, entry.segment.name, entry.slot, nbytes)

    def abort_grant(self, object_id: ObjectID) -> None:
        """A worker hands back a granted allocation it could not write
        (it is falling back to the pipe): return the space at once."""
        if self.shm is not None:
            self.shm.abort(object_id)

    def drop(self, object_id: ObjectID) -> bool:
        """Give back the object's memory in both stores (an arena slot
        at once, or through the zombie list while someone still leases
        it); False if neither had it."""
        # The pipe store's pin goes with its bytes.
        dropped = self.store is not None and self.store.delete(object_id)
        if self.shm is not None and self.shm.delete(object_id):
            dropped = True
        return dropped

    def reclaim(self, worker_index: int) -> None:
        """The reaper: zero a dead worker's refcount column and abort
        its unsealed allocations, so objects it was reading mid-crash
        become reclaimable and half-written results never become
        readable."""
        if self.shm is not None:
            self.shm.reclaim_client(worker_index + 1)

    def shutdown(self) -> None:
        """Guaranteed unlinking: every worker process is dead or
        detached by now, so no shm segment name survives — even after
        worker crashes."""
        if self.shm is not None:
            self.shm.shutdown()


class ObjectPlane(ObjectStores):
    """Residence and lifetime of every object one driver knows."""

    def __init__(
        self,
        node_id: NodeID,
        cond: Any,
        control: Any,
        obs: Any,
        *,
        store_capacity: int,
        shm_capacity: int,
        num_workers: int,
        seed: int,
        inline_threshold: int,
        is_cancelled: Callable[[Any], bool],
        arrived: Callable[[ObjectID], None],
        requeue: Callable[[TaskSpec], None],
        nodes: Any = (),
        workers_per_node: int = 1,
    ) -> None:
        # The pipe store is the single home of every object that arrived
        # as bytes, shared with the workers through fetch/inline.
        super().__init__(node_id, store_capacity, shm_capacity, num_workers, seed)
        self._cond = cond
        self._control = control
        self._obs = obs
        self._inline_threshold = inline_threshold
        self._is_cancelled = is_cancelled
        self._arrived_out = arrived
        self._requeue = requeue
        #: ``dist``'s nodes, by index (none on one host), each the hooks
        #: of residence there: ``shm_on`` (it has an arena),
        #: ``fetch_object(object_id) -> bytes | None`` (blocking; lock
        #: not held) and ``delete_objects(object_ids)``.  Worker ``w``
        #: lives on node ``w // workers_per_node``.
        self._nodes = nodes
        self._per_node = workers_per_node
        #: Which worker holds a copy of what (locality scoring; on
        #: ``dist``, which nodes a release must reach).
        self.residency = ResidencyTracker()
        #: Lifetime (module docstring); every table is keyed by the
        #: object's raw id, its hex (a ``str`` hashes in C, and each
        #: release asks all of them).  Handles: the ledger's counts.
        #: Task pins: object -> tasks pinning it (each task's own list
        #: is ``TaskSpec.pins``).  Born-in-task holds: the held objects,
        #: and by raw task id the ids born inside it.  Escaped objects
        #: stay until shutdown.  One whose holders are all gone before
        #: its value exists is released when it arrives.
        self._ledger = RefLedger()
        self._pins: dict[str, int] = {}
        self._held: set = set()
        self._born_in: dict[str, list] = {}
        self._escaped: set = set()
        self._release_on_arrival: set = set()
        self._released = 0
        self._fallback_warned = False
        #: Results living only in a node's arena, by object id:
        #: ``(node_index, size, producing spec)`` — the driver holds the
        #: description, not the bytes, and the spec its wire entry,
        #: which is what losing the node would replay.
        self._node_resident: dict[ObjectID, tuple] = {}
        #: Nodes an object's bytes were sent into for their agents to
        #: land in the arena (a FETCH reply: the one reply that carries
        #: a large object's bytes into a node).
        self._landed: dict[ObjectID, set] = {}
        #: Released objects a node may hold in its arena (its own result
        #: or a landed copy), by node, awaiting the next coalesced delete.
        self._doomed: dict[int, list] = {}
        #: Return ids of replays in flight after a loss — readers of
        #: these wait instead of erroring while lineage re-executes.
        self._reconstructing: set = set()
        #: Objects with a pull in flight (one transfer per object).
        self._pulling: set = set()
        #: Lineage: replays charged per task id, against its
        #: ``max_reconstructions``.
        self.replays: dict[Any, int] = {}
        self.lineage_replays = 0
        self._acct_inline = ByteAccountant()
        self._acct_stored = ByteAccountant()
        self._acct_fetched = ByteAccountant()
        self._acct_results = ByteAccountant()
        #: Payload bytes that crossed a node boundary (``dist``).
        self.acct_internode = ByteAccountant()

    def count_handles(self) -> None:
        """From here on this process's new refs register with this
        plane's ledger (the end of the runtime's construction)."""
        object_ref.install_ledger(self._ledger)

    def shutdown(self) -> None:
        """Unlink the arena and stop counting handles (refs that outlive
        the runtime keep appending to its ledger, which nobody drains or
        needs)."""
        super().shutdown()
        if object_ref._ledger is self._ledger:
            object_ref.install_ledger(None)

    # ------------------------------------------------------------------
    # Is it here; its slot; its value
    # ------------------------------------------------------------------

    def has(self, object_id: ObjectID) -> bool:
        """Residency across every plane: pipe store, arena, or a node."""
        if self.store.contains(object_id):
            return True
        if self.shm is not None and self.shm.contains(object_id):
            return True
        return bool(self._node_resident) and object_id in self._node_resident

    def only_on_node(self, object_id: ObjectID) -> bool:
        """It lives in a node's arena and the driver has no copy."""
        return object_id in self._node_resident and not self.store.contains(
            object_id
        )

    def fetch_bytes(self, object_id: ObjectID, worker_index: int) -> Any:
        """Serve a worker's fetch of an object's bytes, for an empty
        slot (:meth:`arg_slot`) or a failed attach (on ``dist``,
        large ones named for its agent to land: :meth:`_into_node`).  An
        arena frame is copied out here, under the lock: the reply leaves
        once the lock is released, when the slot may already be
        reused."""
        data = self.bytes_of(object_id)
        if data is None:
            raise ObjectLostError(
                f"object {object_id} is not resident in the driver store"
            )
        if isinstance(data, pickle.PickleBuffer):
            data = bytes(data)
        self._acct_fetched.record(len(data))
        if self._obs.enabled:
            span = {"object_id": str(object_id), "size": len(data)}
            self._obs.record(
                "object_fetch", worker=f"worker-{worker_index}", **span
            )
            if self._nodes:
                self._obs.record(
                    "internode_fetch",
                    node=f"node-{worker_index // self._per_node}",
                    path="worker_fetch",
                    **span,
                )
        # The worker caches what it fetches: from here on the object
        # is locality-resident there.
        self.residency.record(worker_index, object_id.hex, len(data))
        if self._nodes:
            return self._into_node(object_id, data, worker_index)
        return data

    def _into_node(self, object_id: ObjectID, data: Any, worker_index: int) -> Any:
        """A FETCH reply's bytes of an object, crossing TCP into the
        worker's node: large ones, into a node with an arena, as
        :class:`ObjectBytes` — named, so its agent lands them in the
        arena and passes its worker a descriptor, and out of band, so
        nothing re-pickles them — and noted there for the release."""
        self.acct_internode.record_internode(len(data))
        node_index = worker_index // self._per_node
        if not self._nodes[node_index].shm_on or should_inline(
            len(data), self._inline_threshold
        ):
            return data
        self._landed.setdefault(object_id, set()).add(node_index)
        return ObjectBytes(object_id, pickle.PickleBuffer(data))

    def arg_slot(self, object_id: ObjectID, worker_index: int, inline: dict) -> None:
        """Where the worker finds one object's value — a ref argument's,
        into the shipped entry's ``inline`` table, or one a ``GET``
        reply answers with, read the same way: its bytes when small, its
        :class:`ShmDescriptor` when it lives in shared memory (attached
        zero-copy, no round trip), nothing when large in the pipe store
        (the worker fetches it) or living on a node (the executing
        worker resolves it through its node agent: an arena hit on the
        producing node; elsewhere a pull through the driver, whose reply
        the agent lands in its arena).  ``args_inlined``/``args_stored``
        in ``stats()`` count these slots, a get's too.  Raises
        ``ObjectLostError`` for an object the driver no longer has."""
        if self._node_resident and self.only_on_node(object_id):
            size = self._node_resident[object_id][1]
            self.residency.record(worker_index, object_id.hex, size)
            return
        descriptor = self.descriptor(object_id)
        if descriptor is not None:
            inline[object_id] = descriptor
            self.residency.record(worker_index, object_id.hex, descriptor.size)
            return
        data = self.store.get(object_id)
        if data is None:
            raise ObjectLostError(
                f"argument object {object_id} is no longer in "
                "the driver store"
            )
        if should_inline(len(data), self._inline_threshold):
            inline[object_id] = data
            self._acct_inline.record(len(data))
        else:
            self._acct_stored.record(len(data))
        self.residency.record(worker_index, object_id.hex, len(data))

    def read(self, object_id: ObjectID) -> tuple:
        """A resident object for the driver's own ``get``, as ``(view,
        data)``: a leased window on the arena (reconstructed buffers
        alias it, and the lease keeps the slot for as long as any of
        them lives, whatever becomes of the ref) or the pipe store's
        bytes.  The caller deserializes either outside the lock."""
        view = self.shm.lease(object_id) if self.shm is not None else None
        if view is not None:
            self._acct_shm.record_zero_copy(view.nbytes)
            return view, None
        return None, self.store.get(object_id)

    # ------------------------------------------------------------------
    # Arrival
    # ------------------------------------------------------------------

    def store_bytes(self, object_id: ObjectID, data: bytes | bytearray) -> None:
        """Insert an object that arrived as bytes (or as a pulled frame's
        ``bytearray``) and announce it.

        Results are pinned: the driver store is their only replica, so
        LRU pressure must evict nothing (capacity overflow surfaces as
        ObjectStoreFullError instead of a silent loss).

        Deliberately does NOT touch a pending shm grant for the same id
        (e.g. a cancellation marker racing a worker's result write): the
        granted slot may be mid-``write_frame`` in the worker, so its
        space is only reclaimed once the writer is provably done (its
        DONE arrived, its SHM_ABORT arrived, or it crashed)."""
        self.store.put(object_id, data)
        self.store.pin(object_id)
        self._arrived(object_id)

    def store_error(self, spec: TaskSpec, error: ErrorValue) -> None:
        """Resolve a task to one error value in *every* return slot that
        is still empty, and end its pins.  A batched serving call has
        ``num_returns > 1``; filling only the primary slot would leave
        the other callers' watchers waiting forever."""
        data = serialize(error)
        for object_id in spec.all_return_ids():
            if not self.has(object_id):
                self.store_bytes(object_id, data)
        self.unpin_task(spec)

    def inline(self, blobs: list) -> bool:
        """Whether every blob of a completion is bytes the object table
        keeps whole (:meth:`_note_arrival`) — so a recovered driver
        restores it without its producer — and the pipe store has room
        for them all."""
        size = 0
        for blob in blobs:
            if type(blob) is not bytes or len(blob) > self._inline_threshold:
                return False
            size += len(blob)
        return size <= self.store.free_bytes

    def finish(
        self,
        spec: Optional[TaskSpec],
        blobs: list,
        worker_index: int,
        entry: Optional[tuple] = None,
    ) -> None:
        """Publish the returns of a completed task, each in the form its
        worker reported it: bytes into the pipe store, a
        :class:`ShmDescriptor` sealed where the worker wrote it, a node
        descriptor (``dist``'s ``NodeBlob``: ``node_index``, ``size``)
        recorded as residence on that node.  With no ``spec`` (the
        driver never adopted the worker-born task) the return ids of its
        wire ``entry`` are what is published, and every blob is
        :meth:`inline`."""
        if spec is None:
            for return_hex, blob in zip(entry[2], blobs):
                self.store_bytes(ObjectID(return_hex), blob)
            self._acct_results.record(sum(map(len, blobs)))
            return
        shipped = 0
        on_node = False
        for object_id, blob in zip(spec.all_return_ids(), blobs):
            if isinstance(blob, ShmDescriptor):
                # The payload is already in shared memory (the worker
                # wrote it through its own mapping): publish it.
                self.shm.seal(object_id)
                self._sealed(object_id, blob.size)
            elif isinstance(blob, (bytes, bytearray)):
                shipped += len(blob)
                if (
                    self._nodes
                    and len(blob) > self._inline_threshold
                    and self._nodes[worker_index // self._per_node].shm_on
                ):
                    # The node arena refused a large result.
                    self.note_pipe_fallback(len(blob))
                try:
                    self.store_bytes(object_id, blob)
                except ReproError as exc:
                    # Store full: keep consumers unblocked with a tiny marker.
                    self.store_bytes(
                        object_id, serialize(error_value_from(spec, exc))
                    )
            else:
                on_node = True
                self._node_resident[object_id] = (blob.node_index, blob.size, spec)
                self._acct_shm.record_zero_copy(blob.size)
                # Locality: every worker of the producing node can read
                # the object from the node arena without a transfer.
                per_node = self._per_node
                for holder in range(
                    blob.node_index * per_node, (blob.node_index + 1) * per_node
                ):
                    self.residency.record(holder, object_id.hex, blob.size)
                self._arrived(object_id)
        self._acct_results.record(shipped)
        if on_node:
            self._settle(spec)
        else:
            # Every return is in the driver's own stores: no replay of
            # this task can happen, so none can need its arguments.
            self.unpin_task(spec)

    def discard(self, blobs: list) -> None:
        """Results nobody will read (their task was cancelled while it
        ran, and the marker owns the slots): the arena space the worker
        filled for them goes back unsealed, here or on its node."""
        for blob in blobs:
            if isinstance(blob, ShmDescriptor):
                if self.shm is not None:
                    self.shm.abort(blob.object_id)
            elif not isinstance(blob, (bytes, bytearray)):
                self._doomed.setdefault(blob.node_index, []).append(blob.object_id)
        self.flush_deletes()

    def _sealed(
        self, object_id: ObjectID, size: int, worker_index: Optional[int] = None
    ) -> None:
        self._acct_shm.record_zero_copy(size)
        if self._obs.enabled:
            span = {"object_id": str(object_id), "size": size}
            if worker_index is not None:
                span["worker"] = f"worker-{worker_index}"
            self._obs.record("shm_seal", **span)
        self._arrived(object_id)

    def _arrived(self, object_id: ObjectID) -> None:
        """A newly resident object, whichever plane it landed in: note
        it in the control store, tell the runtime, and let it go at once
        if everything that held it was gone before it existed (a
        fire-and-forget task's result)."""
        if self._reconstructing:
            self._reconstructing.discard(object_id)
        self._note_arrival(object_id)
        self._arrived_out(object_id)
        if self._release_on_arrival and object_id.hex in self._release_on_arrival:
            self._release_on_arrival.discard(object_id.hex)
            self._maybe_release(object_id)

    def _note_arrival(self, object_id: ObjectID) -> None:
        """Async residency update into the object table.  Small payloads
        ride along inline — that is what a recovered driver restores
        without re-executing producers."""
        entry = self._node_resident.get(object_id) if self._node_resident else None
        if entry is not None:
            # Descriptor-only residency: the control store records where
            # the bytes live, not the bytes — a recovered driver re-runs
            # the producer (the arena died with the node agents).
            node_index, size, spec = entry
            self._control.async_object_put(
                object_id,
                size=size,
                location=f"node-{node_index}",
                ready=True,
                producer_task=spec.task_id,
            )
            return
        data = self.store.get(object_id)
        if data is not None:
            payload = bytes(data) if len(data) <= self._inline_threshold else None
            self._control.async_object_put(
                object_id,
                size=len(data),
                location="driver",
                ready=True,
                payload=payload,
            )
        elif self.shm is not None:
            size = self.shm.size_of(object_id)
            if size:
                self._control.async_object_put(
                    object_id, size=size, location="driver-shm", ready=True
                )

    # ------------------------------------------------------------------
    # The arena's two-phase writes
    # ------------------------------------------------------------------

    def put_large(self, object_id: ObjectID, serialized: Any) -> None:
        """A large driver-side put (lock NOT held): two-phase shm write
        so the multi-MB frame copy never runs under the runtime lock
        (the allocation is unsealed, so unseen, meanwhile), with pipe
        fallback on a full budget.  What died since the last drain gives
        its space back first, so the write lands on it."""
        with self._cond:
            self.drain()
            try:
                entry = self.shm.create(object_id, serialized.frame_bytes)
            except ObjectStoreFullError:
                entry = None
        if entry is not None:
            window = entry.segment.slot_view(entry.slot, writable=True)
            try:
                write_frame(window, serialized)
            except BaseException:
                with self._cond:
                    self.shm.abort(object_id)
                raise
            with self._cond:
                self.shm.seal(object_id)
                self._acct_shm.record_zero_copy(serialized.frame_bytes)
                self._arrived(object_id)
            return
        # Budget full: the pipe store still works.  The join (one copy
        # of the payload) also happens outside the lock.
        data = serialized.joined()
        with self._cond:
            self.note_pipe_fallback(serialized.total_bytes)
            self.store_bytes(object_id, data)

    def grant(
        self, object_id: ObjectID, nbytes: int, worker_index: int
    ) -> Optional[ShmDescriptor]:
        """The stores', after dead objects gave their space back (the
        grant reuses it); a refusal is a pipe fallback."""
        if self.shm is None:
            return None
        self.drain()
        granted = super().grant(object_id, nbytes, worker_index)
        if granted is None:
            self.note_pipe_fallback(nbytes)
        return granted

    def worker_put(
        self, object_hex: str, data: Optional[bytes], worker_index: int,
        born_in: Optional[str],
    ) -> None:
        """A put a worker made, under the id it minted (or, a large one,
        was granted): ``data`` is its bytes, or None — the seal that
        publishes the allocation the worker filled.  The object is held
        for the task it was born in and counted resident on that worker
        (it keeps a put's bytes in its cache); one that cannot be stored
        or sealed resolves to an error value instead (the task that made
        it runs on)."""
        object_id = ObjectID(object_hex)
        self.hold_born(born_in, (object_id,))
        try:
            if data is None:
                if self.shm is None or not self.shm.seal(object_id):
                    raise ObjectLostError(
                        f"shm allocation for {object_id} no longer exists"
                    )
                size = self.shm.size_of(object_id) or 0
                self.residency.record(worker_index, object_hex, size)
                self._sealed(object_id, size, worker_index)
            else:
                self.store_bytes(object_id, data)
                self.residency.record(worker_index, object_hex, len(data))
        except ReproError as exc:
            self.store_bytes(object_id, serialize(ErrorValue(
                None, "put", repr(exc), chain=("put",)
            )))

    def worker_lost(self, worker_index: int) -> None:
        """Nothing is resident in a dead worker, and what it held of the
        arena is reclaimable."""
        self.residency.forget_holder(worker_index)
        self.reclaim(worker_index)

    # ------------------------------------------------------------------
    # What holds an object: pins, born-in-task holds, escape, handles
    # ------------------------------------------------------------------

    def pin_task(self, spec: TaskSpec) -> None:
        """Pin a task's dependencies from submission, and make the spec
        name them without holding them: a spec lives in the lifecycle
        index, the control store and the WAL for good, and must not
        keep its arguments alive with it.  It keeps its ref arguments
        as bare refs (what placement and every ship read); their values
        are the driver's stores', the rest of its call is its wire
        entry's."""
        self.pin(spec, spec.dependencies())
        if spec.arg_refs:
            spec.arg_refs = tuple([_bare(ref) for ref in spec.arg_refs])
        spec.args, spec.kwargs = (), {}

    def pin(self, spec: TaskSpec, object_ids: list) -> None:
        pins = self._pins
        for object_id in object_ids:
            pins[object_id.hex] = pins.get(object_id.hex, 0) + 1
        spec.pins = tuple(object_ids)

    def unpin_task(self, spec: TaskSpec) -> None:
        """No replay of this task can need its arguments any more — it
        completed into the driver's stores, was cancelled, or resolved
        to an error (the one way a pin ends)."""
        pinned, spec.pins = spec.pins, ()
        pins = self._pins
        for object_id in pinned:
            left = pins[object_id.hex] - 1
            if left:
                pins[object_id.hex] = left
            else:
                del pins[object_id.hex]
                self._maybe_release(object_id)

    def _settle(self, spec: TaskSpec) -> None:
        """Unpin a completed task's arguments once no replay of it can
        happen: every return that went node-resident has been released
        or has a copy in the driver store.  Until then losing the node
        re-runs the task, arguments and all."""
        if not spec.pins:
            return
        for object_id in spec.all_return_ids():
            if self.only_on_node(object_id):
                return
        self.unpin_task(spec)

    def hold_born(self, task_hex: Optional[str], object_ids: tuple) -> None:
        """Ids born inside a task running on a worker — which holds
        refs to them this process cannot see — stay until that task's
        DONE is applied or its crash resolved."""
        # Born outside any task (None): nothing would end the hold.
        held = self._escaped if task_hex is None else self._held
        for object_id in object_ids:
            held.add(object_id.hex)
        if task_hex is not None:
            born = self._born_in.get(task_hex)
            if born is None:
                self._born_in[task_hex] = list(object_ids)
            else:
                born.extend(object_ids)

    def drop_born(
        self, task_hex: str, adopt: Optional[Callable[[ObjectID], Any]] = None
    ) -> None:
        """The task is over (or died with its process), and what its
        worker still holds of what was born in it has been reported
        escaped.  ``adopt(object_id)`` runs for every id born in it
        first: a child of the task that has not finished yet becomes the
        driver's, pins and all, before anything is released."""
        if not self._born_in:
            return
        born = self._born_in.pop(task_hex, ())
        if adopt is not None:
            for object_id in born:
                adopt(object_id)
        for object_id in born:
            self._held.discard(object_id.hex)
            self._maybe_release(object_id)

    def escape(self, object_hexes: Any) -> None:
        """These objects' refs exist where the driver cannot see them
        (a worker pickled or kept them; a dead driver handed them out):
        pinned until shutdown."""
        self._escaped.update(object_hexes)

    def drain(self, batched: bool = False) -> None:
        """Apply what finalizers buffered since the last call — ended
        buffer leases, then handle births, escapes and deaths — and
        release what that leaves unheld.  Cheap when nothing happened;
        the per-task paths (``batched``) still wait for ``DRAIN_BATCH``
        dead handles, everything that allocates or reports drains at
        once."""
        if batched and len(self._ledger.died) < DRAIN_BATCH:
            return
        if self.shm is not None:
            self.shm.settle_leases()
        for object_id in self._ledger.drain(self._escaped):
            self._maybe_release(object_id)
        self.flush_deletes()

    def _maybe_release(self, object_id: ObjectID) -> None:
        """Release the object unless something still holds it.  Called
        whenever one holder of it ends."""
        key = object_id.hex
        if key in self._pins or key in self._held:
            return
        ledger = self._ledger
        if ledger.born or ledger.escaped:
            # A handle counts from its construction and an escape from
            # the pickling, not from the next drain.
            ledger.drain(self._escaped, died=False)
        if key in ledger.counts or key in self._escaped:
            return
        if not self._release(object_id):
            self._release_on_arrival.add(key)

    def _release(self, object_id: ObjectID) -> bool:
        """Forget an object no one can ask for again: out of every
        per-object map the driver keeps, its memory given back — here,
        on the node that owns it and on every node a copy landed on
        (nowhere else: a worker only given a slot holds no copy) —
        unless it has not arrived anywhere yet (False).  Nothing is
        written to the control store: retiring object rows is
        task-metadata retirement's job."""
        entry = self._node_resident.pop(object_id, None)
        if not self.drop(object_id) and entry is None:
            return False
        self._released += 1
        self.residency.forget_object(object_id.hex)
        if self._nodes:
            nodes = self._landed.pop(object_id, set())
            if entry is not None:
                nodes.add(entry[0])
            for node_index in nodes:
                self._doomed.setdefault(node_index, []).append(object_id)
        if entry is not None:
            self._settle(entry[2])
        return True

    # ------------------------------------------------------------------
    # Residence on a node: pull, delete, lost with its node
    # ------------------------------------------------------------------

    def pull(self, object_id: ObjectID, timeout: float = PULL_TIMEOUT) -> bool:
        """Ensure a node-resident object's bytes are in the pipe store
        (lock NOT held; a no-op unless something lives on a node).

        Returns True once the store holds the object.  Dedups concurrent
        pulls (one TCP transfer per object), waits out an in-flight
        reconstruction after node loss, and converts an object its node
        no longer holds (arena reclaim, or the node died under the
        pull) into replay-or-error on the spot.  Returns False when the
        object is simply not node-resident (nothing to pull) or the
        wait timed out."""
        if not self._node_resident and not self._reconstructing:
            return False
        deadline = time.monotonic() + timeout
        while True:
            claimed = None
            with self._cond:
                if self.store.contains(object_id):
                    return True
                if object_id in self._pulling or object_id in self._reconstructing:
                    # Both end with a notify: the racing pull's
                    # ``finally``, or the arrival (``_arrived``) of the
                    # rebuilt result or of its error marker.
                    self._cond.wait(timeout=deadline - time.monotonic())
                else:
                    claimed = self._node_resident.get(object_id)
                    if claimed is None:
                        return False
                    self._pulling.add(object_id)
            if claimed is None:
                if time.monotonic() > deadline:
                    return False
                continue
            node_index = claimed[0]
            try:
                data = self._nodes[node_index].fetch_object(object_id)
                with self._cond:
                    if data is not None:
                        return self.store.contains(object_id) or self._pulled(
                            object_id, data, claimed
                        )
                    if self._node_resident.get(object_id) is claimed:
                        del self._node_resident[object_id]
                        self._object_lost(object_id, claimed, set())
            finally:
                with self._cond:
                    self._pulling.discard(object_id)
                    self._cond.notify_all()
            if time.monotonic() > deadline:
                return False
            # Loop: a reconstruction is in flight (we wait on it) or an
            # error marker was stored.

    def _pulled(
        self, object_id: ObjectID, data: bytes | bytearray, entry: tuple
    ) -> bool:
        """Store a pulled object as it arrived (an arena frame stays a
        frame: ``deserialize`` reads it zero-copy)."""
        self.acct_internode.record_internode(len(data))
        self._obs.record(
            "internode_fetch",
            object_id=str(object_id),
            size=len(data),
            node=f"node-{entry[0]}",
            path="driver_pull",
        )
        try:
            self.store_bytes(object_id, data)
        except ReproError:
            return False  # store full: caller surfaces it
        self._settle(entry[2])
        return True

    def flush_deletes(self) -> None:
        """One delete per node for everything released since the last
        flush (called wherever releases batch up: a drain, a DONE
        frame)."""
        if self._doomed:
            doomed, self._doomed = self._doomed, {}
            for node_index, object_ids in doomed.items():
                self._nodes[node_index].delete_objects(object_ids)

    def node_lost(self, node_index: int) -> None:
        """Sweep a lost node's resident objects: each one either already
        has a driver copy, or is re-produced by replaying its producer
        through the lineage gate, or resolves to a ``node_lost`` error
        marker."""
        self._doomed.pop(node_index, None)  # it holds nothing worth deleting
        lost = [
            (object_id, self._node_resident.pop(object_id))
            for object_id, entry in list(self._node_resident.items())
            if entry[0] == node_index
        ]
        judged: set = set()
        for object_id, entry in lost:
            survived = self.has(object_id)  # a pulled copy in the driver store
            self._control.async_object_put(
                object_id, drop_location=f"node-{node_index}", ready=survived
            )
            if not survived:
                self._object_lost(object_id, entry, judged)

    def _object_lost(self, object_id: ObjectID, entry: tuple, judged: set) -> None:
        """One object whose only replica is gone; ``judged`` makes
        several returns of one producer, lost together, one verdict."""
        node_index, _size, spec = entry
        if spec.task_id not in judged:
            judged.add(spec.task_id)
            self.replay_or_fail(spec, node_index, object_id)

    def replay_or_fail(
        self,
        spec: TaskSpec,
        lost_node: Optional[int] = None,
        lost_object: Optional[ObjectID] = None,
    ) -> bool:
        """The verdict on a task whose results must be produced again:
        it died with its worker (with the whole node ``lost_node``), or
        ``lost_object``, a result of it, lived only on ``lost_node``.
        Within its lineage budget it is requeued, to ship its wire entry
        again (True); otherwise every
        return it still owes resolves to an error saying why (False).  A
        cancelled task owes nothing: its marker owns the slots."""
        if self._is_cancelled(spec.task_id):
            return False
        attempts = self.replays.get(spec.task_id, 0)
        if spec.actor_id is None and attempts < spec.max_reconstructions:
            self.replays[spec.task_id] = attempts + 1
            self.lineage_replays += 1
            if lost_object is not None:
                for return_id in spec.all_return_ids():
                    if not self.has(return_id):
                        self._reconstructing.add(return_id)
            if self._obs.enabled:
                self._obs.record(
                    "lineage_replay",
                    task_id=str(spec.task_id),
                    function=spec.function_name,
                    attempt=attempts + 1,
                )
            self._control.async_task_update(
                spec.task_id, state="replaying", attempt=True
            )
            self._requeue(spec)
            return True
        if spec.actor_id is not None:
            why = "produced by an actor method: not replayable"
        else:
            why = (
                f"lineage replay budget exhausted "
                f"({attempts}/{spec.max_reconstructions} reconstructions)"
            )
        if lost_object is not None:
            detail = (
                f"object {lost_object} was resident only on lost node {lost_node}"
                + (f" ({why})" if spec.actor_id is not None else f"; {why}")
            )
        elif lost_node is not None:
            detail = f"node {lost_node} was lost; {why}"
        else:
            detail = why
        self.store_error(
            spec,
            ErrorValue(
                task_id=spec.task_id,
                function_name=spec.function_name,
                cause_repr=detail,
                chain=(spec.function_name,),
                kind="worker_crashed" if lost_node is None else "node_lost",
                node_index=lost_node,
            ),
        )
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def node_usage(self, node_index: Optional[int] = None) -> tuple:
        """``(objects, bytes)`` resident on one node (None: on any)."""
        sizes = [
            size for node, size, _spec in self._node_resident.values()
            if node_index is None or node == node_index
        ]
        return len(sizes), sum(sizes)

    def stats(self) -> dict:
        """The object plane's share of ``stats()`` (refs drained first)."""
        self.drain()
        shm = None if self.shm is None else self.shm.stats()
        return {
            "objects_stored": self.store.num_objects,
            "object_store_bytes": self.store.used_bytes,
            "lineage_replays": self.lineage_replays,
            "args_inlined": self._acct_inline.snapshot(),
            "args_stored": self._acct_stored.snapshot(),
            "args_fetched": self._acct_fetched.snapshot(),
            "results_shipped": self._acct_results.snapshot(),
            "shm_enabled": self.shm is not None,
            "shm": self._acct_shm.snapshot(),
            "shm_store": shm,
            "objects": {
                "live": self.store.num_objects
                + (shm["num_objects"] if shm else 0)
                + sum(1 for object_id in self._node_resident
                      if not self.store.contains(object_id)),
                "released": self._released,
                "escaped": len(self._escaped),
                "leased": shm["leased_objects"] if shm else 0,
                "zombies": shm["zombie_objects"] if shm else 0,
                "pinned_by_tasks": len(self._pins),
            },
        }

    def note_pipe_fallback(self, nbytes: int) -> None:
        """A large object is taking the pipe because its arena refused
        it: counted, and the first one of a session warns, naming what
        occupies the arena."""
        self._acct_shm.record_pipe_fallback(nbytes)
        if self._fallback_warned:
            return
        self._fallback_warned = True
        if self.shm is not None:
            shm = self.shm.stats()
            occupancy = (
                f"{shm['num_objects']} resident objects / {shm['used_bytes']} of "
                f"{shm['capacity']} bytes, {shm['leased_objects']} leased / "
                f"{shm['leased_bytes']} bytes, {shm['zombie_objects']} zombies / "
                f"{shm['deferred_bytes']} bytes"
            )
        else:
            occupancy = "%d node-resident objects / %d bytes" % self.node_usage()
        warnings.warn(
            f"a {nbytes}-byte object did not fit the shared-memory arena and "
            "takes the pipe (slower; later ones may too): "
            f"{occupancy}, {len(self._escaped)} escaped objects "
            "pinned until shutdown.  Drop refs and values that are no longer "
            "needed, or raise shm_capacity.",
            RuntimeWarning,
            stacklevel=2,
        )
