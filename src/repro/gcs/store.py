"""The sharded control store (the paper's GCS) of every backend.

Object/task/actor tables hash-partitioned across N lock-striped shards,
an append-only event log per shard, and fire-and-forget async writes on
hot paths.  The live backends call it directly; the sim's
:mod:`repro.store.control_plane` charges each op its modelled cost
(hops, shard queue, service time) and then calls it synchronously, on
the virtual clock given as ``clock=``.  The writer thread that applies
async writes starts with the first one, so the sim's store runs none.

Each mutation is one record, ``(key, kind, mutator, args, event, wal)``,
built in one place: the sync method hands it to :meth:`ControlStore._apply`
at once, its ``async_*`` twin queues the same tuple for the writer thread.
A shard's events are flat ``(timestamp, kind, key_hex, field, value)``
tuples of atomic values, which the cyclic GC untracks;
:meth:`ControlStore.events` makes them into
:class:`~repro.store.event_log.EventRecord` objects only when read.

Design rules the runtimes rely on:

* **Write-ahead lineage** — ``task_put`` is synchronous and happens before
  a task is dispatched, so crash replay always finds the spec.  State
  transitions, residency updates, and actor bookkeeping ride the async
  writer thread instead; ``flush()`` drains it (recovery calls this first).
* **Stable routing** — a key's shard depends only on its bytes
  (:func:`repro.gcs.tables.shard_of`), never on process state, so a
  restarted driver reads exactly where the dead one wrote.
* **Optional durability** — give the store a ``wal_dir`` and every applied
  write is appended to a per-shard write-ahead log file;
  :meth:`ControlStore.open` rebuilds the tables from those files.  With
  ``wal_sync=True`` a mutation returns only once its record is fsynced,
  but the fsync runs *outside* the shard lock and group-commits: one
  flush covers every record appended before it, so concurrent writers
  batch instead of queueing a disk flush each.  Because each shard owns
  its own WAL fd, commits on different shards also overlap in the
  kernel — shard striping plus group commit is what ``bench_e12``
  measures against the old single-lock driver layout.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.gcs.tables import ActorEntry, ObjectEntry, TaskEntry, shard_of
from repro.store.event_log import EventRecord

try:  # cloudpickle widens what the WAL can persist (closures in specs)
    import cloudpickle as _wal_pickler
except Exception:  # pragma: no cover - cloudpickle is a baked-in dep
    _wal_pickler = None

_LEN = struct.Struct(">I")

#: Argument names of each write-ahead-logged mutation, in the order its
#: mutator takes them after the key: what a WAL record's kwargs are
#: zipped from, and what :meth:`ControlStore._replay_op` feeds back to
#: the public method of the same name.
_WAL_ARGS = {
    "task_put": ("spec", "state", "node"),
    "task_update": ("state", "node", "attempt"),
    "object_put": (
        "size", "location", "drop_location", "ready", "producer_task", "payload",
    ),
    "actor_register": ("spec", "name", "node", "state"),
    "actor_update": ("state", "node", "method_inc"),
    "generation": ("generation",),
}


def _snapshot_of(shard: "ControlShard", key, table: str):
    """Read mutator: a copy of one table row, or None."""
    entry = getattr(shard, table).get(key)
    return entry.snapshot() if entry is not None else None


def _named_actor(shard: "ControlShard", name):
    return shard.names.get(name)


def _no_mutation(shard: "ControlShard", key, *args) -> None:
    """Mutator of a record that exists only in the log (generations)."""


class ControlShard:
    """One lock-striped partition of the control state."""

    __slots__ = (
        "index",
        "lock",
        "objects",
        "tasks",
        "actors",
        "names",
        "events",
        "ops",
        "contended",
        "waiting",
        "max_waiting",
        "wal_fd",
        "wal_records",
        "wal_synced",
        "sync_lock",
    )

    def __init__(self, index: int, wal_fd: Optional[int] = None) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.objects: dict = {}
        self.tasks: dict = {}
        self.actors: dict = {}
        #: name -> actor_id index (names hash to this shard).
        self.names: dict = {}
        #: ``(timestamp, kind, key_hex, field, value)`` per logged write.
        self.events: list = []
        # Best-effort counters (racy increments lose at most a few counts;
        # the uniform stats() contract promises keys, not exactness).
        self.ops = 0
        self.contended = 0
        self.waiting = 0
        self.max_waiting = 0
        self.wal_fd = wal_fd
        self.wal_records = 0
        #: Highest record index covered by an fsync (group commit).
        self.wal_synced = 0
        self.sync_lock = threading.Lock()


class ControlStore:
    """Hash-sharded object/task/actor tables behind striped locks.

    Thread-safe; shared by the driver's service threads and any number of
    submitter threads.  A single instance can outlive the driver that
    created it — that is the HA story: pass the same store to a fresh
    runtime with ``recover=True`` and it rebuilds from these tables.
    """

    def __init__(
        self,
        num_shards: int = 8,
        *,
        wal_dir: Optional[str] = None,
        wal_sync: bool = False,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.wal_dir = wal_dir
        self.wal_sync = wal_sync
        self._clock = clock
        self._closed = False

        fds: list[Optional[int]] = [None] * num_shards
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            fds = [
                os.open(
                    os.path.join(wal_dir, f"shard-{i:02d}.wal"),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644,
                )
                for i in range(num_shards)
            ]
        self._shards = [ControlShard(i, fds[i]) for i in range(num_shards)]

        #: Driver generations handed out so far (id-namespace salting).
        self._generation = 0
        self._gen_lock = threading.Lock()
        self._replaying = False
        self.wal_skipped = 0

        # Fire-and-forget writer: hot paths enqueue, one daemon applies.
        # ``_async_cond`` guards the pending list and the count of ops
        # enqueued but not yet applied (what flush() waits out).
        self._async_cond = threading.Condition(threading.Lock())
        self._async_pending: list = []
        self._async_unapplied = 0
        self._async_backlog_max = 0
        self._async_paused = threading.Event()
        self._async_paused.set()  # set == running
        #: Per-thread op list while inside :meth:`async_batch`.
        self._async_batch = threading.local()
        #: Started by the first async write: a store written only
        #: synchronously (the sim's) runs no thread.
        self._writer: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Routing and plumbing
    # ------------------------------------------------------------------

    def shard_index(self, key: Any) -> int:
        return shard_of(key, self.num_shards)

    def _apply(
        self,
        key: Any,
        kind: str,
        mutate,
        args: tuple = (),
        event: Optional[dict] = None,
        wal: Optional[str] = None,
    ):
        """Run ``mutate(shard, key, *args)`` under the owning shard's
        lock (+ event + WAL): the one way a record is applied, whether
        its sync method passes it here at once or the writer thread
        takes it off the async queue.

        ``event`` is ``(field, value)``: the shard logs the flat tuple
        ``(timestamp, kind, key_hex, field, value)`` (``None``: the op is
        not logged — reads, derived index writes).  ``wal`` names the
        public mutation; its record is built from ``args`` by
        :data:`_WAL_ARGS`, so :meth:`open` can replay it verbatim, and
        only when a WAL is attached — a memory-only store pays nothing
        for it.  Mutators are plain methods taking positional arguments:
        the hot ops (three per task) make no closure and no kwargs dict.

        Durable mode group-commits: the WAL append happens under the shard
        lock (so the on-disk record order matches the apply order) but the
        fsync happens *after* the lock is released.  An fsync covers every
        record appended before it, so a thread whose record was already
        covered by a later thread's commit skips its own fsync entirely —
        the classic group-commit batching, and the reason colliding
        submitters don't serialize behind each other's disk flushes.
        """
        shard = self._shards[shard_of(key, self.num_shards)]
        # Encode the WAL record before taking the lock: it depends only on
        # the arguments, and pickling is the priciest CPU step — doing it
        # inside the critical section would serialize colliding writers
        # behind it on top of the append itself.
        blob = None
        if wal is not None and shard.wal_fd is not None and not self._replaying:
            blob = self._wal_encode((wal, key, dict(zip(_WAL_ARGS[wal], args))))
            if blob is None:
                self.wal_skipped += 1
        lock = shard.lock
        if not lock.acquire(blocking=False):
            shard.contended += 1
            shard.waiting += 1
            if shard.waiting > shard.max_waiting:
                shard.max_waiting = shard.waiting
            lock.acquire()
            shard.waiting -= 1
        wal_seq = None
        try:
            shard.ops += 1
            result = mutate(shard, key, *args)
            if event is not None:
                # An id is logged as its hex: free to take (no str() of
                # the key three times per task), and a tuple of atomic
                # values is one the cyclic GC untracks.
                field, value = event
                shard.events.append(
                    (self._clock(), kind, getattr(key, "hex", key), field, value)
                )
            if blob is not None and shard.wal_fd is not None:
                wal_seq = self._wal_append(shard, blob)
        finally:
            lock.release()
        # Only synchronous callers pay for durability; the async writer
        # thread appends without committing (write-ahead ordering only
        # promises that *sync* ops — the lineage writes — are on disk
        # before the caller proceeds).  Its records become durable with
        # the next sync commit on the shard, or at :meth:`close`.
        if (
            wal_seq is not None
            and self.wal_sync
            and threading.current_thread() is not self._writer
        ):
            self._wal_commit(shard, wal_seq)
        return result

    def _wal_append(self, shard: ControlShard, blob: bytes) -> int:
        """Append one pre-encoded record (caller holds the shard lock);
        returns its 1-based sequence number."""
        os.write(shard.wal_fd, _LEN.pack(len(blob)) + blob)
        shard.wal_records += 1
        return shard.wal_records

    def _wal_commit(self, shard: ControlShard, seq: int) -> None:
        """Make record ``seq`` durable, batching with concurrent commits.

        ``wal_records`` is only incremented after its ``os.write`` completes
        (under the shard lock), so reading it here — without the lock —
        yields a conservative high-water mark: every record at or below it
        is fully in the page cache and one fsync covers them all.
        """
        if shard.wal_synced >= seq:
            return  # a later thread's commit already covered our record
        with shard.sync_lock:
            if shard.wal_synced >= seq:
                return
            covered = shard.wal_records
            os.fsync(shard.wal_fd)
            if covered > shard.wal_synced:
                shard.wal_synced = covered

    def _wal_encode(self, record: tuple) -> Optional[bytes]:
        try:
            return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            if _wal_pickler is None:
                return None
            try:
                return _wal_pickler.dumps(record)
            except Exception:
                return None

    # ------------------------------------------------------------------
    # Task table (spec-as-lineage)
    # ------------------------------------------------------------------

    def task_put(self, task_id, spec, *, state: str = "submitted", node=None) -> None:
        """Write-ahead lineage record.  SYNCHRONOUS by contract: runtimes
        call this before dispatching, so a crash can always replay."""
        self._apply(*self._task_put_record(task_id, spec, state, node))

    def async_task_put(self, task_id, spec, *, state: str = "submitted", node=None) -> None:
        self._enqueue(self._task_put_record(task_id, spec, state, node))

    def _task_put_record(self, task_id, spec, state, node) -> tuple:
        return (
            task_id, "task_submitted", self._put_task, (spec, state, node),
            ("state", state), "task_put",
        )

    def _put_task(self, shard: ControlShard, task_id, spec, state, node) -> None:
        entry = shard.tasks.get(task_id)
        if entry is None:
            shard.tasks[task_id] = TaskEntry(
                task_id, spec, state, node, {"submitted": self._clock()}
            )
        else:  # resubmission after recovery keeps the attempt count
            entry.spec = spec
            entry.state = state
            entry.node = node

    def task_update(
        self, task_id, *, state: Optional[str] = None, node=None, attempt: bool = False
    ) -> None:
        self._apply(*self._task_update_record(task_id, state, node, attempt))

    def async_task_update(
        self, task_id, *, state: Optional[str] = None, node=None, attempt: bool = False
    ) -> None:
        self._enqueue(self._task_update_record(task_id, state, node, attempt))

    def _task_update_record(self, task_id, state, node, attempt) -> tuple:
        return (
            task_id, "task_state", self._update_task, (state, node, attempt),
            ("state", state or ""), "task_update",
        )

    def _update_task(self, shard: ControlShard, task_id, state, node, attempt) -> None:
        entry = shard.tasks.get(task_id)
        if entry is None:
            entry = shard.tasks[task_id] = TaskEntry(task_id=task_id, spec=None)
        if state is not None:
            entry.state = state
            entry.timestamps[state] = self._clock()
        if node is not None:
            entry.node = node
        if attempt:
            entry.attempts += 1

    def task_get(self, task_id) -> Optional[TaskEntry]:
        return self._apply(task_id, "task_lookup", _snapshot_of, ("tasks",))

    def tasks(self) -> list:
        return self._scan(lambda shard: [e.snapshot() for e in shard.tasks.values()])

    # ------------------------------------------------------------------
    # Object table (directory + inline payloads)
    # ------------------------------------------------------------------

    def object_put(
        self, object_id, *, size: Optional[int] = None, location=None, drop_location=None,
        ready: Optional[bool] = None, producer_task=None, payload: Optional[bytes] = None,
    ) -> None:
        self._apply(*self._object_put_record(
            object_id, size, location, drop_location, ready, producer_task, payload
        ))

    def async_object_put(
        self, object_id, *, size: Optional[int] = None, location=None, drop_location=None,
        ready: Optional[bool] = None, producer_task=None, payload: Optional[bytes] = None,
    ) -> None:
        self._enqueue(self._object_put_record(
            object_id, size, location, drop_location, ready, producer_task, payload
        ))

    def _object_put_record(
        self, object_id, size, location, drop_location, ready, producer_task, payload
    ) -> tuple:
        return (
            object_id, "object_update", self._put_object,
            (size, location, drop_location, ready, producer_task, payload),
            ("ready", bool(ready)), "object_put",
        )

    def _put_object(
        self, shard: ControlShard, object_id, size, location, drop_location,
        ready, producer_task, payload,
    ) -> None:
        entry = shard.objects.get(object_id)
        if entry is None:
            entry = shard.objects[object_id] = ObjectEntry(object_id=object_id)
        if size is not None:
            entry.size = size
        if location is not None:
            entry.locations.add(location)
        if drop_location is not None:
            entry.locations.discard(drop_location)
        if producer_task is not None:
            entry.producer_task = producer_task
        if payload is not None:
            entry.payload = payload
        if ready is not None:
            entry.ready = ready

    def object_get(self, object_id) -> Optional[ObjectEntry]:
        return self._apply(object_id, "object_lookup", _snapshot_of, ("objects",))

    def objects(self) -> list:
        return self._scan(lambda shard: [e.snapshot() for e in shard.objects.values()])

    # ------------------------------------------------------------------
    # Actor table (registry + name index)
    # ------------------------------------------------------------------

    def actor_register(
        self,
        actor_id,
        *,
        spec=None,
        name: Optional[str] = None,
        node=None,
        state: str = "alive",
    ) -> None:
        self._apply(
            actor_id, "actor_registered", self._register_actor,
            (spec, name, node, state), ("name", name or ""), "actor_register",
        )
        if name is not None:
            self._apply(name, "actor_named", self._index_name, (actor_id,), ("name", name))

    def _register_actor(self, shard: ControlShard, actor_id, spec, name, node, state) -> None:
        shard.actors[actor_id] = ActorEntry(
            actor_id=actor_id, spec=spec, name=name, node=node, state=state
        )

    def _index_name(self, shard: ControlShard, name, actor_id) -> None:
        shard.names[name] = actor_id

    def actor_update(
        self, actor_id, *, state: Optional[str] = None, node=None, method_inc: bool = False
    ) -> None:
        self._apply(
            actor_id, "actor_state", self._update_actor, (state, node, method_inc),
            ("state", state or ""), "actor_update",
        )

    def _update_actor(self, shard: ControlShard, actor_id, state, node, method_inc) -> None:
        entry = shard.actors.get(actor_id)
        if entry is None:
            entry = shard.actors[actor_id] = ActorEntry(actor_id=actor_id)
        if state is not None:
            entry.state = state
        if node is not None:
            entry.node = node
        if method_inc:
            entry.methods_submitted += 1

    def actor_get(self, actor_id) -> Optional[ActorEntry]:
        return self._apply(actor_id, "actor_lookup", _snapshot_of, ("actors",))

    def actor_by_name(self, name: str):
        return self._apply(name, "actor_name_lookup", _named_actor)

    def actors(self) -> list:
        return self._scan(lambda shard: [e.snapshot() for e in shard.actors.values()])

    # ------------------------------------------------------------------
    # The async (fire-and-forget) writer — the sim's ``async_*`` idiom
    # ------------------------------------------------------------------

    def _enqueue(self, record: tuple) -> None:
        """Queue one ``_apply`` record for the writer thread."""
        batch = getattr(self._async_batch, "ops", None)
        if batch is not None:
            batch.append(record)
        else:
            self._enqueue_ops([record])

    def _enqueue_ops(self, ops: list) -> None:
        with self._async_cond:
            if self._closed:
                return
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._writer_loop, name="gcs-async-writer", daemon=True
                )
                self._writer.start()
            self._async_pending.extend(ops)
            self._async_unapplied += len(ops)
            if self._async_unapplied > self._async_backlog_max:
                self._async_backlog_max = self._async_unapplied
            self._async_cond.notify_all()

    @contextmanager
    def async_batch(self):
        """Hand the calling thread's ``async_*`` writes to the writer as
        one unit when the block exits — one lock round trip and at most
        one writer wake-up however many ops a burst (a DONE frame, a
        SUBMIT_LOCAL batch) produces.  Order within the thread is kept;
        a nested batch joins the outer one."""
        if getattr(self._async_batch, "ops", None) is not None:
            yield
            return
        ops = self._async_batch.ops = []
        try:
            yield
        finally:
            self._async_batch.ops = None
            if ops:
                self._enqueue_ops(ops)

    def _writer_loop(self) -> None:
        """Apply the whole backlog per wake-up, in enqueue order."""
        cond = self._async_cond
        while True:
            with cond:
                while not self._async_pending:
                    if self._closed:
                        return
                    cond.wait()
                ops, self._async_pending = self._async_pending, []
            for record in ops:
                if not self._async_paused.is_set():
                    self._async_paused.wait()
                try:
                    self._apply(*record)
                except Exception:  # never kill the writer; stats expose backlog
                    pass
            with cond:
                self._async_unapplied -= len(ops)
                cond.notify_all()  # flush() may be waiting for zero

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Drain the async write backlog.  Recovery calls this first so the
        tables reflect every write the dead driver managed to enqueue."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._async_cond:
            while self._async_unapplied > 0:
                if not self._async_paused.is_set():
                    return False  # paused writers never drain
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._async_cond.wait(remaining)
        return True

    # Test hooks: freeze/thaw the writer to model a driver dying with
    # async control writes still in flight.
    def pause_async_writes(self) -> None:
        self._async_paused.clear()
        with self._async_cond:
            self._async_cond.notify_all()  # a waiting flush() must give up

    def resume_async_writes(self) -> None:
        self._async_paused.set()

    # ------------------------------------------------------------------
    # Generations, snapshots, stats
    # ------------------------------------------------------------------

    def register_generation(self) -> int:
        """Hand out the next driver generation (salts the id namespace so a
        recovered driver can never mint an id the dead one already used)."""
        with self._gen_lock:
            self._generation += 1
            generation = self._generation

        self._apply(
            f"generation/{generation}", "driver_generation", _no_mutation,
            (generation,), ("generation", generation), "generation",
        )
        return generation

    @property
    def generation(self) -> int:
        return self._generation

    def _scan(self, collect) -> list:
        out: list = []
        for shard in self._shards:
            with shard.lock:
                out.extend(collect(shard))
        return out

    def snapshot(self) -> dict:
        """Consistent-enough copy of every table, shard by shard."""
        objects: dict = {}
        tasks: dict = {}
        actors: dict = {}
        for shard in self._shards:
            with shard.lock:
                objects.update({k: v.snapshot() for k, v in shard.objects.items()})
                tasks.update({k: v.snapshot() for k, v in shard.tasks.items()})
                actors.update({k: v.snapshot() for k, v in shard.actors.items()})
        return {"objects": objects, "tasks": tasks, "actors": actors}

    def events(self, kind: Optional[str] = None, key=None) -> list:
        """Event records of every shard, oldest first; ``kind`` and
        ``key`` (an id or its hex) filter the flat tuples before any
        record is built."""
        key = getattr(key, "hex", key)
        raw: list = []
        for shard in self._shards:
            with shard.lock:
                raw.extend(
                    e for e in shard.events
                    if (kind is None or e[1] == kind) and (key is None or e[2] == key)
                )
        raw.sort(key=lambda e: e[0])
        return [EventRecord(t, k, {"key": h, f: v}) for t, k, h, f, v in raw]

    def stats(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "ops_total": sum(s.ops for s in self._shards),
            "ops_per_shard": [s.ops for s in self._shards],
            "max_shard_queue": max(s.max_waiting for s in self._shards),
            "contended_ops": sum(s.contended for s in self._shards),
            "event_log_len": sum(len(s.events) for s in self._shards),
            "async_backlog": self._async_unapplied,
            "async_backlog_max": self._async_backlog_max,
            "generation": self._generation,
        }

    # ------------------------------------------------------------------
    # Durability: WAL replay
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, wal_dir: str, *, resume_wal: bool = False) -> "ControlStore":
        """Rebuild a store from the per-shard WAL files in ``wal_dir``.

        ``resume_wal=True`` reopens the logs for appending (continuing the
        same history); the default replays into a memory-only store.
        """
        names = sorted(
            n for n in os.listdir(wal_dir)
            if n.startswith("shard-") and n.endswith(".wal")
        )
        if not names:
            raise FileNotFoundError(f"no shard-*.wal files in {wal_dir!r}")
        records: list = []
        for name in names:
            with open(os.path.join(wal_dir, name), "rb") as fh:
                records.extend(_read_wal(fh))
        store = cls(num_shards=len(names), wal_dir=wal_dir if resume_wal else None)
        store._replaying = True
        replayed = 0
        try:
            for op, key, kwargs in records:
                if store._replay_op(op, key, kwargs):
                    replayed += 1
        finally:
            store._replaying = False
        store.replayed_records = replayed
        return store

    def _replay_op(self, op: str, key, kwargs: dict) -> bool:
        """Re-apply one WAL record through the public mutation API."""
        if op == "task_put":
            kwargs = dict(kwargs)
            spec = kwargs.pop("spec", None)
            self.task_put(key, spec, **{k: v for k, v in kwargs.items() if v is not None})
        elif op == "task_update":
            self.task_update(key, **kwargs)
        elif op == "object_put":
            self.object_put(key, **kwargs)
        elif op == "actor_register":
            self.actor_register(key, **kwargs)
        elif op == "actor_update":
            self.actor_update(key, **kwargs)
        elif op == "generation":
            with self._gen_lock:
                self._generation = max(self._generation, kwargs.get("generation", 0))
        else:
            return False
        return True

    def close(self) -> None:
        if self._closed:
            return
        with self._async_cond:
            self._closed = True  # the writer drains what is pending, then exits
            self._async_cond.notify_all()
        self._async_paused.set()
        if self._writer is not None:
            self._writer.join(timeout=2.0)
        for shard in self._shards:
            if shard.wal_fd is not None:
                try:
                    if self.wal_sync and shard.wal_records > shard.wal_synced:
                        os.fsync(shard.wal_fd)  # async-writer tail records
                    os.close(shard.wal_fd)
                except OSError:
                    pass
                shard.wal_fd = None

    @property
    def closed(self) -> bool:
        return self._closed


def _read_wal(fh: io.BufferedReader) -> Iterator[tuple]:
    while True:
        header = fh.read(_LEN.size)
        if len(header) < _LEN.size:
            return
        (length,) = _LEN.unpack(header)
        blob = fh.read(length)
        if len(blob) < length:
            return  # torn tail write: the crash cut mid-record; stop here
        try:
            yield pickle.loads(blob)
        except Exception:
            return
