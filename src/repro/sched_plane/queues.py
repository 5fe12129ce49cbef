"""The queues of the two-level scheduling plane: a worker's own
(:class:`LocalTaskQueue`), everything the driver queues for one worker
(:class:`WorkerSlot`) and an actor's calls (:class:`ActorLane`).  The
last two are state only: every decision on them is the dispatch plane's
(:mod:`repro.sched_plane.dispatch`).

One :class:`LocalTaskQueue` per worker, used in two places at once:

* **inside the worker** (``proc`` child process / ``local`` thread) as
  the authoritative run queue the fast path appends to and the worker
  pops from the head of;
* **on the driver** as the *mirror* of each proc worker's queue, built
  from SUBMIT_LOCAL notices — the state that makes stolen and crashed
  tasks recoverable without asking a (possibly dead) worker.  A task
  born on the worker is mirrored as its wire entry, findable by its
  return ids, until the driver adopts it (its spec replaces the entry).

The double life imposes the ownership discipline the steal protocol
relies on: only the queue's owner ever pops the head (so a task the
owner keeps is run exactly once by it), and only the owner grants steals
from the tail (so a task it gives away is provably not also run
locally).  The mirror never decides anything by itself; it is updated in
pipe order by the owner's notices, grants, and results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


class LocalTaskQueue:
    """An ordered task queue with head-pop, tail-steal, and removal.

    Entries are ``(task_id, item)`` pairs; ``item`` is whatever the
    owner keeps: the proc worker's own queue holds wire entries, the
    driver's mirror of it a spec for what the driver shipped and the
    wire entry of what the worker kept.  No ``local`` thread or local
    runtime uses the queue (``local`` has one ready list).  All
    operations are O(1) amortized; the class is unsynchronized — a proc
    worker touches its queue under its lock (executor threads run from
    it, the reader thread grants from it), mirrors are touched under
    the runtime lock.

    A task pushed with ``produces=`` (the ids of the objects it will
    return) is also findable by any of them through :meth:`producer_of`:
    what lets an owner blocked on an object run the queued task that
    makes it.  Every way out of the queue retires the task's index
    entries with it, so the index is exactly the queue's contents.

    ``pushed`` counts every task ever pushed.  A mirror's length
    overstates what its worker could still give away (a task the worker
    is running, or has run and not yet reported, is still mirrored), so
    the steal broker remembers the count at which a victim granted
    nothing and does not ask again until it has moved.
    """

    def __init__(self) -> None:
        self._items: dict[Any, Any] = {}  # insertion-ordered (py3.7+)
        self._produces: dict[Any, tuple] = {}  # task id -> its return ids
        self._producer: dict[Any, Any] = {}  # return id -> task id
        self.pushed = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, task_id: Any) -> bool:
        return task_id in self._items

    def push(self, task_id: Any, item: Any, produces: tuple = ()) -> None:
        if task_id in self._items:
            raise ValueError(f"task {task_id} is already queued")
        self._items[task_id] = item
        self.pushed += 1
        if produces:
            self._produces[task_id] = produces
            for return_id in produces:
                self._producer[return_id] = task_id

    def producer_of(self, return_id: Any) -> Optional[Any]:
        """The id of the queued task that returns ``return_id``, if any."""
        return self._producer.get(return_id)

    def get(self, task_id: Any) -> Optional[Any]:
        """A queued task's item, or None."""
        return self._items.get(task_id)

    def replace(self, task_id: Any, item: Any) -> None:
        """Swap a queued task's item, keeping its place and its index
        entries (a driver mirror adopting a worker-born task)."""
        self._items[task_id] = item

    def _unindex(self, task_id: Any) -> None:
        for return_id in self._produces.pop(task_id, ()):
            del self._producer[return_id]

    def pop_head(self) -> Optional[tuple]:
        """The next task to run, oldest first (owner only)."""
        for task_id in self._items:
            self._unindex(task_id)
            return task_id, self._items.pop(task_id)
        return None

    def steal_tail(self, max_count: int) -> list:
        """Give away up to ``max_count`` of the *newest* tasks (owner
        only).  Stealing from the tail keeps the oldest work — the work
        most likely to have dependents waiting — on the worker whose
        cache already holds its arguments."""
        if max_count <= 0:
            return []
        grabbed = []
        for task_id in reversed(list(self._items)):
            if len(grabbed) >= max_count:
                break
            self._unindex(task_id)
            grabbed.append((task_id, self._items.pop(task_id)))
        grabbed.reverse()  # preserve submission order at the new home
        return grabbed

    def remove(self, task_id: Any) -> Optional[Any]:
        """Drop one task by id (cancellation, mirror sync on grant/done);
        returns its item, or None if it was not queued."""
        self._unindex(task_id)
        return self._items.pop(task_id, None)

    def drain(self) -> list:
        """Remove and return everything, oldest first (crash re-homing)."""
        drained = list(self._items.items())
        self._items.clear()
        self._produces.clear()
        self._producer.clear()
        return drained

    def task_ids(self) -> Iterable[Any]:
        return tuple(self._items)


@dataclass
class WorkerSlot:
    """What the plane knows about one worker.  A runtime's handle
    subclasses it with what carries messages there (pipe, thread,
    process); the plane reads and writes these fields only."""

    index: int
    node_id: Any
    #: The lanes (:class:`ActorLane`) of actors pinned to this worker
    #: that have a call to dispatch; drained before the shared queue.
    pinned: deque = field(default_factory=deque)
    #: Specs the worker was handed to *run*, by raw task id (the hex the
    #: wire carries) in hand-over order: the head of each frame — every
    #: call of an actor's window — it has not reported, parked ones
    #: included.
    inflight: dict = field(default_factory=dict)
    #: Stateless tasks the driver tier placed here (locality-aware),
    #: shipped when the worker next idles.
    placed: deque = field(default_factory=deque)
    #: The driver's mirror of the worker's own local queue — tasks born
    #: there (SUBMIT_LOCAL notices, in pipe order; a wire entry until
    #: adopted) and the tails of the frames shipped to it (specs), by raw
    #: task id: what makes stolen and crashed queued tasks recoverable.
    mirror: LocalTaskQueue = field(default_factory=LocalTaskQueue)
    #: Session state: True from claiming a frame for the worker (or
    #: resuming a parked task of it) until its idle DONE.  Only busy
    #: workers are steal victims.
    busy: bool = False
    #: An un-answered STEAL_REQUEST is outstanding for this victim.
    steal_outstanding: bool = False
    #: ``mirror.pushed`` when this victim was last asked, until a grant
    #: that carries tasks resets it: while the two are equal the worker
    #: granted nothing and nothing has reached its queue since
    #: (``DispatchPlane._victim``).
    steal_dry_at: int = -1
    alive: bool = True
    tasks_done: int = 0
    actors_bound: int = 0


@dataclass
class ActorLane:
    """One actor's tasks in submission order — the constructor, then
    every method call: where the actor's order comes from.  It hangs off
    the actor's record (``ActorRecord.lane``, set by
    ``DispatchPlane.open_lane``).

    A task enters at submission, waits for its own arguments only, and
    leaves from the head, in a dispatch frame for the actor's worker.
    That worker runs a frame's calls back to back, so FIFO here plus one
    executor there is the actor's total order — provided the worker
    never holds two frames of one actor at once, which a parked call
    would let the second overtake (it runs on another thread meanwhile):
    while any dispatched call is unreported (``open``), the lane
    dispatches nothing more."""

    record: Any  # its ActorRecord
    #: Submitted, not dispatched yet.
    calls: deque = field(default_factory=deque)
    #: Dispatched (claimed for a frame) and not reported yet.
    open: int = 0
    #: On its worker's ``pinned`` deque (once, however often it is woken).
    queued: bool = False
