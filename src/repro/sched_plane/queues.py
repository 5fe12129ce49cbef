"""The worker-tier queue of the two-level scheduling plane.

One :class:`LocalTaskQueue` per worker, used in two places at once:

* **inside the worker** (``proc`` child process / ``local`` thread) as
  the authoritative run queue the fast path appends to and the worker
  pops from the head of;
* **on the driver** as the *mirror* of each proc worker's queue, built
  from SUBMIT_LOCAL notices — the state that makes stolen and crashed
  tasks recoverable without asking a (possibly dead) worker.

The double life imposes the ownership discipline the steal protocol
relies on: only the queue's owner ever pops the head (so a task the
owner keeps is run exactly once by it), and only the owner grants steals
from the tail (so a task it gives away is provably not also run
locally).  The mirror never decides anything by itself; it is updated in
pipe order by the owner's notices, grants, and results.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class LocalTaskQueue:
    """An ordered task queue with head-pop, tail-steal, and removal.

    Entries are ``(task_id, item)`` pairs; ``item`` is whatever the
    owner runs (a payload dict in the proc worker, a TaskSpec in the
    local runtime and in the driver-side mirrors).  All operations are
    O(1) amortized; the class is unsynchronized — a proc worker touches
    its queue under its send lock (the main thread runs from it, the
    watchdog thread grants from it), mirrors are touched under the
    runtime lock.

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
