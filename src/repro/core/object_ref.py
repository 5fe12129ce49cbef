"""Futures (Section 3.1, point 1).

An :class:`ObjectRef` is returned immediately by every ``.remote()`` call;
it names the task's eventual return value in the object table.  Passing a
ref as an argument to another remote call creates a dataflow dependency
(R5); calling ``get`` blocks until the value is available.

**Handles are counted.**  On the backends that give memory back (``proc``
and ``dist``) a live ``ObjectRef`` instance is what tells the runtime an
object can still be asked for: the process's :class:`RefLedger` counts
instances per object id, and an object nobody holds — no handle, no task
pin, no worker that could still name it — is released.  Construction,
destruction and pickling each append one event to a ledger deque and do
nothing else: ``__del__`` can run inside any critical section on any
thread, so it never takes a lock and never touches a table; the runtime
applies the events the next time it holds its own lock anyway.  Where no
ledger is installed (``sim``, ``local``, no runtime at all) a ref is the
plain value object it always was.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.utils.ids import ObjectID, TaskID


class RefLedger:
    """One process's record of its live :class:`ObjectRef` instances.

    Three append-only event deques — instances ``born``, instances that
    ``died``, ids whose ref was pickled and so may now exist where this
    process cannot see (``escaped``) — and the ``counts`` table they
    fold into when the owner calls :meth:`drain` (under its own lock;
    one drainer at a time).  ``deque.append`` is atomic under the GIL,
    which is all the synchronization the writers need.  Tables are keyed
    by the id's hex string, like the wire: a ``str`` hashes in C, an id
    object through a Python ``__hash__``, and a drain does four lookups
    per handle.
    """

    __slots__ = ("born", "died", "escaped", "counts", "touched")

    def __init__(self, track_touched: bool = False) -> None:
        self.born: deque = deque()
        self.died: deque = deque()
        self.escaped: deque = deque()
        #: object hex -> live instances, as of the last drain.
        self.counts: dict[str, int] = {}
        #: Every hex a drain saw born, in order (worker processes only:
        #: what a task received or created is what it is asked about
        #: when it ends — the worker swaps in the list of the thread
        #: that runs tasks now); None when not tracked.
        self.touched: Optional[list] = [] if track_touched else None

    def drain(self, escaped: set, died: bool = True) -> list:
        """Fold the buffered events into ``counts`` and ``escaped`` (a
        set of hexes); returns the ids whose last instance died.

        Deaths are applied last, and only as many as were buffered on
        entry: a copy is born before its original can die, so every
        birth that precedes one of those deaths is already in ``born``
        when it is emptied — a count can read too high between drains,
        never too low.  ``died=False`` applies births and escapes only
        (what a release decision needs to be safe)."""
        pending = len(self.died) if died else 0
        counts = self.counts
        born = self.born
        touched = self.touched
        while born:
            key = born.popleft().hex
            counts[key] = counts.get(key, 0) + 1
            if touched is not None:
                touched.append(key)
        marks = self.escaped
        while marks:
            escaped.add(marks.popleft().hex)
        dead = []
        deaths = self.died
        for _ in range(pending):
            object_id = deaths.popleft()
            key = object_id.hex
            left = counts[key] - 1
            if left:
                counts[key] = left
            else:
                del counts[key]
                dead.append(object_id)
        return dead


#: The ledger new refs of this process register with (None: uncounted).
#: Set by the runtime that owns the process — the proc/dist driver, a
#: worker's ``ProcWorker`` — for as long as it lives.
_ledger: Optional[RefLedger] = None


def install_ledger(ledger: Optional[RefLedger]) -> Optional[RefLedger]:
    """Make ``ledger`` the one new refs register with; returns the
    previous one.  Refs keep the ledger they were born under, so a ref
    that outlives its runtime never touches the next runtime's counts."""
    global _ledger
    previous, _ledger = _ledger, ledger
    return previous


class ObjectRef:
    """A future for a (possibly not-yet-computed) immutable object."""

    __slots__ = ("object_id", "producer_task", "_ledger")

    def __init__(
        self, object_id: ObjectID, producer_task: Optional[TaskID] = None
    ) -> None:
        self.object_id = object_id
        #: Task that produces this object; None for driver/worker ``put``s.
        self.producer_task = producer_task
        ledger = self._ledger = _ledger
        if ledger is not None:
            ledger.born.append(object_id)

    @classmethod
    def _uncounted(
        cls, object_id: ObjectID, producer_task: Optional[TaskID] = None
    ) -> "ObjectRef":
        """A ref that names an object without holding it: what a spec
        (and so the lifecycle index, the control store and the WAL)
        keeps of its arguments, so bookkeeping never keeps an object
        alive — task pins do that, for as long as a replay could need
        the argument."""
        ref = cls.__new__(cls)
        ref.object_id = object_id
        ref.producer_task = producer_task
        ref._ledger = None
        return ref

    def __del__(self) -> None:
        try:
            ledger = self._ledger
        except AttributeError:  # the constructor never ran (bad arguments)
            return
        if ledger is not None:
            ledger.died.append(self.object_id)

    def __reduce__(self):
        # Pickled bytes can be unpickled anywhere, any number of times,
        # by processes whose instances this one never sees: the object
        # stays until shutdown.  (The wire protocol's own fields carry
        # ids, not refs, and never come through here.)  Going through
        # the constructor makes the unpickled copy count where it lands.
        ledger = self._ledger
        if ledger is not None:
            ledger.escaped.append(self.object_id)
        return ObjectRef, (self.object_id, self.producer_task)

    def __copy__(self) -> "ObjectRef":
        # An in-process copy is a second handle, not an escape.
        if self._ledger is None:
            return ObjectRef._uncounted(self.object_id, self.producer_task)
        return ObjectRef(self.object_id, self.producer_task)

    def __deepcopy__(self, memo: Any) -> "ObjectRef":
        return self.__copy__()

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not ObjectRef:
            return NotImplemented
        return (
            self.object_id == other.object_id
            and self.producer_task == other.producer_task
        )

    def __hash__(self) -> int:
        return hash((self.object_id, self.producer_task))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectRef({self.object_id.hex[:10]})"

    def future(self):
        """A ``concurrent.futures.Future`` resolving to this ref's value.

        Event-driven on backends that expose completion watching (local,
        proc): one daemon pump thread resolves every outstanding future,
        so a single driver thread can multiplex thousands of in-flight
        calls without a blocking ``get`` per ref.  See
        :func:`repro.serve.async_api.future_for`.
        """
        from repro.serve.async_api import future_for

        return future_for(self)
