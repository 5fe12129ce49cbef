"""Event-driven object-completion notifications (the serving plane's core).

The blocking primitives (``get``/``wait``) park one thread per call, which
caps how many requests a driver can keep in flight.  The serving plane
(:mod:`repro.serve`) instead *watches* objects: a runtime calls
:meth:`CompletionPump.notify` at the moment it stores an object — under
its own lock, O(1) when nobody is watching — and the pump invokes the
registered callbacks on a single dedicated dispatcher thread, outside
every runtime lock.  One pump thread therefore multiplexes the
completions of thousands of in-flight requests with no polling and no
per-call thread.

Runtimes that support watching expose::

    runtime.watch_object(object_id, callback)   # callback(object_id)

with the guarantee that the callback fires exactly once — immediately
(still via the pump thread) if the object is already resident, else on
the store that makes it resident, or at shutdown (so no watcher can hang
on a runtime that will never produce the object).  The simulated backend
deliberately does not: it is single-threaded and virtual-time, so the
serving layer degrades to synchronous, deterministic resolution there.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable


class CompletionPump:
    """Registry of object watches plus the dispatcher thread firing them.

    ``add_watch``/``notify`` are called with the owning runtime's lock
    held; the internal deque hand-off is what lets callbacks run without
    that lock (callbacks may re-enter the runtime, e.g. to read the value
    they were told about).  The dispatcher thread is started lazily on
    the first watch, so runtimes that never serve pay nothing.
    """

    def __init__(self, name: str = "repro-completion-pump") -> None:
        self._name = name
        self._watches: dict[Any, list[Callable[[Any], None]]] = {}
        self._fired: deque = deque()
        self._event = threading.Event()
        self._spawn_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stopped = False
        self.watches_added = 0
        self.callbacks_fired = 0

    # -- producer side (runtime lock held) -----------------------------

    def add_watch(
        self, object_id: Any, callback: Callable[[Any], None], *, ready: bool
    ) -> None:
        """Register one exactly-once callback for ``object_id``.

        ``ready`` is the runtime's residency check at registration time;
        a ready object's callback is queued to the dispatcher at once
        (never invoked inline — the caller holds the runtime lock).
        """
        self.watches_added += 1
        if ready or self._stopped:
            self._fired.append((callback, object_id))
            self._wake()
        else:
            self._watches.setdefault(object_id, []).append(callback)

    def notify(self, object_id: Any) -> None:
        """An object became resident: queue its watchers, if any."""
        if not self._watches:
            return
        callbacks = self._watches.pop(object_id, None)
        if callbacks:
            self._fired.extend((cb, object_id) for cb in callbacks)
            self._wake()

    # -- dispatcher ----------------------------------------------------

    def _wake(self) -> None:
        if self._thread is None and not self._stopped:
            with self._spawn_lock:
                if self._thread is None and not self._stopped:
                    thread = threading.Thread(
                        target=self._run, name=self._name, daemon=True
                    )
                    self._thread = thread
                    thread.start()
        self._event.set()

    def _run(self) -> None:
        while True:
            self._event.wait()
            self._event.clear()
            while self._fired:
                callback, object_id = self._fired.popleft()
                self.callbacks_fired += 1
                try:
                    callback(object_id)
                except BaseException:  # noqa: BLE001 - a watcher must
                    pass  # never take down the shared dispatcher
                # A watcher holds the ref it resolves (that is what keeps
                # the object until it is read): let go of it now, not
                # when the next completion happens to arrive.
                callback = None
            if self._stopped and not self._fired:
                return

    def stop(self) -> None:
        """Shutdown: fire every still-pending watch (the callback will
        observe the closed runtime and fail its request visibly rather
        than hang), then stop the dispatcher."""
        pending = list(self._watches.items())
        self._watches.clear()
        for object_id, callbacks in pending:
            self._fired.extend((cb, object_id) for cb in callbacks)
        if self._fired and self._thread is None:
            self._wake()
        self._stopped = True
        self._event.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def snapshot(self) -> dict:
        return {
            "watches_added": self.watches_added,
            "callbacks_fired": self.callbacks_fired,
            "watches_pending": sum(len(v) for v in self._watches.values()),
        }


def serve_stats(pools, pump: CompletionPump | None = None) -> dict:
    """The ``stats()["serve"]`` section every runtime exposes: per-pool
    snapshots plus pool-wide aggregates (and the pump's counters on the
    event-driven runtimes)."""
    snapshots = [pool.stats() for pool in pools]
    section = {
        "pools": snapshots,
        "submitted": sum(s["submitted"] for s in snapshots),
        "completed": sum(s["completed"] for s in snapshots),
        "failed": sum(s["failed"] for s in snapshots),
        "shed": sum(s["shed"] for s in snapshots),
        "batches": sum(s["batches"] for s in snapshots),
    }
    if pump is not None:
        section["completion_pump"] = pump.snapshot()
    return section
