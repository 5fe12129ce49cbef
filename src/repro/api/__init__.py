"""The programming model of Section 3.1, plus actors and task lifecycle.

>>> import repro
>>> runtime = repro.init(backend="sim", num_nodes=4, num_cpus=8)
>>> @repro.remote
... def add(x, y):
...     return x + y
>>> ref = add.remote(1, 2)          # non-blocking; returns a future
>>> repro.get(ref)
3
>>> done, pending = repro.wait([ref], num_returns=1, timeout=1.0)
>>> @repro.remote(num_returns=2)
... def divmod_task(a, b):
...     return a // b, a % b
>>> quot, rem = divmod_task.remote(17, 5)   # a tuple of two refs
>>> repro.get(rem)
2
>>> refs = [add.remote(i, i) for i in range(3)]
>>> sorted(repro.get(list(repro.as_completed(refs))))
[0, 2, 4]
>>> repro.shutdown()

The API elements map one-to-one onto the paper's list (1–5) and its
successor systems' extensions (6–8):

1. task creation is non-blocking (``.remote()`` returns a future at once);
2. arbitrary functions are remote tasks, and futures passed as arguments
   create dataflow dependencies (R4, R5);
3. any task can create new tasks without blocking on their completion (R3);
4. ``get`` blocks on a future's value;
5. ``wait(refs, num_returns, timeout)`` returns early completers, letting
   applications bound latency under heterogeneous task durations (R1, R4);
6. ``@remote`` on a **class** declares an actor: ``Cls.remote(...)``
   creates one placed instance and returns an ``ActorHandle`` at once,
   ``handle.method.remote(...)`` submits method calls that execute in
   submission order on the actor's state and return futures like any
   task — the stateful-computation half of the model (R2: shared mutable
   state for, e.g., parameter servers and simulators).  If the node
   holding an actor dies, its pending and future calls raise
   ``ActorLostError`` at ``get`` time.
7. the **backend is a named, capability-tagged choice**, not a property
   of the program: ``init(backend="sim")`` for the deterministic
   simulated cluster, ``"local"`` for real threads, ``"proc"`` for real
   worker *processes* with true parallelism
   (``init("proc", num_workers=4)``), and anything registered through
   ``repro.core.backend.register_backend``.  Static flags
   (``backend_capabilities(name)``: ``true_parallelism``,
   ``virtual_time``, ``fault_injection``, ``multiprocess``) let programs
   and harnesses branch on what a backend guarantees without
   instantiating it; the parity test matrix holds every backend to the
   same observable semantics, including failure semantics (lineage
   replay for stateless tasks, ``ActorLostError`` for lost actors,
   ``WorkerCrashedError`` when replay is off or exhausted).
8. tasks have a **first-class lifecycle** beyond completion, configured
   through one options layer (``TaskOptions`` / ``ActorOptions``, shared
   by ``@remote(...)`` and ``.options(...)``):
   ``num_returns=k`` makes ``.remote()`` return a tuple of k
   independently consumable refs; ``cancel(ref)`` revokes a task — never
   executed if it had not started, result discarded (and
   ``TaskCancelledError`` at ``get``) if it had, refused for actor calls
   whose ordered state history cannot be holed; ``Cls.options(name=...)``
   plus ``get_actor(name)`` give actors runtime-wide names; and
   ``as_completed(refs, timeout=...)`` iterates futures in completion
   order for pipelined consumption — all implemented once in the shared
   core, held to identical observable semantics on every backend.
9. large objects ride a **zero-copy shared-memory data plane**
   (:mod:`repro.shm`, the paper's in-memory object store): on the
   ``proc`` backend, any value whose serialized size exceeds the inline
   threshold is written once into a shared-memory arena and crosses
   every process boundary as a ~100-byte descriptor — workers attach
   the arena lazily and reconstruct numpy arrays as read-only views
   *aliasing* shared memory, never copying the payload.  Sizing comes
   from ``init("proc", shm_capacity=...)`` (0 disables; hosts without
   POSIX shm fall back to the pipe transparently, and
   ``stats()["shm"]`` reports ``shm_hits`` / ``zero_copy_bytes`` /
   ``pipe_fallbacks`` either way).  The programming model is unchanged
   — the same program merely stops paying a serialize+copy round trip
   per large value:

   >>> import repro
   >>> runtime = repro.init(backend="proc", num_workers=1)
   >>> payload = b"w" * (1 << 20)       # 1 MiB: takes the data plane
   >>> weights = repro.put(payload)
   >>> @repro.remote
   ... def nbytes(data):
   ...     return len(data)
   >>> repro.get(nbytes.remote(weights), timeout=60.0)
   1048576
   >>> repro.get(weights) == payload    # identical with shm on or off
   True
   >>> isinstance(runtime.stats()["shm"]["shm_hits"], int)
   True
   >>> repro.shutdown()                 # unlinks every shm segment

10. scheduling is **hybrid and bottom-up** (:mod:`repro.sched_plane`,
    the paper's Section 3.2.2 on real processes; the one dispatch path
    of ``proc`` and ``dist``): every
    worker owns a local task queue — a nested ``.remote()`` whose
    dependencies are already resident on the submitting worker enqueues
    *to that worker itself* with zero driver round-trips, acked
    asynchronously for lineage — while the driver is the global tier:
    it places driver-born and spilled work with locality-aware scoring
    (prefer the worker already holding the argument bytes) and brokers
    idle-worker work stealing, so a fan-out born on one worker still
    spreads across the pool, and a worker blocked in ``get`` on its
    own children runs them itself.  (``local`` keeps one runtime-wide
    ready list and starts a task on whichever node has room for it;
    the policies are ablated on ``sim``, ``scheduler_mode=``.)
    ``stats()["sched"]`` counts where tasks went:

    >>> import repro
    >>> runtime = repro.init(backend="proc", num_workers=2)
    >>> @repro.remote
    ... def leaf(x):
    ...     return x + 1
    >>> @repro.remote
    ... def fan_out(n):            # runs on a worker; children are
    ...     return [leaf.remote(i) for i in range(n)]   # worker-born
    >>> refs = repro.get(fan_out.remote(3), timeout=60.0)
    >>> sorted(repro.get(refs, timeout=60.0))
    [1, 2, 3]
    >>> sched = runtime.stats()["sched"]
    >>> sched["tasks_placed_local"] >= 3   # kept local, zero round trips
    True
    >>> sched["tasks_spilled"]
    0
    >>> repro.shutdown()

11. a **high-QPS serving plane** sits on top of the model
    (:mod:`repro.serve`): ``ref.future()`` / ``await
    repro.get_async(ref)`` resolve futures event-driven off the
    runtime's completion pump (one daemon thread, not one blocking
    ``get`` per call), and :class:`~repro.serve.ActorPool` puts N
    replicas of an actor behind one handle with pluggable routing
    (``round_robin`` / ``least_loaded`` / ``latency_aware``, the last
    weighting queue depth by an EWMA of each replica's observed
    service time so stragglers shed load), automatic micro-batching
    (coalesce up to ``max_batch_size`` calls within ``batch_wait_ms``
    into one vectorized invocation, split back per-call via
    ``num_returns``), queue-depth admission control
    (``Backpressure`` under ``admission="shed"``, caller blocking
    under ``"block"``), and in-place replica respawn on worker loss.
    The sim backend runs a synchronous deterministic mirror of the
    same surface:

    >>> import asyncio, repro
    >>> runtime = repro.init(backend="local", num_nodes=2, num_cpus=2)
    >>> @repro.remote
    ... class Doubler:
    ...     def __call__(self, batch):      # vectorized: list in, list out
    ...         return [2 * x for x in batch]
    >>> pool = repro.ActorPool(Doubler, size=2, max_batch_size=4,
    ...                        batch_wait_ms=1.0, routing="least_loaded")
    >>> futures = [pool.submit(i) for i in range(6)]
    >>> [f.result(timeout=30.0) for f in futures]
    [0, 2, 4, 6, 8, 10]
    >>> pool.stats()["shed"]
    0
    >>> @repro.remote
    ... def square(x):
    ...     return x * x
    >>> asyncio.run(repro.get_async(square.remote(7), timeout=30.0))
    49
    >>> repro.shutdown()

12. the model scales **across node boundaries** unchanged
    (:mod:`repro.dist`): ``init(backend="dist", num_nodes=N)`` starts
    N node-agent processes, each owning its worker processes and a
    node-local shm arena, with the driver attached over TCP.  Large
    results stay *node-resident* — task completion ships a ~100-byte
    descriptor, and an object's bytes cross a node boundary at most
    once per consuming node, on first read (counted in
    ``stats()["cluster"]["internode"]``).  Membership is heartbeat
    based: a node killed with ``kill_node(i)`` — or silently stalled,
    SIGSTOP-style — is detected, its in-flight and node-resident
    stateless work replays on survivors through lineage, its actors
    surface ``ActorLostError``, and objects whose replay budget is
    exhausted surface ``NodeLostError`` instead of hanging.  Every
    backend reports the same ``stats()["cluster"]`` shape (the others
    as a one-node or simulated view), so a harness can branch on
    membership without caring which runtime is live:

    >>> import repro
    >>> runtime = repro.init(backend="dist", num_nodes=2, num_cpus=1)
    >>> @repro.remote
    ... def blob(i):
    ...     return bytes([i]) * (1 << 20)
    >>> refs = [blob.remote(i) for i in range(4)]
    >>> [len(v) for v in repro.get(refs, timeout=60.0)]
    [1048576, 1048576, 1048576, 1048576]
    >>> cluster = runtime.stats()["cluster"]
    >>> (cluster["num_nodes"], cluster["nodes_alive"])
    (2, 2)
    >>> cluster["internode"]["internode_fetches"] >= 1
    True
    >>> repro.shutdown()

13. **every component is stateless — including the driver**
    (:mod:`repro.gcs`): the live backends keep lineage, the object
    directory, and the actor registry in a hash-sharded control store
    (the paper's GCS) that outlives the runtime that created it.
    ``task_put`` is written ahead of dispatch, results small enough to
    inline ride the object table, and ``init(...,
    control_store=store, recover=True)`` rebuilds a *fresh* driver
    from the shards: finished work answers from recovered payloads,
    tasks the dead driver never finished are resubmitted (exactly
    once — write-ahead lineage, generation-salted ids), and lost
    actors surface ``ActorLostError`` rather than silently restarting
    from zero.  ``stats()["control"]`` reports the same shard/op/
    backlog shape on every backend:

    >>> import repro
    >>> runtime = repro.init(backend="proc", num_workers=1, seed=7)
    >>> store = runtime._control          # the GCS outlives the driver
    >>> @repro.remote
    ... def double(x):
    ...     return 2 * x
    >>> refs = [double.remote(i) for i in range(3)]
    >>> repro.get(refs, timeout=60.0)
    [0, 2, 4]
    >>> runtime.fail_driver()             # driver dies mid-session
    >>> repro.shutdown()
    >>> runtime = repro.init(backend="proc", num_workers=1, seed=7,
    ...                      control_store=store, recover=True)
    >>> repro.get(refs, timeout=60.0)     # same refs, new driver
    [0, 2, 4]
    >>> runtime.stats()["control"]["generation"]
    2
    >>> repro.shutdown()
    >>> store.close()

14. the live system is **as inspectable as the sim** (:mod:`repro.obs`):
    ``init(..., tracing=True)`` on any real backend makes every process
    that does work — the driver, each proc worker, each dist node agent
    — record wall-clock task-lifecycle spans into a local buffer,
    flushed out-of-band (piggybacked on messages already in flight) and
    merged driver-side onto one clock-calibrated timeline.  The result
    feeds the *same* ``EventLog`` the sim always had, so one tool chain
    — ``repro.timeline()`` (Chrome ``about:tracing`` JSON),
    ``repro.trace_report()``, ``TaskProfiler``, ``utilization`` — works
    identically on simulated and real runs, and ``stats()["obs"]``
    reports the same shape (``spans_recorded`` / ``spans_dropped`` /
    ``clock_skew_est``) on all four backends.  Recording is off the hot
    path (append to a bounded in-memory buffer; ``tracing=False``
    costs one attribute check) and drops are counted, never silent:

    >>> import repro
    >>> runtime = repro.init(backend="proc", num_workers=2, tracing=True)
    >>> @repro.remote
    ... def work(x):
    ...     return x * x
    >>> repro.get([work.remote(i) for i in range(4)], timeout=60.0)
    [0, 1, 4, 9]
    >>> events = repro.timeline()        # list of Chrome trace events
    >>> sum(e["ph"] == "X" for e in events) >= 4
    True
    >>> obs = runtime.stats()["obs"]
    >>> (obs["enabled"], obs["spans_dropped"])
    (True, 0)
    >>> "task profile" in repro.trace_report()
    True
    >>> repro.shutdown()

All of it runs identically on every registered backend; see
:mod:`repro.core.backend`.
"""

from repro.api.remote_function import RemoteFunction, remote
from repro.api.runtime_context import (
    as_completed,
    cancel,
    get,
    get_actor,
    get_async,
    get_runtime,
    init,
    is_initialized,
    now,
    put,
    shutdown,
    sleep,
    timeline,
    trace_report,
    wait,
)
from repro.core.actors import ActorClass, ActorHandle, ActorMethod, ActorOptions
from repro.core.task import TaskOptions
from repro.serve import ActorPool

__all__ = [
    "init",
    "shutdown",
    "is_initialized",
    "get_runtime",
    "remote",
    "RemoteFunction",
    "TaskOptions",
    "ActorOptions",
    "ActorClass",
    "ActorHandle",
    "ActorMethod",
    "get",
    "get_async",
    "wait",
    "put",
    "cancel",
    "get_actor",
    "as_completed",
    "sleep",
    "now",
    "timeline",
    "trace_report",
    "ActorPool",
]
