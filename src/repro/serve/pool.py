"""ActorPool: N replicas, one handle — routing, micro-batching, admission.

The serving plane's aggregation primitive.  An :class:`ActorPool` wraps
``size`` replicas of one actor class behind a single ``submit`` surface
and composes the pieces a high-QPS serving tier needs:

* **Routing** — ``round_robin`` (skip dead replicas), ``least_loaded``
  (per-replica queue depth, rotating-cursor tie-break so ties never
  re-pick the same blocked replica), or ``latency_aware`` (an EWMA of
  each replica's observed service time weights its queue depth, so a
  slow replica — overloaded node, cold cache, degraded hardware —
  drains to fewer calls instead of stalling its fair share).  Service
  times are measured in the *runtime's* clock, so the policy stays
  deterministic on the simulated backend.
* **Micro-batching** — with ``max_batch_size > 1``, pending calls
  coalesce for up to ``batch_wait_ms`` into one vectorized method
  invocation (``method([v1..vk])`` returning a list of ``k`` results).
  That list comes back as *one* result object, which the pool reads
  once and splits itself: each call gets its element, and a result that
  is not a list of exactly ``k`` values fails every call of the batch
  with :class:`~repro.errors.TaskError`.  A request pays no result
  object, watch or lock hold of its own.
* **Admission control** — ``max_queue_depth`` caps the pool's in-flight
  depth; ``admission="shed"`` rejects the excess with
  :class:`~repro.errors.Backpressure`, ``"block"`` applies the
  backpressure to the submitting thread instead.
* **Replica recovery** — a replica lost to a worker crash is respawned
  in place (up to ``max_reconstructions`` per pool); its *unflushed*
  queued calls re-home to the replacement, while calls already in
  flight on the dead replica fail visibly with
  :class:`~repro.errors.ActorLostError` — never silently dropped
  (actor state is not replayable, per the paper's Section 3.2.1).

On event-driven backends (local, proc, dist) completion arrives via the
runtime's completion pump — one watch per flushed call, whose callback
settles every future of the batch under one hold of the pool lock — and
a single flusher thread owns the batch deadlines.  On the simulated
backend the pool runs a synchronous mirror: no threads, batches flush when full (``batch_wait_ms`` has no
meaning in virtual time) or when a result is demanded, so programs stay
deterministic and backend-portable.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections import deque
from typing import Any, Optional

from repro.core.actors import ActorClass, ActorMethod
from repro.core.object_ref import ObjectRef
from repro.core.worker import returns_mismatch
from repro.errors import ActorLostError, BackendError, Backpressure, TaskError
from repro.sched_plane import spread_replicas

ROUTING_POLICIES = ("round_robin", "least_loaded", "latency_aware")
ADMISSION_POLICIES = ("shed", "block")

#: EWMA smoothing factor for ``latency_aware`` routing: one observation
#: moves the estimate 30% of the way — fast enough to track a replica
#: that degrades mid-flight, smooth enough that one outlier call does
#: not blacklist a healthy replica.
_EWMA_ALPHA = 0.3


class ServeFuture(concurrent.futures.Future):
    """The pool's per-call future.

    Behaves exactly like ``concurrent.futures.Future`` (``result``,
    ``exception``, ``done``, ``add_done_callback``) and is additionally
    awaitable from asyncio.  On the simulated backend the future
    carries a resolver that drives the virtual clock on first demand —
    ``done()`` stays False there until a result is asked for.
    """

    _resolver = None  # sim mirror only; set by the owning pool
    #: The flushed actor call that carries this request — ``(replica,
    #: generation, start time, result ref, the call's futures)``, one
    #: tuple shared by every request of a batch — from its dispatch until
    #: its value is read (None before and after).  The ref keeps the
    #: batch's one result object: a runtime that frees dead objects frees
    #: it once the last request of the batch has its value.
    _call = None
    #: This request's element in its call's result list (batched calls).
    _index = 0

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._resolver is not None and not self.done():
            self._resolver(self)
        return super().result(timeout)

    def exception(self, timeout: Optional[float] = None):
        if self._resolver is not None and not self.done():
            self._resolver(self)
        return super().exception(timeout)

    def __await__(self):
        import asyncio

        if self._resolver is not None and not self.done():
            self._resolver(self)
        return asyncio.wrap_future(self).__await__()


class _Replica:
    """One pool slot: a live handle plus its local serving state."""

    __slots__ = (
        "slot", "handle", "alive", "generation", "inflight",
        "pending", "deadline", "ewma",
    )

    def __init__(self, slot: int, handle: Any) -> None:
        self.slot = slot
        self.handle = handle
        self.alive = True
        #: Bumped on every loss so stale failure callbacks from a dead
        #: incarnation can never kill (or double-respawn) its successor.
        self.generation = 0
        self.inflight = 0  # flushed calls not yet resolved
        self.pending: deque = deque()  # (future, value) awaiting a batch
        self.deadline: Optional[float] = None  # oldest pending's flush time
        #: EWMA of observed per-call service time (runtime clock), None
        #: until the first completion; feeds ``latency_aware`` routing.
        self.ewma: Optional[float] = None

    def depth(self) -> int:
        return self.inflight + len(self.pending)

    def observe(self, service_time: float) -> None:
        """Fold one completed call's service time into the EWMA."""
        if service_time < 0:
            return  # clock went backwards (respawn race): skip the sample
        if self.ewma is None:
            self.ewma = service_time
        else:
            self.ewma += _EWMA_ALPHA * (service_time - self.ewma)

    def expected_drain(self) -> float:
        """Estimated time for a new call to clear this replica: queue
        ahead of it plus itself, each at the observed service time.  An
        unsampled replica scores 0 — optimism routes at least one call
        there, which is what produces its first sample."""
        if self.ewma is None:
            return 0.0
        return (self.depth() + 1) * self.ewma


class ActorPool:
    """``size`` replicas of one actor class behind a single handle."""

    def __init__(
        self,
        actor_class: Any,
        size: int,
        *,
        method: str = "__call__",
        args: tuple = (),
        kwargs: Optional[dict] = None,
        routing: str = "round_robin",
        max_batch_size: int = 1,
        batch_wait_ms: float = 2.0,
        max_queue_depth: Optional[int] = None,
        admission: str = "shed",
        max_reconstructions: int = 3,
    ) -> None:
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"pool size must be a positive int, got {size!r}")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {routing!r}; valid: {list(ROUTING_POLICIES)}"
            )
        if not isinstance(max_batch_size, int) or max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be a positive int, got {max_batch_size!r}"
            )
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission {admission!r}; "
                f"valid: {list(ADMISSION_POLICIES)}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be None or >= 1, got {max_queue_depth!r}"
            )
        if batch_wait_ms < 0:
            raise ValueError(f"batch_wait_ms must be >= 0, got {batch_wait_ms!r}")
        if max_reconstructions < 0:
            raise ValueError(
                f"max_reconstructions must be >= 0, got {max_reconstructions!r}"
            )

        from repro.api import runtime_context

        self._runtime = runtime_context.get_runtime()
        factory = actor_class
        if not isinstance(factory, ActorClass):
            factory = ActorClass(factory)
        self._factory = factory
        self._method = method
        self._init_args = tuple(args)
        self._init_kwargs = dict(kwargs or {})
        self._routing = routing
        self._max_batch_size = max_batch_size
        self._batch_wait = batch_wait_ms / 1000.0
        self._max_queue_depth = max_queue_depth
        self._admission = admission
        self._max_reconstructions = max_reconstructions

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._cursor = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._batches = 0
        self._largest_batch = 0
        self._respawns = 0
        self._inflight_total = 0
        self._dead_error: Optional[BaseException] = None
        #: Sim mirror: accepted-but-unresolved futures, oldest first.
        self._order: deque = deque()

        self._event_driven = callable(
            getattr(self._runtime, "watch_object", None)
        )
        # Validate against the class, not the handle: dunders such as the
        # default ``__call__`` are legal replica methods (the execution
        # side resolves ``getattr(instance, method)``) even though handle
        # attribute access hides them.
        if not callable(getattr(factory.cls, method, None)):
            raise ValueError(
                f"actor {factory.name!r} has no callable method {method!r}"
            )
        hints = spread_replicas(self._replica_hints(), size)
        self._replicas = [
            _Replica(slot, self._spawn_handle(hints[slot]))
            for slot in range(size)
        ]

        self._flusher: Optional[threading.Thread] = None
        if self._event_driven and max_batch_size > 1:
            self._flusher = threading.Thread(
                target=self._flush_loop,
                name=f"repro-serve-flusher-{factory.name}",
                daemon=True,
            )
            self._flusher.start()

        register = getattr(self._runtime, "register_serve_pool", None)
        if callable(register):
            register(self)

    # ------------------------------------------------------------------
    # Replica lifecycle
    # ------------------------------------------------------------------

    def _replica_hints(self) -> list:
        targets = getattr(self._runtime, "replica_targets", None)
        return list(targets()) if callable(targets) else []

    def _spawn_handle(self, hint: Any) -> Any:
        factory = self._factory
        if hint is not None:
            factory = factory.options(placement_hint=hint)
        return factory.remote(*self._init_args, **self._init_kwargs)

    def _replica_lost(
        self, replica: _Replica, generation: int, exc: BaseException
    ) -> None:
        """Respawn (or retire) a lost replica — pool lock held.

        ``generation`` pins the failure to one incarnation: a burst of
        in-flight failures from the same dead replica triggers exactly
        one respawn, and a stale callback arriving after the respawn is
        a no-op.
        """
        if replica.generation != generation or not replica.alive:
            return
        replica.generation += 1
        replica.alive = False
        replica.inflight = 0
        if self._closed or self._respawns >= self._max_reconstructions:
            # Budget exhausted: fail the replica's queued (unflushed)
            # calls visibly rather than leaving them pending forever.
            self._fail_pending_locked(replica, exc)
            replica.deadline = None
            if not any(r.alive for r in self._replicas):
                self._dead_error = exc
            return
        self._respawns += 1
        replica.handle = self._spawn_handle(
            spread_replicas(self._replica_hints(), len(self._replicas))[
                replica.slot
            ]
        )
        replica.alive = True
        # Re-home: queued calls that never reached the dead incarnation
        # flush to the replacement.
        while replica.pending:
            self._flush_replica_locked(replica)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, *args: Any, **kwargs: Any) -> ServeFuture:
        """Route one call into the pool; returns its future immediately.

        With ``max_batch_size == 1`` this is a plain per-call dispatch
        and any signature goes.  With batching enabled a call is one
        *batch element*: exactly one positional argument, no kwargs.
        """
        batching = self._max_batch_size > 1
        if batching and (len(args) != 1 or kwargs):
            raise TypeError(
                "a batched ActorPool call takes exactly one positional "
                f"argument (got args={args!r}, kwargs={kwargs!r}); the "
                f"replica method receives the list of coalesced values"
            )
        with self._cond:
            if self._closed:
                raise BackendError("ActorPool is closed")
            self._admit_locked()
            replica = self._pick_replica_locked()
            future = ServeFuture()
            self._submitted += 1
            self._inflight_total += 1
            if not self._event_driven:
                future._resolver = self._sim_resolve
                self._order.append(future)
            if batching:
                replica.pending.append((future, args[0]))
                future._replica = replica
                if len(replica.pending) >= self._max_batch_size:
                    self._flush_replica_locked(replica)
                elif self._event_driven and replica.deadline is None:
                    replica.deadline = time.monotonic() + self._batch_wait
                    self._cond.notify_all()  # the flusher learns a deadline
                # Sim mirror: a partial batch waits for more calls or for
                # the first result() demand — virtual time has no 2ms.
            else:
                self._dispatch_locked(
                    replica,
                    ActorMethod(replica.handle, self._method).remote(
                        *args, **kwargs
                    ),
                    [future],
                )
            return future

    def map(self, values: Any, timeout: Optional[float] = None) -> list:
        """Submit one call per value and collect results in order."""
        futures = [self.submit(value) for value in values]
        return [future.result(timeout) for future in futures]

    def _admit_locked(self) -> None:
        if self._max_queue_depth is None:
            return
        if self._inflight_total < self._max_queue_depth:
            return
        if self._admission == "shed":
            self._shed += 1
            self._obs_record(
                "serve_shed",
                depth=self._inflight_total,
                cap=self._max_queue_depth,
            )
            raise Backpressure(
                f"in-flight depth {self._inflight_total} at cap "
                f"{self._max_queue_depth}"
            )
        # "block": apply the backpressure to the submitter.
        while self._inflight_total >= self._max_queue_depth:
            if self._closed:
                raise BackendError("ActorPool closed while blocked on admission")
            if self._event_driven:
                # Untimed: every release of in-flight depth (``_settle``,
                # ``_fail_pending_locked`` under it or ``close``) and
                # ``close`` itself notify the cond.
                self._cond.wait()
            else:
                # Sim mirror: drain the oldest outstanding call — the
                # deterministic equivalent of waiting for a completion.
                if not self._order:
                    raise BackendError(
                        "ActorPool admission cap smaller than one batch"
                    )
                self._sim_resolve(self._order.popleft())

    def _obs_record(self, kind: str, **payload: Any) -> None:
        """Serving-plane span, when the runtime has a live collector
        (``tracing=True`` on a real backend); no-op everywhere else."""
        obs = getattr(self._runtime, "_obs", None)
        if obs is not None:
            obs.record(kind, **payload)

    def _pick_replica_locked(self) -> _Replica:
        n = len(self._replicas)
        if self._routing == "round_robin":
            for _ in range(n):
                replica = self._replicas[self._cursor % n]
                self._cursor += 1
                if replica.alive:
                    return replica
        else:  # least_loaded / latency_aware
            by_latency = self._routing == "latency_aware"
            best = None
            best_load = None
            for offset in range(1, n + 1):
                replica = self._replicas[(self._cursor + offset) % n]
                if not replica.alive:
                    continue
                load = (
                    replica.expected_drain() if by_latency else replica.depth()
                )
                if best is None or load < best_load:
                    best, best_load = replica, load
            if best is not None:
                # Rotate the tie-break start so equal-load scans do not
                # keep re-picking one (possibly blocked) replica.
                self._cursor = best.slot
                return best
        raise self._dead_error or BackendError(
            "ActorPool has no live replicas"
        )

    # ------------------------------------------------------------------
    # Batch flushing and dispatch
    # ------------------------------------------------------------------

    def _flush_replica_locked(self, replica: _Replica) -> None:
        """Submit one batch (up to ``max_batch_size``) from the queue."""
        if not replica.pending:
            replica.deadline = None
            return
        records = []
        while replica.pending and len(records) < self._max_batch_size:
            records.append(replica.pending.popleft())
        replica.deadline = (
            None
            if not replica.pending
            else time.monotonic() + self._batch_wait
        )
        k = len(records)
        ref = ActorMethod(replica.handle, self._method).remote(
            [value for _future, value in records]
        )
        self._batches += 1
        self._largest_batch = max(self._largest_batch, k)
        self._obs_record("serve_batch_flush", batch_size=k, replica=replica.slot)
        self._dispatch_locked(replica, ref, [future for future, _value in records])

    def _dispatch_locked(
        self, replica: _Replica, ref: ObjectRef, futures: list
    ) -> None:
        """Track one submitted call and arrange its resolution: one
        watch for the whole batch on the event-driven backends."""
        call = (
            replica, replica.generation,
            self._runtime.now,  # runtime clock: virtual on sim
            ref, futures,
        )
        replica.inflight += len(futures)
        for index, future in enumerate(futures):
            future._call = call
            future._index = index
        if self._event_driven:
            # Fired on the pump thread, with no runtime lock held.
            self._runtime.watch_object(
                ref.object_id, lambda _id: self._settle(call, futures, timeout=0)
            )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _sim_resolve(self, future: ServeFuture) -> None:
        """Sim-mirror resolution: flush, then drive the virtual clock."""
        with self._cond:
            if future.done():
                return
            while future._call is None and future._replica.pending:
                # Still queued in a partial batch: demanding the result
                # is the flush trigger in virtual time.
                self._flush_replica_locked(future._replica)
            if future._call is not None:
                # One request at a time: ``done()`` stays False for the
                # rest of its batch until their results are demanded.
                self._settle(future._call, (future,), timeout=None)

    def _settle(self, call: tuple, futures: Any, timeout: Optional[float]) -> None:
        """Read ``call``'s result object once and finish those of
        ``futures`` it still carries: the whole batch as it arrives (the
        pump's callback, ``timeout=0``), or the one request the virtual
        clock has to be driven for (the sim, None).  Every future it
        takes is finished, whatever the result holds.  A batched call's
        result must be a list of one value per request; an unbatched
        call's result is its request's value."""
        batched = self._max_batch_size > 1
        with self._cond:
            futures = [future for future in futures if future._call is call]
            if not futures:
                return
            for future in futures:
                future._call = None
            replica, generation, started, ref, batch = call
            current = replica.generation == generation
            self._inflight_total -= len(futures)
            if current:
                replica.inflight -= len(futures)
            exc = None
            try:
                value = self._runtime.get(ref, timeout=timeout)
            except BaseException as error:  # noqa: BLE001 - any stored error
                exc = error
            else:
                mismatch = returns_mismatch(len(batch), value) if batched else None
                if mismatch is not None:
                    exc = TaskError(
                        ref.producer_task,
                        f"{self._factory.name}.{self._method}",
                        mismatch,
                    )
            if exc is not None:
                for future in futures:
                    self._finish_locked(future, exc=exc)
                if isinstance(exc, ActorLostError):
                    self._replica_lost(replica, generation, exc)
            else:
                if current:
                    service_time = self._runtime.now - started
                    for _future in futures:  # one sample per request
                        replica.observe(service_time)
                for future in futures:
                    self._finish_locked(
                        future,
                        value=value[future._index] if batched else value,
                    )
            self._cond.notify_all()

    def _fail_pending_locked(self, replica: _Replica, exc: BaseException) -> None:
        """Fail the replica's queued (never dispatched) calls visibly."""
        while replica.pending:
            future, _value = replica.pending.popleft()
            self._inflight_total -= 1
            self._finish_locked(future, exc=exc)

    def _finish_locked(
        self, future: ServeFuture, value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        if future.done():
            return
        if exc is not None:
            self._failed += 1
            future.set_exception(exc)
        else:
            self._completed += 1
            future.set_result(value)
        if self._order and not self._event_driven:
            while self._order and self._order[0].done():
                self._order.popleft()

    # ------------------------------------------------------------------
    # Flusher thread (event-driven batching only)
    # ------------------------------------------------------------------

    def _flush_loop(self) -> None:
        with self._cond:
            while not self._closed:
                now = time.monotonic()
                next_deadline = None
                for replica in self._replicas:
                    if not replica.pending or replica.deadline is None:
                        continue
                    if replica.deadline <= now:
                        try:
                            self._flush_replica_locked(replica)
                        except BaseException:  # noqa: BLE001 - the
                            # flusher must survive a submission error
                            # (e.g. runtime mid-shutdown); the affected
                            # calls fail at pool close.
                            pass
                    elif next_deadline is None or replica.deadline < next_deadline:
                        next_deadline = replica.deadline
                timeout = (
                    None
                    if next_deadline is None
                    else max(0.0, next_deadline - time.monotonic())
                )
                self._cond.wait(timeout=timeout)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        with self._cond:
            return {
                "size": len(self._replicas),
                "alive": sum(1 for r in self._replicas if r.alive),
                "routing": self._routing,
                "max_batch_size": self._max_batch_size,
                "admission": self._admission,
                "max_queue_depth": self._max_queue_depth,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "shed": self._shed,
                "batches": self._batches,
                "largest_batch": self._largest_batch,
                "inflight": self._inflight_total,
                "respawns": self._respawns,
                "queue_depths": [r.depth() for r in self._replicas],
                "service_time_ewma": [r.ewma for r in self._replicas],
            }

    def close(self) -> None:
        """Stop accepting calls, flush queued batches, retire the pool.

        Queued (unflushed) calls are submitted on the way out so nothing
        is silently dropped; event-driven in-flight calls resolve via
        the completion pump (or fail visibly at runtime shutdown), and
        the sim mirror drains deterministically.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for replica in self._replicas:
                while replica.pending and replica.alive:
                    try:
                        self._flush_replica_locked(replica)
                    except BaseException:  # noqa: BLE001 - runtime may
                        break  # already be unusable; fail below instead
                self._fail_pending_locked(
                    replica,
                    self._dead_error
                    or BackendError("ActorPool closed with queued calls"),
                )
            if not self._event_driven:
                while self._order:
                    self._sim_resolve(self._order.popleft())
            self._cond.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=2.0)
