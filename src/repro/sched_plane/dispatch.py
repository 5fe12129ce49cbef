"""The driver's dispatch plane on ``proc`` and ``dist``: what runs where,
in which frame, and who gives work back — in one place.

One :class:`DispatchPlane` per runtime, called under the runtime's lock
(``runtime._dispatch``, the sibling of ``runtime._objects``).  It owns
what the paper's hybrid scheduler (Section 3.2.2) decides on — the
global spillover queue, every worker's :class:`WorkerSlot`, every
actor's :class:`ActorLane` and the execution-time estimates that size a
frame — and answers every question
asked about them.  **Worker handles go in, specs and decisions come
out**: the plane never touches a pipe, a thread, a process or a codec
and imports nothing of ``repro.proc``/``repro.dist``, so all of it can
be driven with fake handles and no process
(``tests/test_dispatch_plane.py``).  The runtime keeps the transport: it
sends the wire entry each task was born with (``TaskSpec.wire``) and
reports back what the worker said.

**A task's way through.**  ``route`` places a runnable stateless task on
a worker or the global queue and wakes an actor call's lane; an idle
worker's service thread claims a budget-sized frame (``claim_frame``) —
idle meaning nothing left to run, however many of its tasks are parked
in a ``get``/``wait``; what was claimed is the claiming thread's alone until ``ship`` registers it on the worker
(or ``return_unshipped`` takes it back); ``done`` settles a reported
completion.  **Giving work back.**  ``request_steal`` picks whom an idle
worker asks for the tail of its queue and ``apply_grant`` re-homes what
the victim names; ``cancel`` takes a task off the queue that mirrors it;
``worker_lost`` says what a lost worker leaves behind.

**A task born on a worker** (``born_on``) is mirrored as the wire entry
its worker announced, and nothing more: the bottom-up promise is that a
task born on a worker and run there costs the global tier nothing.  It
is *adopted* — the runtime's ``adopt(entry, node)`` callback builds its
spec, lifecycle entry, pins and control-store row — only when something
needs more than the entry: a steal grant (``apply_grant``), the loss of
its birth worker (``worker_lost``), or the runtime asking for it by a
return id (``adopt_producer``: a cancel, an escape, its parent ending
first) or at its completion (``adopt``: a failure, a result that is not
inline bytes).  A completion of a task never adopted (``done``) hands
back its entry alone.  The entry is the one its worker built, whatever
becomes of the task: an adopted spec carries it (``TaskSpec.wire``), and
a thief or a replay is shipped it again.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.core.actors import (
    CREATION_METHOD,
    ActorRecord,
    ActorRegistry,
    actor_lost_error_value,
)
from repro.core.task import TaskSpec
from repro.core.worker import ErrorValue
from repro.errors import BackendError
from repro.obs import task_placed
from repro.sched_plane.counters import SchedCounters
from repro.sched_plane.placement import ResidencyTracker, choose_worker
from repro.sched_plane.queues import ActorLane, WorkerSlot
from repro.utils.ids import FunctionID, NodeID

#: Seconds of *estimated* work one TASK frame may carry, and the longest
#: a worker's buffered completion waits for the next task boundary.
FRAME_BUDGET_S = 0.001

#: Floor on a task's estimated cost when sizing a dispatch frame: the
#: measured execution time of a no-op excludes the per-task dispatch
#: work around it, and an estimate near zero would let one frame swallow
#: an entire fan-out.
_MIN_TASK_ESTIMATE_S = 20e-6

#: How many of a function's latest reported execution times its estimate
#: is the median of.  Workers time tasks by the wall clock, so on a busy
#: host a sample now and then includes a context switch and reads ten to
#: a hundred times too long; the median ignores those, and still follows
#: a function that really got slower within three completions — at once
#: when one run exceeds the whole budget (``note_exec_times``).
_ESTIMATE_WINDOW = 5


def predispatch_error(
    actors: ActorRegistry, spec: TaskSpec
) -> Optional[ErrorValue]:
    """Driver-side half of ``resolve_actor_callable``: liveness checks
    that cannot wait for the worker, with identical error text to the
    other backends."""
    record = actors.get(spec.actor_id)
    if record is None:
        cause = f"unknown actor {spec.actor_id}"
    elif record.dead:
        return actor_lost_error_value(spec, record)
    elif spec.actor_method != CREATION_METHOD and record.instance is None:
        cause = (
            f"actor {record.class_name} has no live instance "
            "(its constructor failed or was lost)"
        )
    else:
        return None
    return ErrorValue(
        task_id=spec.task_id,
        function_name=spec.function_name,
        cause_repr=cause,
        chain=(spec.function_name,),
    )


class DispatchPlane:
    """The scheduling state of one pool and every decision on it (module
    docstring).  Unsynchronized: every method runs under the runtime's
    lock.  It speaks back through four callbacks:
    ``is_cancelled(task_id)``, ``is_waiting(task_id)`` (an argument of
    the task is not in yet), ``fail(spec, error)`` (resolve a task
    that will never be sent to an error value — which may route the
    tasks that waited for it, here, reentrantly) and ``adopt(entry,
    node)`` (the spec of a worker-born task's wire entry, born on
    ``node``, with everything the driver keeps of a task built)."""

    def __init__(
        self,
        actors: ActorRegistry,
        residency: ResidencyTracker,
        obs: Any,
        is_cancelled: Callable[[Any], bool],
        is_waiting: Callable[[Any], bool],
        fail: Callable[[TaskSpec, ErrorValue], None],
        adopt: Callable[[tuple, Any], TaskSpec],
    ) -> None:
        self.actors = actors
        self._residency = residency
        self._obs = obs
        self._is_cancelled = is_cancelled
        self._is_waiting = is_waiting
        self._fail = fail
        self._adopt = adopt
        #: The ``stats()["sched"]`` counters.
        self.counters = SchedCounters()
        #: The pool, by worker index (a replacement takes its
        #: predecessor's slot), and its live workers by node id.
        self.workers: list = []
        self.by_node: dict[NodeID, WorkerSlot] = {}
        #: Stateless runnable tasks, drained by whichever worker idles first.
        self._queue: deque = deque()
        #: Estimated execution seconds per registered function or actor
        #: method — the median of the latest times workers reported for
        #: it in DONE frames: what sizes a frame.
        self._exec_estimate: dict[FunctionID, float] = {}
        self._exec_samples: dict[FunctionID, deque] = {}

    # ------------------------------------------------------------------
    # The pool and the actors' homes
    # ------------------------------------------------------------------

    def add_worker(self, worker: WorkerSlot) -> None:
        """Enter a started worker into the pool: at the end, or in the
        slot of the lost worker it replaces."""
        self.workers[worker.index:worker.index + 1] = [worker]
        self.by_node[worker.node_id] = worker

    def _least_loaded(self) -> Optional[WorkerSlot]:
        """The live worker with the fewest actors, ties to the lowest
        index; None when the pool has no live worker."""
        return min(
            (w for w in self.workers if w.alive),
            key=lambda w: (w.actors_bound, w.index),
            default=None,
        )

    def home_for_actor(self, placement_hint: Optional[NodeID]) -> WorkerSlot:
        """Where a new actor lives: the hinted worker if it is alive,
        else the least loaded one."""
        hinted = self.by_node.get(placement_hint)
        if hinted is not None:
            return hinted
        home = self._least_loaded()
        if home is None:
            raise BackendError("no live workers to host the actor")
        return home

    def open_lane(self, record: ActorRecord, creation: Optional[TaskSpec]) -> None:
        """Give a new actor its lane, headed by its constructor — which
        ships alone (nothing estimates it), and no call leaves before it
        is reported.  None: the constructor already failed, unsent, and
        the lane opens empty."""
        self.by_node[record.node_id].actors_bound += 1
        record.lane = ActorLane(record, deque([creation] if creation else ()))

    def join_lane(self, record: ActorRecord, spec: TaskSpec) -> None:
        """A call was submitted: it stands in its actor's lane from now,
        whatever it still waits for.  (A dead actor has no order to
        keep: its calls become errors one by one, through ``route``.)"""
        if not record.dead:
            record.lane.calls.append(spec)

    # ------------------------------------------------------------------
    # Routing runnable work
    # ------------------------------------------------------------------

    def route(self, spec: TaskSpec) -> None:
        """Route a runnable spec to its queue: a stateless one where the
        driver tier places it (:func:`choose_worker`), an actor's call
        before its actor's worker."""
        if self._is_cancelled(spec.task_id):
            return
        if spec.actor_id is None:
            home = choose_worker(
                spec, self.workers, self._residency, self.counters
            )
            (self._queue if home is None else home.placed).append(spec)
            self._obs_placed(spec, home)
            return
        record = self.actors.get(spec.actor_id)
        if record is None or record.dead:
            # Dead/unknown actor: whichever worker claims it resolves it
            # to an error through the pre-dispatch check.
            self._queue.append(spec)
            self._obs_placed(spec, None)
            return
        # It has stood in its actor's lane since submission; being
        # runnable, it may be what the lane's head was waiting for.
        self._obs_placed(spec, self._wake_lane(record.lane))

    def requeue(self, spec: TaskSpec) -> None:
        """A task whose results were lost runs again, through the
        global queue, shipping the entry it was born with."""
        self._queue.append(spec)

    def born_on(self, worker: WorkerSlot, entry: tuple, return_ids: tuple) -> None:
        """A worker kept a nested task on its own queue (the bottom-up
        fast path): mirror the wire entry it built, findable by the
        task's ``return_ids``, until something adopts it."""
        worker.mirror.push(entry[0], entry, return_ids)
        self.counters.tasks_placed_local += 1

    def adopt(self, worker: WorkerSlot, item: Any) -> TaskSpec:
        """The spec of a task mirrored on ``worker``: ``item`` itself, or
        — a wire entry born there — the spec its adoption builds."""
        if type(item) is not tuple:
            return item
        self.counters.tasks_adopted += 1
        return self._adopt(item, worker.node_id)

    def adopt_producer(
        self, object_id: Any, worker: Optional[WorkerSlot] = None
    ) -> Optional[TaskSpec]:
        """Adopt the task that returns ``object_id`` if a mirror — the
        one of ``worker``, or any — queues it unadopted, where it stays;
        its spec, or None: no mirror queues it."""
        for slot in self.workers if worker is None else (worker,):
            task_hex = slot.mirror.producer_of(object_id)
            if task_hex is not None:
                item = slot.mirror.get(task_hex)
                spec = self.adopt(slot, item)
                if spec is not item:
                    slot.mirror.replace(task_hex, spec)
                return spec
        return None

    def _wake_lane(self, lane: ActorLane) -> Optional[WorkerSlot]:
        """Put the lane before its actor's worker if it has something to
        dispatch: a head whose arguments are in, and no call still out.
        Called wherever one of the two may have become true; returns the
        worker (None while the actor is between homes: ``worker_lost``
        wakes its lane again once it has one)."""
        home = self.by_node.get(lane.record.node_id)
        if (
            home is not None
            and not lane.queued
            and not lane.open
            and lane.calls
            and not self._is_waiting(lane.calls[0].task_id)
        ):
            lane.queued = True
            home.pinned.append(lane)
        return home

    def _obs_placed(self, spec: TaskSpec, home: Optional[WorkerSlot]) -> None:
        """One driver-tier placement span; ``home=None`` means the global
        spillover queue, drained by whichever worker idles."""
        if self._obs.enabled:
            task_placed(
                self._obs, spec, None if home is None else f"worker-{home.index}"
            )

    # ------------------------------------------------------------------
    # Claiming a frame for an idle worker
    # ------------------------------------------------------------------

    def claim_frame(self, worker: WorkerSlot) -> list:
        """Pop the specs of this worker's next TASK frame and open its
        session, or return ``[]``: there is nothing for it to run.

        The head is whatever it would have been handed alone; what is
        queued behind it rides along while the frame's *estimated* work
        stays within :data:`FRAME_BUDGET_S` — the one frame rule, on
        every wire backend.  Behind a stateless head that is stateless
        tasks (what the estimate gets wrong the worker gives back: its
        reader answers steal requests while the head runs); behind an actor call, the following
        calls of the *same* lane whose arguments are in, all counted
        against it as dispatched (``ActorLane.open``).  A function or
        method with no estimate yet (so every constructor), or one
        estimated over the budget, therefore ships alone."""
        head = self.claim_one(worker)
        if head is None:
            return []
        worker.busy = True
        frame = [head]
        lane = None
        if head.actor_id is not None:
            lane = self.actors.get(head.actor_id).lane
        spent = self._estimate(head)
        while spent is not None and spent < FRAME_BUDGET_S:
            room = FRAME_BUDGET_S - spent
            spec = (
                self.claim_one(worker, room) if lane is None
                else self._take_call(lane, room)
            )
            if spec is None:
                break
            frame.append(spec)
            spent += self._estimate(spec)
        return frame

    def claim_one(
        self, worker: WorkerSlot, room: Optional[float] = None
    ) -> Optional[TaskSpec]:
        """The next spec this worker may run, or None: the head of a
        pinned actor's lane first (a window of one opens on it), then a
        stateless task — off its placed queue, then the global queue,
        then the longest placed queue of a peer, which lives on the
        driver: a deque pop.  With ``room`` (a frame's tail): only a
        stateless task estimated to fit it, off the worker's own placed
        queue or the global one; one that does not fit stays where it
        is.  A task cancelled
        while queued is dropped on the way; a dead actor's call (only
        those take the global queue) becomes its error."""
        while room is None and worker.pinned:
            lane = worker.pinned.popleft()
            lane.queued = False
            spec = self._take_call(lane)
            if spec is not None:
                return spec
        while True:
            source, victim = worker.placed or self._queue, None
            if not source:
                if room is None:
                    victim = self._victim(worker, wire=False)
                if victim is None:
                    return None
                source = victim.placed
            spec = source[0]
            if self._is_cancelled(spec.task_id):
                source.popleft()
                continue
            if spec.actor_id is not None:
                source.popleft()
                self._fail(spec, predispatch_error(self.actors, spec))
                continue
            if room is not None and not self._fits(spec, room):
                return None
            source.popleft()
            if victim is not None:
                self._stolen(
                    spec, victim, thief=f"worker-{worker.index}", wire=False
                )
            return spec

    def _take_call(
        self, lane: ActorLane, room: Optional[float] = None
    ) -> Optional[TaskSpec]:
        """Pop the lane's next call into its open window, or None: its
        arguments are not in, or (``room``) it is not estimated to fit.
        Calls that fail their pre-dispatch checks (the constructor
        failed) resolve to that error on the way."""
        while lane.calls:
            spec = lane.calls[0]
            if self._is_waiting(spec.task_id):
                break
            if room is not None and not self._fits(spec, room):
                break
            lane.calls.popleft()
            error = predispatch_error(self.actors, spec)
            if error is None:
                lane.open += 1
                return spec
            self._fail(spec, error)
        return None

    def _estimate(self, spec: TaskSpec) -> Optional[float]:
        """Estimated execution seconds of one task for frame sizing; None
        with nothing to go on (a function or actor method not yet seen
        to complete, a constructor, a worker-born one-off function id)."""
        estimate = self._exec_estimate.get(spec.function_id)
        if estimate is None:
            return None
        return max(estimate, _MIN_TASK_ESTIMATE_S)

    def _fits(self, spec: TaskSpec, room: float) -> bool:
        cost = self._estimate(spec)
        return cost is not None and cost <= room

    def note_exec_times(self, function_id: FunctionID, samples: list) -> None:
        """Fold one DONE frame's execution times of one function into
        its estimate: the upper median of the latest few — with an even
        count it errs high."""
        recent = self._exec_samples.get(function_id)
        if recent is None:
            recent = self._exec_samples[function_id] = deque(
                maxlen=_ESTIMATE_WINDOW
            )
        recent.extend(samples)
        estimate = sorted(recent)[len(recent) // 2]
        slowest = max(samples)
        if slowest >= FRAME_BUDGET_S:
            # A run that filled a frame's budget by itself is believed
            # at once: the cost may follow the arguments.
            estimate = max(estimate, slowest)
        self._exec_estimate[function_id] = estimate

    # ------------------------------------------------------------------
    # Shipping, and taking back what was not shipped
    # ------------------------------------------------------------------

    def ship(self, worker: WorkerSlot, frame: list) -> list:
        """A claimed frame is about to be sent: register it on the
        worker and return what to send — ``frame`` and the result are
        ``(spec, entry)`` pairs, the entry being the caller's to send.

        A task cancelled since the claim is dropped, unshipped.  The
        head joins the worker's ``inflight`` table (it runs on arrival),
        the tail its mirror (queued there: stealable, cancellable,
        re-homable) — unless the frame is an actor's window, which is
        ``inflight`` whole: the worker runs it through without queueing
        it, so it is committed there and lost with the actor if the
        worker dies.  A worker that died since the claim gets nothing:
        the frame goes back where it was claimed from."""
        if not worker.alive:
            self.return_unshipped([spec for spec, _entry in frame])
            return []
        shipped = [
            (spec, entry) for spec, entry in frame
            if not self._is_cancelled(spec.task_id)
        ]
        if not shipped:
            return shipped
        head = shipped[0][0]
        worker.inflight[head.task_id.hex] = head
        for spec, _entry in shipped[1:]:
            if head.actor_id is None:
                worker.mirror.push(spec.task_id.hex, spec)
            else:
                worker.inflight[spec.task_id.hex] = spec
        self.counters.frames_sent += 1
        self.counters.tasks_shipped += len(shipped)
        if self._obs.enabled:
            span = {
                "worker": f"worker-{worker.index}",
                "size": len(shipped),
                "est_ms": 1e3 * sum(
                    self._estimate(spec) or 0.0 for spec, _entry in shipped
                ),
            }
            if head.actor_method not in (None, CREATION_METHOD):
                span["actor"] = str(head.actor_id)
            self._obs.record("task_frame", **span)
        return shipped

    def return_unshipped(self, specs: list) -> None:
        """A claimed frame whose worker died before it was sent goes
        back where it was claimed from: stateless tasks to the plane, an
        actor's to the front of its lane, in order — or, the actor
        having died with the worker, to their error."""
        for spec in reversed(specs):
            if spec.actor_id is None:
                self.route(spec)
                continue
            lane = self.actors.get(spec.actor_id).lane
            lane.open -= 1
            if lane.record.dead:
                self._queue.append(spec)
            else:
                lane.calls.appendleft(spec)
                self._wake_lane(lane)

    def settle(self, spec: TaskSpec) -> None:
        """One dispatched task is accounted for — reported done, or
        resolved to an error unsent; the last one of an actor's window
        lets the lane dispatch again."""
        if spec.actor_id is None:
            return
        lane = self.actors.get(spec.actor_id).lane
        lane.open -= 1
        if not lane.open:
            self._wake_lane(lane)

    def done(self, worker: WorkerSlot, task_hex: str) -> tuple:
        """One completion of a DONE frame: take the task off the
        worker's inflight table (handed over to run) or its mirror
        (queued there: locally-born, or shipped ahead in a frame) and
        settle it.  Returns ``(spec, None)``, or ``(None, entry)`` for a
        worker-born task never adopted (its wire entry is all there is),
        or ``(None, None)`` for a task cancelled (and taken off the
        mirror) while it ran."""
        item = worker.inflight.pop(task_hex, None)
        if item is None:
            item = worker.mirror.remove(task_hex)
            if item is None:
                return None, None
        worker.tasks_done += 1
        if type(item) is tuple:
            return None, item
        if item.actor_id is not None:
            self.settle(item)
        return item, None

    def idle(self, worker: WorkerSlot) -> None:
        """The worker reported its queue drained (or was sent nothing
        after all): its session is over."""
        worker.busy = False

    # ------------------------------------------------------------------
    # Stealing, cancelling, losing a worker
    # ------------------------------------------------------------------

    def _victim(self, thief: WorkerSlot, wire: bool) -> Optional[WorkerSlot]:
        """The live worker with the most to take from (ties to the
        lowest index), or None: by its placed queue, which lives here on
        the driver, or — ``wire`` — by the mirror of its own queue, if
        it can be asked now: it is busy and owes no answer yet.

        A prompt answer must not become a request loop.  The mirror
        counts tasks the victim is running or has not reported yet, so
        its length can promise a tail that is not there: a victim that
        granted nothing is not asked again until something new was
        pushed to its mirror (a frame's tail, a SUBMIT_LOCAL)."""
        best, most = None, 0
        for worker in self.workers:  # (a lost one's slot is empty and idle)
            if not wire:
                size = len(worker.placed)
            elif (
                not worker.busy
                or worker.steal_outstanding
                or worker.steal_dry_at == worker.mirror.pushed
            ):
                continue
            else:
                size = len(worker.mirror)
            if size > most and worker is not thief:
                best, most = worker, size
        return best

    def _stolen(self, spec: TaskSpec, victim: WorkerSlot, **how: Any) -> None:
        """Count one task moved off ``victim``, and say ``how`` in a span."""
        self.counters.tasks_stolen += 1
        if self._obs.enabled:
            self._obs.record(
                "task_stolen",
                task_id=str(spec.task_id),
                victim=f"worker-{victim.index}",
                **how,
            )

    def request_steal(self, thief: WorkerSlot) -> Optional[tuple]:
        """Choose whom ``thief`` asks for the tail of its local queue:
        ``(victim, how many tasks)`` for the caller to send as a
        STEAL_REQUEST, or None.  A backlog of one task is worth asking
        for (it may be the very task its blocked worker waits for), and
        a steal takes half the backlog, at least one: the classic split
        that halves imbalance per round without ping-ponging tasks.  At
        most one request per victim is outstanding; :meth:`apply_grant`
        takes the answer."""
        victim = self._victim(thief, wire=True)
        if victim is None:
            return None
        victim.steal_outstanding = True
        victim.steal_dry_at = victim.mirror.pushed
        return victim, max(1, len(victim.mirror) // 2)

    def apply_grant(
        self, victim: WorkerSlot, task_hexes: list, midtask: bool = False
    ) -> list:
        """The victim gave up the tail of its local queue: re-home those
        tasks through the global queue and return them.  The victim is
        the queue's only executor, so everything granted is provably not
        running there; ids missing from the mirror were cancelled in the
        meantime and stay dropped.  ``midtask``: a task held the
        victim's token when its reader answered — these were recalled
        from behind it."""
        victim.steal_outstanding = False
        if task_hexes:
            victim.steal_dry_at = -1  # it may have more to give
        rehomed = []
        for task_hex in task_hexes:
            item = victim.mirror.remove(task_hex)
            if item is None:
                continue
            spec = self.adopt(victim, item)
            if self._is_cancelled(spec.task_id):
                continue
            self._stolen(spec, victim, wire=True, midtask=midtask)
            if midtask:
                self.counters.tasks_recalled += 1
            self._queue.append(spec)
            rehomed.append(spec)
        return rehomed

    def cancel(self, spec: TaskSpec) -> Optional[WorkerSlot]:
        """Evict a cancelled task from the worker queue that mirrors it
        and return that worker, which is owed a CANCEL_NOTICE so that it
        drops the task before running it.  The driver's own queues
        (global, placed) need nothing: every walk drops what was
        cancelled (the dispatch-time drop: its marker owns its slots)."""
        task_hex = spec.task_id.hex
        for worker in self.workers:
            if worker.alive and worker.mirror.remove(task_hex) is not None:
                return worker
        return None

    def worker_lost(
        self, worker: WorkerSlot, successor: Optional[WorkerSlot] = None
    ) -> tuple:
        """What every way of losing a worker comes to: empty its slot,
        kill the actors whose state lived there, move the others.
        ``successor`` is the replacement that took its place in the pool;
        with None (its node is gone) the least loaded survivor stands
        in, and with no survivor every actor homed there dies.  The
        queued calls of actors that are dead now become their
        ActorLostError here, those whose arguments are in (one still
        waiting gets there through ``route`` when its argument does).
        Returns ``(doomed, replaced)``:

        * ``doomed`` — the tasks that died with it, for the lineage
          gate: ``inflight`` (parked tasks too) and the whole mirror (it has
          every task of the dead local queue: SUBMIT_LOCAL precedes
          everything else on the pipe, frame tails are mirrored before
          the frame is sent, a grant never delivered removed nothing),
          each one born there adopted first.
          A shipped-ahead task may have run with its report still
          buffered in the dead process, so each counts as a replay.
        * ``replaced`` — what the driver had only placed on it, to be
          routed again (no replay budget consumed: they never reached
          the worker), a placement hint at the dead worker cleared."""
        worker.alive = worker.busy = worker.steal_outstanding = False
        self.by_node.pop(worker.node_id, None)
        doomed = list(worker.inflight.values())
        doomed += [
            self.adopt(worker, item) for _task_hex, item in worker.mirror.drain()
        ]
        worker.inflight.clear()
        # Lanes waiting here for dispatch go back to standing nowhere.
        for lane in worker.pinned:
            lane.queued = False
        worker.pinned.clear()
        replaced = list(worker.placed)
        worker.placed.clear()
        for spec in replaced:
            if spec.placement_hint == worker.node_id:
                spec.placement_hint = None
        self.actors.mark_dead_on_node(worker.node_id)
        for spec in doomed:
            record = self.actors.get(spec.actor_id)
            if record is not None and not record.dead:
                # Its constructor was mid-run: the half-built state died
                # with the process.
                self.actors.mark_lost(record)
        if successor is None:
            successor = self._least_loaded()
        failed = []
        for record in self.actors.on_node(worker.node_id):
            lane = record.lane
            if successor is None and not record.dead:
                self.actors.mark_lost(record)
            if record.dead:
                # The lane is emptied into errors and stays empty.
                failed += [
                    (spec, record) for spec in lane.calls
                    if not self._is_waiting(spec.task_id)
                ]
                lane.calls = deque()
            else:
                # Unconstructed (the rest died above): its constructor
                # never ran, so it moves with no state lost — a lane goes
                # where its record points, runnable yet or not.
                record.node_id = successor.node_id
                successor.actors_bound += 1
                self._wake_lane(lane)
        for spec, record in failed:  # last: a fail may route work here
            self._fail(spec, actor_lost_error_value(spec, record))
        return doomed, replaced
