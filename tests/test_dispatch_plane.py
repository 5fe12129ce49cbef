"""The dispatch plane by itself: no runtime, no worker process, no pipe.

:class:`repro.sched_plane.dispatch.DispatchPlane` is what ``proc`` and
``dist`` ask what runs where, in which frame, and who gives work back.
Here it is driven directly — bare :class:`WorkerSlot` handles, sets
standing in for the lifecycle index and the dependency tracker — so the
frame rule, the one-window rule of an actor's lane, the dry-victim
guard and what a lost worker leaves behind are checked in milliseconds,
and a seeded stream of random operations holds the conservation laws
after every step: each task in exactly one place, each task born on a
worker mirrored as its entry, adopted, or done — one of the three, and
adopted at most once — one window per lane, everything empty at
quiescence.  Three mutants (bugs this code has had, or is one check away
from) must each break it.
``tests/test_dispatch_frames.py`` and ``tests/test_actor_frames.py``
hold the same rules end to end.
"""

import random
import subprocess
import sys
from collections import Counter

import pytest

from repro.core.actors import (
    CREATION_METHOD,
    ActorRegistry,
    build_call_spec,
    build_creation_spec,
)
from repro.core.task import CallTemplate, ResourceRequest, TaskOptions
from repro.obs import SpanCollector
from repro.sched_plane import ResidencyTracker
from repro.sched_plane.dispatch import (
    FRAME_BUDGET_S,
    DispatchPlane,
    WorkerSlot,
)
from repro.utils.ids import IDGenerator

pytestmark = pytest.mark.timeout(60)


class Harness:
    """A plane over fake workers.  ``cancelled`` and ``waiting`` (raw
    task ids) are the lifecycle index and the dependency tracker;
    ``failed`` collects what the plane resolved to an error, and
    ``adoptions`` counts per raw task id what the plane adopted of the
    tasks born on a worker (``born``: their specs and birth nodes)."""

    def __init__(self, workers=2):
        self.ids = IDGenerator(namespace="test-dispatch-plane")
        self.actors = ActorRegistry()
        self.cancelled = set()
        self.waiting = set()
        self.failed = []
        self.born = {}
        self.adoptions = Counter()
        self.plane = DispatchPlane(
            self.actors,
            ResidencyTracker(),
            SpanCollector(enabled=False),
            is_cancelled=lambda task_id: task_id.hex in self.cancelled,
            is_waiting=lambda task_id: task_id.hex in self.waiting,
            fail=lambda spec, error: self.on_fail(spec, error),
            adopt=lambda entry, node: self.on_adopt(entry, node),
        )
        self.templates = {}
        for index in range(workers):
            self.add_worker(index)

    def on_fail(self, spec, error):
        self.failed.append(spec)

    def on_adopt(self, entry, node):
        spec, birth_node = self.born[entry[0]]
        assert node == birth_node  # what the row records and the spec says
        self.adoptions[entry[0]] += 1
        spec.wire = entry  # as the runtime's adoption does
        return spec

    def born_on(self, worker, spec):
        """``worker`` kept ``spec`` on its own queue; returns the wire
        entry the plane mirrors for it."""
        entry = (
            spec.task_id.hex,
            spec.function_id.hex,
            tuple([object_id.hex for object_id in spec.all_return_ids()]),
            b"",
            None,
            None,
        )
        self.born[spec.task_id.hex] = spec, worker.node_id
        self.plane.born_on(worker, entry, spec.all_return_ids())
        return entry

    def add_worker(self, index):
        slot = WorkerSlot(index=index, node_id=self.ids.node_id())
        self.plane.add_worker(slot)
        return slot

    def task(self, function="f", estimate=1e-5):
        """A stateless spec of ``function``, estimated at ``estimate``
        seconds (None: never seen to complete)."""
        template = self.templates.get(function)
        if template is None:
            template = self.templates[function] = CallTemplate(
                None, self.ids.function_id(), function, TaskOptions()
            )
        if estimate is not None:
            self.plane._exec_estimate[template.function_id] = estimate
        return template.stamp(self.ids, (), {})

    def actor(self, home, constructed=True):
        """An actor homed on ``home``; ``constructed``: its constructor
        has run there and been reported."""
        actor_id = self.ids.actor_id()
        creation = build_creation_spec(
            self.ids, actor_id, object, "A", (), {}, ResourceRequest(), None,
            placement_hint=home.node_id,
        )
        record = self.actors.create(actor_id, "A", ResourceRequest(), home.node_id)
        self.plane.open_lane(record, creation)
        self.plane.route(creation)
        if constructed:
            assert self.run_frame(home) == [creation]
            record.instance = object()
        return record

    def call(self, record, method="m", estimate=1e-5, waiting=False):
        """One submitted call of ``record``'s actor: in its lane, and
        routed unless an argument of it is ``waiting``."""
        spec = build_call_spec(self.ids, record, method, (), {}, None)
        if estimate is not None:
            self.plane._exec_estimate[spec.function_id] = estimate
        self.plane.join_lane(record, spec)
        if waiting:
            self.waiting.add(spec.task_id.hex)
        else:
            self.plane.route(spec)
        return spec

    def arrive(self, spec):
        """The argument ``spec`` waited for is in."""
        self.waiting.discard(spec.task_id.hex)
        self.plane.route(spec)

    def ship(self, worker, frame):
        return [
            spec
            for spec, _hex in self.plane.ship(
                worker, [(spec, spec.task_id.hex) for spec in frame]
            )
        ]

    def run_frame(self, worker):
        """Claim, ship and report one whole session of ``worker``."""
        frame = self.ship(worker, self.plane.claim_frame(worker))
        for spec in frame:
            assert self.plane.done(worker, spec.task_id.hex)[0] is spec
        self.plane.idle(worker)
        return frame


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def test_a_frame_stops_at_the_budget():
    h = Harness(workers=1)
    (worker,) = h.plane.workers
    per_task = FRAME_BUDGET_S / 4
    specs = [h.task(estimate=per_task) for _ in range(10)]
    for spec in specs:
        h.plane.route(spec)
    assert h.plane.claim_frame(worker) == specs[:4]
    assert worker.busy
    h.plane.idle(worker)
    assert h.plane.claim_frame(worker) == specs[4:8]


def test_a_function_with_no_estimate_ships_alone():
    h = Harness(workers=1)
    (worker,) = h.plane.workers
    tiny = [h.task() for _ in range(3)]
    unknown = h.task("g", estimate=None)
    after = h.task()
    for spec in (*tiny, unknown, after):
        h.plane.route(spec)
    assert h.plane.claim_frame(worker) == tiny  # it does not ride behind them
    assert h.plane.claim_frame(worker) == [unknown]  # nor they behind it
    assert h.plane.claim_frame(worker) == [after]
    assert h.plane.claim_frame(worker) == []


def test_shipping_registers_the_head_inflight_and_the_tail_in_the_mirror():
    h = Harness(workers=1)
    (worker,) = h.plane.workers
    specs = [h.task() for _ in range(3)]
    for spec in specs:
        h.plane.route(spec)
    assert h.ship(worker, h.plane.claim_frame(worker)) == specs
    assert list(worker.inflight.values()) == specs[:1]
    assert list(worker.mirror.task_ids()) == [s.task_id.hex for s in specs[1:]]
    counters = h.plane.counters
    assert (counters.frames_sent, counters.tasks_shipped) == (1, 3)


def test_an_actors_window_holds_its_own_calls_up_to_a_missing_argument():
    h = Harness(workers=1)
    (worker,) = h.plane.workers
    first, second = h.actor(worker), h.actor(worker)
    mine = [h.call(first) for _ in range(2)]
    other = h.call(second)
    parked = h.call(first, waiting=True)
    behind = h.call(first)
    stateless = h.task()
    h.plane.route(stateless)
    window = h.plane.claim_frame(worker)
    assert window == mine  # not `other`, not past `parked`, nothing stateless
    assert first.lane.open == 2 and list(first.lane.calls) == [parked, behind]
    # The whole window is committed to the worker: nothing in the mirror.
    assert h.ship(worker, window) == mine
    assert list(worker.inflight.values()) == mine and not len(worker.mirror)
    h.plane.idle(worker)
    assert h.plane.claim_frame(worker) == [other]


def test_a_lane_with_a_window_out_dispatches_nothing_until_the_last_settle():
    h = Harness(workers=1)
    (worker,) = h.plane.workers
    record = h.actor(worker)
    window = [h.call(record) for _ in range(2)]
    assert h.ship(worker, h.plane.claim_frame(worker)) == window
    late = h.call(record)  # runnable, and its lane's head
    assert not worker.pinned and h.plane.claim_one(worker) is None
    h.plane.done(worker, window[0].task_id.hex)
    assert record.lane.open == 1 and h.plane.claim_one(worker) is None
    h.plane.done(worker, window[1].task_id.hex)
    assert record.lane.open == 0
    assert h.plane.claim_one(worker) is late


def test_return_unshipped_puts_an_actors_calls_back_in_order():
    h = Harness(workers=2)
    worker, other = h.plane.workers
    record = h.actor(worker)
    calls = [h.call(record) for _ in range(3)]
    stateless = h.task()
    window = h.plane.claim_frame(worker)
    assert window == calls and record.lane.open == 3
    worker.alive = False  # it died between the claim and the send
    assert h.plane.ship(worker, [(spec, None) for spec in window]) == []
    assert list(record.lane.calls) == calls and record.lane.open == 0
    assert not worker.inflight and not len(worker.mirror)
    # A stateless frame goes back through placement.
    h.plane.return_unshipped([stateless])
    assert list(other.placed) == [stateless]


# ----------------------------------------------------------------------
# Cancelling and stealing
# ----------------------------------------------------------------------


def test_a_cancelled_task_is_never_claimed_and_leaves_no_wire_entry():
    h = Harness(workers=2)
    victim, thief = h.plane.workers
    head = h.task()
    h.plane.route(head)
    assert h.ship(victim, h.plane.claim_frame(victim)) == [head]
    born = [h.task() for _ in range(4)]
    entries = [h.born_on(victim, spec) for spec in born]
    assert [victim.mirror.get(spec.task_id.hex) for spec in born] == entries
    # One is cancelled while the victim still queues it (looked up by
    # its return id first, which adopts it in place) ...
    assert h.plane.adopt_producer(born[3].return_object_id) is born[3]
    assert victim.mirror.get(born[3].task_id.hex) is born[3]
    h.cancelled.add(born[3].task_id.hex)
    assert h.plane.cancel(born[3]) is victim
    assert born[3].task_id.hex not in victim.mirror
    # ... two after a grant re-homed them through the global queue: as
    # the next frame's head, and in its tail.
    granted = [spec.task_id.hex for spec in born[:3]]
    assert h.plane.apply_grant(victim, granted) == born[:3]
    h.cancelled.update((born[0].task_id.hex, born[2].task_id.hex))
    assert h.plane.cancel(born[0]) is None  # no worker queues it
    assert h.ship(thief, h.plane.claim_frame(thief)) == [born[1]]
    assert not h.plane._queue and not len(victim.mirror)
    assert list(thief.inflight) == [born[1].task_id.hex]
    assert born[1].wire is entries[1]  # what was shipped: its birth entry
    assert h.plane.done(thief, born[1].task_id.hex) == (born[1], None)
    assert not thief.inflight
    assert h.adoptions == Counter({spec.task_id.hex: 1 for spec in born})


def test_a_victim_that_granted_nothing_is_not_asked_until_its_queue_moves():
    h = Harness(workers=2)
    victim, thief = h.plane.workers
    frame = [h.task() for _ in range(3)]
    victim.placed.extend(frame)
    h.ship(victim, h.plane.claim_frame(victim))
    assert h.plane.request_steal(thief) == (victim, 1)  # half of its tail of 2
    assert h.plane.request_steal(thief) is None  # one request at a time
    assert h.plane.apply_grant(victim, []) == []
    # The mirror still shows two tasks; the worker said it has none to give.
    assert len(victim.mirror) == 2 and h.plane.request_steal(thief) is None
    late = h.task()
    h.born_on(victim, late)
    assert h.plane.request_steal(thief) == (victim, 1)
    # A grant that carries tasks means there may be more.
    assert h.plane.apply_grant(victim, [late.task_id.hex]) == [late]
    assert h.plane.request_steal(thief) == (victim, 1)
    # An idle worker is nobody's victim, whatever its mirror says.
    h.plane.apply_grant(victim, [])
    h.born_on(victim, h.task())
    h.plane.idle(victim)
    assert h.plane.request_steal(thief) is None
    assert h.plane.request_steal(victim) is None  # nor its own


def _busy_victim_with_backlog(tasks):
    """A plane whose worker 0 runs a task with ``tasks`` born behind it."""
    h = Harness(workers=2)
    victim, thief = h.plane.workers
    victim.placed.append(h.task())
    h.ship(victim, h.plane.claim_frame(victim))
    for _ in range(tasks):
        h.born_on(victim, h.task())
    return h, victim, thief


def test_request_steal_asks_a_single_task_backlog_for_its_task():
    """A backlog of one is a victim: the lone queued task on a blocked
    worker may be exactly what that worker waits for."""
    h, victim, thief = _busy_victim_with_backlog(1)
    assert h.plane.request_steal(thief) == (victim, 1)
    h, victim, thief = _busy_victim_with_backlog(0)
    assert h.plane.request_steal(thief) is None  # nothing behind its task


@pytest.mark.parametrize("backlog, asked", [(8, 4), (9, 4), (2, 1), (3, 1)])
def test_request_steal_asks_for_half_the_backlog(backlog, asked):
    h, victim, thief = _busy_victim_with_backlog(backlog)
    assert h.plane.request_steal(thief) == (victim, asked)


def test_a_grant_naming_an_id_no_longer_mirrored_is_dropped():
    h = Harness(workers=2)
    victim, _thief = h.plane.workers
    frame = [h.task() for _ in range(3)]
    victim.placed.extend(frame)
    h.ship(victim, h.plane.claim_frame(victim))
    h.plane.request_steal(_thief)
    gone = frame[1].task_id.hex
    h.plane.done(victim, gone)  # it ran before the request arrived
    rehomed = h.plane.apply_grant(victim, [gone, frame[2].task_id.hex], midtask=True)
    assert rehomed == [frame[2]] and list(h.plane._queue) == [frame[2]]
    assert not victim.steal_outstanding
    counters = h.plane.counters
    assert (counters.tasks_stolen, counters.tasks_recalled) == (1, 1)


def test_an_idle_worker_raids_the_longest_placed_queue():
    h = Harness(workers=3)
    thief, short, long = h.plane.workers
    for victim, count in ((short, 1), (long, 2)):
        victim.placed.extend(h.task() for _ in range(count))
    expected = long.placed[0]
    assert h.plane.claim_frame(thief)[0] is expected
    assert h.plane.counters.tasks_stolen == 1


# ----------------------------------------------------------------------
# Losing a worker
# ----------------------------------------------------------------------


def test_worker_lost_returns_each_task_exactly_once():
    h = Harness(workers=2)
    lost, _other = h.plane.workers
    frame = [h.task() for _ in range(3)]
    lost.placed.extend(frame)
    h.ship(lost, h.plane.claim_frame(lost))
    born, done = h.task(), h.task()
    born_entry = h.born_on(lost, born)
    entry = h.born_on(lost, done)
    assert lost.mirror.get(born.task_id.hex) is born_entry
    # A task born there that reports done was never adopted: its entry
    # is all the plane hands back.
    assert h.plane.done(lost, done.task_id.hex) == (None, entry)
    hinted, plain = h.task(), h.task()
    hinted.placement_hint = lost.node_id
    lost.placed.extend((hinted, plain))
    replacement = h.add_worker(lost.index)
    doomed, replaced = h.plane.worker_lost(lost, replacement)
    assert doomed == [*frame, born]  # inflight, then the mirror; once each
    assert h.adoptions == Counter({born.task_id.hex: 1})  # adopted to be judged
    assert replaced == [hinted, plain] and hinted.placement_hint is None
    assert not lost.alive and not lost.busy
    assert not (lost.inflight or len(lost.mirror) or lost.placed or lost.pinned)
    assert lost.node_id not in h.plane.by_node
    assert h.plane.workers[lost.index] is replacement
    # The adopted spec carries the entry the lineage gate may replay.
    assert born.wire is born_entry


def test_worker_lost_fails_dead_lanes_and_rehomes_live_ones():
    h = Harness(workers=2)
    lost, survivor = h.plane.workers
    dead = h.actor(lost)
    in_flight = h.call(dead)
    assert h.ship(lost, h.plane.claim_frame(lost)) == [in_flight]
    unborn = h.actor(lost, constructed=False)  # its lane waits on `lost`
    runnable, parked = h.call(dead), h.call(dead, waiting=True)
    doomed, replaced = h.plane.worker_lost(lost)  # no successor: its node is gone
    assert doomed == [in_flight] and replaced == []
    assert dead.dead and h.failed == [runnable] and not dead.lane.calls
    # The unconstructed actor moved to the survivor, constructor first.
    assert not unborn.dead and unborn.node_id == survivor.node_id
    assert survivor.actors_bound == 1
    assert [spec.actor_method for spec in h.run_frame(survivor)] == [CREATION_METHOD]
    # The parked call becomes its error when its argument arrives.
    h.arrive(parked)
    assert h.plane.claim_frame(survivor) == [] and h.failed == [runnable, parked]


def test_without_a_survivor_every_actor_homed_there_dies():
    h = Harness(workers=1)
    (lost,) = h.plane.workers
    unborn = h.actor(lost, constructed=False)
    (creation,) = unborn.lane.calls
    h.plane.worker_lost(lost)
    assert unborn.dead and h.failed == [creation]


def test_the_plane_imports_nothing_of_proc_or_dist():
    code = (
        "import sys, repro.sched_plane.dispatch\n"
        "bad = [m for m in sys.modules if m.startswith(('repro.proc', 'repro.dist'))]\n"
        "assert not bad, bad\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# ----------------------------------------------------------------------
# Conservation under a seeded stream of operations
# ----------------------------------------------------------------------


class Fuzz(Harness):
    """A plane driven by random operations — every move a runtime, its
    workers and its faults can make — with the conservation laws
    checked after each one (:meth:`check`) and at quiescence
    (:meth:`drain`)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        super().__init__(workers=self.rng.choice((2, 3)))
        self.tasks = {}  # raw task id -> spec, everything ever submitted
        self.live = set()  # neither settled nor cancelled
        self.gated = {}  # waiting for an argument (``waiting`` is its key set)
        self.held = {}  # worker index -> (kind, frame): claimed, not shipped
        self.window_of = {}  # raw id of a claimed actor call -> its window
        self.asked = {}  # victim index -> (tasks asked for, ``mirror.pushed`` then)
        self.dry = {}  # victim index -> ``mirror.pushed`` when asked in vain
        self.lost = []
        self.finished_unadopted = set()  # born, reported done, never adopted
        # Stateless functions: many per frame, two per frame, alone.
        self.functions = [("tiny", 1e-5), ("half", 0.4 * FRAME_BUDGET_S), ("new", None)]
        self.records = [
            self.actor(self.rng.choice(self.plane.workers), constructed=False)
            for _ in range(self.rng.choice((1, 2)))
        ]
        for record in self.records:
            (creation,) = record.lane.calls
            self.admit(creation)

    # -- bookkeeping ----------------------------------------------------

    def admit(self, spec):
        self.tasks[spec.task_id.hex] = spec
        self.live.add(spec.task_id.hex)

    def settle(self, spec):
        self.live.discard(spec.task_id.hex)

    def on_fail(self, spec, error):
        super().on_fail(spec, error)
        self.settle(spec)
        if self.gated and self.rng.random() < 0.3:
            self.ungate()  # its error was the argument something waited for

    def alive(self, busy=None):
        return [
            w for w in self.plane.workers
            if w.alive and (busy is None or w.busy == busy)
        ]

    # -- the operations -------------------------------------------------

    def submit(self):
        name, estimate = self.rng.choice(self.functions)
        spec = self.task(name, estimate)
        self.admit(spec)
        busy = self.alive(busy=True)
        roll = self.rng.random()
        if roll < 0.3 and busy:
            self.born_on(self.rng.choice(busy), spec)
        elif roll < 0.5:
            self.gate(spec)
        else:
            self.plane.route(spec)

    def call_actor(self):
        """One call of a random actor."""
        slot = self.rng.randrange(len(self.records))
        if self.records[slot].dead and self.rng.random() < 0.5:
            # A new actor in the dead one's place (its lane is checked
            # no more: a dead lane only ever empties).
            self.records[slot] = self.actor(
                self.rng.choice(self.alive()), constructed=False
            )
            return self.admit(self.records[slot].lane.calls[0])
        record = self.records[slot]
        method, estimate = self.rng.choice((("m", 1e-5), ("m", 1e-5), ("slow", None)))
        waiting = self.rng.random() < 0.3
        spec = self.call(record, method, estimate, waiting=waiting)
        self.admit(spec)
        if waiting:
            self.gated[spec.task_id.hex] = spec

    def gate(self, spec):
        self.waiting.add(spec.task_id.hex)
        self.gated[spec.task_id.hex] = spec

    def ungate(self):
        task_hex = self.rng.choice(sorted(self.gated))
        self.arrive(self.gated.pop(task_hex))

    def claim(self, worker):
        """An idle worker's thread claims a frame — or, when the worker
        has tasks parked (in ``inflight``, reported idle), resumes them:
        the session is open again, and nothing is claimed."""
        if worker.busy:
            return
        if worker.inflight and self.rng.random() < 0.5:
            worker.busy = True  # the runtime's late reply
            return
        kind, frame = "session", self.plane.claim_frame(worker)
        assert worker.busy == bool(frame)
        if frame:
            self.held[worker.index] = (kind, worker, frame)
            for spec in frame:
                assert spec.task_id.hex not in self.cancelled
                if spec.actor_id is not None:
                    self.window_of[spec.task_id.hex] = id(frame)

    def ship_held(self, index):
        kind, worker, frame = self.held.pop(index)
        shipped = self.ship(worker, frame)
        for spec in shipped:
            assert spec.task_id.hex not in self.cancelled
        if not shipped and kind == "session" and worker.alive:
            self.plane.idle(worker)

    def report(self, worker):
        """The worker reports one task it was given or kept — or, with
        nothing left, that its queue drained."""
        mirrored = list(worker.mirror.task_ids())
        candidates = [*worker.inflight, *mirrored[:1]]
        parked = not mirrored and self.rng.random() < 0.2
        if not candidates or parked:
            # Nothing left to run — or all it runs is parked: idle.
            if worker.index not in self.held:
                self.plane.idle(worker)
            return
        task_hex = self.rng.choice(candidates)
        spec, payload = self.plane.done(worker, task_hex)
        if spec is None:
            # Born here and never adopted: the entry is all there is —
            # unless the completion needs more (a failure, a result that
            # is not inline bytes), and the runtime adopts it now.
            assert payload[0] == task_hex and not self.adoptions[task_hex]
            if self.rng.random() < 0.2:
                spec = self.plane.adopt(worker, payload)
            else:
                spec = self.tasks[task_hex]
                self.finished_unadopted.add(task_hex)
        assert spec is self.tasks[task_hex]
        self.settle(spec)
        if spec.actor_method == CREATION_METHOD:
            record = self.actors.get(spec.actor_id)
            if not record.dead:
                record.instance = object()

    def steal(self):
        thief = self.rng.choice(self.alive())
        ask = self.plane.request_steal(thief)
        if ask is None:
            return
        victim, count = ask
        assert victim.alive and victim.busy and victim.index not in self.asked
        # The guard: it granted nothing, and nothing reached it since.
        assert self.dry.get(victim.index) != victim.mirror.pushed
        assert 1 <= count <= len(victim.mirror)
        self.asked[victim.index] = (count, victim.mirror.pushed)

    def grant(self, index=None, everything=False):
        index = self.rng.choice(sorted(self.asked)) if index is None else index
        count, pushed = self.asked.pop(index)
        victim = self.plane.workers[index]
        tail = list(victim.mirror.task_ids())[-count:]
        give = tail if everything else tail[len(tail) - self.rng.randint(0, len(tail)):]
        settled = [h for h in self.tasks if h not in self.live and h not in self.cancelled]
        if settled and self.rng.random() < 0.2:
            give = [self.rng.choice(settled), *give]  # it ran before the request
        rehomed = self.plane.apply_grant(victim, give, midtask=self.rng.random() < 0.5)
        assert [s.task_id.hex for s in rehomed] == [h for h in give if h in tail]
        if give:
            self.dry.pop(index, None)
        else:
            self.dry[index] = pushed

    def cancel(self):
        stateless = sorted(h for h in self.live if self.tasks[h].actor_id is None)
        if not stateless:
            return
        task_hex = self.rng.choice(stateless)
        # The runtime looks the task up by a return id first, which
        # adopts one still queued on its birth worker.
        queued = self.unadopted().get(task_hex)
        spec = self.plane.adopt_producer(self.tasks[task_hex].return_object_id)
        assert spec is (self.tasks[task_hex] if queued else spec)
        self.cancelled.add(task_hex)
        self.live.discard(task_hex)
        self.plane.cancel(self.tasks[task_hex])
        if self.rng.random() < 0.3:
            # The notice lost the race: the worker ran it and says so.
            for worker in self.alive(busy=True):
                assert self.plane.done(worker, task_hex)[0] in (None, self.tasks[task_hex])

    def escape(self):
        """A return of a task born on a worker escapes it, or its parent
        ends first: the runtime asks for the producer by that id — on
        the birth worker's mirror alone, or on every one."""
        queued = self.unadopted()
        if not queued:
            return
        task_hex = self.rng.choice(sorted(queued))
        only = queued[task_hex] if self.rng.random() < 0.5 else None
        spec = self.plane.adopt_producer(self.tasks[task_hex].return_object_id, only)
        assert spec is self.tasks[task_hex] and self.adoptions[task_hex] == 1
        assert queued[task_hex].mirror.get(task_hex) is spec  # still queued there

    def unadopted(self):
        """Raw id -> the live worker whose mirror queues it as its wire
        entry: the tasks born on a worker and never adopted."""
        return {
            task_hex: worker
            for worker in self.alive()
            for task_hex in worker.mirror.task_ids()
            if type(worker.mirror.get(task_hex)) is tuple
        }

    def lose(self):
        worker = self.rng.choice(self.alive())
        with_successor = len(self.alive()) < 2 or self.rng.random() < 0.7
        before = [*worker.inflight.values(), *(self.tasks[h] for h in worker.mirror.task_ids())]
        placed = list(worker.placed)
        successor = self.add_worker(worker.index) if with_successor else None
        doomed, replaced = self.plane.worker_lost(worker, successor)
        assert doomed == before and replaced == placed
        assert len({id(spec) for spec in doomed}) == len(doomed)
        self.lost.append(worker)
        self.asked.pop(worker.index, None)
        self.dry.pop(worker.index, None)
        for spec in doomed:
            task_hex = spec.task_id.hex
            if task_hex in self.live and spec.actor_id is None and self.rng.random() < 0.8:
                self.plane.requeue(spec)  # a lineage replay
            else:
                self.settle(spec)  # its error (or its cancellation marker)
        for spec in replaced:
            assert spec.placement_hint != worker.node_id
            self.plane.route(spec)

    def step(self):
        rng = self.rng
        if self.held and rng.random() < 0.6:
            return self.ship_held(rng.choice(sorted(self.held)))
        free = [w for w in self.alive() if w.index not in self.held]
        busy = self.alive(busy=True)
        roll = rng.random()
        if roll < 0.35:
            if len(self.live) < 80:
                self.submit() if rng.random() < 0.6 else self.call_actor()
        elif roll < 0.45:
            if self.gated:
                self.ungate()
        elif roll < 0.58:
            if free:
                self.claim(rng.choice(free))
        elif roll < 0.78:
            if busy:
                self.report(rng.choice(busy))
        elif roll < 0.87:
            self.steal()
        elif roll < 0.95:
            if self.asked:
                self.grant()
        elif roll < 0.97:
            self.cancel()
        elif roll < 0.985:
            self.escape()
        elif roll < 0.99:
            self.lose()

    # -- the laws -------------------------------------------------------

    def check(self):
        plane = self.plane
        where = Counter(spec.task_id.hex for spec in plane._queue)
        out = {}  # actor id -> raw ids of its calls claimed and unreported
        for worker in plane.workers:
            where.update(spec.task_id.hex for spec in worker.placed)
            where.update(worker.mirror.task_ids())
            where.update(list(worker.inflight))
            assert not any(h in self.cancelled for h in worker.mirror.task_ids())
            for spec in worker.inflight.values():
                if spec.actor_id is not None:
                    out.setdefault(spec.actor_id, []).append(spec.task_id.hex)
            for lane in worker.pinned:
                assert lane.queued and worker.alive
                assert lane.record.node_id == worker.node_id
            assert len({id(lane) for lane in worker.pinned}) == len(worker.pinned)
        for _kind, _worker, frame in self.held.values():
            where.update(spec.task_id.hex for spec in frame)
            for spec in frame:
                if spec.actor_id is not None:
                    out.setdefault(spec.actor_id, []).append(spec.task_id.hex)
        for record in self.records:
            where.update(spec.task_id.hex for spec in record.lane.calls)
            if not record.dead:
                calls = out.get(record.actor_id, [])
                # At most one window per lane, and the lane counts it.
                assert len({self.window_of[h] for h in calls}) <= 1, calls
                assert record.lane.open == len(calls)
        for worker in self.lost:
            assert not (worker.inflight or len(worker.mirror) or worker.placed or worker.pinned)
        # Each task is in exactly one place ...
        for task_hex in self.live:
            if task_hex not in self.gated:
                assert where[task_hex] == 1, task_hex
            else:  # nowhere yet — but a live actor's call waits *in* its lane
                assert where[task_hex] <= (self.tasks[task_hex].actor_id is not None)
        # ... a settled one nowhere (a cancelled one until a walk drops it) ...
        for task_hex, count in where.items():
            assert count == 1 and (task_hex in self.live or task_hex in self.cancelled)
        # ... and a task born on a worker is queued there as its entry,
        # adopted, or done unadopted: one of the three, adopted at most
        # once.
        queued = self.unadopted()
        for task_hex, (_spec, birth_node) in self.born.items():
            adopted = self.adoptions[task_hex]
            assert adopted <= 1, task_hex
            states = (
                (task_hex in queued) + adopted + (task_hex in self.finished_unadopted)
            )
            assert states == 1, (task_hex, states)
            if task_hex in queued:
                assert queued[task_hex].node_id == birth_node

    def drain(self):
        """Let everything run to the end; then every table is empty."""
        plane = self.plane
        for _ in range(10_000):
            while self.gated:
                self.ungate()
            for index in sorted(self.asked):
                self.grant(index, everything=True)
            for index in sorted(self.held):
                self.ship_held(index)
            progressed = False
            for worker in self.alive():
                if worker.busy:
                    while worker.inflight or len(worker.mirror):
                        self.report(worker)
                    self.report(worker)  # its idle DONE
                    progressed = True
                else:
                    self.claim(worker)  # (or resume its parked tasks)
                    progressed = progressed or worker.busy or worker.index in self.held
            self.check()
            if not progressed:
                break
        else:
            raise AssertionError("the plane never came to rest")
        assert not self.live, sorted(self.live)
        assert not plane._queue
        for worker in plane.workers:
            assert not (worker.inflight or len(worker.mirror) or worker.placed or worker.pinned)
            assert not worker.busy and not worker.steal_outstanding
        for record in self.records:
            assert not record.lane.calls
            assert record.dead or record.lane.open == 0


def run_seed(seed, ops=2000):
    fuzz = Fuzz(seed)
    fuzz.check()
    for _ in range(ops):
        fuzz.step()
        fuzz.check()
    fuzz.drain()
    return fuzz


@pytest.mark.parametrize("seed", range(8))
def test_conservation_under_a_seeded_op_stream(seed):
    fuzz = run_seed(seed)
    # The stream reached what it is there to reach.
    counters = fuzz.plane.counters
    assert counters.tasks_stolen and counters.frames_sent and fuzz.lost
    assert counters.tasks_shipped > counters.frames_sent  # frames had tails


def caught_within(seeds):
    for seed in range(seeds):
        try:
            run_seed(seed)
        except AssertionError:
            return seed
    return None


def test_mutant_without_the_dry_victim_guard_is_caught(monkeypatch):
    """A victim that granted nothing is asked again at once (found by
    accident in PR 19: ~12 k requests a second at a blocked worker)."""
    forgetful = property(lambda self: -2, lambda self, value: None)
    monkeypatch.setattr(WorkerSlot, "steal_dry_at", forgetful)
    assert caught_within(20) is not None


def test_mutant_losing_a_worker_without_adopting_its_born_tasks_is_caught(monkeypatch):
    """``worker_lost`` forgets to adopt what its worker queued unadopted
    (it drops those entries instead): a task born there that never ran
    would be neither replayed nor failed — its ``get`` would hang."""
    lost = DispatchPlane.worker_lost

    def forgetful(self, worker, successor=None):
        for task_hex in worker.mirror.task_ids():
            if type(worker.mirror.get(task_hex)) is tuple:
                worker.mirror.remove(task_hex)
        return lost(self, worker, successor)

    monkeypatch.setattr(DispatchPlane, "worker_lost", forgetful)
    assert caught_within(20) is not None


def test_mutant_dispatching_a_lane_with_a_window_out_is_caught(monkeypatch):
    """The one-window rule dropped from the lane's wake-up: a parked
    call's successor would run beside it and overtake it."""

    def wake(self, lane):
        home = self.by_node.get(lane.record.node_id)
        if (
            home is not None
            and not lane.queued
            and lane.calls
            and not self._is_waiting(lane.calls[0].task_id)
        ):
            lane.queued = True
            home.pinned.append(lane)
        return home

    monkeypatch.setattr(DispatchPlane, "_wake_lane", wake)
    assert caught_within(20) is not None
