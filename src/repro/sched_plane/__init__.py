"""The real (non-simulated) two-level scheduling plane (Section 3.2.2).

The paper's hybrid bottom-up scheduler exists twice in this repo: once as
a *model* inside the virtual-time simulator (:mod:`repro.scheduling`) and
— in this package — once as the *mechanism* by which the backends
that execute on real processes dispatch (``proc``, and ``dist`` on top
of it; the threaded ``local`` backend shares memory between its nodes
and needs one ready list, not two tiers — it reports the same
counters).  The package holds the mechanism whole, not just its queues:

* :mod:`~repro.sched_plane.dispatch` — the :class:`~repro.sched_plane.
  dispatch.DispatchPlane` a driver asks, under its lock, every
  scheduling question: route a runnable task, claim a budget-sized
  frame for an idle worker (one whose tasks are all parked is idle too), register
  what was shipped, settle a completion, pick a steal victim and apply
  its grant, drop a cancelled task, say what a lost worker leaves
  behind.  It touches no pipe, thread or process: worker handles go in,
  specs and decisions come out.
* :mod:`~repro.sched_plane.queues` — the state it decides on: a worker's
  own :class:`LocalTaskQueue` (the run queue inside the worker, and the
  driver's *mirror* of it), everything the driver queues for one worker
  (``WorkerSlot``) and an actor's calls in order (``ActorLane``).
* :mod:`~repro.sched_plane.placement` — the driver tier's choice of a
  worker, through the *same* policies the simulator ablates
  (:class:`~repro.scheduling.policies.PlacementPolicy`), with locality
  scores computed from a :class:`ResidencyTracker` of which worker
  already holds which argument bytes.
* :mod:`~repro.sched_plane.counters` — every decision counted in a
  :class:`SchedCounters`, surfaced through ``runtime.stats()["sched"]``,
  which is what the scheduler ablation benchmarks assert against.

Three moves make the two tiers.  **Worker tier**: work born on a worker
whose dependencies are already resident there is enqueued *to the worker
itself* with zero driver round-trips (the bottom-up fast path); the
driver learns about it asynchronously, for lineage only.  **Driver
tier**: everything else (driver-born work, worker spillover, crash
re-homing) is placed by the driver, on a worker or on the global queue
whichever worker idles first drains.  **Work stealing**: idle workers
pull half the tail of a busy worker's queue
(:meth:`~repro.sched_plane.dispatch.DispatchPlane.request_steal`), so a
fan-out kept local by the fast path still spreads across the pool.
Stealing exists only here, as constant code: the simulator's model of
the scheduler never steals.
"""

from repro.sched_plane.counters import SchedCounters
from repro.sched_plane.placement import (
    ResidencyTracker,
    WorkerCandidate,
    plan_placement,
    spread_replicas,
)
from repro.sched_plane.queues import LocalTaskQueue

__all__ = [
    "LocalTaskQueue",
    "SchedCounters",
    "ResidencyTracker",
    "WorkerCandidate",
    "plan_placement",
    "spread_replicas",
]
