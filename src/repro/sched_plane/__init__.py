"""The real (non-simulated) two-level scheduling plane (Section 3.2.2).

The paper's hybrid bottom-up scheduler exists twice in this repo: once as
a *model* inside the virtual-time simulator (:mod:`repro.scheduling`) and
— since this package — once as the *mechanism* by which the backends
that execute on real processes dispatch (``proc``, and ``dist`` on top
of it; the threaded ``local`` backend shares memory between its nodes
and needs one ready list, not two tiers — it reports the same
counters).  Two tiers:

* **Worker tier** — every worker owns a :class:`LocalTaskQueue`.  Work
  born on a worker whose dependencies are already resident there is
  enqueued *to the worker itself* with zero driver round-trips (the
  bottom-up fast path); the driver learns about it asynchronously, for
  lineage only.
* **Driver tier** — everything else (driver-born work, worker spillover,
  crash re-homing) is placed by the driver through the *same*
  policies the simulator ablates (:class:`~repro.scheduling.policies.
  SpilloverPolicy`, :class:`~repro.scheduling.policies.PlacementPolicy`),
  with locality scores computed from a :class:`ResidencyTracker` of which
  worker already holds which argument bytes.
* **Work stealing** — idle workers pull from the tails of busy workers'
  queues (:class:`~repro.scheduling.policies.StealPolicy`), so a fan-out
  kept local by the fast path still spreads across the pool.

Every placement decision is counted in a :class:`SchedCounters` surfaced
through ``runtime.stats()["sched"]``, which is what the scheduler
ablation benchmarks assert against.
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
