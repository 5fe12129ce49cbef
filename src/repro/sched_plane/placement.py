"""Driver-tier placement: residency-aware worker choice.

The driver tier of the scheduling plane places a task the same way the
simulated global scheduler does — by scoring candidates through a
:class:`~repro.scheduling.policies.PlacementPolicy` — but its locality
signal comes from real residency instead of modeled transfers: the
:class:`ResidencyTracker` records which worker already holds which
object bytes (its argument cache, or a shared-memory descriptor it has
attached), so placement can prefer the worker where the task's inputs
already live and skip a fetch.  :func:`choose_worker` is the decision
itself, read off the dispatch plane's worker slots
(:class:`~repro.sched_plane.dispatch.WorkerSlot`).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.scheduling.policies import PlacementCandidate, PlacementPolicy
from repro.sched_plane.counters import SchedCounters

#: How the driver tier scores workers for a task with arguments.
_PLACEMENT = PlacementPolicy()

#: Residency entries remembered per worker.  Workers' caches are LRU
#: byte-budgeted, so the tracker is an approximation either way; a cap
#: keeps the driver-side index bounded no matter how many objects flow.
DEFAULT_RESIDENCY_CAP = 4096


class ResidencyTracker:
    """Which worker holds (a copy of) which object, and how big it is.

    Purely advisory: a stale entry costs one refetch on the worker, never
    correctness, so eviction on the worker side is not mirrored — the
    tracker just forgets oldest-first past ``cap`` entries per worker.
    Objects are keyed by whatever the caller names them with; the live
    runtimes use the id's hex string (hashed in C — every release looks
    its object up here).
    """

    def __init__(self, cap: int = DEFAULT_RESIDENCY_CAP) -> None:
        self._cap = cap
        self._held: dict[Any, dict[Any, int]] = {}  # holder -> {object: size}

    def record(self, holder: Any, object_id: Any, size: int) -> None:
        held = self._held.setdefault(holder, {})
        held.pop(object_id, None)  # re-insert at the fresh end
        held[object_id] = size
        while len(held) > self._cap:
            held.pop(next(iter(held)))

    def forget_holder(self, holder: Any) -> None:
        """A worker died or was replaced: nothing is resident there."""
        self._held.pop(holder, None)

    def forget_object(self, object_id: Any) -> None:
        """The object was released: it is resident nowhere."""
        for held in self._held.values():
            held.pop(object_id, None)

    def holds(self, holder: Any, object_id: Any) -> bool:
        return object_id in self._held.get(holder, ())

    def locality_bytes(
        self, holder: Any, object_ids: Iterable[Any], max_lookups: int
    ) -> int:
        """Bytes of ``object_ids`` resident at ``holder`` (capped scan)."""
        held = self._held.get(holder)
        if not held:
            return 0
        total = 0
        for count, object_id in enumerate(object_ids):
            if count >= max_lookups:
                break
            total += held.get(object_id, 0)
        return total


class WorkerCandidate(PlacementCandidate):
    """Alias making call sites read as worker-tier placement (the shape
    is exactly the sim global scheduler's candidate record)."""


def plan_placement(
    spec: Any,
    candidates: list,
    policy: PlacementPolicy,
    counters: Optional[SchedCounters] = None,
):
    """Choose a worker for one driver-tier placement (or None to queue).

    Thin shared wrapper over :meth:`PlacementPolicy.choose` so every real
    backend scores identically *and* counts identically: a successful
    choice increments ``tasks_placed_global``, and
    ``placement_locality_hits`` when the chosen worker already held some
    of the task's argument bytes.
    """
    chosen = policy.choose(spec, candidates)
    if chosen is None or counters is None:
        return chosen
    counters.tasks_placed_global += 1
    for candidate in candidates:
        if candidate.node_id == chosen and candidate.locality_bytes > 0:
            counters.placement_locality_hits += 1
            break
    return chosen


def _queue_length(worker: Any) -> int:
    return len(worker.placed) + len(worker.mirror) + len(worker.pinned)


def place_without_locality(workers: list, resources: Any) -> Optional[Any]:
    """:meth:`PlacementPolicy.choose` for a task with no argument objects
    and no placement hint, read straight off the worker slots.

    With nothing to be local to, every candidate's locality score is
    zero, and the driver tier estimates an idle worker at one free CPU
    and a busy one at none — so the policy's ordering (capacity fit,
    locality, free CPUs, shortest queue, greatest node id) reduces to:
    among the idle workers, the shortest queue, ties to the greatest node
    id.  None means what it means there: queue globally."""
    if resources.num_cpus > 1 or resources.num_gpus > 0:
        return None
    best = None
    best_length = 0
    for worker in workers:
        if not worker.alive or worker.busy or worker.inflight:
            continue
        length = _queue_length(worker)
        if (
            best is None
            or length < best_length
            or (length == best_length and worker.node_id.hex > best.node_id.hex)
        ):
            best, best_length = worker, length
    return best


def choose_worker(
    spec: Any, workers: list, residency: ResidencyTracker, counters: SchedCounters
) -> Optional[Any]:
    """The driver tier's placement decision for one stateless task: the
    worker slot to place it on, or None for the global spillover queue.

    Every live worker is scored through the shared
    :class:`PlacementPolicy` — idle workers have estimated capacity, and
    residency supplies the locality bytes.  A task with no ref argument
    and no hint has no locality to score and takes
    :func:`place_without_locality`: same choice, no candidates."""
    if not spec.argument_refs() and spec.placement_hint is None:
        home = place_without_locality(workers, spec.resources)
        if home is not None:
            counters.tasks_placed_global += 1
        return home
    dependencies = [dep.hex for dep in spec.dependencies()]
    max_lookups = _PLACEMENT.max_locality_lookups
    alive = [worker for worker in workers if worker.alive]
    candidates = [
        WorkerCandidate(
            node_id=worker.node_id,
            est_cpus=0 if (worker.busy or worker.inflight) else 1,
            est_gpus=0,
            queue_length=_queue_length(worker),
            locality_bytes=residency.locality_bytes(
                worker.index, dependencies, max_lookups
            ),
        )
        for worker in alive
    ]
    chosen = plan_placement(spec, candidates, _PLACEMENT, counters)
    return next((w for w in alive if w.node_id == chosen), None)


def spread_replicas(targets: list, size: int) -> list:
    """Placement hints spreading ``size`` pool replicas across ``targets``.

    The serving plane's ActorPool wants its replicas on distinct
    workers/nodes so one crash takes out one replica, not the pool —
    round-robin over the live targets gives that whenever
    ``size <= len(targets)`` and degrades to even stacking otherwise.
    With no targets at all (a backend that does not expose them) every
    hint is ``None`` and the runtime's own actor placement decides.
    """
    if not targets:
        return [None] * size
    return [targets[i % len(targets)] for i in range(size)]
