"""Driver-tier placement: residency-aware worker choice.

The driver tier of the scheduling plane places a task the same way the
simulated global scheduler does — by scoring candidates through a
:class:`~repro.scheduling.policies.PlacementPolicy` — but its locality
signal comes from real residency instead of modeled transfers: the
:class:`ResidencyTracker` records which worker already holds which
object bytes (its argument cache, or a shared-memory descriptor it has
attached), so placement can prefer the worker where the task's inputs
already live and skip a fetch.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.scheduling.policies import PlacementCandidate, PlacementPolicy
from repro.sched_plane.counters import SchedCounters

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

    def forget_object(self, object_id: Any) -> list:
        """The object was released: it is resident nowhere.  Returns the
        holders that had it (the dist driver tells their nodes)."""
        return [
            holder
            for holder, held in self._held.items()
            if held.pop(object_id, None) is not None
        ]

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
