"""Scheduling policies: when to spill over, and where to place.

These encode the design choices DESIGN.md calls out for ablation:
spillover thresholds for local schedulers and locality-aware placement
for global schedulers.  The frozen policy objects are init options of
the virtual-time simulator (:mod:`repro.scheduling`), where the
ablations run; the real two-level plane of the proc/dist backends
(:mod:`repro.sched_plane`) places with one fixed
:class:`PlacementPolicy`.  Work stealing is the plane's alone, as
constant code (:meth:`~repro.sched_plane.dispatch.DispatchPlane.request_steal`):
the sim never steals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.task import TaskSpec
from repro.utils.ids import NodeID


@dataclass(frozen=True)
class SpilloverPolicy:
    """Local scheduler's keep-or-spill decision.

    mode:
        ``"hybrid"`` — keep tasks locally while the backlog is below
        ``queue_threshold`` × node CPU slots, spill the rest (the paper's
        design); ``"always_spill"`` — forward everything to the global
        scheduler (models a fully centralized scheduler, the CIEL/Dask
        architecture the paper contrasts against); ``"never_spill"`` —
        keep everything that can physically run here (pure node-local
        execution, no load balancing).

    Regardless of mode, a task whose static resource demand cannot ever be
    met by this node (e.g. a GPU task on a CPU-only node) must spill.
    """

    mode: str = "hybrid"
    queue_threshold: float = 1.0

    _MODES = ("hybrid", "always_spill", "never_spill")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"unknown spillover mode {self.mode!r}; want one of {self._MODES}")
        if self.queue_threshold < 0:
            raise ValueError(f"negative queue threshold: {self.queue_threshold}")

    def should_spill(
        self,
        spec: TaskSpec,
        node_cpus: int,
        node_gpus: int,
        backlog: int,
        this_node: NodeID,
    ) -> bool:
        """Decide for one runnable task on one node."""
        if spec.placement_hint is not None and spec.placement_hint != this_node:
            return True
        if not spec.resources.fits_node(node_cpus, node_gpus):
            return True
        if self.mode == "always_spill":
            return True
        if self.mode == "never_spill":
            return False
        return backlog >= self.queue_threshold * node_cpus


@dataclass
class PlacementCandidate:
    """A scheduler's working estimate for one feasible node.

    Built by the global scheduler from heartbeats (corrected by its own
    recent assignments) and by the runtimes' actor-placement path from
    live scheduler state; :meth:`PlacementPolicy.choose` scores either.
    """

    node_id: NodeID
    est_cpus: int
    est_gpus: int
    queue_length: int
    locality_bytes: int = 0


@dataclass(frozen=True)
class PlacementPolicy:
    """Global scheduler's node choice for a spilled task.

    The scheduler hands the policy one *candidate* per statically-feasible
    node, carrying its estimated free CPUs/GPUs (latest heartbeat corrected
    by the scheduler's own recent assignments), its reported queue length,
    and the bytes of the task's arguments already resident there.

    Scoring (higher wins): estimated capacity fit first — a node without
    estimated free slots is only eligible if *no* node has free slots
    (in which case the scheduler queues instead); then argument locality
    (weighted by ``locality_weight``; 0 disables locality awareness); then
    most estimated free CPUs; then shortest queue; node id breaks the final
    tie for determinism.
    """

    locality_weight: float = 1.0
    #: Locality lookups cost one control-plane op per argument; cap them.
    max_locality_lookups: int = 4

    def __post_init__(self) -> None:
        if self.locality_weight < 0:
            raise ValueError(f"negative locality weight: {self.locality_weight}")
        if self.max_locality_lookups < 0:
            raise ValueError("max_locality_lookups must be >= 0")

    def choose(self, spec: TaskSpec, candidates: list) -> Optional[NodeID]:
        """Pick a target among candidates; None to queue-and-retry later."""
        if not candidates:
            return None
        if spec.placement_hint is not None:
            for candidate in candidates:
                if candidate.node_id == spec.placement_hint:
                    return candidate.node_id
        with_capacity = [
            c
            for c in candidates
            if spec.resources.fits(c.est_cpus, c.est_gpus)
        ]
        if not with_capacity:
            return None

        def score(candidate):
            return (
                self.locality_weight * candidate.locality_bytes,
                candidate.est_cpus,
                -candidate.queue_length,
                candidate.node_id.hex,  # deterministic final tie-break
            )

        return max(with_capacity, key=score).node_id
