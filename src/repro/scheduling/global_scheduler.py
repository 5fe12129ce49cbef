"""Cluster-level (global) scheduler.

Receives tasks spilled over by local schedulers and places them on nodes
"based on global information about factors including object locality and
resource availability" (Section 3.2.2).  Its view of the cluster is the
latest heartbeat row per node — inherently stale by up to one heartbeat
interval — corrected by the assignments it has itself made since each
heartbeat.  When no node has estimated free capacity the task is queued
here and re-attempted as fresh heartbeats arrive, rather than being piled
onto a node that only *looks* idle.
"""

from __future__ import annotations

from typing import Generator

from repro.core.task import TaskSpec, TaskState
from repro.errors import SchedulingError
from repro.scheduling.policies import PlacementCandidate, PlacementPolicy
from repro.sim.core import Delay
from repro.utils.ids import NodeID


class GlobalScheduler:
    """One of possibly several global schedulers on the head node."""

    def __init__(self, runtime, node_id: NodeID, policy: PlacementPolicy) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.node_id = node_id
        self.policy = policy
        #: (virtual time, cpus, gpus) of assignments not yet visible in a
        #: heartbeat, per node.
        self._assignments: dict[NodeID, list] = {}
        self._queue: list[TaskSpec] = []
        self._drain_running = False
        self.tasks_placed = 0
        self.tasks_queued_peak = 0
        self.tasks_unplaceable = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def receive(self, spec: TaskSpec) -> None:
        """Accept a spilled task (non-blocking for the sender)."""
        self.sim.spawn(self._place_proc(spec), name=f"place:{spec.function_name}")

    def _place_proc(self, spec: TaskSpec) -> Generator:
        yield Delay(self.runtime.costs.global_sched_decision)
        if self._queue:
            # FIFO fairness: earlier spilled tasks must not be overtaken
            # by new arrivals that happen to land right after a heartbeat.
            self._queue.append(spec)
            self.tasks_queued_peak = max(self.tasks_queued_peak, len(self._queue))
            return
        placed = yield from self._try_place(spec)
        if placed:
            return
        self._queue.append(spec)
        self.tasks_queued_peak = max(self.tasks_queued_peak, len(self._queue))

    def on_heartbeat(self, _info) -> None:
        """Fresh load report: retry queued placements (no polling)."""
        if self._queue and not self._drain_running:
            self._drain_running = True
            self.sim.spawn(self._drain_once(), name="gs-drain")

    def _drain_once(self) -> Generator:
        """One pass over the queue against the refreshed load view."""
        try:
            pending, self._queue = self._queue, []
            remaining: list[TaskSpec] = []
            for spec in pending:
                placed = yield from self._try_place(spec)
                if not placed:
                    remaining.append(spec)
            # Tasks that arrived mid-drain keep their order after the
            # survivors of this pass.
            self._queue = remaining + self._queue
        finally:
            self._drain_running = False

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _try_place(self, spec: TaskSpec) -> Generator:
        """One placement attempt; returns True if the task was assigned."""
        cp = self.runtime.control_plane
        infos = yield from cp.node_infos(self.node_id)
        live = {
            node_id: info
            for node_id, info in infos.items()
            if self.runtime.node_alive(node_id)
        }
        statically_feasible = [
            info
            for info in live.values()
            if spec.resources.fits_node(info.num_cpus, info.num_gpus)
        ]
        if not statically_feasible:
            self.tasks_unplaceable += 1
            self.runtime.fail_task(
                spec,
                SchedulingError(
                    f"no live node satisfies {spec.resources} for {spec.function_name}"
                ),
            )
            return True  # terminally handled

        # Locality: bytes of this task's arguments resident per node.
        locality_bytes: dict[NodeID, int] = {}
        if self.policy.locality_weight > 0:
            for dep in spec.dependencies()[: self.policy.max_locality_lookups]:
                entry = yield from cp.object_lookup(self.node_id, dep)
                for location in entry.locations:
                    locality_bytes[location] = (
                        locality_bytes.get(location, 0) + entry.size
                    )

        candidates = []
        for info in statically_feasible:
            est_cpus, est_gpus = self._estimate(info)
            candidates.append(
                PlacementCandidate(
                    node_id=info.node_id,
                    est_cpus=est_cpus,
                    est_gpus=est_gpus,
                    queue_length=info.queue_length,
                    locality_bytes=locality_bytes.get(info.node_id, 0),
                )
            )

        target = self.policy.choose(spec, candidates)
        if target is None:
            return False  # cluster currently saturated; queue and retry

        self._record_assignment(target, spec)
        self.tasks_placed += 1
        cp.async_task_set_state(self.node_id, spec.task_id, TaskState.ASSIGNED, node=target)
        cp.log("task_placed", task_id=spec.task_id, node=target,
               function=spec.function_name,
               locality_bytes=locality_bytes.get(target, 0))
        yield Delay(self.runtime.network.latency(self.node_id, target))
        self.runtime.local_scheduler(target).receive_assigned(spec)
        return True

    def _estimate(self, info) -> tuple:
        """Heartbeat availability minus our assignments since that heartbeat."""
        pending = self._assignments.get(info.node_id, [])
        # Assignments the heartbeat already reflects can be forgotten.
        still_pending = [a for a in pending if a[0] >= info.last_heartbeat]
        if len(still_pending) != len(pending):
            self._assignments[info.node_id] = still_pending
        est_cpus = info.available_cpus - sum(a[1] for a in still_pending)
        est_gpus = info.available_gpus - sum(a[2] for a in still_pending)
        return est_cpus, est_gpus

    def _record_assignment(self, node_id: NodeID, spec: TaskSpec) -> None:
        self._assignments.setdefault(node_id, []).append(
            (self.sim.now, spec.resources.num_cpus, spec.resources.num_gpus)
        )

    @property
    def queue_length(self) -> int:
        return len(self._queue)
