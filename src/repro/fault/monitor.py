"""Failure detection and node-level recovery.

The monitor runs on the head node next to the control plane.  Local
schedulers heartbeat their load periodically; a node silent for longer
than the heartbeat timeout is declared dead, at which point the monitor
(1) drops the dead node's entries from the object table, and (2) re-places
every task the task table last saw on that node — possible precisely
because all components except the database are stateless (Section 3.2.1).
"""

from __future__ import annotations

from typing import Generator

from repro.core.task import TaskState
from repro.sim.core import Delay
from repro.utils.ids import NodeID


class FailureMonitor:
    """Detects dead nodes from missed heartbeats and recovers their work."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.node_id = runtime.head_node_id
        self.nodes_declared_dead: list[NodeID] = []
        self.tasks_recovered = 0

    def run(self) -> Generator:
        """Periodic detection loop (spawned by the runtime)."""
        costs = self.runtime.costs
        cp = self.runtime.control_plane
        while True:
            yield Delay(costs.heartbeat_interval)
            infos = yield from cp.node_infos(self.node_id)
            now = self.sim.now
            for node_id, info in sorted(infos.items(), key=lambda kv: kv[0].hex):
                if node_id in self.nodes_declared_dead:
                    continue
                # Pure failure detection: silence alone condemns a node —
                # the monitor has no side channel to "true" liveness.
                # (Live nodes heartbeat every interval, both periodically
                # and on task completion, so silence is reliable here.)
                silent_for = now - info.last_heartbeat
                if silent_for > costs.heartbeat_timeout:
                    yield from self._declare_dead(node_id)

    def _declare_dead(self, node_id: NodeID) -> Generator:
        """Mark the node dead and recover its control state."""
        runtime = self.runtime
        cp = runtime.control_plane
        self.nodes_declared_dead.append(node_id)
        yield from cp.mark_node_dead(self.node_id, node_id)
        cp.log("failure_detected", node=node_id, at=self.sim.now)

        # Drop the dead node from every object-table row.  Bulk scan —
        # charged as one op per affected object.
        for entry in cp.store.objects():
            if node_id in entry.locations:
                yield from cp.object_remove_location(
                    self.node_id, entry.object_id, node_id
                )

        # Re-place tasks orphaned on the dead node.  Their specs live in
        # the task table (that row is the lineage), so recovery is a
        # resubmission, not a rollback.
        orphaned = yield from cp.tasks_on_node(
            self.node_id, node_id, TaskState.PENDING
        )
        for entry in sorted(orphaned, key=lambda e: e.task_id.hex):
            if entry.spec is None:
                continue
            cp.async_task_set_state(self.node_id, entry.task_id, TaskState.LOST)
            cp.log("task_orphaned", task_id=entry.task_id, node=node_id)
            runtime.resubmit(entry.spec)
            self.tasks_recovered += 1
