"""The sim's control plane: a cost model in front of the live control store.

Every accessor is a generator *operation*: a caller process runs
``result = yield from cp.object_lookup(node, oid)`` and pays (1) the
network hop to the head node, (2) queueing at the hash-selected shard,
(3) the per-operation service time, and (4) the hop back.  Then the op
applies itself to the same :class:`~repro.gcs.store.ControlStore` the
live backends run, on the sim's clock (exposed as ``runtime._control``).
Fire-and-forget variants (``async_``) spawn the same operation as a
detached process so that hot paths (e.g. task submission) are not
blocked on control state writes — mirroring how the prototype wrote to
Redis asynchronously.

What the live store has no use for stays here: readiness subscriptions,
node heartbeat rows and their listeners, and the sim's
:class:`~repro.store.event_log.EventLog` (its determinism record).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.cluster.costs import SystemCosts
from repro.cluster.network import NetworkModel
from repro.gcs.store import ControlStore
from repro.gcs.tables import NodeInfo, ObjectEntry, TaskEntry
from repro.sim.core import Delay, Resource, Simulator
from repro.store.event_log import EventLog
from repro.utils.ids import FunctionID, NodeID, ObjectID, TaskID

__all__ = ["ControlPlane", "NodeInfo", "ObjectEntry", "TaskEntry"]


class ControlPlane:
    """The logically-centralized control state of Figure 3."""

    def __init__(
        self, sim: Simulator, network: NetworkModel, costs: SystemCosts,
        head_node: NodeID, num_shards: int = 4,
    ) -> None:
        self.store = ControlStore(num_shards, clock=lambda: sim.now)
        self.store.register_generation()
        self.sim = sim
        self.network = network
        self.costs = costs
        self.head_node = head_node
        self.event_log = EventLog()

        self._shards = [
            Resource(sim, capacity=1, name=f"gcs-shard-{i}") for i in range(num_shards)
        ]
        #: Latest heartbeat row per node.
        self.nodes: dict[NodeID, NodeInfo] = {}
        #: (node_id, callback) pairs per object awaiting readiness.
        self._ready_subs: dict[ObjectID, list] = {}
        self._heartbeat_listeners: list = []

        #: Modelled counters (the store's own measure lock contention,
        #: which a single-threaded sim never has).
        self.ops_total = 0
        self.ops_per_shard = [0] * num_shards
        self._shard_waiting = [0] * num_shards
        self.max_shard_queue = 0
        self.contended_ops = 0
        self._async_inflight = 0
        self.async_backlog_max = 0

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------

    def _op(self, from_node: NodeID, key: Any, apply_fn: Callable[[], Any]) -> Generator:
        """One control-plane RPC: hop in, queue, service, apply, hop back."""
        yield Delay(self.network.latency(from_node, self.head_node))
        shard_index = self.store.shard_index(key)
        shard = self._shards[shard_index]
        if shard.in_use >= shard.capacity:
            self.contended_ops += 1
        self._shard_waiting[shard_index] += 1
        if self._shard_waiting[shard_index] > self.max_shard_queue:
            self.max_shard_queue = self._shard_waiting[shard_index]
        yield shard.request()
        self._shard_waiting[shard_index] -= 1
        try:
            yield Delay(self.costs.gcs_op_service)
            result = apply_fn()
            self.ops_total += 1
            self.ops_per_shard[shard_index] += 1
        finally:
            shard.release()
        yield Delay(self.network.latency(self.head_node, from_node))
        return result

    def _async(self, op: Generator, name: str) -> None:
        """Run an operation as a detached fire-and-forget process."""
        self.sim.spawn(self._tracked_async(op), name=name)

    def _tracked_async(self, op: Generator) -> Generator:
        self._async_inflight += 1
        if self._async_inflight > self.async_backlog_max:
            self.async_backlog_max = self._async_inflight
        try:
            yield from op
        finally:
            self._async_inflight -= 1

    def control_stats(self) -> dict:
        """The uniform ``stats()["control"]`` section: the store's, with
        the modelled counters in place of its lock counters."""
        return {
            **self.store.stats(),
            "ops_total": self.ops_total,
            "ops_per_shard": list(self.ops_per_shard),
            "max_shard_queue": self.max_shard_queue,
            "contended_ops": self.contended_ops,
            "event_log_len": len(self.event_log),
            "async_backlog": self._async_inflight,
            "async_backlog_max": self.async_backlog_max,
        }

    def log(self, kind: str, **payload: Any) -> None:
        """Append to the event log at the current virtual time (R7)."""
        self.event_log.append(self.sim.now, kind, **payload)

    # ------------------------------------------------------------------
    # Object table
    # ------------------------------------------------------------------

    def _object(self, object_id: ObjectID) -> ObjectEntry:
        return self.store.object_get(object_id) or ObjectEntry(object_id=object_id)

    def object_add_location(
        self, from_node: NodeID, object_id: ObjectID, node_id: NodeID, size: int,
        producer_task: Optional[TaskID] = None,
    ) -> Generator:
        """Record that ``object_id`` now lives on ``node_id``.

        The first location makes the object *ready*, which fans out ready
        notifications to subscribers (each paying the head→subscriber hop).
        """

        def apply() -> ObjectEntry:
            old = self._object(object_id)
            self.store.object_put(
                object_id, size=max(old.size, size), location=node_id,
                ready=True, producer_task=producer_task,
            )
            self.log("object_ready" if not old.ready else "object_replicated",
                     object_id=object_id, node=node_id, size=size)
            entry = self._object(object_id)
            for sub_node, callback in self._ready_subs.pop(object_id, ()):
                self.sim.call_after(
                    self.network.latency(self.head_node, sub_node),
                    callback, entry.snapshot(),
                )
            return entry

        return self._op(from_node, object_id, apply)

    def async_object_add_location(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.object_add_location(*args, **kwargs), "obj-add-loc")

    def object_remove_location(
        self, from_node: NodeID, object_id: ObjectID, node_id: NodeID
    ) -> Generator:
        """Drop a location (eviction or node death); returns the snapshot."""

        def apply() -> ObjectEntry:
            self.store.object_put(object_id, drop_location=node_id)
            self.log("object_location_removed", object_id=object_id, node=node_id)
            return self._object(object_id)

        return self._op(from_node, object_id, apply)

    def async_object_remove_location(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.object_remove_location(*args, **kwargs), "obj-rm-loc")

    def object_lookup(self, from_node: NodeID, object_id: ObjectID) -> Generator:
        """Read an object-table row (snapshot)."""
        return self._op(from_node, object_id, lambda: self._object(object_id))

    def object_subscribe_ready(
        self, from_node: NodeID, object_id: ObjectID,
        callback: Callable[[ObjectEntry], None], register_always: bool = False,
    ) -> Generator:
        """Register a notification for the object's next location add.

        Returns the current entry snapshot (so the caller can check
        readiness atomically with registration, closing the race between
        readiness and subscription).  The callback is registered only if
        the object is not yet ready — or unconditionally with
        ``register_always=True``, which lineage reconstruction uses to
        wait for a *new* replica of an object whose ready flag is already
        set but whose locations all died.
        """

        def apply() -> ObjectEntry:
            entry = self._object(object_id)
            if not entry.ready or register_always:
                self._ready_subs.setdefault(object_id, []).append((from_node, callback))
            return entry

        return self._op(from_node, object_id, apply)

    # ------------------------------------------------------------------
    # Task table
    # ------------------------------------------------------------------

    def task_put(self, from_node: NodeID, task_id: TaskID, spec: Any) -> Generator:
        """Insert the task spec — this row *is* the lineage for replay (R6).

        The submitting node is recorded immediately so that, should that
        node die before the task reaches a later state, the failure
        monitor's per-node scan still finds and resubmits it.  The first
        put wins: a resubmission keeps the row (and its attempt count).
        """

        def apply() -> None:
            if self.store.task_get(task_id) is None:
                self.store.task_put(task_id, spec, node=from_node)
            self.log("task_submitted", task_id=task_id,
                     function=getattr(spec, "function_name", "?"))

        return self._op(from_node, task_id, apply)

    def async_task_put(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.task_put(*args, **kwargs), "task-put")

    def task_set_state(
        self, from_node: NodeID, task_id: TaskID, state: str, node: Optional[NodeID] = None
    ) -> Generator:
        """Advance a task's lifecycle state (submitted→…→finished/failed)."""

        def apply() -> None:
            self.store.task_update(
                task_id, state=state, node=node, attempt=state == "running"
            )
            self.log(f"task_{state}", task_id=task_id, node=node)

        return self._op(from_node, task_id, apply)

    def async_task_set_state(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.task_set_state(*args, **kwargs), "task-state")

    def task_get(self, from_node: NodeID, task_id: TaskID) -> Generator:
        """Read a task-table row (snapshot); None if unknown."""
        return self._op(from_node, task_id, lambda: self.store.task_get(task_id))

    def tasks_on_node(self, from_node: NodeID, node_id: NodeID, states: Iterable[str]) -> Generator:
        """Scan for tasks last seen on ``node_id`` in any of ``states``.

        Used by failure recovery to find work orphaned by a dead node.
        Charged as a single (head-node) operation; a production system
        would maintain a per-node index.
        """
        wanted = set(states)

        def apply() -> list:
            return [
                entry for entry in self.store.tasks()
                if entry.node == node_id and entry.state in wanted
            ]

        return self._op(from_node, f"scan:{node_id.hex}", apply)

    # ------------------------------------------------------------------
    # Function table
    # ------------------------------------------------------------------

    def async_function_register(self, function_id: FunctionID, name: str) -> None:
        """Charged and logged; the sim keeps its functions in the runtime."""

        def apply() -> None:
            self.log("function_registered", function_id=function_id, name=name)

        self._async(self._op(self.head_node, function_id, apply), "fn-register")

    # ------------------------------------------------------------------
    # Node liveness (heartbeats)
    # ------------------------------------------------------------------

    def add_heartbeat_listener(self, callback: Callable[[NodeInfo], None]) -> None:
        """Head-node-local listeners invoked (via the event loop) on every
        heartbeat — the global schedulers use this to retry queued
        placements the moment a fresh load report lands, instead of
        polling."""
        self._heartbeat_listeners.append(callback)

    def heartbeat(self, from_node: NodeID, info: NodeInfo) -> Generator:
        """Record a local scheduler's load report (periodic or on-change)."""

        def apply() -> None:
            info.last_heartbeat = self.sim.now
            self.nodes[info.node_id] = info
            for listener in self._heartbeat_listeners:
                self.sim.call_soon(listener, info)

        return self._op(from_node, f"hb:{info.node_id.hex}", apply)

    def async_heartbeat(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.heartbeat(*args, **kwargs), "heartbeat")

    def node_infos(self, from_node: NodeID) -> Generator:
        """Read all node heartbeat rows (for global scheduling decisions)."""
        return self._op(from_node, "nodes", lambda: dict(self.nodes))

    def mark_node_dead(self, from_node: NodeID, node_id: NodeID) -> Generator:
        def apply() -> None:
            info = self.nodes.get(node_id)
            if info is not None:
                info.alive = False
            self.log("node_dead", node=node_id)

        return self._op(from_node, f"hb:{node_id.hex}", apply)
