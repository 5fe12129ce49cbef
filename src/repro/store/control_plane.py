"""Sharded control-plane store with pub/sub (the paper's Redis role).

All mutating/reading accessors are generator *operations*: a caller process
runs ``result = yield from cp.object_lookup(node, oid)`` and transparently
pays (1) the network hop to the head node, (2) queueing at the hash-selected
shard, (3) the per-operation service time, and (4) the hop back.
Fire-and-forget variants (``async_``) spawn the same operation as a detached
process so that hot paths (e.g. task submission) are not blocked on control
state writes — mirroring how the prototype wrote to Redis asynchronously.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.cluster.costs import SystemCosts
from repro.cluster.network import NetworkModel

# The table rows (and shard hash) are shared verbatim with the real
# backends' ControlStore (repro.gcs) — one schema, two planes.
from repro.gcs.tables import NodeInfo, ObjectEntry, TaskEntry
from repro.gcs.tables import hash_key as _hash_key
from repro.sim.core import Delay, Resource, Simulator
from repro.store.event_log import EventLog
from repro.utils.ids import FunctionID, NodeID, ObjectID, TaskID

__all__ = ["ControlPlane", "NodeInfo", "ObjectEntry", "TaskEntry"]


class ControlPlane:
    """The logically-centralized control state of Figure 3."""

    def __init__(
        self,
        sim: Simulator,
        network: NetworkModel,
        costs: SystemCosts,
        head_node: NodeID,
        num_shards: int = 4,
        event_log: Optional[EventLog] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.sim = sim
        self.network = network
        self.costs = costs
        self.head_node = head_node
        self.num_shards = num_shards
        self.event_log = event_log if event_log is not None else EventLog()

        self._shards = [
            Resource(sim, capacity=1, name=f"gcs-shard-{i}") for i in range(num_shards)
        ]
        self._objects: dict[ObjectID, ObjectEntry] = {}
        self._tasks: dict[TaskID, TaskEntry] = {}
        self._functions: dict[FunctionID, dict] = {}
        self._nodes: dict[NodeID, NodeInfo] = {}
        self._channels: dict[str, list] = {}
        #: (node_id, callback) pairs per object awaiting readiness.
        self._ready_subs: dict[ObjectID, list] = {}
        self._heartbeat_listeners: list = []

        #: Operation counters for the throughput experiments (E6).
        self.ops_total = 0
        self.ops_per_shard = [0] * num_shards
        #: Contention instrumentation (the uniform stats()["control"] keys
        #: every backend reports; see repro.gcs.store.ControlStore.stats).
        self._shard_waiting = [0] * num_shards
        self.max_shard_queue = 0
        self.contended_ops = 0
        self._async_inflight = 0
        self.async_backlog_max = 0

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------

    def _shard_for(self, key: Any) -> int:
        return _hash_key(key) % self.num_shards

    def _op(self, from_node: NodeID, key: Any, apply_fn: Callable[[], Any]) -> Generator:
        """One control-plane RPC: hop in, queue, service, apply, hop back."""
        yield Delay(self.network.latency(from_node, self.head_node))
        shard_index = self._shard_for(key)
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
        """The uniform ``stats()["control"]`` section (same keys as the
        real backends' :meth:`repro.gcs.store.ControlStore.stats`)."""
        return {
            "num_shards": self.num_shards,
            "ops_total": self.ops_total,
            "ops_per_shard": list(self.ops_per_shard),
            "max_shard_queue": self.max_shard_queue,
            "contended_ops": self.contended_ops,
            "event_log_len": len(self.event_log),
            "async_backlog": self._async_inflight,
            "async_backlog_max": self.async_backlog_max,
            "generation": 1,
        }

    def log(self, kind: str, **payload: Any) -> None:
        """Append to the event log at the current virtual time (R7)."""
        self.event_log.append(self.sim.now, kind, **payload)

    # ------------------------------------------------------------------
    # Object table
    # ------------------------------------------------------------------

    def _object_entry(self, object_id: ObjectID) -> ObjectEntry:
        if object_id not in self._objects:
            self._objects[object_id] = ObjectEntry(object_id=object_id)
        return self._objects[object_id]

    def object_add_location(
        self,
        from_node: NodeID,
        object_id: ObjectID,
        node_id: NodeID,
        size: int,
        producer_task: Optional[TaskID] = None,
    ) -> Generator:
        """Record that ``object_id`` now lives on ``node_id``.

        The first location makes the object *ready*, which fans out ready
        notifications to subscribers (each paying the head→subscriber hop).
        """

        def apply() -> ObjectEntry:
            entry = self._object_entry(object_id)
            newly_ready = not entry.ready
            entry.locations.add(node_id)
            entry.size = max(entry.size, size)
            if producer_task is not None:
                entry.producer_task = producer_task
            entry.ready = True
            self.log("object_ready" if newly_ready else "object_replicated",
                     object_id=object_id, node=node_id, size=size)
            if newly_ready or self._ready_subs.get(object_id):
                self._notify_ready(entry)
            return entry.snapshot()

        return self._op(from_node, object_id, apply)

    def async_object_add_location(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.object_add_location(*args, **kwargs), "obj-add-loc")

    def _notify_ready(self, entry: ObjectEntry) -> None:
        subs = self._ready_subs.pop(entry.object_id, [])
        for node_id, callback in subs:
            snapshot = entry.snapshot()
            self.sim.call_after(
                self.network.latency(self.head_node, node_id), callback, snapshot
            )

    def object_remove_location(
        self, from_node: NodeID, object_id: ObjectID, node_id: NodeID
    ) -> Generator:
        """Drop a location (eviction or node death); returns the snapshot."""

        def apply() -> ObjectEntry:
            entry = self._object_entry(object_id)
            entry.locations.discard(node_id)
            self.log("object_location_removed", object_id=object_id, node=node_id)
            return entry.snapshot()

        return self._op(from_node, object_id, apply)

    def async_object_remove_location(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.object_remove_location(*args, **kwargs), "obj-rm-loc")

    def object_lookup(self, from_node: NodeID, object_id: ObjectID) -> Generator:
        """Read an object-table row (snapshot)."""

        def apply() -> ObjectEntry:
            return self._object_entry(object_id).snapshot()

        return self._op(from_node, object_id, apply)

    def object_subscribe_ready(
        self,
        from_node: NodeID,
        object_id: ObjectID,
        callback: Callable[[ObjectEntry], None],
        register_always: bool = False,
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
            entry = self._object_entry(object_id)
            if not entry.ready or register_always:
                self._ready_subs.setdefault(object_id, []).append((from_node, callback))
            return entry.snapshot()

        return self._op(from_node, object_id, apply)

    # ------------------------------------------------------------------
    # Task table
    # ------------------------------------------------------------------

    def task_put(self, from_node: NodeID, task_id: TaskID, spec: Any) -> Generator:
        """Insert the task spec — this row *is* the lineage for replay (R6).

        The submitting node is recorded immediately so that, should that
        node die before the task reaches a later state, the failure
        monitor's per-node scan still finds and resubmits it.
        """

        def apply() -> None:
            entry = self._tasks.get(task_id)
            if entry is None:
                self._tasks[task_id] = TaskEntry(
                    task_id=task_id, spec=spec, node=from_node
                )
            self.log("task_submitted", task_id=task_id,
                     function=getattr(spec, "function_name", "?"))

        return self._op(from_node, task_id, apply)

    def async_task_put(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.task_put(*args, **kwargs), "task-put")

    def task_set_state(
        self,
        from_node: NodeID,
        task_id: TaskID,
        state: str,
        node: Optional[NodeID] = None,
    ) -> Generator:
        """Advance a task's lifecycle state (submitted→…→finished/failed)."""

        def apply() -> None:
            entry = self._tasks.get(task_id)
            if entry is None:
                entry = TaskEntry(task_id=task_id, spec=None)
                self._tasks[task_id] = entry
            entry.state = state
            if node is not None:
                entry.node = node
            if state == "running":
                entry.attempts += 1
            entry.timestamps[state] = self.sim.now
            self.log(f"task_{state}", task_id=task_id, node=node)

        return self._op(from_node, task_id, apply)

    def async_task_set_state(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.task_set_state(*args, **kwargs), "task-state")

    def task_get(self, from_node: NodeID, task_id: TaskID) -> Generator:
        """Read a task-table row (snapshot); None if unknown."""

        def apply() -> Optional[TaskEntry]:
            entry = self._tasks.get(task_id)
            return entry.snapshot() if entry is not None else None

        return self._op(from_node, task_id, apply)

    def tasks_on_node(self, from_node: NodeID, node_id: NodeID, states: Iterable[str]) -> Generator:
        """Scan for tasks last seen on ``node_id`` in any of ``states``.

        Used by failure recovery to find work orphaned by a dead node.
        Charged as a single (head-node) operation; a production system
        would maintain a per-node index.
        """
        wanted = set(states)

        def apply() -> list:
            return [
                entry.snapshot()
                for entry in self._tasks.values()
                if entry.node == node_id and entry.state in wanted
            ]

        return self._op(from_node, f"scan:{node_id.hex}", apply)

    # ------------------------------------------------------------------
    # Function table
    # ------------------------------------------------------------------

    def function_register(
        self, from_node: NodeID, function_id: FunctionID, metadata: dict
    ) -> Generator:
        def apply() -> None:
            self._functions[function_id] = dict(metadata)
            self.log("function_registered", function_id=function_id,
                     name=metadata.get("name", "?"))

        return self._op(from_node, function_id, apply)

    # ------------------------------------------------------------------
    # Node liveness (heartbeats)
    # ------------------------------------------------------------------

    #: Head-node-local listeners invoked (via the event loop) on every
    #: heartbeat — the global schedulers use this to retry queued
    #: placements the moment a fresh load report lands, instead of
    #: polling.  Populated by ``add_heartbeat_listener``.
    def add_heartbeat_listener(self, callback: Callable[[NodeInfo], None]) -> None:
        self._heartbeat_listeners.append(callback)

    def heartbeat(self, from_node: NodeID, info: NodeInfo) -> Generator:
        """Record a local scheduler's load report (periodic or on-change)."""

        def apply() -> None:
            info.last_heartbeat = self.sim.now
            self._nodes[info.node_id] = info
            for listener in self._heartbeat_listeners:
                self.sim.call_soon(listener, info)

        return self._op(from_node, f"hb:{info.node_id.hex}", apply)

    def async_heartbeat(self, *args: Any, **kwargs: Any) -> None:
        self._async(self.heartbeat(*args, **kwargs), "heartbeat")

    def node_infos(self, from_node: NodeID) -> Generator:
        """Read all node heartbeat rows (for global scheduling decisions)."""

        def apply() -> dict:
            return {node_id: info for node_id, info in self._nodes.items()}

        return self._op(from_node, "nodes", apply)

    def mark_node_dead(self, from_node: NodeID, node_id: NodeID) -> Generator:
        def apply() -> None:
            info = self._nodes.get(node_id)
            if info is not None:
                info.alive = False
            self.log("node_dead", node=node_id)

        return self._op(from_node, f"hb:{node_id.hex}", apply)

    # ------------------------------------------------------------------
    # Pub/sub
    # ------------------------------------------------------------------

    def subscribe(
        self, from_node: NodeID, channel: str, callback: Callable[[Any], None]
    ) -> Generator:
        """Register ``callback`` (running on ``from_node``) for a channel."""

        def apply() -> None:
            self._channels.setdefault(channel, []).append((from_node, callback))

        return self._op(from_node, f"sub:{channel}", apply)

    def publish(self, from_node: NodeID, channel: str, message: Any) -> Generator:
        """Publish to a channel; delivery pays the head→subscriber hop."""

        def apply() -> int:
            subscribers = self._channels.get(channel, [])
            for node_id, callback in subscribers:
                self.sim.call_after(
                    self.network.latency(self.head_node, node_id), callback, message
                )
            return len(subscribers)

        return self._op(from_node, f"sub:{channel}", apply)

    # ------------------------------------------------------------------
    # Zero-cost debug accessors (tests and tools only)
    # ------------------------------------------------------------------

    def debug_object(self, object_id: ObjectID) -> Optional[ObjectEntry]:
        entry = self._objects.get(object_id)
        return entry.snapshot() if entry is not None else None

    def debug_task(self, task_id: TaskID) -> Optional[TaskEntry]:
        entry = self._tasks.get(task_id)
        return entry.snapshot() if entry is not None else None
