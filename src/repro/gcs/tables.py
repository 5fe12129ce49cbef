"""Table rows of the control store, and its shard hash.

:class:`~repro.gcs.store.ControlStore` keeps these rows for every
backend; the sim's :class:`~repro.store.control_plane.ControlPlane`
models the latency of touching them and then touches the same store, so
there is one store and its rows cannot drift between backends.
``NodeInfo`` is the sim's heartbeat row, which only that adapter keeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.utils.ids import BaseID, NodeID, ObjectID, TaskID


@dataclass(slots=True)
class ObjectEntry:
    """Object-table row: where an object lives and who produced it.

    ``payload`` optionally carries the serialized bytes of *small* objects
    inline in the control store — that is what lets a recovered driver
    restore results without re-executing their producers.
    """

    object_id: ObjectID
    size: int = 0
    locations: set = field(default_factory=set)
    producer_task: Optional[TaskID] = None
    ready: bool = False
    payload: Optional[bytes] = None

    def snapshot(self) -> "ObjectEntry":
        return ObjectEntry(
            object_id=self.object_id,
            size=self.size,
            locations=set(self.locations),
            producer_task=self.producer_task,
            ready=self.ready,
            payload=self.payload,
        )


@dataclass(slots=True)
class TaskEntry:
    """Task-table row: the full spec (= lineage) plus execution state.

    ``spec`` is a :class:`~repro.core.task.TaskSpec` for driver-born tasks
    (on ``proc``/``dist`` it carries the task's wire entry, ``wire``);
    for worker-born (bottom-up) tasks it is ``{"spec": ..., "payload":
    (entry, rows)}`` — the wire entry the worker announced in its
    SUBMIT_LOCAL notice plus ``rows``, ``{function_hex: (name, code)}``
    for the function it names — either form is enough to replay the task
    after a crash, with nothing else in hand.  A worker-born task has a
    row once its worker routed it to the driver, or once its driver
    adopted it (``repro.proc``: a steal, a cancel, the loss of its
    worker, an escape, a failure or a result that is not inline bytes,
    or its parent ending first); one never adopted is recreated by its
    parent's replay.

    Rows are ``slots`` dataclasses: the tables hold one per task and per
    object for the life of the runtime, and an instance without a
    ``__dict__`` is one object, not two, for the cyclic GC to walk.
    """

    task_id: TaskID
    spec: Any
    state: str = "submitted"
    node: Optional[NodeID] = None
    timestamps: dict = field(default_factory=dict)
    attempts: int = 0

    def snapshot(self) -> "TaskEntry":
        return TaskEntry(
            task_id=self.task_id,
            spec=self.spec,
            state=self.state,
            node=self.node,
            timestamps=dict(self.timestamps),
            attempts=self.attempts,
        )


@dataclass(slots=True)
class ActorEntry:
    """Actor-table row: registry entry plus the name index payload."""

    actor_id: Any
    spec: Any = None
    name: Optional[str] = None
    state: str = "pending"
    node: Optional[Any] = None
    methods_submitted: int = 0

    def snapshot(self) -> "ActorEntry":
        return ActorEntry(
            actor_id=self.actor_id,
            spec=self.spec,
            name=self.name,
            state=self.state,
            node=self.node,
            methods_submitted=self.methods_submitted,
        )


@dataclass
class NodeInfo:
    """Latest heartbeat from one node's local scheduler."""

    node_id: NodeID
    num_cpus: int = 0
    num_gpus: int = 0
    available_cpus: int = 0
    available_gpus: int = 0
    queue_length: int = 0
    last_heartbeat: float = 0.0
    alive: bool = True


def hash_key(key: Any) -> int:
    """Stable shard hash for IDs and strings (restart-invariant)."""
    if isinstance(key, BaseID):
        return int(key.hex[:8], 16)
    digest = hashlib.sha1(str(key).encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


def shard_of(key: Any, num_shards: int) -> int:
    """Shard routing of the control store (and of the sim's shard queues).

    Depends only on the key bytes — never on process state — so routing is
    stable across driver restarts (property-tested in ``tests/test_gcs.py``).
    """
    return hash_key(key) % num_shards
