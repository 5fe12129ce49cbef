"""The Global Control Store (sharded control plane + driver HA).

``ControlStore`` is the one control store of all four backends
(``runtime._control``; the sim's :mod:`repro.store.control_plane` is a
cost model in front of it): hash-sharded object/task/actor tables
(:mod:`repro.gcs.tables`), lock-striped across N shards with a
per-shard append-only event log, synchronous write-ahead lineage, async
fire-and-forget state writes, and optional per-shard durable WALs.
``plan_recovery`` turns a store that outlived its driver into the exact
restore/resubmit plan a fresh runtime executes
(``init(..., control_store=store, recover=True)``).
"""

from repro.gcs.recovery import RecoveryPlan, plan_recovery
from repro.gcs.store import ControlShard, ControlStore
from repro.gcs.tables import (
    ActorEntry,
    NodeInfo,
    ObjectEntry,
    TaskEntry,
    hash_key,
    shard_of,
)

__all__ = [
    "ActorEntry",
    "ControlShard",
    "ControlStore",
    "NodeInfo",
    "ObjectEntry",
    "RecoveryPlan",
    "TaskEntry",
    "hash_key",
    "plan_recovery",
    "shard_of",
]
