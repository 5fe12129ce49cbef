"""The sim's logically-centralized control plane (Section 3.2.1).

The control state of Figure 3 — the object and task tables and their
event log — lives in the same sharded :class:`~repro.gcs.ControlStore`
the live backends run (our stand-in for the paper's Redis deployment).
:class:`ControlPlane` is the cost model in front of it: every read/write
is an RPC, so the caller pays a network hop to the head node, queues at
the hash-selected shard (each shard services operations one at a time),
pays the per-op service time, and pays the hop back.  Sharding is
therefore the control plane's throughput lever, exactly as in the paper
("to achieve the throughput requirement (R2), we shard the database").
"""

from repro.store.control_plane import ControlPlane, NodeInfo, ObjectEntry, TaskEntry
from repro.store.event_log import EventLog, EventRecord

__all__ = [
    "ControlPlane",
    "ObjectEntry",
    "TaskEntry",
    "NodeInfo",
    "EventLog",
    "EventRecord",
]
