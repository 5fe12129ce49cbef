"""The ``dist`` backend: a multi-node runtime over TCP.

The paper's deployment architecture realized on real processes across a
(localhost-simulated) cluster: one **driver** process holding the global
control plane, N **node agents** — each a mid-tier process owning M
worker processes and a node-local shared-memory object store — and the
same worker code the ``proc`` backend runs, unchanged, because the wire
layer speaks interchangeable transports (:mod:`repro.proc.transport`).

    driver ──TCP──> agent 0 ──pipes──> workers 0..M-1   + node shm store
           ──TCP──> agent 1 ──pipes──> workers M..2M-1  + node shm store
           ...

* :mod:`repro.dist.protocol` — the agent-level control vocabulary layered
  over the proc wire protocol, plus :class:`~repro.dist.protocol.NodeBlob`
  (the descriptor of a node-resident result).
* :mod:`repro.dist.agent` — the node agent process: spawns/kills local
  workers on command, relays driver↔worker frames, serves object reads
  from the node's one store, its arena (descriptor-first; bytes pulled
  through the driver cross into a node once and land in its arena), and
  heartbeats.
* :mod:`repro.dist.runtime` — :class:`~repro.dist.runtime.DistRuntime`,
  the driver: :class:`~repro.proc.runtime.ProcRuntime` with workers
  reached through per-node links, heartbeat-based membership,
  ``kill_node`` fault injection, and node-loss recovery through the
  lineage-replay gate.
"""

from repro.dist.protocol import NodeBlob
from repro.dist.runtime import DistRuntime

__all__ = ["DistRuntime", "NodeBlob"]
