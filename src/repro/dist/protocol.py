"""Agent-level wire vocabulary of the ``dist`` backend.

Every TCP frame between the driver and a node agent is a 2-tuple
``(channel, message)``:

* ``channel >= 0`` — the message belongs to that worker's conversation
  (the unmodified proc protocol of :mod:`repro.proc.messages`); the
  agent relays it to/from the worker's pipe, intercepting only the
  object-plane requests it can serve from the node's arena and landing
  the object bytes a reply carries into the node
  (:class:`~repro.proc.messages.ObjectBytes`) there.
* ``channel == CTRL`` — ``message`` is one of the control tuples below,
  spoken between the driver and the agent itself.

The channel index is the worker's slot *within its node* (0..M-1); the
driver maps it to/from the global worker index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.ids import ObjectID

#: The agent's own conversation (membership, spawning, object transfer).
CTRL = -1

# -- agent -> driver ----------------------------------------------------
HELLO = "hello"                  # (HELLO, node_index, agent_pid, shm_on):
                                 # the handshake, first frame on a fresh
                                 # connection
HEARTBEAT = "heartbeat"          # (HEARTBEAT,): liveness beacon, sent
                                 # every heartbeat_interval by a dedicated
                                 # agent thread (a SIGSTOPped agent goes
                                 # silent, which is the point)
WORKER_SPAWNED = "worker_spawned"  # (WORKER_SPAWNED, channel, pid): ack
                                   # of SPAWN_WORKER; the pid is what
                                   # kill_node SIGKILLs
WORKER_DOWN = "worker_down"      # (WORKER_DOWN, channel): EOF on that
                                 # worker's pipe — the agent-mediated
                                 # crash edge the driver's service thread
                                 # turns into worker-crash recovery
OBJECT_DATA = "object_data"      # (OBJECT_DATA, req_id, data | None):
                                 # reply to FETCH_OBJECT (None: the node
                                 # no longer holds the object).  An
                                 # arena-resident object's data is its
                                 # frame as a pickle.PickleBuffer over
                                 # the arena, sent out of band (no
                                 # re-pickle, no copy into the stream);
                                 # it arrives as a read-only memoryview
                                 # over the bytearray received into.
SEGMENTS = "segments"            # (SEGMENTS, [name, ...]): shm segment
                                 # names the node store has created so
                                 # far; the driver unlinks survivors of a
                                 # killed agent at shutdown
SPANS = "spans"                  # (SPANS, obs_blob): the agent's own
                                 # tracing-plane buffer, flushed on the
                                 # heartbeat cadence (worker span blobs
                                 # ride the worker channels instead and
                                 # never take this tag)

# -- driver -> agent ----------------------------------------------------
SPAWN_WORKER = "spawn_worker"    # (SPAWN_WORKER, channel, global_index,
                                 #  spawn_token): start (or replace) the
                                 # worker on that channel
KILL_WORKER = "kill_worker"      # (KILL_WORKER, channel): SIGKILL that
                                 # worker (fault injection)
FETCH_OBJECT = "fetch_object"    # (FETCH_OBJECT, req_id, object_id) ->
                                 # (OBJECT_DATA, req_id, ...): pull one
                                 # node-resident object's bytes
DELETE_OBJECT = "delete_object"  # (DELETE_OBJECT, [object_id, ...]): the
                                 # driver released these objects (or
                                 # cancelled their task): drop the node's
                                 # arena slots of them
SHUTDOWN_NODE = "shutdown_node"  # (SHUTDOWN_NODE,): kill workers, unlink
                                 # the node store, exit


@dataclass(frozen=True)
class NodeBlob:
    """Where a result produced on a remote node lives: the dist analogue
    of :class:`~repro.proc.messages.ShmDescriptor` one tier up.

    When a worker returns a large result, its node agent seals it into
    the *node's* store and rewrites the DONE blob into one of
    these ~100-byte records — the payload never leaves the node until a
    consumer elsewhere actually needs it (descriptor-first, pull on
    demand).  The driver records residency (for locality-aware placement
    toward that node's workers) and pulls bytes through ``FETCH_OBJECT``
    once; a consumer on another node reads the copy its agent landed in
    that node's arena from the driver's reply, so the bytes cross into
    each consuming node at most once.
    """

    object_id: ObjectID
    node_index: int
    size: int
