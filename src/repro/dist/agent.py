"""The node agent: the mid-tier process of the ``dist`` backend.

One agent runs per node.  It owns that node's worker processes and its
one object store, the node's shared-memory arena (when the host
supports it), and sits on the wire between the driver and the workers:

* **Relay.**  Driver↔worker frames cross unmodified — the proc protocol
  is transport-agnostic (:mod:`repro.proc.transport`), so the agent
  forwards encoded messages between the TCP link and the worker pipes
  without re-interpreting anything it does not care about.  Dispatch
  frames are relayed whole; each ``DONE`` completion's blobs pass
  through the node-arena rewrite, and a ``FETCH`` reply that carries an
  object's bytes into the node is landed in the arena.  Optional
  trailing elements (``DONE``'s obs blob, ``STEAL_GRANT``'s mid-task
  mark, a late reply's key) ride through untouched, and control
  messages are forwarded the moment they arrive in either direction — a
  worker's reader answers a ``STEAL_REQUEST`` while a task runs there,
  which is what lets frames to a node be as large as the budget allows.
* **Node data plane.**  The object-plane requests it *does* care about
  are served locally when possible: a worker's ``SHM_CREATE`` for a
  result is granted from the **node's** arena (the driver never sees the
  bytes), and a ``FETCH`` of an object in the arena is answered with its
  descriptor before falling through to the driver.  A worker reads a
  ``get``'s value as it reads an argument: the driver's ``GET`` reply
  leaves a large or node-resident object's slot empty, and the worker
  sends a ``FETCH`` for it through here.  An object's bytes the driver
  sends into the node (a ``FETCH`` reply's
  :class:`~repro.proc.messages.ObjectBytes`) are written into an arena
  slot, sealed, and passed on as a descriptor, so every worker of the
  node reads them zero-copy and they cross the node boundary once (the
  fetch-once-per-node half of descriptor-first transfer); with no
  arena, or no room in it, they pass through.  A put's
  ``SHM_CREATE`` is refused here (the driver has no arena on ``dist``),
  so the put's bytes ride the worker's ``SUBMIT_LOCAL`` notice, which
  this agent forwards untouched.
  Result blobs that landed in the node arena are rewritten into
  :class:`~repro.dist.protocol.NodeBlob` descriptors on their way up.
* **Membership.**  A dedicated thread heartbeats over the control
  channel; the main loop answers spawn/kill/fetch/delete commands; EOF
  on the driver link (driver gone) or ``SHUTDOWN_NODE`` tears the node
  down — workers killed, segments unlinked.

The agent is intentionally single-threaded for all relay work (the
heartbeat thread only writes, under the transport's send lock): per-pipe
FIFO and per-link FIFO are therefore preserved end-to-end, which is the
ordering the proc protocol's mirror/steal/cancel logic depends on.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import socket
import sys
import threading
from typing import Any, Optional

from repro.obs import SpanRecorder
from repro.proc import messages as msg
from repro.proc.objects import ObjectStores
from repro.proc.transport import PipeTransport, TcpTransport, Transport
from repro.proc.worker import worker_main
from repro.utils.ids import NodeID
from repro.dist import protocol as ctl

#: Main-loop select timeout: an upper bound on command latency only —
#: every message edge is an fd-readable event.
_LOOP_TIMEOUT = 0.25


class _WorkerSlot:
    """One local worker: its pipe and process."""

    def __init__(self, channel: int, global_index: int) -> None:
        self.channel = channel
        self.global_index = global_index
        self.conn: Optional[Transport] = None
        self.process: Any = None
        self.pid: Optional[int] = None
        self.alive = False


class NodeAgent:
    """One node's mid-tier: local workers + local store + driver link."""

    def __init__(
        self, host: str, port: int, node_index: int, config: dict
    ) -> None:
        self.node_index = node_index
        self.config = config
        self.node_id = NodeID.from_seed(
            f"repro-dist/{config['seed']}/node/{node_index}"
        )
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.link = TcpTransport(sock)
        self._mp_ctx = None  # created lazily on first spawn
        self.slots: dict[int, _WorkerSlot] = {}
        #: The node's one object store: ``shm``, its arena (None on
        #: shm-less hosts or when disabled), the authority for every
        #: grant on this node and where every object its workers read
        #: lies.  The arena's name prefix includes this process's pid,
        #: so N agents on one host never collide.
        self.stores = ObjectStores(
            self.node_id,
            0,  # no pipe store
            config.get("shm_capacity", 0),
            config["total_workers"],
            config["seed"],
        )
        self.shm = self.stores.shm
        self._known_segments: set = set()
        #: The tracing plane's agent-side buffer: node-tier events
        #: (seals, inter-node fetch serves, worker deaths), flushed on
        #: the heartbeat cadence as CTRL SPANS frames.
        self.obs = SpanRecorder(enabled=config.get("tracing", False))
        self._stop = threading.Event()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"repro-dist-agent-{node_index}-heartbeat",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> None:
        try:
            self.link.send(
                (ctl.CTRL, (ctl.HELLO, self.node_index, os.getpid(),
                            self.shm is not None))
            )
            self._heartbeat_thread.start()
            self._loop()
        except (EOFError, OSError, KeyboardInterrupt):
            pass  # driver gone (shutdown or crash): tear down below
        finally:
            self._teardown()

    def _teardown(self) -> None:
        self._stop.set()
        try:
            self._flush_spans()  # best effort: the link may be gone
        except (OSError, EOFError):
            pass
        for slot in self.slots.values():
            if slot.pid is not None:
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
        self.stores.shutdown()
        self.link.close()

    def _loop(self) -> None:
        while True:
            # Drain buffered frames fully before selecting: the TCP
            # transport (and each pipe) may hold whole messages that
            # would never re-trigger select.
            while self.link.poll(0):
                self._handle_downstream(self.link.recv())
            for slot in list(self.slots.values()):
                self._drain_worker(slot)
            rlist = [self.link.fileno()]
            for slot in self.slots.values():
                if slot.alive:
                    try:
                        rlist.append(slot.conn.fileno())
                    except OSError:
                        continue
            try:
                select.select(rlist, [], [], _LOOP_TIMEOUT)
            except (OSError, ValueError):
                continue  # a pipe closed mid-select: next drain sees EOF

    def _drain_worker(self, slot: _WorkerSlot) -> None:
        if not slot.alive:
            return
        try:
            while slot.conn.poll(0):
                self._handle_upstream(slot, slot.conn.recv())
        except (EOFError, OSError):
            self._worker_died(slot)

    def _worker_died(self, slot: _WorkerSlot) -> None:
        """EOF on a worker pipe: reclaim its shm state and tell the
        driver, which runs the same crash recovery as for a local
        worker (the agent keeps the slot for the respawn command)."""
        slot.alive = False
        try:
            slot.conn.close()
        except OSError:
            pass
        self.stores.reclaim(slot.global_index)
        self.obs.record(
            "worker_down", channel=slot.channel, index=slot.global_index
        )
        self.link.send((ctl.CTRL, (ctl.WORKER_DOWN, slot.channel)))

    def _flush_spans(self) -> None:
        """Ship the agent's drained span buffer to the driver collector."""
        blob = self.obs.drain()
        if blob is not None:
            self.link.send((ctl.CTRL, (ctl.SPANS, blob)))

    def _heartbeat_loop(self) -> None:
        interval = self.config.get("heartbeat_interval", 0.2)
        while not self._stop.is_set():
            try:
                self.link.send((ctl.CTRL, (ctl.HEARTBEAT,)))
                self._flush_spans()
            except (OSError, EOFError):
                return  # link gone: the main loop owns teardown
            self._stop.wait(interval)

    # ------------------------------------------------------------------
    # Control commands
    # ------------------------------------------------------------------

    def _handle_downstream(self, frame: tuple) -> None:
        channel, message = frame
        if channel == ctl.CTRL:
            self._handle_control(message)
            return
        slot = self.slots.get(channel)
        if slot is None or not slot.alive:
            return  # worker died while the message was in flight
        if message[0] == msg.OK:
            message = (msg.OK, self._land(message[1])) + message[2:]
        try:
            slot.conn.send(message)
        except (OSError, EOFError, BrokenPipeError):
            self._worker_died(slot)

    def _handle_control(self, message: tuple) -> None:
        tag = message[0]
        if tag == ctl.SPAWN_WORKER:
            self._spawn_worker(message[1], message[2], message[3])
        elif tag == ctl.KILL_WORKER:
            slot = self.slots.get(message[1])
            if slot is not None and slot.pid is not None:
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
        elif tag == ctl.FETCH_OBJECT:
            # An arena frame leaves as the out-of-band buffer it lies
            # in, sent before this loop can free its slot.
            data = self.stores.bytes_of(message[2])
            if self.obs.enabled:
                self.obs.record(
                    "internode_serve",
                    object_id=str(message[2]),
                    size=0 if data is None else memoryview(data).nbytes,
                )
            self.link.send(
                (ctl.CTRL, (ctl.OBJECT_DATA, message[1], data))
            )
        elif tag == ctl.DELETE_OBJECT:
            # The driver released these: each one's arena slot (a result
            # made here or a landed copy) goes back to the arena.
            for object_id in message[1]:
                self.stores.drop(object_id)
        elif tag == ctl.SHUTDOWN_NODE:
            raise EOFError("shutdown requested")  # run() tears down

    def _spawn_worker(
        self, channel: int, global_index: int, spawn_token: int
    ) -> None:
        """Start (or replace) the worker on ``channel`` — the same
        ``worker_main`` the proc backend spawns, over a local pipe."""
        if self._mp_ctx is None:
            import multiprocessing

            self._mp_ctx = multiprocessing.get_context("spawn")
        config = self.config
        parent_conn, child_conn = self._mp_ctx.Pipe(duplex=True)
        process = self._mp_ctx.Process(
            target=worker_main,
            args=(
                child_conn, global_index, config["seed"], self.shm is not None,
                config["inline_threshold"], spawn_token,
                config.get("tracing", False), config["cluster"],
            ),
            name=f"repro-dist-worker-{self.node_index}-{channel}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot = _WorkerSlot(channel, global_index)
        slot.conn = PipeTransport(parent_conn)
        slot.process = process
        slot.pid = process.pid
        slot.alive = True
        self.slots[channel] = slot
        self.link.send((ctl.CTRL, (ctl.WORKER_SPAWNED, channel, process.pid)))

    # ------------------------------------------------------------------
    # The node object plane
    # ------------------------------------------------------------------

    def _land(self, value: Any) -> Any:
        """A driver reply's value; the object bytes a ``FETCH`` reply
        carries into the node (:class:`~repro.proc.messages.ObjectBytes`)
        written into the arena and passed on as their descriptor — or,
        where the arena has no room, as the bytes themselves."""
        if type(value) is not msg.ObjectBytes:
            return value
        descriptor = self.stores.land(value.object_id, value.data)
        if descriptor is None:
            return pickle.PickleBuffer(value.data)  # the pipe copies it in
        self._announce_segments()
        return descriptor

    def _announce_segments(self) -> None:
        """Tell the driver about newly created shm segments, so it can
        unlink survivors if this agent is later SIGKILLed."""
        names = set(self.shm.segment_names())
        fresh = names - self._known_segments
        if fresh:
            self._known_segments = names
            self.link.send((ctl.CTRL, (ctl.SEGMENTS, sorted(names))))

    def _handle_upstream(self, slot: _WorkerSlot, message: tuple) -> None:
        """One worker→driver message: serve it from the node plane when
        possible, else forward."""
        tag = message[0]
        if tag == msg.FETCH:
            # From the node's arena: its descriptor, or — for a worker
            # that cannot map the arena — its frame, copied into the pipe.
            if len(message) == 2:
                blob = self.stores.descriptor(message[1])
            else:
                blob = self.stores.bytes_of(message[1])
            if blob is not None:
                slot.conn.send((msg.OK, blob))
                return
        elif tag == msg.SHM_CREATE:
            # A result write is granted from the NODE arena: the driver
            # is not consulted and the bytes never leave the node until
            # someone pulls them.  object_id=None is a large put: an
            # shm-path put's id is the driver's, granted with its space,
            # and it has no arena on dist, so the answer is None here and
            # now — the put ships as bytes on the worker's notice, under
            # an id the worker mints, and stays driver-resident.
            object_id, nbytes = message[1], message[2]
            granted = None
            if object_id is not None:
                granted = self.stores.grant(object_id, nbytes, slot.global_index)
            slot.conn.send((msg.OK, granted))  # None: pipe-bytes fallback
            if granted is not None:
                self._announce_segments()
            return
        elif tag == msg.SHM_ABORT:
            # Every grant on this node came from this agent; hand the
            # space back and answer locally.
            self.stores.abort_grant(message[1])
            slot.conn.send((msg.OK, None))
            return
        elif tag == msg.DONE and self.shm is not None:
            completions = [
                (task_hex, self._seal_result_blobs(blobs), failed, exec_seconds)
                for task_hex, blobs, failed, exec_seconds in message[1]
            ]
            message = (tag, completions) + message[2:]
        self.link.send((slot.channel, message))

    def _seal_result_blobs(self, blobs: list) -> list:
        """Rewrite node-arena result descriptors into NodeBlobs.

        The worker already filled the allocation through its own mapping
        (pipe FIFO: its DONE follows the write); sealing here publishes
        it node-locally, and the NodeBlob tells the driver where the
        result lives without moving a byte."""
        rewritten = []
        for blob in blobs:
            if isinstance(blob, msg.ShmDescriptor) and self.shm is not None:
                if self.shm.seal(blob.object_id):
                    if self.obs.enabled:
                        self.obs.record(
                            "shm_seal",
                            object_id=str(blob.object_id),
                            size=blob.size,
                        )
                    rewritten.append(
                        ctl.NodeBlob(blob.object_id, self.node_index, blob.size)
                    )
                    continue
            rewritten.append(blob)
        return rewritten


def agent_main(host: str, port: int, node_index: int, config: dict) -> None:
    """Entry point of a node agent process (importable for spawn)."""
    NodeAgent(host, port, node_index, config).run()
    sys.exit(0)
