"""Driver-side runtime of the ``dist`` backend: multi-node over TCP.

:class:`DistRuntime` is :class:`~repro.proc.runtime.ProcRuntime` with the
worker pool spread across N node-agent processes (localhost TCP), which
changes the *plumbing* but none of the semantics:

* **Same control plane.**  Every per-worker service thread, the
  dependency tracker and the dispatch plane (queues, mirrors, the steal
  broker: :mod:`repro.sched_plane.dispatch`) — all inherited
  unchanged.  A worker's "pipe" is a :class:`ChannelTransport`: sends are
  multiplexed onto the node's TCP link as ``(channel, message)`` frames
  by a per-link sender thread, receives come from a per-channel queue
  fed by the link's reader thread.  EOF on a channel (worker died, node
  died) surfaces exactly like pipe EOF, so the inherited crash handler
  just works when the node is still up.
* **Descriptor-first data plane.**  Large results seal into the
  *producing node's* shm arena; the driver learns only a
  :class:`~repro.dist.protocol.NodeBlob` and records residency.  A
  consumer's entry names such an argument by a bare ``SlotRef`` and
  nothing in its ``inline`` table; the producing node serves its own
  arena, and a consumer elsewhere triggers exactly one
  ``FETCH_OBJECT`` pull into the driver store, whose reply into the
  consuming node that node's agent lands in its own arena — each
  object's payload crosses each node boundary at most once (counted in
  ``stats()["cluster"]["internode"]``), and every worker of a node
  reads it from the node's one store.  A worker's ``get`` is answered
  with the same slots (``ObjectPlane.arg_slot``) and read the same way,
  so a result in the reader's own node's arena never crosses TCP.
* **Membership.**  Agents heartbeat; a monitor thread declares a silent
  node dead (``heartbeat_timeout``) and SIGKILLs it, which collapses the
  silent-failure case onto the crash case: the link EOFs, every channel
  EOFs, and recovery runs.  ``kill_node(i)`` is the fault-injection
  entry.  Node loss is the proc runtime's worker loss
  (:meth:`ProcRuntime._worker_lost`) for each of the node's workers,
  with a surviving worker as successor instead of a respawn: queued and
  in-flight stateless work goes through the ``max_reconstructions``
  lineage gate (node-resident *objects* are re-produced the same way),
  actors on the node die with :class:`~repro.errors.ActorLostError`, and
  anything unrecoverable resolves to :class:`~repro.errors.NodeLostError`.
* **Objects** are the proc runtime's :class:`~repro.proc.objects.ObjectPlane`,
  to which this backend adds *residence on a node* through three hooks:
  pull one copy to the driver (:meth:`AgentLink.fetch_object`), delete a
  released object on the nodes that hold it
  (:meth:`AgentLink.delete_objects`), and — :meth:`DistRuntime._on_link_dead`
  — sweep what a lost node took with it through the one replay-or-error
  verdict.

Simplifications (documented, deliberate): node-to-node transfer is
routed *through the driver* (pull-once-per-node still holds — the copy
landed in the consuming node's arena serves repeats); worker
``put``\\ s of large values ship bytes to
the driver store (only task *results* are node-resident); agents run on
localhost, so "inter-node" is measured in bytes crossing TCP, not hosts.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
from typing import Any, Optional

from repro.cluster.spec import ClusterSpec
from repro.core.protocol import cluster_stats
from repro.dist import protocol as ctl
from repro.dist.agent import agent_main
from repro.errors import BackendError
from repro.proc.objects import PULL_TIMEOUT
from repro.proc.runtime import (
    DEFAULT_SHM_CAPACITY,
    ProcRuntime,
    _WorkerHandle,
)
from repro.proc.transport import TcpTransport, Transport
from repro.shm.segment import shm_available
from repro.utils.serialization import DEFAULT_INLINE_THRESHOLD

#: Sentinel queued into a channel to signal EOF (worker or node died).
_EOF = object()

#: Default agent heartbeat period, and the default liveness timeout as a
#: multiple of it — generous enough that a GIL-bound driver under load
#: never false-positives, small enough that the SIGSTOP test is quick.
DEFAULT_HEARTBEAT_INTERVAL = 0.2
_TIMEOUT_INTERVALS = 10

#: How long the driver waits for all agents to connect and say HELLO.
_HANDSHAKE_TIMEOUT = 20.0


class ChannelTransport(Transport):
    """One worker's message channel, multiplexed over its node's link.

    Presents the same surface as the pipe the proc runtime expects:
    ``send`` enqueues a ``(channel, message)`` frame for the link's
    sender thread (never blocks; raises ``OSError`` once the link is
    dead — the same edge a closed pipe gives), ``recv`` blocks on the
    channel's inbound queue and raises ``EOFError`` on the sentinel the
    reader enqueues when the worker or its node dies.
    """

    def __init__(self, link: "AgentLink", channel: int, inbound: queue.Queue) -> None:
        self._link = link
        self._channel = channel
        self._inbound = inbound

    def send(self, message: Any) -> None:
        self._link.enqueue((self._channel, message))

    def recv(self) -> Any:
        item = self._inbound.get()
        if item is _EOF:
            self._inbound.put(_EOF)  # stay at EOF for any later recv/poll
            raise EOFError("worker channel closed")
        return item

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether ``recv`` would return (or raise EOF) without blocking,
        waiting up to ``timeout`` seconds for that to become true."""
        inbound = self._inbound
        with inbound.not_empty:
            return bool(
                inbound.not_empty.wait_for(lambda: len(inbound.queue), timeout)
            )

    def writable(self) -> bool:
        # Sends enqueue to an unbounded in-memory queue: always "ready".
        # Control messages therefore never park in the worker outbox.
        return True

    def close(self) -> None:
        pass  # the link owns the socket; the channel queue is just GC'd

    def fileno(self) -> int:
        raise OSError("channel transports have no file descriptor")


class AgentLink:
    """Driver-side state of one node agent connection.

    Owns the TCP transport and two threads: a *reader* that demultiplexes
    inbound frames (worker frames to per-channel queues, control frames
    handled inline) and a *sender* that drains an outbound queue (so no
    runtime thread ever blocks on the socket).  Death — EOF, send error,
    or :meth:`kill` — is funneled through :meth:`_mark_dead` exactly
    once: every channel gets the EOF sentinel (waking its service thread
    into crash recovery) and pending object pulls resolve to ``None``.
    """

    def __init__(
        self,
        runtime: "DistRuntime",
        node_index: int,
        transport: TcpTransport,
        agent_pid: int,
        shm_on: bool,
    ) -> None:
        self.runtime = runtime
        self.node_index = node_index
        self.transport = transport
        self.agent_pid = agent_pid
        self.shm_on = shm_on
        self.alive = True
        self.last_beat = time.monotonic()
        #: channel -> pid, from WORKER_SPAWNED acks (what kill_node kills).
        self.worker_pids: dict[int, int] = {}
        #: channel -> inbound Queue (replaced on respawn).
        self.channels: dict[int, queue.Queue] = {}
        #: shm segment names the agent reported; unlinked at shutdown if
        #: the agent was killed before its own teardown could run.
        self.segments: list[str] = []
        #: The node-loss sweep ran for this link (once, on first EOF).
        self.reclaimed = False
        self._lock = threading.Lock()
        self._dead = False
        self._out: queue.Queue = queue.Queue()
        self._fetch_ids = itertools.count()
        self._fetches: dict[int, list] = {}  # req -> [Event, result]
        self._reader = threading.Thread(
            target=self._reader_loop,
            name=f"repro-dist-link-{node_index}-reader",
            daemon=True,
        )
        self._sender = threading.Thread(
            target=self._sender_loop,
            name=f"repro-dist-link-{node_index}-sender",
            daemon=True,
        )

    def start(self) -> None:
        self._reader.start()
        self._sender.start()

    def open_channel(self, channel: int) -> queue.Queue:
        """A fresh inbound queue for (re)spawning the worker on ``channel``."""
        inbound: queue.Queue = queue.Queue()
        self.channels[channel] = inbound
        if not self.alive:
            inbound.put(_EOF)
        return inbound

    def enqueue(self, frame: tuple) -> None:
        if not self.alive:
            raise OSError(f"link to node {self.node_index} is down")
        self._out.put(frame)

    # -- threads --------------------------------------------------------

    def _sender_loop(self) -> None:
        while True:
            frame = self._out.get()
            if frame is None:
                return
            try:
                self.transport.send(frame)
            except (OSError, EOFError, ValueError):
                self._mark_dead()
                return

    def _reader_loop(self) -> None:
        try:
            while True:
                channel, message = self.transport.recv()
                # Any inbound frame proves the agent is scheduled and its
                # link drains — a SIGSTOPped or dead agent produces none.
                self.last_beat = time.monotonic()
                if channel == ctl.CTRL:
                    self._handle_control(message)
                    continue
                inbound = self.channels.get(channel)
                if inbound is not None:
                    inbound.put(message)
        except (OSError, EOFError):
            pass
        self._mark_dead()

    def _handle_control(self, message: tuple) -> None:
        tag = message[0]
        if tag == ctl.HEARTBEAT:
            pass  # last_beat already stamped above
        elif tag == ctl.WORKER_SPAWNED:
            self.worker_pids[message[1]] = message[2]
        elif tag == ctl.WORKER_DOWN:
            inbound = self.channels.get(message[1])
            if inbound is not None:
                inbound.put(_EOF)
                # Its service thread may be waiting on the cond, not
                # reading: a worker whose tasks are all parked.
                with self.runtime._cond:
                    self.runtime._cond.notify_all()
        elif tag == ctl.OBJECT_DATA:
            with self._lock:
                entry = self._fetches.pop(message[1], None)
            if entry is not None:
                data = message[2]
                if isinstance(data, memoryview):
                    # An arena frame, crossed out of band: unpickling
                    # wraps the read-only view of it around the
                    # bytearray the transport received it into.
                    data = data.obj
                entry[1] = data
                entry[0].set()
        elif tag == ctl.SEGMENTS:
            self.segments = list(message[1])
        elif tag == ctl.SPANS:
            # The agent's own tracing buffer, flushed on the heartbeat
            # cadence.  Guarded with getattr: agents start before
            # super().__init__ creates the collector.
            obs = getattr(self.runtime, "_obs", None)
            if obs is not None and obs.enabled:
                obs.ingest(
                    ("agent", self.node_index),
                    message[1],
                    extra={"node": f"node-{self.node_index}"},
                )

    # -- death ----------------------------------------------------------

    def _mark_dead(self) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            self.alive = False
            pending = list(self._fetches.values())
            self._fetches.clear()
        for inbound in list(self.channels.values()):
            inbound.put(_EOF)
        for entry in pending:
            entry[0].set()  # result stays None: the pull failed
        self._out.put(None)  # stop the sender
        try:
            self.transport.close()
        except OSError:
            pass
        # Recovery must not wait for a service thread to notice: an IDLE
        # worker's thread is parked on the runtime cond, not on recv(),
        # so the EOF sentinel alone would sit unread forever.
        self.runtime._on_link_dead(self)

    def kill(self) -> None:
        """SIGKILL the whole node: agent first, then its workers (their
        pipes EOF either way; killing them directly avoids orphans if the
        agent was SIGSTOPped and cannot reap).  Closing the socket makes
        detection immediate instead of waiting for kernel FIN delivery."""
        with self._lock:
            pids = [self.agent_pid] + list(self.worker_pids.values())
        for pid in pids:
            if not pid:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        try:
            self.transport.close()
        except OSError:
            pass

    def close(self) -> None:
        self._mark_dead()

    def join_threads(self, timeout: float = 2.0) -> None:
        for thread in (self._reader, self._sender):
            if thread.is_alive():
                thread.join(timeout=timeout)

    # -- inter-node object transfer -------------------------------------

    def fetch_object(
        self, object_id: Any, timeout: float = PULL_TIMEOUT
    ) -> Any:
        """Pull one node-resident object: its arena frame, as the
        ``bytearray`` the transport received it into (None if the node
        is dead, no longer holds it, or the pull timed out)."""
        with self._lock:
            if self._dead:
                return None
            req = next(self._fetch_ids)
            entry: list = [threading.Event(), None]
            self._fetches[req] = entry
        try:
            self.enqueue((ctl.CTRL, (ctl.FETCH_OBJECT, req, object_id)))
        except OSError:
            with self._lock:
                self._fetches.pop(req, None)
            return None
        entry[0].wait(timeout)
        with self._lock:
            self._fetches.pop(req, None)
        return entry[1]

    def delete_objects(self, object_ids: list) -> None:
        """The driver released these: drop the node's arena slots of
        them."""
        try:
            self.enqueue((ctl.CTRL, (ctl.DELETE_OBJECT, object_ids)))
        except OSError:
            pass  # dead node holds nothing worth deleting


class DistRuntime(ProcRuntime):
    """Multi-node implementation of the backend protocol (TCP agents).

    Dispatch frames are the same plane's (``DispatchPlane.claim_frame``),
    budget-sized like ``proc``'s own: what is shipped ahead to a node
    stays recallable over TCP at any moment (a worker's reader answers
    while a task runs there), and a lost node charges
    each shipped-ahead task one lineage replay of its own budget — never
    one task more of them."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        seed: int = 0,
        workers_per_node: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: Optional[float] = None,
        inline_threshold: int = DEFAULT_INLINE_THRESHOLD,
        shm_capacity: int = DEFAULT_SHM_CAPACITY,
        control_store: Any = None,
        recover: bool = False,
        tracing: bool = False,
    ) -> None:
        cluster = cluster or ClusterSpec.uniform(num_nodes=2, num_cpus=2)
        num_nodes = cluster.num_nodes
        if workers_per_node is None:
            workers_per_node = max(1, cluster.total_cpus // num_nodes)
        if not isinstance(workers_per_node, int) or workers_per_node < 1:
            raise BackendError(
                f"invalid init option workers_per_node={workers_per_node!r} "
                "for backend 'dist'; must be a positive integer"
            )
        if not heartbeat_interval or heartbeat_interval <= 0:
            raise BackendError(
                f"invalid init option heartbeat_interval="
                f"{heartbeat_interval!r} for backend 'dist'; must be > 0"
            )
        self._workers_per_node = workers_per_node
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_timeout = (
            float(heartbeat_timeout)
            if heartbeat_timeout is not None
            else _TIMEOUT_INTERVALS * self._heartbeat_interval
        )
        self._links: list[AgentLink] = []
        self._agent_procs: list = []
        self._listener: Optional[socket.socket] = None
        self._nodes_lost = 0
        self._heartbeat_timeouts = 0
        self._monitor_stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None

        per_node_shm = 0
        if shm_capacity and shm_available():
            # The byte budget is cluster-wide; each node arena gets an
            # equal share (each agent re-clamps to its host's real /dev/shm).
            per_node_shm = max(0, int(shm_capacity) // num_nodes)
        config = {
            "seed": seed,
            "shm_capacity": per_node_shm,
            "inline_threshold": inline_threshold,
            "total_workers": num_nodes * workers_per_node,
            "heartbeat_interval": self._heartbeat_interval,
            "tracing": tracing,
            "cluster": cluster,
        }
        try:
            self._start_agents(num_nodes, config)
            super().__init__(
                cluster=cluster,
                seed=seed,
                num_workers=num_nodes * workers_per_node,
                inline_threshold=inline_threshold,
                shm_capacity=0,  # no driver arena: data lives on the nodes
                control_store=control_store,
                recover=recover,
                tracing=tracing,
            )
        except BaseException:
            self._teardown_links()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop,
            name="repro-dist-heartbeat-monitor",
            daemon=True,
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Cluster bring-up / teardown
    # ------------------------------------------------------------------

    def _start_agents(self, num_nodes: int, config: dict) -> None:
        mp_ctx = multiprocessing.get_context("spawn")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(num_nodes)
        listener.settimeout(_HANDSHAKE_TIMEOUT)
        self._listener = listener
        host, port = listener.getsockname()
        for index in range(num_nodes):
            # daemon=False: daemonic processes cannot spawn children, and
            # agents must spawn workers.  Orphan safety comes from the
            # socket instead — an agent exits on driver-link EOF.
            process = mp_ctx.Process(
                target=agent_main,
                args=(host, port, index, config),
                name=f"repro-dist-agent-{index}",
                daemon=False,
            )
            process.start()
            self._agent_procs.append(process)
        links: list = [None] * num_nodes
        for _ in range(num_nodes):
            try:
                sock, _addr = listener.accept()
            except OSError as exc:
                raise BackendError(
                    f"dist agent did not connect within "
                    f"{_HANDSHAKE_TIMEOUT:.0f}s: {exc!r}"
                ) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            transport = TcpTransport(sock)
            sock.settimeout(_HANDSHAKE_TIMEOUT)
            try:
                channel, hello = transport.recv()
            except (OSError, EOFError) as exc:
                raise BackendError(
                    f"dist agent handshake failed: {exc!r}"
                ) from exc
            sock.settimeout(None)
            if channel != ctl.CTRL or not hello or hello[0] != ctl.HELLO:
                raise BackendError(
                    f"dist agent handshake failed: unexpected frame "
                    f"{(channel, hello)!r}"
                )
            _tag, node_index, agent_pid, shm_on = hello
            if not 0 <= node_index < num_nodes or links[node_index] is not None:
                raise BackendError(
                    f"dist agent handshake failed: bad node index {node_index}"
                )
            links[node_index] = AgentLink(
                self, node_index, transport, agent_pid, shm_on
            )
        self._links = links
        for link in links:
            link.start()

    def _teardown_links(self) -> None:
        for link in self._links:
            if link is not None:
                link.kill()
        for process in self._agent_procs:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        for link in self._links:
            if link is not None:
                link.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def _monitor_loop(self) -> None:
        # Sub-interval ticks keep detection latency under one heartbeat.
        while not self._monitor_stop.wait(self._heartbeat_interval / 2):
            if self.closed:
                return
            now = time.monotonic()
            for link in self._links:
                if link.alive and now - link.last_beat > self._heartbeat_timeout:
                    self._heartbeat_timeouts += 1
                    self._obs.record(
                        "failure_detected",
                        node=f"node-{link.node_index}",
                        reason="heartbeat_timeout",
                    )
                    link.kill()  # collapse silence onto the crash path

    def _end_pool(self, crashed: bool) -> None:
        """The proc runtime's, for a pool the agents own: ``shutdown``
        asks them to go first; a crashing driver just vanishes and they
        die on link EOF."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
        if not crashed:
            # Graceful first: agents SIGKILL their workers, unlink their
            # arenas, and exit; the joins below give them a moment.
            for link in self._links:
                if link.alive:
                    try:
                        link.enqueue((ctl.CTRL, (ctl.SHUTDOWN_NODE,)))
                    except OSError:
                        pass
            for process in self._agent_procs:
                process.join(timeout=2.0)
        self._teardown_links()  # EOF sentinels wake every service thread
        for worker in self._workers:
            worker.thread.join(timeout=5.0)
        for link in self._links:
            link.join_threads()
        # Arenas of agents that died *ungracefully* (kill_node, SIGKILL
        # escalation) never ran their own unlink; the reported segment
        # names let the driver reclaim them.  POSIX shm segments are
        # /dev/shm files on Linux, so plain unlink avoids re-attaching
        # (and re-tracking) dead segments; the tracker entry the dead
        # agent registered (spawned children share the driver's tracker
        # daemon) is dropped too, silencing its at-exit leak warning.
        self._unlink_dead_segments()
        self._objects.shutdown()
        self._completions.stop()

    def _unlink_dead_segments(self) -> None:
        for link in self._links:
            for name in link.segments:
                try:
                    os.unlink(os.path.join("/dev/shm", name.lstrip("/")))
                except OSError:
                    continue
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(
                        "/" + name.lstrip("/"), "shared_memory"
                    )
                except Exception:  # noqa: BLE001 - tracker impl detail
                    pass

    # ------------------------------------------------------------------
    # Worker pool plumbing (channels instead of pipes)
    # ------------------------------------------------------------------

    def _link_of(self, worker_index: int) -> AgentLink:
        return self._links[worker_index // self._workers_per_node]

    def _spawn_worker(self, index: int) -> _WorkerHandle:
        """Ask the owning node's agent to start the worker (lock held).

        No spawn ack is awaited: the channel is usable immediately (sends
        queue on the link; the agent processes SPAWN_WORKER before any
        frame that follows it, per link FIFO)."""
        link = self._link_of(index)
        channel = index % self._workers_per_node
        inbound = link.open_channel(channel)
        worker = _WorkerHandle(
            index=index,
            node_id=self.ids.node_id(),
            conn=ChannelTransport(link, channel, inbound),
        )
        self._spawn_count += 1
        worker.process = None  # the agent owns the OS process
        try:
            link.enqueue(
                (ctl.CTRL, (ctl.SPAWN_WORKER, channel, index, self._spawn_count))
            )
        except OSError:
            inbound.put(_EOF)  # dead node: service thread sees EOF at once
        return self._serve_worker(worker)

    def kill_worker(self, index: int) -> None:
        """Fault injection: SIGKILL one worker process (via its agent)."""
        with self._cond:
            self._check_open()
            if not 0 <= index < len(self._workers):
                raise ValueError(f"no worker with index {index}")
        link = self._link_of(index)
        try:
            link.enqueue(
                (ctl.CTRL, (ctl.KILL_WORKER, index % self._workers_per_node))
            )
        except OSError:
            pass  # node already dead: node-loss recovery owns the worker

    def kill_node(self, index: int) -> None:
        """Fault injection: SIGKILL one whole node — its agent and every
        worker on it.  Detection is the link EOF (immediate) or, for a
        merely-silent node, the heartbeat monitor; recovery re-homes the
        node's tasks and re-produces its resident objects through the
        lineage gate."""
        with self._cond:
            self._check_open()
            if not 0 <= index < len(self._links):
                raise ValueError(f"no node with index {index}")
        self._obs.record("node_killed", node=f"node-{index}")
        self._links[index].kill()

    def worker_pids(self) -> list:
        """PIDs of the live worker processes (as reported by agents)."""
        with self._cond:
            live = [
                (w.index // self._workers_per_node,
                 w.index % self._workers_per_node)
                for w in self._workers
                if w.alive
            ]
        pids = []
        for node_index, channel in live:
            pid = self._links[node_index].worker_pids.get(channel)
            if pid is not None:
                pids.append(pid)
        return pids

    def agent_pids(self) -> list:
        """PIDs of the live node agents (tests/tools)."""
        return [link.agent_pid for link in self._links if link.alive]

    def _obs_worker_extra(self, worker) -> dict:
        """Span identity on dist: the worker's slot and its *owning node*
        (so chrome-trace pid tracks group by node, tid by worker)."""
        return {
            "worker": f"worker-{worker.index}",
            "node": f"node-{worker.index // self._workers_per_node}",
        }

    def _node_hooks(self) -> tuple:
        return self._links, self._workers_per_node

    # ------------------------------------------------------------------
    # Node loss
    # ------------------------------------------------------------------

    def _on_link_dead(self, link: AgentLink) -> None:
        """A node's link died (EOF, send failure, kill): run recovery for
        every worker of that node *now*.  Service threads blocked in
        recv() also hit the EOF sentinel and come through
        :meth:`_handle_worker_crash`, but both paths are idempotent
        (``worker.alive`` / ``link.reclaimed`` guards), and an idle
        worker has no thread anywhere near its channel — this call is
        the only thing that fails it."""
        workers = getattr(self, "_workers", None)
        if workers is None:
            return  # link died during __init__, before the pool exists
        with self._cond:
            if self.closed:
                return
            lo = link.node_index * self._workers_per_node
            for worker in workers[lo:lo + self._workers_per_node]:
                self._worker_lost(worker)
            if not link.reclaimed:
                # Once per lost node: what lived only there is re-produced
                # or resolved to an error by the object plane.
                link.reclaimed = True
                self._nodes_lost += 1
                self._objects.node_lost(link.node_index)
            self._cond.notify_all()

    def _replace_worker(self, worker) -> tuple:
        """Worker died, node survives: identical to a proc crash — the
        replacement is respawned via the agent.  On a dead node there is
        nothing to respawn into: no replacement (the plane lets a
        surviving worker stand in), and what died there died with the
        node, ``lost_node``."""
        link = self._link_of(worker.index)
        if link.alive:
            return super()._replace_worker(worker)
        return None, link.node_index

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        base = super().stats()
        with self._cond:
            now = time.monotonic()
            nodes = []
            for node_index, link in enumerate(self._links):
                lo = node_index * self._workers_per_node
                hi = lo + self._workers_per_node
                nodes.append(
                    (
                        link.alive,
                        link.agent_pid,
                        link.shm_on,
                        round(now - link.last_beat, 6) if link.alive else None,
                        sum(1 for w in self._workers[lo:hi] if w.alive),
                        *self._objects.node_usage(node_index),
                    )
                )
            base["cluster"] = cluster_stats(
                nodes,
                self._workers_per_node,
                nodes_lost=self._nodes_lost,
                heartbeat_timeouts=self._heartbeat_timeouts,
                heartbeat_interval=self._heartbeat_interval,
                heartbeat_timeout=self._heartbeat_timeout,
                objects_node_resident=self._objects.node_usage()[0],
                internode=self._objects.acct_internode.snapshot(),
            )
        return base
