"""SimRuntime: the Figure 3 architecture on the simulated cluster.

One instance = one cluster: per node a local scheduler, ``num_cpus +
num_gpus`` workers, and an object store with a transfer manager; on the
head node the sharded control plane, one or more global schedulers, the
failure monitor, the lineage manager, and the driver.  The public API in
:mod:`repro.api` talks to this class through a small backend protocol
(submit / get / wait / put / sleep), so user programs are identical across
the simulated and threaded backends.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Generator, Optional, Sequence

from repro.cluster.costs import SystemCosts
from repro.cluster.network import NetworkModel
from repro.cluster.spec import ClusterSpec
from repro.core import actors, lifecycle
from repro.core.actors import (
    CREATION_METHOD,
    ActorRegistry,
    actor_lost_error_value,
    chain_submission,
)
from repro.core.completion import serve_stats
from repro.core.driver import Driver
from repro.core.lifecycle import LifecycleIndex, cancelled_error_value
from repro.core.object_ref import ObjectRef
from repro.core.protocol import cluster_stats, unwrap_value
from repro.core.task import CallTemplate, TaskSpec, TaskState
from repro.core.worker import ErrorValue, Worker, WorkerContext
from repro.errors import BackendError, ObjectLostError, SchedulingError
from repro.fault.lineage import LineageManager
from repro.fault.monitor import FailureMonitor
from repro.scheduling.policies import PlacementCandidate
from repro.objectstore.store import LocalObjectStore
from repro.objectstore.transfer import TransferManager
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.local import LocalScheduler
from repro.scheduling.policies import PlacementPolicy, SpilloverPolicy
from repro.sim.core import AllOf, Delay, Simulator
from repro.store.control_plane import ControlPlane
from repro.utils.ids import FunctionID, IDGenerator, NodeID, ObjectID
from repro.utils.rng import RNGRegistry
from repro.utils.serialization import ByteAccountant, deserialize, serialize

#: scheduler_mode -> spillover policy mode
_SCHEDULER_MODES = {
    "hybrid": "hybrid",
    "centralized": "always_spill",
    "local_only": "never_spill",
}


class SimRuntime:
    """A complete simulated deployment of the proposed architecture."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        costs: Optional[SystemCosts] = None,
        network: Optional[NetworkModel] = None,
        num_gcs_shards: int = 4,
        num_global_schedulers: int = 1,
        scheduler_mode: str = "hybrid",
        spillover_policy: Optional[SpilloverPolicy] = None,
        placement_policy: Optional[PlacementPolicy] = None,
        enable_reconstruction: bool = True,
        enable_failure_monitor: bool = True,
        seed: int = 0,
        max_events_per_call: Optional[int] = 50_000_000,
        tracing: bool = True,
    ) -> None:
        if scheduler_mode not in _SCHEDULER_MODES:
            raise ValueError(
                f"unknown scheduler_mode {scheduler_mode!r}; "
                f"want one of {sorted(_SCHEDULER_MODES)}"
            )
        if num_global_schedulers < 0:
            raise ValueError("num_global_schedulers must be >= 0")

        self.cluster = cluster or ClusterSpec.uniform(num_nodes=1, num_cpus=4)
        self.costs = costs or SystemCosts()
        self.network = network or NetworkModel()
        self.scheduler_mode = scheduler_mode
        self.enable_reconstruction = enable_reconstruction
        self.max_events_per_call = max_events_per_call
        self.seed = seed
        #: Accepted for init() parity with the live backends.  The sim's
        #: event log is its own determinism record, so tracing is always
        #: on here; ``tracing=False`` is not supported.
        if not tracing:
            raise ValueError(
                "the sim backend always traces (its event log is the "
                "determinism record); tracing=False is not supported"
            )
        self.tracing = True

        self.sim = Simulator()
        self.ids = IDGenerator(namespace=f"repro/{seed}")
        self.rngs = RNGRegistry(root_seed=seed)
        self.closed = False

        # -- nodes ---------------------------------------------------------
        self.node_ids: list[NodeID] = [
            self.ids.node_id() for _ in self.cluster.nodes
        ]
        self.head_node_id = self.node_ids[0]
        self._alive: dict[NodeID, bool] = {n: True for n in self.node_ids}

        self.control_plane = ControlPlane(
            self.sim, self.network, self.costs, self.head_node_id, num_gcs_shards
        )
        self.event_log = self.control_plane.event_log
        #: The control store every backend keeps (the live runtimes'
        #: ``_control``); the sim reaches it through the cost model above.
        self._control = self.control_plane.store

        if spillover_policy is None:
            spillover_policy = SpilloverPolicy(mode=_SCHEDULER_MODES[scheduler_mode])
        if placement_policy is None:
            placement_policy = PlacementPolicy()
        self.spillover_policy = spillover_policy
        self.placement_policy = placement_policy

        self._stores: dict[NodeID, LocalObjectStore] = {}
        self._transfers: dict[NodeID, TransferManager] = {}
        self._schedulers: dict[NodeID, LocalScheduler] = {}
        self._workers: dict[NodeID, list[Worker]] = {}
        for node_id in self.node_ids:
            self._build_node(node_id)

        # -- head-node services -----------------------------------------------
        self.global_schedulers: list[GlobalScheduler] = [
            GlobalScheduler(self, self.head_node_id, placement_policy)
            for _ in range(num_global_schedulers)
        ]
        self.lineage = LineageManager(self)
        self.monitor = FailureMonitor(self)
        for scheduler in self.global_schedulers:
            self.control_plane.add_heartbeat_listener(scheduler.on_heartbeat)

        # Bootstrap: seed node-info rows at t=0 (cluster membership is known
        # at startup) and start heartbeats + failure detection.
        for node_id in self.node_ids:
            info = self._schedulers[node_id].node_info()
            info.last_heartbeat = 0.0
            self.control_plane.nodes[node_id] = info
        for node_id in self.node_ids:
            self.sim.spawn(
                self._schedulers[node_id].heartbeat_loop(), name=f"hb:{node_id.hex[:6]}"
            )
        if enable_failure_monitor:
            self.sim.spawn(self.monitor.run(), name="failure-monitor")

        # -- function registry, actor table, lifecycle, and driver ------------
        self._functions: dict[FunctionID, Callable] = {}
        self.actors = ActorRegistry(self._control)
        self._lifecycle = LifecycleIndex()
        self._worker_context_stack: list[WorkerContext] = []
        #: Live ActorPools (repro.serve), for stats()["serve"].  The sim
        #: backend has no completion pump — it is single-threaded — so
        #: the serving layer resolves synchronously and deterministically.
        self._serve_pools: list = []
        self.driver = Driver(self)

    def _build_node(self, node_id: NodeID) -> LocalScheduler:
        """A node's components, fresh (at start-up, or a restart): its
        object store and transfer manager, its local scheduler, and one
        worker per slot, drawing their ids in slot order."""
        spec = self.cluster.nodes[self.node_ids.index(node_id)]
        store = LocalObjectStore(node_id, spec.object_store_capacity, self.control_plane)
        transfer = TransferManager(
            self.sim, node_id, store, self.control_plane, self.network,
            node_alive=self.node_alive,
        )
        transfer.peer_stores = self._stores  # shared mapping
        scheduler = LocalScheduler(
            self, node_id, spec.num_cpus, spec.num_gpus, self.spillover_policy
        )
        scheduler.workers = [
            Worker(self, node_id, self.ids.worker_id(), scheduler)
            for _ in range(spec.num_cpus + spec.num_gpus)
        ]
        self._stores[node_id] = store
        self._transfers[node_id] = transfer
        self._schedulers[node_id] = scheduler
        self._workers[node_id] = scheduler.workers
        return scheduler

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------

    def object_store(self, node_id: NodeID) -> LocalObjectStore:
        return self._stores[node_id]

    def transfer(self, node_id: NodeID) -> TransferManager:
        return self._transfers[node_id]

    def local_scheduler(self, node_id: NodeID) -> LocalScheduler:
        return self._schedulers[node_id]

    def workers(self, node_id: NodeID) -> list[Worker]:
        return self._workers[node_id]

    @property
    def has_global_scheduler(self) -> bool:
        return bool(self.global_schedulers)

    def pick_global_scheduler(self, spec: TaskSpec) -> GlobalScheduler:
        """Deterministically spread spilled tasks across global schedulers."""
        if not self.global_schedulers:
            raise BackendError("no global scheduler configured")
        index = spec.task_id.shard_index(len(self.global_schedulers))
        return self.global_schedulers[index]

    def node_alive(self, node_id: NodeID) -> bool:
        return self._alive.get(node_id, False)

    @property
    def alive_nodes(self) -> list[NodeID]:
        return [n for n in self.node_ids if self._alive[n]]

    # ------------------------------------------------------------------
    # Function registry
    # ------------------------------------------------------------------

    def register_function(self, function: Callable, name: str) -> FunctionID:
        """Register a remote function in the function table."""
        function_id = self.ids.function_id()
        self._functions[function_id] = function
        self.control_plane.async_function_register(function_id, name)
        return function_id

    def resolve_function(self, spec: TaskSpec) -> Optional[Callable]:
        if spec.function is not None:
            return spec.function
        return self._functions.get(spec.function_id)

    # ------------------------------------------------------------------
    # Worker context (nested task creation, R3)
    # ------------------------------------------------------------------

    def push_worker_context(self, context: WorkerContext) -> None:
        self._worker_context_stack.append(context)

    def pop_worker_context(self) -> None:
        self._worker_context_stack.pop()

    def current_worker_context(self) -> Optional[WorkerContext]:
        return self._worker_context_stack[-1] if self._worker_context_stack else None

    # ------------------------------------------------------------------
    # Backend protocol (used by repro.api)
    # ------------------------------------------------------------------

    def submit_call(self, template: CallTemplate, args: tuple, kwargs: dict) -> Any:
        """Create and submit one call of ``template``; returns its
        future(s) immediately (a tuple of k refs under ``num_returns=k``).
        This is what ``RemoteFunction.remote`` calls."""
        self._check_open()
        template.check_feasible(self.cluster)
        context = self.current_worker_context()
        spec = template.stamp(
            self.ids, args, kwargs,
            submitted_from=context.node_id if context else self.head_node_id,
        )
        self._lifecycle.register(spec)
        self._submit_spec(spec, context)
        return spec.public_result()

    def _submit_spec(self, spec: TaskSpec, context: Optional[WorkerContext]) -> ObjectRef:
        if context is not None:
            # Nested submission from inside a running task: fire-and-forget
            # into this node's local scheduler (non-blocking, R3).
            self.local_scheduler(context.node_id).submit(spec)
            return spec.result_ref()
        return self.driver.submit(spec)

    # ------------------------------------------------------------------
    # Actor protocol (repro.core.actors)
    # ------------------------------------------------------------------

    create_actor = actors.create_actor
    call_actor = actors.call_actor
    get_actor = actors.get_actor

    def _current_node_id(self) -> NodeID:
        context = self.current_worker_context()
        return context.node_id if context else self.head_node_id

    def _actor_home(self, spec: TaskSpec) -> NodeID:
        """A live hinted node, else the choice of the same
        :class:`~repro.scheduling.policies.PlacementPolicy` the global
        scheduler uses, from live scheduler state; so the constructor
        task and every method call carry a placement hint that the
        ordinary spillover/global scheduling path honors."""
        if self.node_alive(spec.placement_hint):
            return spec.placement_hint
        candidates = []
        for node_id in self.alive_nodes:
            scheduler = self._schedulers[node_id]
            if spec.resources.fits_node(scheduler.num_cpus, scheduler.num_gpus):
                candidates.append(
                    PlacementCandidate(
                        node_id=node_id,
                        est_cpus=scheduler.available_cpus,
                        est_gpus=scheduler.available_gpus,
                        queue_length=len(scheduler.runnable),
                    )
                )
        if not candidates:
            raise SchedulingError(
                f"no live node satisfies {spec.resources} for {spec.function_name}"
            )
        target = self.placement_policy.choose(spec, candidates)
        if target is None:
            # Saturated cluster: actors still need a home now; take the
            # least-loaded feasible node deterministically.
            target = max(
                candidates,
                key=lambda c: (c.est_cpus + c.est_gpus, -c.queue_length, c.node_id.hex),
            ).node_id
        return target

    def _submit_actor_task(self, record, spec: TaskSpec) -> None:
        """Ordering is structural: the spec depends on the previous
        call's result object, so method tasks of one actor can never
        interleave.  (The actor's control-store row is written straight
        into the store, uncharged; the modelled log says when.)"""
        chain_submission(record, spec)
        self._lifecycle.register(spec)
        if spec.actor_method == CREATION_METHOD:
            self.control_plane.log(
                "actor_create_submitted", actor_id=record.actor_id,
                node=record.node_id, class_name=record.class_name,
            )
        self._submit_spec(spec, self.current_worker_context())

    def get(self, refs: Any, timeout: Optional[float] = None) -> Any:
        self._check_open()
        self._forbid_worker_blocking("get")
        return self.driver.get(refs, timeout=timeout)

    def wait(
        self,
        refs: Sequence[ObjectRef],
        num_returns: int = 1,
        timeout: Optional[float] = None,
    ) -> tuple:
        self._check_open()
        self._forbid_worker_blocking("wait")
        return self.driver.wait(refs, num_returns=num_returns, timeout=timeout)

    def cancel(self, ref: ObjectRef, recursive: bool = False) -> bool:
        """Cancel the task producing ``ref`` (shared core semantics)."""
        self._check_open()
        return lifecycle.cancel(self, ref, recursive=recursive)

    # -- lifecycle hooks (see repro.core.lifecycle) ---------------------

    def task_cancelled(self, task_id) -> bool:
        """Dispatch/store-time probe used by schedulers and workers."""
        return self._lifecycle.is_cancelled(task_id)

    @property
    def has_cancelled_tasks(self) -> bool:
        """Cheap guard so the no-cancellation hot path skips filtering."""
        return self._lifecycle.cancelled_count > 0

    def _lifecycle_guard(self):
        return nullcontext()  # the sim backend is single-threaded

    def _result_ready(self, object_id: ObjectID) -> bool:
        entry = self._control.object_get(object_id)
        return entry is not None and entry.ready

    def _store_cancelled(self, spec: TaskSpec) -> None:
        self.control_plane.log("task_cancelled", task_id=spec.task_id)
        self._store_failure(
            spec,
            cancelled_error_value(spec, "cancelled before a result was produced"),
            state=TaskState.CANCELLED,
        )

    def _parked_dependents(self, object_id: ObjectID) -> list:
        dependents = []
        for node_id in self.node_ids:
            dependents.extend(
                lifecycle.parked_dependents(
                    self._schedulers[node_id].deps, object_id
                )
            )
        return dependents

    def put(self, value: Any) -> ObjectRef:
        self._check_open()
        context = self.current_worker_context()
        if context is not None:
            # Worker-side put: zero-cost insert at the current instant
            # (plain task bodies execute atomically; generator bodies can
            # use the Put effect to charge the real cost).
            object_id = self.ids.object_id()
            data = serialize(value)
            self.object_store(context.node_id).put(object_id, data)
            self.control_plane.async_object_add_location(
                context.node_id, object_id, context.node_id, len(data)
            )
            return ObjectRef(object_id)
        return self.driver.put(value)

    def sleep(self, duration: float) -> None:
        self._check_open()
        self._forbid_worker_blocking("sleep")
        self.driver.sleep(duration)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def _forbid_worker_blocking(self, what: str) -> None:
        if self.current_worker_context() is not None:
            raise BackendError(
                f"blocking {what}() inside a plain task body is not supported "
                "on the simulated backend — write the task as a generator and "
                f"yield the {what.capitalize()} effect instead "
                "(see repro.core.effects)"
            )

    def _check_open(self) -> None:
        if self.closed:
            raise BackendError("runtime is shut down")

    # ------------------------------------------------------------------
    # Readiness / fetching primitives (shared by driver and workers)
    # ------------------------------------------------------------------

    def await_ready(
        self,
        node_id: NodeID,
        object_id: ObjectID,
        require_live_location: bool = False,
    ) -> Generator:
        """Process: wait until the object is ready (optionally on a live
        node); returns the object-table snapshot."""
        cp = self.control_plane

        def satisfied(entry) -> bool:
            if entry is None or not entry.ready:
                return False
            if not require_live_location:
                return True
            return any(self.node_alive(n) for n in entry.locations)

        while True:
            signal = self.sim.signal(name=f"ready:{object_id.hex[:8]}")

            def callback(entry, s=signal):
                if not s.fired:
                    s.fire(entry)

            snapshot = yield from cp.object_subscribe_ready(
                node_id, object_id, callback, register_always=require_live_location
            )
            if satisfied(snapshot):
                return snapshot
            entry = yield signal
            if satisfied(entry):
                return entry

    def fetch_local(self, node_id: NodeID, object_id: ObjectID) -> Generator:
        """Process: materialize the object locally, reconstructing via
        lineage replay if every replica was lost."""
        attempts = 0
        while True:
            try:
                data = yield from self.transfer(node_id).ensure_local(object_id)
                return data
            except ObjectLostError:
                if not self.enable_reconstruction or attempts >= 3:
                    raise
                attempts += 1
                yield from self.lineage.reconstruct_and_wait(node_id, object_id)

    def get_values(self, node_id: NodeID, refs: Sequence[ObjectRef]) -> Generator:
        """Process: resolve futures to deserialized values (driver ``get``)."""
        processes = [
            self.sim.spawn(
                self._get_one_data(node_id, ref), name=f"get:{ref.object_id.hex[:6]}"
            )
            for ref in refs
        ]
        datas = yield AllOf([p.done_signal for p in processes])
        yield Delay(self.costs.get_overhead)
        values = []
        for data in datas:
            yield Delay(self.costs.serialization_time(len(data)))
            values.append(unwrap_value(data))
        return values

    def _get_one_data(self, node_id: NodeID, ref: ObjectRef) -> Generator:
        store = self.object_store(node_id)
        data = store.get(ref.object_id)
        if data is not None:
            return data
        yield from self.await_ready(node_id, ref.object_id)
        data = yield from self.fetch_local(node_id, ref.object_id)
        return data

    def wait_ready(
        self,
        node_id: NodeID,
        refs: Sequence[ObjectRef],
        num_returns: int,
        timeout: Optional[float],
    ) -> Generator:
        """Process implementing ``wait`` semantics for driver and workers."""
        refs = list(refs)
        num_returns = min(num_returns, len(refs))
        status = [False] * len(refs)
        ready_count = 0
        done = self.sim.signal(name="wait-done")

        def mark_ready(index: int) -> None:
            nonlocal ready_count
            if status[index]:
                return
            status[index] = True
            ready_count += 1
            if ready_count >= num_returns and not done.fired:
                done.fire(None)

        for index, ref in enumerate(refs):
            snapshot = yield from self.control_plane.object_subscribe_ready(
                node_id, ref.object_id,
                lambda _entry, i=index: mark_ready(i),
            )
            if snapshot.ready:
                mark_ready(index)

        if ready_count >= num_returns and not done.fired:
            done.fire(None)
        if not done.fired:
            if timeout is not None:
                def on_timeout() -> None:
                    if not done.fired:
                        done.fire(None)

                self.sim.call_after(timeout, on_timeout)
            yield done

        ready = [refs[i] for i in range(len(refs)) if status[i]]
        pending = [refs[i] for i in range(len(refs)) if not status[i]]
        return ready, pending

    def deserialize_value(self, data: bytes) -> Any:
        return deserialize(data)

    # ------------------------------------------------------------------
    # Failure injection and recovery plumbing
    # ------------------------------------------------------------------

    def kill_node(self, node_id: NodeID) -> None:
        """Abruptly kill a node: its scheduler, workers, and object store
        vanish.  Recovery is driven by heartbeat timeout -> monitor."""
        if node_id == self.head_node_id:
            raise ValueError(
                "cannot kill the head node: it hosts the control plane, "
                "which the paper assumes is fault-tolerant (Section 3.2.1)"
            )
        if not self._alive[node_id]:
            return
        self._alive[node_id] = False
        self.control_plane.log("node_killed", node=node_id)
        self._schedulers[node_id].kill()
        for worker in self._workers[node_id]:
            worker.kill()
        self._stores[node_id].clear()
        # Actors whose constructed state lived here die with the node;
        # their orphaned calls resolve to ActorLostError via resubmit().
        for record in self.actors.mark_dead_on_node(node_id):
            self.control_plane.log(
                "actor_lost", actor_id=record.actor_id, node=node_id,
                class_name=record.class_name,
            )

    def kill_node_at(self, node_id: NodeID, at_time: float) -> None:
        """Schedule a node failure at a future virtual time."""
        self.sim.call_at(at_time, self.kill_node, node_id)

    def restart_node(self, node_id: NodeID) -> None:
        """Bring a dead node back as fresh, stateless components.

        This is the paper's recovery story made literal: because all
        authoritative state lives in the control plane, a restarted node
        is just a new local scheduler, new workers, and an empty object
        store under the same node identity — it re-announces itself via
        heartbeats and the global scheduler starts using it again.
        Objects it used to hold stay lost (lineage replay covers those).
        """
        if self._alive.get(node_id):
            raise ValueError(f"node {node_id} is already alive")
        if node_id not in self._alive:
            raise KeyError(f"unknown node {node_id}")
        scheduler = self._build_node(node_id)
        self._alive[node_id] = True
        if node_id in self.monitor.nodes_declared_dead:
            self.monitor.nodes_declared_dead.remove(node_id)
        # Seed a fresh node row synchronously (as at cluster bootstrap) so
        # the failure monitor cannot race the first heartbeat and condemn
        # the node for the silence of its previous life.
        info = scheduler.node_info()
        info.last_heartbeat = self.sim.now
        self.control_plane.nodes[node_id] = info
        self.control_plane.log("node_restarted", node=node_id)
        self.sim.spawn(scheduler.heartbeat_loop(), name=f"hb:{node_id.hex[:6]}")

    def restart_node_at(self, node_id: NodeID, at_time: float) -> None:
        """Schedule a node restart at a future virtual time."""
        self.sim.call_at(at_time, self.restart_node, node_id)

    def reroute_from_dead_node(self, spec: TaskSpec, dead_node: NodeID) -> None:
        """A placement raced a node death; send the task back for re-placement."""
        self.control_plane.log("task_rerouted", task_id=spec.task_id, node=dead_node)
        self.pick_global_scheduler(spec).receive(spec)

    def resubmit(self, spec: TaskSpec) -> None:
        """Re-enter a task from its stored spec (failure recovery / replay).

        Stateless tasks re-run anywhere; a task belonging to a *dead*
        actor cannot (its state died with the node), so it is failed with
        an actor-lost marker instead — every getter, and every call
        chained behind it, unblocks with :class:`ActorLostError`.
        """
        if spec.actor_id is not None and self.actors.is_dead(spec.actor_id):
            record = self.actors.get(spec.actor_id)
            self.control_plane.log(
                "actor_task_lost", task_id=spec.task_id, actor_id=spec.actor_id
            )
            self._store_failure(spec, actor_lost_error_value(spec, record))
            return
        self.local_scheduler(self.head_node_id).submit(spec)

    def fail_task(self, spec: TaskSpec, exc: Exception) -> None:
        """Mark a task permanently failed: store an error value as its
        result so every getter unblocks with a diagnosable error (R7)."""
        self._store_failure(
            spec,
            ErrorValue(
                task_id=spec.task_id,
                function_name=spec.function_name,
                cause_repr=repr(exc),
                chain=(spec.function_name,),
            ),
        )

    def _store_failure(
        self, spec: TaskSpec, error: ErrorValue, state: str = TaskState.FAILED
    ) -> None:
        def proc() -> Generator:
            data = serialize(error)
            store = self.object_store(self.head_node_id)
            for object_id in spec.all_return_ids():
                store.put(object_id, data)
                self.control_plane.async_object_add_location(
                    self.head_node_id, object_id, self.head_node_id,
                    len(data), producer_task=spec.task_id,
                )
            self.control_plane.async_task_set_state(
                self.head_node_id, spec.task_id, state
            )
            yield Delay(0.0)

        self.sim.spawn(proc(), name="fail-task")

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate counters for benchmarks and the dashboard."""
        return {
            "virtual_time": self.sim.now,
            "events_processed": self.sim.events_processed,
            "tasks_submitted": sum(s.tasks_submitted for s in self._schedulers.values()),
            "tasks_executed": sum(s.tasks_executed for s in self._schedulers.values()),
            "tasks_spilled": sum(s.tasks_spilled for s in self._schedulers.values()),
            "tasks_placed": sum(g.tasks_placed for g in self.global_schedulers),
            "gcs_ops": self.control_plane.ops_total,
            "gcs_ops_per_shard": list(self.control_plane.ops_per_shard),
            "transfers": sum(t.transfers_completed for t in self._transfers.values()),
            "bytes_transferred": sum(t.bytes_transferred for t in self._transfers.values()),
            "evictions": sum(s.evictions for s in self._stores.values()),
            "reconstructions": self.lineage.reconstructions_started,
            "nodes_declared_dead": len(self.monitor.nodes_declared_dead),
            "actors_created": len(self.actors),
            "tasks_cancelled": self._lifecycle.cancelled_count,
            "serve": serve_stats(self._serve_pools),
            "cluster": self._cluster_stats(),
            "control": self.control_plane.control_stats(),
            # Tracing-plane parity with the live backends: the sim's log
            # is always on and written in-process (no flushes, no skew).
            "obs": {
                "enabled": True,
                "spans_recorded": len(self.event_log) + self.event_log.dropped,
                "spans_dropped": self.event_log.dropped,
                "flushes": 0,
                "clock_skew_est": 0.0,
            },
        }

    def _cluster_stats(self) -> dict:
        """Cluster view with the dist backend's keys: the deterministic
        mirror of stats()["cluster"], driven by the modeled membership
        plane.  ``alive`` reflects the *monitor's* verdict (a killed but
        not-yet-condemned node still reads alive — exactly the window the
        dist backend's heartbeat detector has), and heartbeat ages are
        virtual-time exact, so a live node always reads 0.0.
        """
        declared_dead = set(self.monitor.nodes_declared_dead)
        transfers = sum(t.transfers_completed for t in self._transfers.values())
        transfer_bytes = sum(t.bytes_transferred for t in self._transfers.values())
        nodes = []
        for node_id in self.node_ids:
            alive = node_id not in declared_dead
            store = self._stores[node_id]
            nodes.append(
                (
                    alive, None, False, 0.0 if alive else None,
                    len(self._workers[node_id]) if alive else 0,
                    store.num_objects, store.used_bytes,
                )
            )
        return cluster_stats(
            nodes,
            sum(len(ws) for ws in self._workers.values())
            // max(1, len(self.node_ids)),
            nodes_lost=len(declared_dead),
            heartbeat_timeouts=len(declared_dead),
            heartbeat_interval=self.costs.heartbeat_interval,
            heartbeat_timeout=self.costs.heartbeat_timeout,
            # Every object lives in some node's modeled store; none is a
            # driver-side copy, so the whole census is "node resident".
            objects_node_resident=sum(
                s.num_objects for s in self._stores.values()
            ),
            internode={
                **ByteAccountant().snapshot(),
                "count": transfers,
                "total_bytes": transfer_bytes,
                "internode_fetches": transfers,
                "internode_bytes": transfer_bytes,
            },
        )

    def replica_targets(self) -> list:
        """Placement targets for serving-pool replicas (every node)."""
        return list(self.node_ids)

    def register_serve_pool(self, pool) -> None:
        """An ActorPool bound itself to this runtime (stats visibility)."""
        self._serve_pools.append(pool)

    def shutdown(self) -> None:
        for pool in self._serve_pools:
            pool.close()
        self._control.close()
        self.closed = True
