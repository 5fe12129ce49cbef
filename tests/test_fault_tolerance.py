"""Fault-tolerance tests (R6): node death, recovery, lineage replay —
on the simulated cluster (kill_node) and, mirroring the same semantics,
on the multiprocess backend (kill_worker: SIGKILL of a real process)."""

import os
import time

import pytest

import repro
from repro.errors import (
    ActorLostError,
    ObjectLostError,
    TaskError,
    WorkerCrashedError,
)


@repro.remote
def double(x):
    return 2 * x


@repro.remote
def add(x, y):
    return x + y


@pytest.fixture
def cluster():
    runtime = repro.init(backend="sim", num_nodes=3, num_cpus=2, seed=5)
    yield runtime
    repro.shutdown()


def _non_head(runtime):
    return [n for n in runtime.node_ids if n != runtime.head_node_id]


def test_kill_node_mid_job_still_completes(cluster):
    slow = double.options(duration=1.0)
    victim = _non_head(cluster)[0]
    # Pin tasks to the victim so the failure definitely hits them.
    refs = [slow.options(placement_hint=victim).remote(i) for i in range(4)]
    cluster.kill_node_at(victim, at_time=0.5)
    values = repro.get(refs)
    assert values == [0, 2, 4, 6]
    assert cluster.monitor.nodes_declared_dead == [victim]
    assert cluster.monitor.tasks_recovered > 0


def test_killing_head_node_rejected(cluster):
    with pytest.raises(ValueError, match="head node"):
        cluster.kill_node(cluster.head_node_id)


def test_lost_object_reconstructed_via_lineage(cluster):
    victim = _non_head(cluster)[0]
    ref = double.options(placement_hint=victim).remote(21)
    # Let the task finish on the victim (result lives only there)...
    repro.wait([ref], num_returns=1)
    cluster.sim.run(until=cluster.sim.now + 0.01)
    # ...then lose the node before the driver ever reads the value.
    cluster.kill_node(victim)
    assert repro.get(ref) == 42
    assert cluster.lineage.reconstructions_started >= 1
    replays = cluster.event_log.filter(kind="lineage_replay")
    assert len(replays) >= 1


def test_recursive_lineage_replay(cluster):
    victim = _non_head(cluster)[0]
    a = double.options(placement_hint=victim).remote(10)       # 20
    b = add.options(placement_hint=victim).remote(a, 1)        # 21
    repro.wait([b], num_returns=1)
    cluster.sim.run(until=cluster.sim.now + 0.01)
    cluster.kill_node(victim)
    # Reading b forces replaying add, whose input a is also lost and must
    # itself be replayed first.
    assert repro.get(b) == 21
    assert cluster.lineage.reconstructions_started >= 2


def test_put_objects_are_not_reconstructable(cluster):
    victim = _non_head(cluster)[0]
    # Run a task on the victim that puts a value into the victim's store.
    @repro.remote
    def put_there(x):
        return repro.put(x)

    inner = repro.get(put_there.options(placement_hint=victim).remote(5))
    repro.sleep(0.01)
    cluster.kill_node(victim)
    with pytest.raises((ObjectLostError, TaskError)):
        repro.get(inner)


def test_reconstruction_disabled_raises():
    runtime = repro.init(
        backend="sim", num_nodes=2, num_cpus=2, enable_reconstruction=False
    )
    victim = _non_head(runtime)[0]
    ref = double.options(placement_hint=victim).remote(1)
    repro.wait([ref], num_returns=1)
    runtime.sim.run(until=runtime.sim.now + 0.01)
    runtime.kill_node(victim)
    with pytest.raises(ObjectLostError):
        repro.get(ref)
    repro.shutdown()


def test_monitor_declares_dead_after_heartbeat_timeout(cluster):
    victim = _non_head(cluster)[1]
    cluster.kill_node(victim)
    assert cluster.monitor.nodes_declared_dead == []
    # Detection needs > heartbeat_timeout of silence.
    repro.sleep(cluster.costs.heartbeat_timeout + 3 * cluster.costs.heartbeat_interval)
    assert victim in cluster.monitor.nodes_declared_dead
    dead_events = cluster.event_log.filter(kind="failure_detected")
    assert len(dead_events) == 1


def test_dead_node_objects_removed_from_object_table(cluster):
    victim = _non_head(cluster)[0]
    ref = double.options(placement_hint=victim).remote(3)
    repro.wait([ref], num_returns=1)
    repro.sleep(0.01)
    assert victim in cluster._control.object_get(ref.object_id).locations
    cluster.kill_node(victim)
    repro.sleep(cluster.costs.heartbeat_timeout + 3 * cluster.costs.heartbeat_interval)
    entry = cluster._control.object_get(ref.object_id)
    assert victim not in entry.locations


def test_work_continues_on_survivors_after_death(cluster):
    victim = _non_head(cluster)[0]
    cluster.kill_node(victim)
    repro.sleep(cluster.costs.heartbeat_timeout + 3 * cluster.costs.heartbeat_interval)
    refs = [double.remote(i) for i in range(10)]
    assert repro.get(refs) == [2 * i for i in range(10)]


def test_placement_hint_to_dead_node_reroutes(cluster):
    victim = _non_head(cluster)[0]
    cluster.kill_node(victim)
    repro.sleep(cluster.costs.heartbeat_timeout + 3 * cluster.costs.heartbeat_interval)
    # The hint target is gone; the task must still run somewhere.
    ref = double.options(placement_hint=victim).remote(7)
    assert repro.get(ref) == 14


def test_recovery_overhead_bounded(cluster):
    """Recovery should cost roughly detection time + replay, not a full
    re-run of everything (E7's shape)."""
    slow = double.options(duration=0.2)
    victim = _non_head(cluster)[0]
    refs = [slow.remote(i) for i in range(12)]
    cluster.kill_node_at(victim, at_time=0.1)
    start = repro.now()
    values = repro.get(refs)
    elapsed = repro.now() - start
    assert values == [2 * i for i in range(12)]
    # 12 x 0.2s tasks on 6 CPUs (2 dead) ~= 0.6s; detection ~0.4s.
    # A full restart-from-scratch would exceed 2s easily.
    assert elapsed < 2.0


def test_stats_count_failures(cluster):
    victim = _non_head(cluster)[0]
    cluster.kill_node(victim)
    repro.sleep(cluster.costs.heartbeat_timeout + 3 * cluster.costs.heartbeat_interval)
    stats = cluster.stats()
    assert stats["nodes_declared_dead"] == 1


# ----------------------------------------------------------------------
# Proc backend: a SIGKILLed worker process is this backend's node death.
# ----------------------------------------------------------------------


@repro.remote
def hang_once(marker_path):
    """Sleeps forever on its first run, instant on any replay."""
    if not os.path.exists(marker_path):
        open(marker_path, "w").close()
        time.sleep(120.0)
    return "recovered"


@repro.remote
def proc_noop():
    return 1


@repro.remote
class MarkedSleeper:
    def __init__(self):
        self.calls = 0

    def nap(self, marker_path):
        open(marker_path, "w").close()
        time.sleep(120.0)

    def ping(self):
        self.calls += 1
        return self.calls


def _await_marker(path, timeout=30.0):
    """Block until a worker-side task signals it has started running."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"marker {path} never appeared")
        time.sleep(0.01)


class TestProcWorkerCrash:
    def test_stateless_task_replays_via_lineage(self, tmp_path):
        runtime = repro.init(backend="proc", num_workers=1)
        marker = str(tmp_path / "started")
        ref = hang_once.remote(marker)
        _await_marker(marker)
        runtime.kill_worker(0)
        # The replacement worker replays the spec; the marker file makes
        # the second attempt return immediately.
        assert repro.get(ref, timeout=60.0) == "recovered"
        stats = runtime.stats()
        assert stats["workers_crashed"] == 1
        assert stats["lineage_replays"] == 1
        # The healed pool keeps serving new work.
        assert repro.get(proc_noop.remote(), timeout=60.0) == 1

    def test_replay_budget_exhausted_surfaces_worker_crashed(self, tmp_path):
        runtime = repro.init(backend="proc", num_workers=1)
        marker = str(tmp_path / "started")
        # max_reconstructions=0: the first crash is already fatal.
        ref = hang_once.options(max_reconstructions=0).remote(marker)
        _await_marker(marker)
        runtime.kill_worker(0)
        with pytest.raises(WorkerCrashedError, match="budget exhausted"):
            repro.get(ref, timeout=60.0)

    def test_actor_calls_surface_actor_lost(self, tmp_path):
        """Mirror of the sim backend's node-death semantics: pending and
        future calls on a lost actor raise ActorLostError, while stateless
        work continues and new actors can be created."""
        runtime = repro.init(backend="proc", num_workers=2)
        sleeper = MarkedSleeper.remote()
        marker = str(tmp_path / "napping")
        nap_ref = sleeper.nap.remote(marker)
        _await_marker(marker)
        runtime.kill_worker(runtime.worker_for_actor(sleeper.actor_id))
        with pytest.raises(ActorLostError):
            repro.get(nap_ref, timeout=60.0)          # the orphaned call
        with pytest.raises(ActorLostError):
            repro.get(sleeper.ping.remote(), timeout=60.0)  # a future call
        # Stateless lineage-backed work is unaffected...
        assert repro.get(proc_noop.remote(), timeout=60.0) == 1
        # ...and fresh actors place onto the healed pool.
        fresh = MarkedSleeper.remote()
        assert repro.get(fresh.ping.remote(), timeout=60.0) == 1
        assert runtime.stats()["workers_crashed"] == 1

    def test_actor_with_pending_creation_dep_survives_home_worker_crash(
        self, tmp_path
    ):
        """An actor whose constructor is still *parked* on an unready
        dependency when its home worker dies must be re-homed to the
        replacement, not lost (its state never existed) nor stuck
        bouncing between service threads forever."""
        runtime = repro.init(backend="proc", num_workers=1)
        marker = str(tmp_path / "gate")
        gate_ref = hang_once.options(max_reconstructions=3).remote(marker)

        @repro.remote
        class Holder:
            def __init__(self, value):
                self.value = value

            def get_value(self):
                return self.value

        # The constructor depends on the hanging task's result, so it sits
        # in the DependencyTracker pinned (by record) to worker 0...
        holder = Holder.remote(gate_ref)
        _await_marker(marker)
        # ...which we now kill.  The replay of hang_once returns fast, the
        # dependency resolves, and the creation must run on the new worker.
        runtime.kill_worker(0)
        assert repro.get(holder.get_value.remote(), timeout=60.0) == "recovered"

    def test_actor_loss_propagates_through_dependents(self, tmp_path):
        """A task consuming a lost actor call's future sees ActorLostError
        too, exactly like downstream TaskError propagation."""
        runtime = repro.init(backend="proc", num_workers=2)
        sleeper = MarkedSleeper.remote()
        marker = str(tmp_path / "napping")
        nap_ref = sleeper.nap.remote(marker)
        _await_marker(marker)
        downstream = proc_noop.options(num_cpus=1).remote()
        runtime.kill_worker(runtime.worker_for_actor(sleeper.actor_id))

        @repro.remote
        def consume(value):
            return value

        with pytest.raises(ActorLostError):
            repro.get(consume.remote(nap_ref), timeout=60.0)
        assert repro.get(downstream, timeout=60.0) == 1


# ----------------------------------------------------------------------
# Bottom-up scheduling plane: crashes with tasks in worker-local queues
# and mid-steal must re-home and replay, never lose work.
# ----------------------------------------------------------------------


@repro.remote
def gated_child(index, gate_path):
    """Blocks until the driver creates the gate file, then returns.
    Idempotent, so lineage replay after a crash is observable only
    through the stats counters."""
    while not os.path.exists(gate_path):
        time.sleep(0.01)
    return index * 10


@repro.remote
def gated_spawner(count, gate_path, pid_path):
    """Fans out ``count`` gated children via the worker-local fast path
    and hands their refs (plus this worker's pid) back to the driver."""
    with open(pid_path, "w") as handle:
        handle.write(str(os.getpid()))
    return [gated_child.remote(i, gate_path) for i in range(count)]


def _worker_index_for_pid(runtime, pid):
    for worker in runtime._workers:
        if worker is not None and worker.alive and worker.process.pid == pid:
            return worker.index
    raise RuntimeError(f"no live worker with pid {pid}")


class TestBottomUpCrash:
    def test_local_queue_rehomes_on_worker_crash(self, tmp_path):
        """kill_worker while fast-path tasks sit in the victim's local
        queue: the driver's mirror re-homes every one of them (replayed
        under the max_reconstructions budget) and all values arrive."""
        runtime = repro.init(backend="proc", num_workers=1)
        gate = str(tmp_path / "gate")
        refs = repro.get(
            gated_spawner.remote(6, gate, str(tmp_path / "pid")), timeout=60.0
        )
        # The only worker is now executing child 0 (blocked on the gate)
        # with children 1..5 in its local queue; the driver knows them
        # only through SUBMIT_LOCAL notices.
        assert runtime.stats()["sched"]["tasks_placed_local"] == 6
        runtime.kill_worker(0)
        open(gate, "w").close()
        assert repro.get(refs, timeout=60.0) == [i * 10 for i in range(6)]
        stats = runtime.stats()
        assert stats["workers_crashed"] == 1
        # Every child died with the worker (one mid-run, five queued) and
        # came back through the lineage-replay gate.
        assert stats["lineage_replays"] == 6

    def test_crash_with_steal_in_flight_loses_nothing(self, tmp_path):
        """kill the fan-out worker while an idle peer is actively
        stealing from it: granted tasks run on the thief, ungranted ones
        re-home from the mirror — each child exactly once observably."""
        runtime = repro.init(backend="proc", num_workers=2)
        gate = str(tmp_path / "gate")
        pid_path = str(tmp_path / "pid")
        refs = repro.get(
            gated_spawner.remote(8, gate, pid_path), timeout=60.0
        )
        with open(pid_path) as handle:
            victim = _worker_index_for_pid(runtime, int(handle.read()))
        # Give the idle peer a moment to issue steals against the gated
        # backlog, then kill the victim mid-flight.
        time.sleep(0.2)
        runtime.kill_worker(victim)
        open(gate, "w").close()
        assert repro.get(refs, timeout=60.0) == [i * 10 for i in range(8)]
        stats = runtime.stats()
        assert stats["workers_crashed"] == 1
        assert stats["sched"]["tasks_placed_local"] == 8

    def test_replay_budget_still_applies_to_queued_local_tasks(self, tmp_path):
        """A fast-path task whose worker dies is a lineage replay like
        any other: with max_reconstructions=0 the crash is fatal for it."""
        runtime = repro.init(backend="proc", num_workers=1)
        gate = str(tmp_path / "gate")

        @repro.remote
        def fragile_spawner(gate_path):
            return [
                gated_child.options(max_reconstructions=0).remote(i, gate_path)
                for i in range(3)
            ]

        refs = repro.get(fragile_spawner.remote(gate), timeout=60.0)
        runtime.kill_worker(0)
        open(gate, "w").close()
        for ref in refs:
            with pytest.raises(WorkerCrashedError, match="budget exhausted"):
                repro.get(ref, timeout=60.0)
        # The healed pool keeps serving fresh work.
        assert repro.get(proc_noop.remote(), timeout=60.0) == 1


@repro.remote
class MarkedBatcher:
    """Vectorized serving replica that drops a marker when a batch
    starts, then blocks until the gate file appears."""

    def handle(self, batch):
        if batch and isinstance(batch[0], tuple):
            marker_path, gate_path = batch[0]
            open(marker_path, "w").close()
            deadline = time.monotonic() + 60.0
            while not os.path.exists(gate_path):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        return [v if isinstance(v, int) else "gated" for v in batch]


class TestServeFaults:
    """Serving-plane fault injection: the pool must never drop a call
    silently — every future resolves with a value or a visible error —
    and replica loss triggers in-place respawn under the pool budget."""

    pytestmark = pytest.mark.timeout(120)

    def test_kill_worker_mid_batch_fails_visibly_and_respawns(self, tmp_path):
        runtime = repro.init(backend="proc", num_workers=2)
        marker = str(tmp_path / "batch_started")
        gate = str(tmp_path / "gate")  # never opened: batch dies blocked
        pool = repro.ActorPool(
            MarkedBatcher, size=2, method="handle",
            max_batch_size=4, batch_wait_ms=1.0, max_reconstructions=2,
        )
        # First call routes round-robin to replica 0 and blocks there.
        stuck = pool.submit((marker, gate))
        _await_marker(marker)
        victim = runtime.worker_for_actor(pool._replicas[0].handle.actor_id)
        # Queue more calls behind (and alongside) the doomed batch.
        trailing = [pool.submit(i) for i in range(6)]
        runtime.kill_worker(victim)
        # Every future resolves: the in-flight batch with ActorLostError,
        # the rest with their values (re-homed or on the live replica).
        outcomes = []
        for future in [stuck] + trailing:
            try:
                outcomes.append(future.result(timeout=60.0))
            except ActorLostError:
                outcomes.append("lost")
        assert len(outcomes) == 7  # nothing hangs, nothing is dropped
        assert "lost" in outcomes  # the mid-flight batch failed visibly
        stats = pool.stats()
        assert stats["submitted"] == stats["completed"] + stats["failed"]
        assert stats["failed"] >= 1
        # The pool healed: the dead slot respawned and serves again.
        assert stats["alive"] == 2
        assert stats["respawns"] >= 1
        assert pool.submit(42).result(timeout=60.0) == 42

    def test_respawn_budget_exhaustion_fails_submissions(self):
        runtime = repro.init(backend="proc", num_workers=1)
        pool = repro.ActorPool(
            MarkedBatcher, size=1, method="handle",
            max_batch_size=2, batch_wait_ms=1.0, max_reconstructions=0,
        )
        assert pool.submit(1).result(timeout=60.0) == 1
        victim = runtime.worker_for_actor(pool._replicas[0].handle.actor_id)
        runtime.kill_worker(victim)
        # The loss surfaces on the next call's future; with a zero
        # respawn budget the pool then refuses new submissions.
        with pytest.raises(ActorLostError):
            pool.submit(2).result(timeout=60.0)
        assert pool.stats()["alive"] == 0
        with pytest.raises(ActorLostError):
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:  # submit until refusal
                pool.submit(3).result(timeout=60.0)
        assert repro.get(proc_noop.remote(), timeout=60.0) == 1

    def test_admission_cap_holds_during_recovery(self, tmp_path):
        runtime = repro.init(backend="proc", num_workers=2)
        marker = str(tmp_path / "batch_started")
        gate = str(tmp_path / "gate")
        cap = 4
        pool = repro.ActorPool(
            MarkedBatcher, size=2, method="handle",
            max_batch_size=2, batch_wait_ms=1.0,
            max_queue_depth=cap, admission="shed", max_reconstructions=2,
        )
        stuck = pool.submit((marker, gate))
        _await_marker(marker)
        victim = runtime.worker_for_actor(pool._replicas[0].handle.actor_id)
        runtime.kill_worker(victim)
        # Flood during the recovery window: the cap must hold the whole
        # time — at no point do more than ``cap`` calls sit in flight.
        accepted, shed = [stuck], 0
        for i in range(40):
            try:
                accepted.append(pool.submit(i))
            except repro.Backpressure:
                shed += 1
            assert pool.stats()["inflight"] <= cap
        assert shed > 0
        stats = pool.stats()
        assert stats["shed"] == shed
        assert stats["submitted"] + stats["shed"] == 41  # 1 stuck + 40 attempts
        open(gate, "w").close()
        resolved = 0
        for future in accepted:
            try:
                future.result(timeout=60.0)
                resolved += 1
            except ActorLostError:
                resolved += 1
        assert resolved == len(accepted)  # exactly-once under recovery
        assert pool.stats()["inflight"] == 0
