"""Unit tests for the sim's control plane: the cost model in front of the
live ``ControlStore`` (object/task tables, readiness, heartbeats)."""

import pytest

from repro.cluster.costs import SystemCosts
from repro.cluster.network import NetworkModel
from repro.sim.core import Simulator
from repro.store.control_plane import ControlPlane, NodeInfo
from repro.utils.ids import IDGenerator


@pytest.fixture
def setup():
    sim = Simulator()
    gen = IDGenerator()
    head = gen.node_id()
    other = gen.node_id()
    cp = ControlPlane(
        sim, NetworkModel(), SystemCosts(), head_node=head, num_shards=4
    )
    return sim, gen, head, other, cp


def _run_op(sim, op):
    process = sim.spawn(op)
    return sim.run_until_signal(process.done_signal)


class TestObjectTable:
    def test_add_location_makes_ready(self, setup):
        sim, gen, head, other, cp = setup
        oid = gen.object_id()
        entry = _run_op(sim, cp.object_add_location(other, oid, other, size=128))
        assert entry.ready
        assert entry.locations == {other}
        assert entry.size == 128

    def test_lookup_unknown_object_not_ready(self, setup):
        sim, gen, head, other, cp = setup
        entry = _run_op(sim, cp.object_lookup(head, gen.object_id()))
        assert not entry.ready
        assert entry.locations == set()

    def test_remove_location(self, setup):
        sim, gen, head, other, cp = setup
        oid = gen.object_id()
        _run_op(sim, cp.object_add_location(other, oid, other, 10))
        entry = _run_op(sim, cp.object_remove_location(head, oid, other))
        assert entry.locations == set()
        assert entry.ready  # readiness is sticky; locations are not

    def test_ops_cost_virtual_time(self, setup):
        sim, gen, head, other, cp = setup
        before = sim.now
        _run_op(sim, cp.object_lookup(other, gen.object_id()))
        # inter-node hop there and back + service time
        assert sim.now - before >= 2 * cp.network.inter_node_latency

    def test_subscribe_before_ready_fires_callback(self, setup):
        sim, gen, head, other, cp = setup
        oid = gen.object_id()
        seen = []
        snapshot = _run_op(
            sim, cp.object_subscribe_ready(other, oid, lambda e: seen.append(e))
        )
        assert not snapshot.ready
        assert seen == []
        _run_op(sim, cp.object_add_location(head, oid, head, 5))
        sim.run()
        assert len(seen) == 1
        assert seen[0].ready

    def test_subscribe_after_ready_returns_snapshot_no_callback(self, setup):
        sim, gen, head, other, cp = setup
        oid = gen.object_id()
        _run_op(sim, cp.object_add_location(head, oid, head, 5))
        seen = []
        snapshot = _run_op(
            sim, cp.object_subscribe_ready(other, oid, lambda e: seen.append(e))
        )
        assert snapshot.ready
        sim.run()
        assert seen == []

    def test_register_always_fires_on_next_location(self, setup):
        sim, gen, head, other, cp = setup
        oid = gen.object_id()
        _run_op(sim, cp.object_add_location(head, oid, head, 5))
        seen = []
        snapshot = _run_op(
            sim,
            cp.object_subscribe_ready(
                other, oid, lambda e: seen.append(e), register_always=True
            ),
        )
        assert snapshot.ready
        _run_op(sim, cp.object_add_location(other, oid, other, 5))
        sim.run()
        assert len(seen) == 1
        assert seen[0].locations == {head, other}


class TestTaskTable:
    def test_put_records_submitting_node(self, setup):
        sim, gen, head, other, cp = setup
        tid = gen.task_id()
        _run_op(sim, cp.task_put(other, tid, spec=None))
        entry = _run_op(sim, cp.task_get(head, tid))
        assert entry.node == other
        assert entry.state == "submitted"

    def test_state_transitions_timestamped(self, setup):
        sim, gen, head, other, cp = setup
        tid = gen.task_id()
        _run_op(sim, cp.task_put(head, tid, spec=None))
        _run_op(sim, cp.task_set_state(head, tid, "running", node=other))
        entry = _run_op(sim, cp.task_get(head, tid))
        assert entry.state == "running"
        assert entry.node == other
        assert entry.attempts == 1
        assert "running" in entry.timestamps

    def test_attempts_count_running_transitions(self, setup):
        sim, gen, head, other, cp = setup
        tid = gen.task_id()
        _run_op(sim, cp.task_put(head, tid, spec=None))
        for _ in range(3):
            _run_op(sim, cp.task_set_state(head, tid, "running"))
        assert _run_op(sim, cp.task_get(head, tid)).attempts == 3

    def test_get_unknown_task_returns_none(self, setup):
        sim, gen, head, other, cp = setup
        assert _run_op(sim, cp.task_get(head, gen.task_id())) is None

    def test_first_put_wins(self, setup):
        """A resubmission keeps the row its first put wrote."""
        sim, gen, head, other, cp = setup
        tid = gen.task_id()
        _run_op(sim, cp.task_put(other, tid, spec="first"))
        _run_op(sim, cp.task_set_state(head, tid, "running"))
        _run_op(sim, cp.task_put(head, tid, spec="again"))
        entry = cp.store.task_get(tid)
        assert (entry.spec, entry.node, entry.state, entry.attempts) == (
            "first", other, "running", 1,
        )
        assert len(cp.event_log.filter(kind="task_submitted")) == 2

    def test_tasks_on_node_scan(self, setup):
        sim, gen, head, other, cp = setup
        tids = [gen.task_id() for _ in range(3)]
        for tid in tids:
            _run_op(sim, cp.task_put(other, tid, spec=None))
        _run_op(sim, cp.task_set_state(head, tids[0], "finished", node=other))
        found = _run_op(sim, cp.tasks_on_node(head, other, ["submitted"]))
        assert {e.task_id for e in found} == set(tids[1:])


class TestShardingAndPubSub:
    def test_ops_spread_across_shards(self, setup):
        sim, gen, head, other, cp = setup
        for _ in range(64):
            _run_op(sim, cp.object_lookup(head, gen.object_id()))
        assert cp.ops_total == 64
        assert sum(cp.ops_per_shard) == 64
        assert sum(1 for c in cp.ops_per_shard if c > 0) >= 3

    def test_single_shard_serializes(self):
        sim = Simulator()
        gen = IDGenerator()
        head = gen.node_id()
        cp = ControlPlane(sim, NetworkModel(), SystemCosts(), head, num_shards=1)
        # Launch many concurrent ops; single shard must serialize them so
        # the total time is at least ops * service_time.
        processes = [
            sim.spawn(cp.object_lookup(head, gen.object_id())) for _ in range(50)
        ]
        for process in processes:
            sim.run_until_signal(process.done_signal)
        assert sim.now >= 50 * cp.costs.gcs_op_service

    def test_shard_count_validation(self):
        sim = Simulator()
        head = IDGenerator().node_id()
        with pytest.raises(ValueError):
            ControlPlane(sim, NetworkModel(), SystemCosts(), head, num_shards=0)

    def test_heartbeat_listener_invoked(self, setup):
        sim, gen, head, other, cp = setup
        seen = []
        cp.add_heartbeat_listener(seen.append)
        info = NodeInfo(node_id=other, num_cpus=4, available_cpus=2)
        _run_op(sim, cp.heartbeat(other, info))
        sim.run()
        assert len(seen) == 1
        assert seen[0].available_cpus == 2
        assert seen[0].last_heartbeat >= 0

    def test_mark_node_dead(self, setup):
        sim, gen, head, other, cp = setup
        _run_op(sim, cp.heartbeat(other, NodeInfo(node_id=other)))
        _run_op(sim, cp.mark_node_dead(head, other))
        infos = _run_op(sim, cp.node_infos(head))
        assert not infos[other].alive

    def test_event_log_populated(self, setup):
        sim, gen, head, other, cp = setup
        oid = gen.object_id()
        _run_op(sim, cp.object_add_location(head, oid, head, 1))
        kinds = cp.event_log.kinds()
        assert "object_ready" in kinds

    def test_ops_apply_to_the_store_on_the_sim_clock(self, setup):
        """Each op pays its modelled cost, then writes the live store,
        whose events carry virtual time; the stats keep the store's keys
        with the modelled counters."""
        sim, gen, head, other, cp = setup
        oid, tid = gen.object_id(), gen.task_id()
        _run_op(sim, cp.task_put(other, tid, spec=None))
        _run_op(sim, cp.object_add_location(other, oid, other, 7, producer_task=tid))
        _run_op(sim, cp.object_add_location(head, oid, head, 3))
        entry = cp.store.object_get(oid)
        assert entry.ready and entry.locations == {head, other}
        assert (entry.size, entry.producer_task) == (7, tid)
        (submitted,) = cp.store.events(key=tid)
        assert submitted.kind == "task_submitted"
        assert 0 < submitted.timestamp < sim.now
        stats = cp.control_stats()
        assert stats.keys() == cp.store.stats().keys()
        assert stats["ops_total"] == cp.ops_total == 3
        assert stats["event_log_len"] == len(cp.event_log)
