"""Unit tests for the scheduling-plane primitives (repro.sched_plane):
the queue ownership discipline, residency tracking, placement counting,
and the steal policy — the parts both real backends assemble.
Integration behavior is covered by test_proc_backend (TestBottomUp-
Scheduling), the parity matrix, and test_fault_tolerance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import TaskSpec
from repro.scheduling.policies import PlacementPolicy
from repro.sched_plane import (
    LocalTaskQueue,
    ResidencyTracker,
    SchedCounters,
    WorkerCandidate,
    plan_placement,
)
from repro.utils.ids import IDGenerator


def _spec(ids, hint=None):
    return TaskSpec(
        task_id=ids.task_id(),
        function_id=ids.function_id(),
        function_name="t",
        return_object_id=ids.object_id(),
        placement_hint=hint,
    )


# ----------------------------------------------------------------------
# LocalTaskQueue
# ----------------------------------------------------------------------


class TestLocalTaskQueue:
    def test_fifo_head_pop(self):
        q = LocalTaskQueue()
        for i in range(3):
            q.push(f"t{i}", i * 10)
        assert q.pop_head() == ("t0", 0)
        assert q.pop_head() == ("t1", 10)
        assert len(q) == 1 and "t2" in q

    def test_duplicate_push_rejected(self):
        q = LocalTaskQueue()
        q.push("t", 1)
        with pytest.raises(ValueError, match="already queued"):
            q.push("t", 2)

    def test_steal_tail_takes_newest_keeps_oldest(self):
        q = LocalTaskQueue()
        for i in range(5):
            q.push(f"t{i}", i)
        grabbed = q.steal_tail(2)
        # Newest two, in their original relative order.
        assert grabbed == [("t3", 3), ("t4", 4)]
        # The owner keeps the oldest work.
        assert list(q.task_ids()) == ["t0", "t1", "t2"]

    def test_steal_more_than_available(self):
        q = LocalTaskQueue()
        q.push("t0", 0)
        assert q.steal_tail(10) == [("t0", 0)]
        assert q.steal_tail(1) == []
        assert q.pop_head() is None

    def test_remove_and_drain(self):
        q = LocalTaskQueue()
        for i in range(3):
            q.push(f"t{i}", i)
        assert q.remove("t1") == 1
        assert q.remove("t1") is None  # idempotent
        assert q.drain() == [("t0", 0), ("t2", 2)]
        assert len(q) == 0

    def test_producer_index_finds_a_queued_task_by_any_return_id(self):
        q = LocalTaskQueue()
        q.push("t0", 0, ("a", "b"))
        q.push("t1", 1)  # no return ids given: not findable, still queued
        assert q.producer_of("a") == "t0" and q.producer_of("b") == "t0"
        assert q.producer_of("t1") is None
        assert q.remove("t0") == 0
        assert q.producer_of("a") is None and q.producer_of("b") is None

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["push", "pop_head", "steal_tail", "remove", "drain"]),
                st.integers(0, 11),
            ),
            max_size=60,
        )
    )
    def test_producer_index_is_exactly_the_queue_contents(self, ops):
        """Whatever door tasks leave through, in whatever order, the
        return-id index names the queued tasks and nothing else — it
        neither goes stale nor grows."""
        q = LocalTaskQueue()
        produces = {f"t{i}": tuple(f"r{i}.{k}" for k in range(i % 3)) for i in range(12)}
        for op, n in ops:
            task_id = f"t{n}"
            if op == "push":
                if task_id not in q:
                    q.push(task_id, n, produces[task_id])
            elif op == "pop_head":
                q.pop_head()
            elif op == "steal_tail":
                q.steal_tail(n % 4)
            elif op == "remove":
                q.remove(task_id)
            else:
                q.drain()
            queued = set(q.task_ids())
            expected = {r: t for t in queued for r in produces[t]}
            assert q._producer == expected
            assert set(q._produces) == {t for t in queued if produces[t]}
            for task, returns in produces.items():
                for return_id in returns:
                    assert q.producer_of(return_id) == (task if task in queued else None)


# ----------------------------------------------------------------------
# ResidencyTracker
# ----------------------------------------------------------------------


class TestResidencyTracker:
    def test_locality_bytes_sums_resident_args(self):
        tracker = ResidencyTracker()
        tracker.record("w0", "a", 100)
        tracker.record("w0", "b", 50)
        tracker.record("w1", "a", 100)
        assert tracker.locality_bytes("w0", ["a", "b", "c"], max_lookups=4) == 150
        assert tracker.locality_bytes("w1", ["a", "b"], max_lookups=4) == 100
        assert tracker.locality_bytes("w2", ["a"], max_lookups=4) == 0

    def test_lookup_cap_bounds_the_scan(self):
        tracker = ResidencyTracker()
        tracker.record("w", "z", 7)
        assert tracker.locality_bytes("w", ["a", "b", "z"], max_lookups=2) == 0

    def test_per_holder_cap_forgets_oldest(self):
        tracker = ResidencyTracker(cap=2)
        tracker.record("w", "a", 1)
        tracker.record("w", "b", 2)
        tracker.record("w", "c", 3)
        assert not tracker.holds("w", "a")
        assert tracker.holds("w", "b") and tracker.holds("w", "c")

    def test_forget_holder(self):
        tracker = ResidencyTracker()
        tracker.record("w", "a", 1)
        tracker.forget_holder("w")
        assert not tracker.holds("w", "a")


# ----------------------------------------------------------------------
# plan_placement + SchedCounters
# ----------------------------------------------------------------------


class TestPlanPlacement:
    def test_locality_wins_among_idle_workers_and_is_counted(self):
        ids = IDGenerator(namespace="sched-plane-test")
        nodes = [ids.node_id() for _ in range(2)]
        candidates = [
            WorkerCandidate(node_id=nodes[0], est_cpus=1, est_gpus=0,
                            queue_length=0, locality_bytes=0),
            WorkerCandidate(node_id=nodes[1], est_cpus=1, est_gpus=0,
                            queue_length=0, locality_bytes=4096),
        ]
        counters = SchedCounters()
        chosen = plan_placement(
            _spec(ids), candidates, PlacementPolicy(), counters
        )
        assert chosen == nodes[1]
        assert counters.tasks_placed_global == 1
        assert counters.placement_locality_hits == 1

    def test_no_capacity_returns_none_and_counts_nothing(self):
        ids = IDGenerator(namespace="sched-plane-test-2")
        candidates = [
            WorkerCandidate(node_id=ids.node_id(), est_cpus=0, est_gpus=0,
                            queue_length=3),
        ]
        counters = SchedCounters()
        assert plan_placement(
            _spec(ids), candidates, PlacementPolicy(), counters
        ) is None
        assert counters.snapshot() == SchedCounters().snapshot()

    def test_locality_blind_policy_never_counts_hits(self):
        ids = IDGenerator(namespace="sched-plane-test-3")
        node = ids.node_id()
        candidates = [
            WorkerCandidate(node_id=node, est_cpus=1, est_gpus=0,
                            queue_length=0, locality_bytes=100),
        ]
        counters = SchedCounters()
        chosen = plan_placement(
            _spec(ids), candidates, PlacementPolicy(locality_weight=0.0), counters
        )
        # The candidate still holds bytes, so the hit counter records it:
        # the *weight* only changes scoring, not residency facts.
        assert chosen == node
        assert counters.placement_locality_hits == 1
