"""Unit and integration tests for spillover/placement policies and the
hybrid scheduler architecture (E9's building blocks)."""

import pytest

import repro
from repro.cluster.spec import ClusterSpec
from repro.baselines.centralized import (
    make_centralized_runtime,
    make_hybrid_runtime,
    make_local_only_runtime,
)
from repro.core.task import ResourceRequest, TaskSpec
from repro.errors import TaskError
from repro.scheduling.policies import PlacementPolicy, SpilloverPolicy
from repro.utils.ids import IDGenerator


def _spec(gen, num_cpus=1, num_gpus=0, hint=None, deps=()):
    return TaskSpec(
        task_id=gen.task_id(),
        function_id=gen.function_id(),
        function_name="f",
        args=tuple(deps),
        return_object_id=gen.object_id(),
        resources=ResourceRequest(num_cpus=num_cpus, num_gpus=num_gpus),
        placement_hint=hint,
    )


class TestSpilloverPolicy:
    def setup_method(self):
        self.gen = IDGenerator()
        self.node = self.gen.node_id()

    def test_hybrid_spills_on_backlog(self):
        policy = SpilloverPolicy(mode="hybrid", queue_threshold=1.0)
        spec = _spec(self.gen)
        assert not policy.should_spill(spec, 4, 0, backlog=3, this_node=self.node)
        assert policy.should_spill(spec, 4, 0, backlog=4, this_node=self.node)

    def test_always_spill(self):
        policy = SpilloverPolicy(mode="always_spill")
        spec = _spec(self.gen)
        assert policy.should_spill(spec, 8, 0, backlog=0, this_node=self.node)

    def test_never_spill(self):
        policy = SpilloverPolicy(mode="never_spill")
        spec = _spec(self.gen)
        assert not policy.should_spill(spec, 1, 0, backlog=100, this_node=self.node)

    def test_static_misfit_always_spills(self):
        for mode in ("hybrid", "never_spill"):
            policy = SpilloverPolicy(mode=mode)
            gpu_spec = _spec(self.gen, num_gpus=1)
            assert policy.should_spill(gpu_spec, 8, 0, backlog=0, this_node=self.node)

    def test_placement_hint_elsewhere_spills(self):
        policy = SpilloverPolicy(mode="never_spill")
        other = self.gen.node_id()
        spec = _spec(self.gen, hint=other)
        assert policy.should_spill(spec, 8, 0, backlog=0, this_node=self.node)
        spec_here = _spec(self.gen, hint=self.node)
        assert not policy.should_spill(spec_here, 8, 0, backlog=0, this_node=self.node)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SpilloverPolicy(mode="bogus")
        with pytest.raises(ValueError):
            SpilloverPolicy(queue_threshold=-1)


class TestPlacementPolicy:
    def setup_method(self):
        self.gen = IDGenerator()

    def _candidate(self, est_cpus=4, est_gpus=0, queue=0, locality=0):
        from repro.scheduling.policies import PlacementCandidate

        return PlacementCandidate(
            node_id=self.gen.node_id(),
            est_cpus=est_cpus,
            est_gpus=est_gpus,
            queue_length=queue,
            locality_bytes=locality,
        )

    def test_prefers_locality(self):
        policy = PlacementPolicy(locality_weight=1.0)
        near = self._candidate(est_cpus=1, locality=10_000)
        far = self._candidate(est_cpus=4, locality=0)
        spec = _spec(self.gen)
        assert policy.choose(spec, [near, far]) == near.node_id

    def test_locality_disabled_prefers_capacity(self):
        policy = PlacementPolicy(locality_weight=0.0)
        near = self._candidate(est_cpus=1, locality=10_000)
        far = self._candidate(est_cpus=4, locality=0)
        spec = _spec(self.gen)
        assert policy.choose(spec, [near, far]) == far.node_id

    def test_saturated_cluster_returns_none(self):
        policy = PlacementPolicy()
        busy = self._candidate(est_cpus=0)
        assert policy.choose(_spec(self.gen), [busy]) is None

    def test_no_candidates_returns_none(self):
        assert PlacementPolicy().choose(_spec(self.gen), []) is None

    def test_hint_honored_even_if_busy(self):
        policy = PlacementPolicy()
        hinted = self._candidate(est_cpus=0)
        other = self._candidate(est_cpus=4)
        spec = _spec(self.gen, hint=hinted.node_id)
        assert policy.choose(spec, [hinted, other]) == hinted.node_id

    def test_queue_breaks_ties(self):
        policy = PlacementPolicy()
        short = self._candidate(est_cpus=2, queue=0)
        long = self._candidate(est_cpus=2, queue=9)
        assert policy.choose(_spec(self.gen), [long, short]) == short.node_id

    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementPolicy(locality_weight=-1)
        with pytest.raises(ValueError):
            PlacementPolicy(max_locality_lookups=-1)


@repro.remote
def noop(i):
    return i


class TestSchedulerModes:
    def teardown_method(self):
        from repro.api import runtime_context

        runtime_context._current_runtime = None

    def _run_tasks(self, runtime, n=20):
        from repro.api import runtime_context

        runtime_context._current_runtime = runtime
        refs = [noop.options(duration=0.005).remote(i) for i in range(n)]
        assert repro.get(refs) == list(range(n))
        return runtime.stats()

    def test_hybrid_spills_only_overflow(self):
        runtime = make_hybrid_runtime(ClusterSpec.uniform(4, num_cpus=2))
        stats = self._run_tasks(runtime)
        assert 0 < stats["tasks_spilled"] < 20
        assert stats["tasks_executed"] == 20
        runtime.shutdown()

    def test_centralized_spills_everything(self):
        runtime = make_centralized_runtime(ClusterSpec.uniform(4, num_cpus=2))
        stats = self._run_tasks(runtime)
        assert stats["tasks_spilled"] == 20
        assert stats["tasks_placed"] == 20
        runtime.shutdown()

    def test_local_only_never_spills(self):
        runtime = make_local_only_runtime(ClusterSpec.uniform(4, num_cpus=2))
        stats = self._run_tasks(runtime)
        assert stats["tasks_spilled"] == 0
        assert stats["tasks_placed"] == 0
        runtime.shutdown()

    def test_unplaceable_task_fails_cleanly(self):
        from repro.cluster.spec import NodeSpec

        # GPUs exist only on the second node; when it dies the request is
        # statically valid but dynamically unplaceable -> SchedulingError
        # surfaces as a TaskError at get (never a hang).
        cluster = ClusterSpec(
            nodes=(NodeSpec(num_cpus=2), NodeSpec(num_cpus=2, num_gpus=1))
        )
        runtime = repro.init(backend="sim", cluster=cluster)
        runtime.kill_node(runtime.node_ids[1])
        repro.sleep(1.0)
        ref = noop.options(num_gpus=1, num_cpus=0).remote(1)
        with pytest.raises(TaskError, match="SchedulingError"):
            repro.get(ref)
        repro.shutdown()


def _drain_current_runtime():
    if repro.is_initialized():
        repro.shutdown()


class TestNestedContext:
    def teardown_method(self):
        _drain_current_runtime()

    def test_nested_tasks_submit_to_local_scheduler(self):
        runtime = repro.init(backend="sim", num_nodes=3, num_cpus=2)

        @repro.remote
        def leaf(x):
            return x + 1

        @repro.remote
        def fan_out(n):
            return [leaf.remote(i) for i in range(n)]

        other = runtime.node_ids[1]
        refs = repro.get(fan_out.options(placement_hint=other).remote(4))
        assert repro.get(refs) == [1, 2, 3, 4]
        # Nested work was *born* on the worker's node, so that node's
        # local scheduler saw submissions (bottom-up scheduling).
        assert runtime.local_scheduler(other).tasks_submitted >= 4
