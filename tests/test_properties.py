"""Property-based tests (hypothesis) on core data structures and invariants."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.objectstore.store import LocalObjectStore, ObjectStoreFullError
from repro.sim.core import Delay, Simulator
from repro.utils.ids import IDGenerator
from repro.utils.serialization import deserialize, serialize
from repro.workloads.atari import es_update, perturbation
from repro.workloads.rl import RLConfig

# Keep the sim-backend cases small: each example builds a full runtime.
_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(value=json_like)
@settings(max_examples=100, deadline=None)
def test_serialization_roundtrip(value):
    assert deserialize(serialize(value)) == value


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=40),
    capacity=st.integers(min_value=400, max_value=2000),
)
@settings(max_examples=100, deadline=None)
def test_object_store_invariants(sizes, capacity):
    """used_bytes always equals the sum of resident sizes and never
    exceeds capacity, whatever the put sequence."""
    gen = IDGenerator()
    store = LocalObjectStore(gen.node_id(), capacity=capacity)
    resident: dict = {}
    for size in sizes:
        oid = gen.object_id()
        try:
            store.put(oid, b"x" * size)
            resident[oid] = size
        except ObjectStoreFullError:
            pass
        resident = {o: s for o, s in resident.items() if store.contains(o)}
        assert store.used_bytes == sum(resident.values())
        assert store.used_bytes <= capacity


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_sim_clock_monotone_and_complete(delays):
    """Every scheduled event fires exactly once, in non-decreasing time."""
    sim = Simulator()
    fired = []

    def proc(d):
        yield Delay(d)
        fired.append(sim.now)

    for d in delays:
        sim.spawn(proc(d))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)
    assert sim.now == max(delays)


@given(
    num_tasks=st.integers(min_value=1, max_value=12),
    num_returns=st.integers(min_value=0, max_value=12),
)
@_SLOW
def test_wait_invariants(num_tasks, num_returns):
    """wait returns disjoint ready/pending preserving order, with at
    least min(num_returns, n) ready when no timeout is given."""
    num_returns = min(num_returns, num_tasks)
    repro.init(backend="sim", num_nodes=2, num_cpus=2, seed=3)
    try:
        @repro.remote
        def job(i):
            return i

        timed = repro.RemoteFunction(job.function, name="job")
        refs = [
            timed.options(duration=0.01 * (i % 4)).remote(i)
            for i in range(num_tasks)
        ]
        ready, pending = repro.wait(refs, num_returns=num_returns)
        assert len(ready) >= num_returns
        assert set(ready).isdisjoint(pending)
        assert len(ready) + len(pending) == len(refs)
        # Order preservation: each list respects the original ref order.
        assert [r for r in refs if r in set(ready)] == ready
        assert [r for r in refs if r in set(pending)] == pending
    finally:
        repro.shutdown()


@given(
    rewards=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
@settings(max_examples=50, deadline=None)
def test_es_update_finite_and_shaped(rewards):
    weights = np.zeros((6, 32))
    results = [{"seed": i, "reward": r} for i, r in enumerate(rewards)]
    updated = es_update(weights, results)
    assert updated.shape == weights.shape
    assert np.all(np.isfinite(updated))


@given(seed=st.integers(min_value=0, max_value=2**31), sigma=st.floats(0.001, 1.0))
@settings(max_examples=50, deadline=None)
def test_perturbation_deterministic(seed, sigma):
    assert np.allclose(perturbation(seed, sigma), perturbation(seed, sigma))


@given(
    n=st.integers(min_value=1, max_value=200),
    shards=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_rl_sharding_partition(n, shards):
    if n < shards:
        return
    config = RLConfig(
        iterations=1, rollouts_per_iteration=n, num_fit_shards=shards
    )
    chunks = config.shard(list(range(n)))
    assert [x for chunk in chunks for x in chunk] == list(range(n))
    assert all(chunks)
    assert len(chunks) <= shards


@given(data=st.binary(min_size=0, max_size=1000))
@settings(max_examples=100, deadline=None)
def test_store_put_get_bytes_identity(data):
    gen = IDGenerator()
    store = LocalObjectStore(gen.node_id(), capacity=10_000)
    oid = gen.object_id()
    if len(data) == 0:
        store.put(oid, data)
        assert store.get(oid) == data
        return
    store.put(oid, data)
    assert store.get(oid) == data
    assert store.size_of(oid) == len(data)


@given(
    backlog=st.integers(min_value=0, max_value=100),
    extra=st.integers(min_value=1, max_value=50),
    cpus=st.integers(min_value=1, max_value=64),
    threshold=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_spillover_monotone_in_backlog(backlog, extra, cpus, threshold):
    """If the hybrid policy spills at some backlog, it spills at any
    larger backlog (no flapping)."""
    from repro.core.task import ResourceRequest, TaskSpec
    from repro.scheduling.policies import SpilloverPolicy

    gen = IDGenerator()
    policy = SpilloverPolicy(mode="hybrid", queue_threshold=threshold)
    spec = TaskSpec(
        task_id=gen.task_id(),
        function_id=gen.function_id(),
        function_name="f",
        return_object_id=gen.object_id(),
        resources=ResourceRequest(num_cpus=1),
    )
    node = gen.node_id()
    if policy.should_spill(spec, cpus, 0, backlog, node):
        assert policy.should_spill(spec, cpus, 0, backlog + extra, node)


@given(
    capacities=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 1000), st.integers(0, 20)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_placement_only_picks_nodes_with_capacity(capacities):
    """The placement policy never selects a candidate without estimated
    free slots, and returns None only when no candidate has any."""
    from repro.core.task import ResourceRequest, TaskSpec
    from repro.scheduling.policies import PlacementCandidate, PlacementPolicy

    gen = IDGenerator()
    candidates = [
        PlacementCandidate(
            node_id=gen.node_id(),
            est_cpus=cpu,
            est_gpus=0,
            queue_length=queue,
            locality_bytes=loc,
        )
        for cpu, loc, queue in capacities
    ]
    spec = TaskSpec(
        task_id=gen.task_id(),
        function_id=gen.function_id(),
        function_name="f",
        return_object_id=gen.object_id(),
        resources=ResourceRequest(num_cpus=1),
    )
    choice = PlacementPolicy().choose(spec, candidates)
    with_capacity = [c for c in candidates if c.est_cpus >= 1]
    if with_capacity:
        assert choice in {c.node_id for c in with_capacity}
    else:
        assert choice is None


@given(
    kinds=st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=50)
)
@settings(max_examples=100, deadline=None)
def test_event_log_filter_partition(kinds):
    """Filtering by every kind partitions the log exactly."""
    from repro.store.event_log import EventLog

    log = EventLog()
    for index, kind in enumerate(kinds):
        log.append(float(index), kind, index=index)
    total = sum(len(log.filter(kind=k)) for k in ("a", "b", "c"))
    assert total == len(log)
    for kind in log.kinds():
        for record in log.filter(kind=kind):
            assert record.kind == kind
