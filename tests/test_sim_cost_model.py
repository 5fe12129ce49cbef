"""The sim's control-plane cost model, pinned to the digit.

The sim charges every control-store op a modelled cost (hop in, shard
queue, service time, hop back).  These runs are the paper tables' inputs
(e6's shard sweep, e7's failure run); any change to what an op costs, to
which ops are charged, or to the order they reach the shards moves one of
these numbers.  A change that means to move them must say so and re-pin.
"""

import pytest

import repro


@repro.remote
def storm_noop():
    return 1


@repro.remote
def storm_spawner(count):
    return [storm_noop.remote() for _ in range(count)]


@repro.remote(duration=0.25)
def shard_work(index):
    return index * index


def _storm(num_shards: int, scheduler_mode: str) -> tuple:
    """e6's storm: 16 spawners x 100 no-ops on an 8x8 cluster."""
    runtime = repro.init(
        backend="sim", num_nodes=8, num_cpus=8,
        num_gcs_shards=num_shards, scheduler_mode=scheduler_mode,
    )
    try:
        start = repro.now()
        spawners = [storm_spawner.remote(100) for _ in range(16)]
        leaves = [ref for refs in repro.get(spawners) for ref in refs]
        repro.wait(leaves, num_returns=len(leaves))
        stats = runtime.stats()
        return repro.now() - start, stats["gcs_ops"], stats["tasks_spilled"]
    finally:
        repro.shutdown()


@pytest.mark.parametrize(
    "num_shards, mode, expected",
    [
        (1, "hybrid", (0.22068700500001645, 16796, 1534)),
        (4, "hybrid", (0.09416378050000465, 16082, 1534)),
        (1, "centralized", (0.2254492510000191, 16656, 1616)),
    ],
    ids=["hybrid/1", "hybrid/4", "centralized/1"],
)
def test_e6_storm_costs_are_pinned(num_shards, mode, expected):
    assert _storm(num_shards, mode) == expected


def test_e7_failure_run_costs_are_pinned():
    """e7's failure run: a 4x2 cluster loses node 2 at t=0.4."""
    runtime = repro.init(backend="sim", num_nodes=4, num_cpus=2, seed=1)
    try:
        refs = [shard_work.remote(i) for i in range(24)]
        runtime.kill_node_at(runtime.node_ids[2], at_time=0.4)
        assert repro.get(refs) == [i * i for i in range(24)]
        stats = runtime.stats()
        assert repro.now() == 1.0027021189999992
    finally:
        repro.shutdown()
    assert stats["gcs_ops"] == 433
    assert stats["control"]["ops_per_shard"] == [54, 100, 209, 70]
