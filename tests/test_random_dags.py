"""Differential testing on randomized task DAGs.

Generates seeded random dataflow graphs (mixed fan-in/fan-out, random
durations, occasional GPU tasks and nested spawns), evaluates them three
ways — inline topological evaluation (ground truth), the simulated
cluster, and the threaded backend — and requires identical values.
This is the strongest end-to-end correctness check in the suite: any
scheduling, dependency-tracking, transfer, or serialization bug shows up
as a value mismatch.
"""

import numpy as np
import pytest

import repro


def _combine(node_index, *inputs):
    """Deterministic, order-sensitive reduction (catches arg reordering)."""
    acc = float(node_index)
    for position, value in enumerate(inputs):
        acc = acc * 1.000003 + (position + 1) * 0.01 + value * 0.9999
    return acc


combine_task = repro.RemoteFunction(_combine, name="combine")


def _random_dag(seed, num_nodes=40, max_fanin=4):
    """Random DAG spec: node i depends on a random subset of nodes < i."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(num_nodes):
        fanin = int(rng.integers(0, min(max_fanin, i) + 1))
        parents = sorted(rng.choice(i, size=fanin, replace=False).tolist()) if fanin else []
        duration = float(rng.uniform(0.0, 0.004))
        edges.append((parents, duration))
    return edges


def _eval_inline(dag):
    values = []
    for i, (parents, _duration) in enumerate(dag):
        values.append(_combine(i, *(values[p] for p in parents)))
    return values


def _eval_on_backend(dag, backend, **init_kwargs):
    repro.init(backend=backend, **init_kwargs)
    try:
        refs = []
        for i, (parents, duration) in enumerate(dag):
            fn = combine_task.options(duration=duration)
            refs.append(fn.remote(i, *(refs[p] for p in parents)))
        return repro.get(refs)
    finally:
        repro.shutdown()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sim_backend_matches_inline(seed):
    dag = _random_dag(seed)
    expected = _eval_inline(dag)
    actual = _eval_on_backend(dag, "sim", num_nodes=3, num_cpus=2, seed=seed)
    assert actual == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_threaded_backend_matches_inline(seed):
    dag = _random_dag(seed, num_nodes=25)
    expected = _eval_inline(dag)
    actual = _eval_on_backend(dag, "local", num_nodes=2, num_cpus=4)
    assert actual == pytest.approx(expected, rel=1e-12)


def test_proc_backend_matches_inline():
    """Random DAGs on real worker processes, through the bottom-up plane
    (fast path + spillover + stealing): mixed fan-in keeps most
    submissions on the spillover path while sibling-free chains ride
    the fast path."""
    dag = _random_dag(3, num_nodes=24)
    expected = _eval_inline(dag)
    actual = _eval_on_backend(dag, "proc", num_nodes=1, num_cpus=2)
    assert actual == pytest.approx(expected, rel=1e-12)


def test_proc_nested_random_spawns_match():
    """Tasks that spawn random sub-DAGs (R3) — the workload the fast
    path exists for — return exact values."""

    @repro.remote
    def spawner(seed):
        sub = _random_dag(seed, num_nodes=10)
        refs = []
        for i, (parents, _duration) in enumerate(sub):
            refs.append(combine_task.remote(i, *(refs[p] for p in parents)))
        values = yield repro.Get(refs)
        return sum(values)

    expected = [sum(_eval_inline(_random_dag(s, num_nodes=10))) for s in (30, 31)]
    repro.init(backend="proc", num_nodes=1, num_cpus=2)
    try:
        actual = repro.get(
            [spawner.remote(30), spawner.remote(31)], timeout=120.0
        )
    finally:
        repro.shutdown()
    assert actual == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["hybrid", "centralized", "local_only"])
def test_scheduler_modes_agree_on_values(mode):
    dag = _random_dag(7)
    expected = _eval_inline(dag)
    actual = _eval_on_backend(
        dag, "sim", num_nodes=3, num_cpus=2, scheduler_mode=mode
    )
    assert actual == pytest.approx(expected, rel=1e-12)


def test_dag_survives_node_failure():
    dag = _random_dag(11, num_nodes=30)
    expected = _eval_inline(dag)
    repro.init(backend="sim", num_nodes=3, num_cpus=2, seed=11)
    runtime = repro.get_runtime()
    try:
        refs = []
        for i, (parents, duration) in enumerate(dag):
            fn = combine_task.options(duration=duration + 0.01)
            refs.append(fn.remote(i, *(refs[p] for p in parents)))
        runtime.kill_node_at(runtime.node_ids[1], at_time=0.05)
        actual = repro.get(refs)
    finally:
        repro.shutdown()
    assert actual == pytest.approx(expected, rel=1e-12)


def test_nested_random_spawns_match():
    """Tasks that spawn random sub-DAGs (R3) still produce exact values."""

    @repro.remote
    def spawner(seed):
        sub = _random_dag(seed, num_nodes=10)
        refs = []
        for i, (parents, duration) in enumerate(sub):
            fn = combine_task.options(duration=duration)
            refs.append(fn.remote(i, *(refs[p] for p in parents)))
        values = yield repro.Get(refs)
        return sum(values)

    expected = [sum(_eval_inline(_random_dag(s, num_nodes=10))) for s in (20, 21)]
    repro.init(backend="sim", num_nodes=2, num_cpus=3)
    try:
        actual = repro.get([spawner.remote(20), spawner.remote(21)])
    finally:
        repro.shutdown()
    assert actual == pytest.approx(expected, rel=1e-12)
