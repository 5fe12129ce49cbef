"""A node-resident result read elsewhere, end to end on ``dist``.

A pulled object crosses TCP as the frame it lies as in its node's arena
(out of band, never re-pickled) and the driver keeps that frame as it
arrived; every reader — the driver's ``get``, a worker on another node
fed through the driver — loads it with ``deserialize``.  Values must be
right each time, the driver's copy read-only as an arena read is, and
``stats()["cluster"]["internode"]`` must count what crossed.
"""

import ctypes

import pytest

import repro

np = pytest.importorskip("numpy")

pytestmark = pytest.mark.timeout(180)

N = 1 << 17  # float64: a 1 MiB array
ROUNDS = 6


@repro.remote
def produce(n, fill):
    return np.full(n, fill, dtype=np.float64)


@repro.remote
def transform(array):
    return array + 1.0


@repro.remote
def consume(array):
    return float(array[0]), float(array[-1]), array.shape[0], array.flags.writeable


@repro.remote
class Stage:
    def produce(self, fill):
        return np.full(N, fill, dtype=np.float64)

    def consume(self, array):
        return float(array.sum()), array.flags.writeable


@pytest.fixture
def cluster():
    runtime = repro.init(backend="dist", num_nodes=2, workers_per_node=1, seed=11)
    yield runtime
    repro.shutdown()


def _internode(runtime):
    return runtime.stats()["cluster"]["internode"]


def test_chains_and_driver_gets_of_node_resident_results(cluster):
    for round_ in range(ROUNDS):
        fill = float(round_ + 1)
        assert repro.get(
            consume.remote(transform.remote(produce.remote(N, fill))), timeout=60.0
        ) == (fill + 1.0, fill + 1.0, N, False)

        ref = produce.remote(N, fill)
        repro.wait([ref], num_returns=1, timeout=60.0)
        assert cluster._objects.only_on_node(ref.object_id)
        before = _internode(cluster)
        value = repro.get(ref, timeout=60.0)
        after = _internode(cluster)
        assert value.shape == (N,) and value.dtype == np.float64
        assert bool(np.all(value == fill))
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0] = 0.0
        assert after["internode_fetches"] == before["internode_fetches"] + 1
        assert after["internode_bytes"] - before["internode_bytes"] >= value.nbytes
        # Read again: from the driver's store, no second pull.
        assert bool(np.all(repro.get(ref, timeout=60.0) == fill))
        assert _internode(cluster)["internode_fetches"] == after["internode_fetches"]


def test_a_result_read_on_the_other_node_crosses_through_the_driver(cluster):
    """Pinned actors put the producer and the consumer on different
    nodes, so the consumer's node reads the frame the driver pulled."""
    homes = [worker.node_id for worker in cluster._workers]
    producer = Stage.options(placement_hint=homes[0]).remote()
    consumer = Stage.options(placement_hint=homes[1]).remote()
    for round_ in range(ROUNDS):
        fill = float(round_ + 2)
        before = _internode(cluster)["internode_bytes"]
        assert repro.get(
            consumer.consume.remote(producer.produce.remote(fill)), timeout=60.0
        ) == (fill * N, False)
        # One pull into the driver, one reply into the consuming node.
        assert _internode(cluster)["internode_bytes"] - before >= 2 * N * 8


# ----------------------------------------------------------------------
# A node's one store: what its workers read lies in its arena
# ----------------------------------------------------------------------


def _in_arena(array):
    """Whether an array's memory is a leased window on a node's arena
    (a ctypes array over the mapping), not bytes that crossed a pipe."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, memoryview) and isinstance(base.obj, ctypes.Array)


def _refuse_lease(segment, slot):
    raise OSError("cannot map the node's arena here")


@repro.remote
class Reader:
    def produce(self, fill):
        return np.full(N, fill, dtype=np.float64)

    def read(self, array):
        return float(array.sum()), array.flags.writeable, _in_arena(array)

    def read_by_get(self, refs):
        return self.read(repro.get(refs[0]))

    def lose_the_arena(self):
        """From here on this worker cannot map its node's arena."""
        from repro.api import runtime_context

        runtime_context._current_runtime._worker.shm.lease = _refuse_lease


def _pinned(runtime, cls, *worker_indexes):
    return [
        cls.options(placement_hint=runtime._workers[index].node_id).remote()
        for index in worker_indexes
    ]


def test_a_worker_reads_a_result_in_its_own_nodes_arena_through_a_descriptor(
    cluster,
):
    (stage,) = _pinned(cluster, Reader, 0)
    before = _internode(cluster)["internode_bytes"]
    for round_ in range(3):
        fill = float(round_ + 3)
        ref = stage.produce.remote(fill)
        assert repro.get(stage.read.remote(ref), timeout=60.0) == (
            fill * N, False, True
        )
        # A get is answered with the slot an argument gets: the same
        # arena hit, no hop through the driver.
        assert repro.get(stage.read_by_get.remote([ref]), timeout=60.0) == (
            fill * N, False, True
        )
    assert _internode(cluster)["internode_bytes"] == before  # never left


@pytest.fixture
def two_per_node():
    runtime = repro.init(backend="dist", num_nodes=2, workers_per_node=2, seed=5)
    yield runtime
    repro.shutdown()


def test_two_readers_on_a_node_share_the_one_copy_landed_there(two_per_node):
    runtime = two_per_node
    producer, first, second = _pinned(runtime, Reader, 0, 2, 3)
    ref = producer.produce.remote(2.0)
    start = _internode(runtime)["internode_bytes"]
    assert float(repro.get(ref, timeout=60.0)[0]) == 2.0  # pulled into the driver
    frame = _internode(runtime)["internode_bytes"] - start
    assert frame >= N * 8
    for reader in (first, second):
        assert repro.get(reader.read.remote(ref), timeout=60.0) == (
            2.0 * N, False, True
        )
    # The frame crossed into node 1 once; the second reader mapped it.
    assert _internode(runtime)["internode_bytes"] - start == 2 * frame
    # A GET's blob lands too.
    fresh = producer.produce.remote(4.0)
    assert repro.get(second.read_by_get.remote([fresh]), timeout=60.0) == (
        4.0 * N, False, True
    )


def test_a_worker_that_cannot_map_its_arena_reads_bytes(two_per_node):
    runtime = two_per_node
    producer, broken, mapped = _pinned(runtime, Reader, 0, 2, 3)
    repro.get(broken.lose_the_arena.remote(), timeout=60.0)
    for round_ in range(2):
        fill = float(round_ + 5)
        ref = producer.produce.remote(fill)
        # Its agent lands the frame and describes it; the worker cannot
        # lease it and asks again for bytes, which it gets (no loop).
        assert repro.get(broken.read.remote(ref), timeout=60.0) == (
            fill * N, False, False
        )
        assert repro.get(broken.read_by_get.remote([ref]), timeout=60.0) == (
            fill * N, False, False
        )
        assert repro.get(mapped.read.remote(ref), timeout=60.0) == (
            fill * N, False, True
        )


def test_without_arenas_the_bytes_pass_through():
    runtime = repro.init(
        backend="dist", num_nodes=2, workers_per_node=1, seed=5, shm_capacity=0
    )
    try:
        producer, consumer = _pinned(runtime, Reader, 0, 1)
        for round_ in range(2):
            fill = float(round_ + 7)
            ref = producer.produce.remote(fill)
            for reader in (producer, consumer):
                total, _writeable, in_arena = repro.get(
                    reader.read.remote(ref), timeout=60.0
                )
                assert total == fill * N and not in_arena
            assert repro.get(consumer.read_by_get.remote([ref]), timeout=60.0)[0] == (
                fill * N
            )
    finally:
        repro.shutdown()
