"""A node-resident result read elsewhere, end to end on ``dist``.

A pulled object crosses TCP as the frame it lies as in its node's arena
(out of band, never re-pickled) and the driver keeps that frame as it
arrived; every reader — the driver's ``get``, a worker on another node
fed through the driver — loads it with ``deserialize``.  Values must be
right each time, the driver's copy read-only as an arena read is, and
``stats()["cluster"]["internode"]`` must count what crossed.
"""

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
