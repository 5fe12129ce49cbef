"""Dist-backend tests: the multi-node runtime over TCP.

Three planes, each with its own proofs:

* **topology** — node agents are real processes distinct from the
  driver and from their workers; ``stats()["cluster"]`` reports the
  membership view every backend now shares.
* **data** — large results stay node-resident (descriptors travel, not
  bytes) until somebody actually reads them; each payload crosses the
  node boundary at most once per consuming node, and the internode
  accountant sees exactly those pulls.
* **membership** — ``kill_node`` (SIGKILL) and a SIGSTOP-silenced agent
  are both detected, in-flight work replays on survivors with nothing
  lost and nothing spuriously duplicated, node-resident objects are
  reconstructed through lineage, and exhausted replay budgets surface
  ``NodeLostError`` rather than hanging.
"""

import os
import signal
import time

import pytest

import repro
from repro.errors import ActorLostError, NodeLostError, TaskError

pytestmark = pytest.mark.timeout(180)

MiB = 1024 * 1024


@repro.remote
def double(x):
    return 2 * x


@repro.remote
def payload(i, size):
    return bytes([i % 256]) * size


@repro.remote
def checksum(blob):
    return (len(blob), blob[0])


@repro.remote
def tally(path, x):
    """Append-mark execution, then linger long enough to be killed."""
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    time.sleep(0.25)
    return 2 * x


@repro.remote
def linger(seconds):
    time.sleep(seconds)
    return seconds


@repro.remote
def park_on(path, refs):
    """Say where this runs, then block on ``refs[0]`` (a ref inside a
    list is not an argument dependency: the get parks the task)."""
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    return repro.get(refs[0])


@pytest.fixture
def cluster():
    runtime = repro.init(
        backend="dist",
        num_nodes=2,
        num_cpus=2,
        seed=7,
        heartbeat_interval=0.1,
    )
    yield runtime
    repro.shutdown()


def _cluster_stats(runtime):
    return runtime.stats()["cluster"]


def _spread_payloads(runtime, count, size=MiB, attempts=4):
    """Produce node-resident payloads until node 1 holds at least one
    (scheduling spreads across nodes, but the test must not depend on
    any single placement outcome)."""
    refs = []
    for _ in range(attempts):
        batch = [payload.remote(i, size) for i in range(len(refs), len(refs) + count)]
        refs.extend(batch)
        repro.wait(refs, num_returns=len(refs))
        if _cluster_stats(runtime)["per_node"][1]["objects_resident"] > 0:
            return refs
    pytest.skip("scheduler never placed a payload on node 1")


class TestTopology:
    def test_agents_workers_and_driver_are_distinct_processes(self, cluster):
        assert repro.get([double.remote(i) for i in range(8)]) == [
            2 * i for i in range(8)
        ]
        agents = cluster.agent_pids()
        workers = cluster.worker_pids()
        assert len(agents) == 2
        assert len(set(agents)) == 2
        assert os.getpid() not in agents
        assert len(workers) == 4
        assert not set(workers) & set(agents)
        assert os.getpid() not in workers

    def test_cluster_stats_report_membership(self, cluster):
        repro.get(double.remote(1))
        stats = _cluster_stats(cluster)
        assert stats["num_nodes"] == 2
        assert stats["workers_per_node"] == 2
        assert stats["nodes_alive"] == 2
        assert stats["nodes_lost"] == 0
        assert stats["heartbeat_timeouts"] == 0
        assert stats["heartbeat_interval"] == pytest.approx(0.1)
        for node in stats["per_node"]:
            assert node["alive"] is True
            assert node["workers_alive"] == 2
            assert node["heartbeat_age"] is not None

    def test_cluster_stats_keys_match_proc_backend(self, cluster):
        dist_stats = _cluster_stats(cluster)
        dist_node_keys = set(dist_stats["per_node"][0])
        repro.shutdown()
        proc = repro.init(backend="proc", num_workers=1)
        try:
            proc_stats = proc.stats()["cluster"]
            assert set(proc_stats) == set(dist_stats)
            assert set(proc_stats["per_node"][0]) == dist_node_keys
        finally:
            repro.shutdown()


class TestDataPlane:
    def test_large_results_stay_resident_until_read(self, cluster):
        ref = payload.remote(7, MiB)
        repro.wait([ref], num_returns=1)
        before = _cluster_stats(cluster)
        assert before["objects_node_resident"] >= 1
        assert before["internode"]["internode_fetches"] == 0

        value = repro.get(ref)
        assert value == bytes([7]) * MiB
        after_first = _cluster_stats(cluster)["internode"]
        assert after_first["internode_fetches"] == 1
        assert after_first["internode_bytes"] >= MiB

        # Fetch-once: a second read is served from the driver's store.
        assert repro.get(ref) == value
        after_second = _cluster_stats(cluster)["internode"]
        assert after_second["internode_fetches"] == after_first["internode_fetches"]

    def test_consumers_see_remote_payloads(self, cluster):
        ref = payload.remote(3, MiB)
        results = repro.get([checksum.remote(ref) for _ in range(4)])
        assert results == [(MiB, 3)] * 4
        fetches = _cluster_stats(cluster)["internode"]["internode_fetches"]
        # Descriptor-first transfer: far fewer boundary crossings than
        # consumers (at most one pull per consuming side, never 4).
        assert 1 <= fetches <= 3

    def test_worker_put_of_a_large_array_is_refused_at_the_agent(self, cluster):
        """A task's large put asks for an arena grant; on dist the
        driver has no arena, so the node agent answers None itself and
        the put ships as bytes — the driver sees no SHM_CREATE."""
        numpy = pytest.importorskip("numpy")
        if not all(link.shm_on for link in cluster._links):
            pytest.skip("node agents have no shared-memory arena here")
        plane = cluster._objects
        grant, grants = plane.grant, []
        plane.grant = lambda *args: grants.append(args) or grant(*args)

        @repro.remote
        def put_array():
            return [repro.put(numpy.arange(MiB // 8, dtype=numpy.float64))]

        (inner,) = repro.get(put_array.remote(), timeout=60.0)
        value = repro.get(inner, timeout=60.0)
        assert numpy.array_equal(value, numpy.arange(MiB // 8, dtype=numpy.float64))
        assert grants == []

    def test_put_roundtrip_and_actor_state(self, cluster):
        big = repro.put(bytes([9]) * MiB)
        small = repro.put({"k": 1})
        assert repro.get(small) == {"k": 1}
        assert repro.get(checksum.remote(big)) == (MiB, 9)

        @repro.remote
        class Counter:
            def __init__(self):
                self.n = 0

            def bump(self):
                self.n += 1
                return self.n

        counter = Counter.remote()
        assert repro.get([counter.bump.remote() for _ in range(5)]) == [1, 2, 3, 4, 5]


class TestMembership:
    def test_kill_node_mid_task_replays_with_nothing_lost(self, cluster, tmp_path):
        marker = tmp_path / "executions"
        refs = [tally.remote(str(marker), i) for i in range(8)]
        time.sleep(0.15)  # let the first wave start on both nodes
        cluster.kill_node(1)
        assert repro.get(refs, timeout=60.0) == [2 * i for i in range(8)]

        stats = cluster.stats()
        assert stats["cluster"]["nodes_lost"] == 1
        assert stats["cluster"]["nodes_alive"] == 1
        # Zero lost, zero spurious duplicates: every task ran at least
        # once, and any re-execution is accounted for as a fault-driven
        # lineage replay — never a double dispatch.
        lines = [int(line) for line in marker.read_text().split()]
        counts = {i: lines.count(i) for i in range(8)}
        assert all(count >= 1 for count in counts.values()), counts
        extra = sum(count - 1 for count in counts.values())
        assert extra <= stats["lineage_replays"]

    def test_objects_on_dead_node_reconstructed_via_lineage(self, cluster):
        refs = _spread_payloads(cluster, count=4)
        cluster.kill_node(1)
        values = repro.get(refs, timeout=60.0)
        for i, value in enumerate(values):
            assert value == bytes([i % 256]) * MiB
        stats = cluster.stats()
        assert stats["lineage_replays"] >= 1
        assert stats["cluster"]["nodes_lost"] == 1

    def test_replay_budget_zero_surfaces_node_lost(self, cluster):
        ref = payload.options(max_reconstructions=0).remote(1, MiB)
        repro.wait([ref], num_returns=1)
        entry = cluster._objects._node_resident.get(ref.object_id)
        assert entry is not None, "payload should be node-resident"
        cluster.kill_node(entry[0])
        with pytest.raises((NodeLostError, TaskError)):
            repro.get(ref, timeout=60.0)

    def test_actors_on_dead_node_surface_actor_lost(self, cluster):
        @repro.remote
        class Pinned:
            def where(self):
                return os.getpid()

        actors = [Pinned.remote() for _ in range(4)]
        assert len({repro.get(a.where.remote()) for a in actors}) == 4
        cluster.kill_node(1)
        outcomes = []
        for actor in actors:
            try:
                repro.get(actor.where.remote(), timeout=60.0)
                outcomes.append("alive")
            except (ActorLostError, TaskError):
                outcomes.append("lost")
        assert outcomes.count("lost") == 2, outcomes
        assert outcomes.count("alive") == 2, outcomes

    def test_sigstop_silent_node_detected_and_work_recovered(self, cluster):
        refs = _spread_payloads(cluster, count=4)
        victim = 1
        os.kill(cluster.agent_pids()[victim], signal.SIGSTOP)
        # The agent is silent, not dead: only the heartbeat monitor can
        # notice.  Reads block on the stopped node's objects until the
        # timeout condemns it, then lineage replays them on node 0.
        values = repro.get(refs, timeout=60.0)
        for i, value in enumerate(values):
            assert value == bytes([i % 256]) * MiB
        stats = cluster.stats()["cluster"]
        assert stats["heartbeat_timeouts"] == 1
        assert stats["nodes_lost"] == 1
        assert stats["nodes_alive"] == 1
        assert stats["per_node"][victim]["alive"] is False
        assert stats["per_node"][victim]["heartbeat_age"] is None

    def test_a_worker_dying_with_only_parked_tasks_is_found_at_once(
        self, cluster, tmp_path
    ):
        """Its agent's ``WORKER_DOWN`` wakes the service thread, which is
        waiting on the runtime cond (nothing of its worker runs, so it
        is not reading the channel) — not the idle wait's 1 s backstop."""
        assert repro.get([double.remote(i) for i in range(8)]) == [
            2 * i for i in range(8)
        ]
        marker = tmp_path / "parent_pid"
        sibling = linger.remote(3.0)
        parent = park_on.remote(str(marker), [sibling])
        deadline = time.monotonic() + 30.0
        while not (
            marker.exists() and marker.read_text()
            and cluster.stats()["sched"]["tasks_parked"] >= 1
        ):
            assert time.monotonic() < deadline, "the parent never parked"
            time.sleep(0.01)
        time.sleep(0.2)
        crashed = cluster.stats()["workers_crashed"]
        os.kill(int(marker.read_text()), signal.SIGKILL)
        killed = time.monotonic()
        while cluster.stats()["workers_crashed"] == crashed:
            assert time.monotonic() - killed < 10.0, "the loss was never found"
            time.sleep(0.002)
        detection = time.monotonic() - killed
        assert detection < 0.5, f"found {detection:.3f} s after the kill"
        # The parent was lost with its worker and replays on a survivor.
        assert repro.get(parent, timeout=60.0) == 3.0
