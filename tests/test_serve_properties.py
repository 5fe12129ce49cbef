"""Property tests for the serving plane (repro.serve).

The batching/admission contract, stated as properties over randomized
call streams:

* **exactly-once** — every accepted call's future resolves exactly once,
  with that call's own result (nothing dropped, nothing duplicated,
  nothing cross-wired between batch elements);
* **batch cap** — no vectorized invocation ever receives more than
  ``max_batch_size`` elements;
* **per-replica ordering** — calls routed to one replica are processed
  in submission order (the actor call chain plus FIFO batch queues);
* **exact shedding** — with replicas gated so nothing completes,
  ``admission="shed"`` rejects precisely the submissions beyond
  ``max_queue_depth``, and ``"block"`` delays the submitter instead.
* **one result per batch** — a flushed batch is one actor call whose
  one result object the pool watches once and splits itself, so a
  request pays no object, watch or control-store row of its own.

Run on sim (deterministic mirror, hypothesis-driven) and on the real
backends.
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

pytestmark = pytest.mark.timeout(120)

#: Real-backend configurations the stream properties must hold on.
CONFIGS = {
    "local": ("local", {}),
    "proc": ("proc", {"num_workers": 2}),
}


def _recorder_class():
    @repro.remote
    class Recorder:
        """Vectorized replica that tags every element with its own
        identity, a per-replica sequence number, and the batch size —
        enough to check all three stream properties from the outside."""

        def __init__(self):
            import uuid

            self.tag = uuid.uuid4().hex  # unique per replica instance
            self.seq = 0

        def handle(self, batch):
            base = self.seq
            self.seq += len(batch)
            return [
                (self.tag, base + i, len(batch), value)
                for i, value in enumerate(batch)
            ]

    return Recorder


def _check_stream_properties(results, values, max_batch_size, size):
    assert len(results) == len(values)
    # Exactly-once with the right payload: element i carries value i.
    for value, (_tag, _seq, batch_len, echoed) in zip(values, results):
        assert echoed == value
        assert 1 <= batch_len <= max_batch_size
    # Per-replica ordering: sequence numbers increase in submission
    # order within each replica's slice of the stream.
    per_replica = {}
    for tag, seq, _batch_len, _echoed in results:
        per_replica.setdefault(tag, []).append(seq)
    assert len(per_replica) <= size
    for seqs in per_replica.values():
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestBatchingProperties:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams_batched(self, config, seed):
        import random

        backend, kwargs = CONFIGS[config]
        rng = random.Random(seed)
        size = rng.choice([1, 2, 3])
        max_batch_size = rng.choice([2, 3, 4])
        routing = rng.choice(["round_robin", "least_loaded"])
        n_calls = rng.randrange(10, 40)
        repro.init(backend=backend, num_nodes=2, num_cpus=2, seed=seed, **kwargs)
        try:
            pool = repro.ActorPool(
                _recorder_class(),
                size=size,
                method="handle",
                routing=routing,
                max_batch_size=max_batch_size,
                batch_wait_ms=1.0,
            )
            values = list(range(n_calls))
            futures = [pool.submit(v) for v in values]
            results = [f.result(timeout=60.0) for f in futures]
            _check_stream_properties(results, values, max_batch_size, size)
            stats = pool.stats()
            assert stats["submitted"] == n_calls
            assert stats["completed"] == n_calls
            assert stats["failed"] == 0
            assert stats["shed"] == 0
            assert 1 <= stats["largest_batch"] <= max_batch_size
            assert stats["batches"] >= 1
            assert stats["inflight"] == 0
        finally:
            repro.shutdown()

    @pytest.mark.parametrize("config", CONFIGS)
    def test_unbatched_passthrough_exactly_once(self, config):
        backend, kwargs = CONFIGS[config]
        repro.init(backend=backend, num_nodes=2, num_cpus=2, **kwargs)
        try:

            @repro.remote
            class Adder:
                def __init__(self, bias):
                    self.bias = bias

                def add(self, x, y=0):
                    return self.bias + x + y

            pool = repro.ActorPool(
                Adder, size=2, method="add", args=(100,), max_batch_size=1
            )
            futures = [pool.submit(i, y=i) for i in range(20)]
            assert [f.result(timeout=60.0) for f in futures] == [
                100 + 2 * i for i in range(20)
            ]
            stats = pool.stats()
            assert (stats["submitted"], stats["completed"]) == (20, 20)
            assert stats["batches"] == 0  # passthrough never batches
        finally:
            repro.shutdown()


#: Requests in the cost burst, and the batch they coalesce into.
BURST_REQUESTS = 2000
BURST_BATCH = 8


class TestBatchCost:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_a_burst_pays_per_batch_not_per_request(self, config):
        """One watch and one result object per flushed batch, and well
        under one control-store op per request (a per-request result
        object costs a watch, an object and ~1.4 ops each)."""
        import gc

        backend, kwargs = CONFIGS[config]
        runtime = repro.init(backend=backend, num_nodes=2, num_cpus=2, **kwargs)
        try:

            @repro.remote
            class Echo:
                def __call__(self, batch):
                    return batch

            # A long wait: every batch of the burst fills, even on a
            # host that stalls the submitting thread for a while.
            pool = repro.ActorPool(
                Echo, size=2, max_batch_size=BURST_BATCH, batch_wait_ms=50.0
            )
            # Warm both replicas: each keeps its last result as the next
            # call's ordering dependency, before the burst and after it.
            assert pool.map(range(4 * BURST_BATCH), timeout=60.0) == list(
                range(4 * BURST_BATCH)
            )

            def counters():
                gc.collect()
                stats = runtime.stats()
                objects = stats.get("objects")
                return {
                    "batches": stats["serve"]["batches"],
                    "watches": stats["serve"]["completion_pump"]["watches_added"],
                    # ``local`` keeps every object; ``proc`` releases them.
                    "objects": (
                        stats["objects_stored"] if objects is None
                        else objects["released"]
                    ),
                    "ops": stats["control"]["ops_total"],
                }

            before = counters()
            futures = [pool.submit(i) for i in range(BURST_REQUESTS)]
            assert [f.result(timeout=60.0) for f in futures] == list(
                range(BURST_REQUESTS)
            )
            del futures
            batches = counters()["batches"] - before["batches"]
            deadline = time.monotonic() + 30.0
            while True:  # a release is applied a moment after the value is read
                after = counters()
                grown = {k: after[k] - before[k] for k in after}
                if grown["objects"] >= batches or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert BURST_REQUESTS / BURST_BATCH <= batches < BURST_REQUESTS / 2
            assert grown["watches"] == batches
            assert grown["objects"] == batches
            assert grown["ops"] / BURST_REQUESTS <= 0.7, grown
        finally:
            repro.shutdown()


class TestBatchingPropertiesSim:
    """Hypothesis-driven stream properties on the deterministic mirror."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_calls=st.integers(min_value=1, max_value=60),
        size=st.integers(min_value=1, max_value=4),
        max_batch_size=st.integers(min_value=2, max_value=6),
        routing=st.sampled_from(["round_robin", "least_loaded"]),
        demand_order=st.randoms(use_true_random=False),
    )
    def test_random_streams_sim(
        self, n_calls, size, max_batch_size, routing, demand_order
    ):
        if repro.is_initialized():  # hypothesis reruns inside one test
            repro.shutdown()
        repro.init(backend="sim", num_nodes=2, num_cpus=4)
        try:
            pool = repro.ActorPool(
                _recorder_class(),
                size=size,
                method="handle",
                routing=routing,
                max_batch_size=max_batch_size,
            )
            values = list(range(n_calls))
            futures = [pool.submit(v) for v in values]
            # Demanding results in random order must not break any
            # property (the mirror flushes on demand).
            order = list(range(n_calls))
            demand_order.shuffle(order)
            results = [None] * n_calls
            for i in order:
                results[i] = futures[i].result()
            _check_stream_properties(results, values, max_batch_size, size)
            stats = pool.stats()
            assert stats["completed"] == n_calls
            assert stats["failed"] == 0
        finally:
            repro.shutdown()

    def test_sim_batches_are_deterministic(self):
        outcomes = []
        for _ in range(2):
            repro.init(backend="sim", num_nodes=2, num_cpus=4)
            try:
                pool = repro.ActorPool(
                    _recorder_class(), size=2, method="handle",
                    max_batch_size=3,
                )
                futures = [pool.submit(v) for v in range(11)]
                results = [f.result() for f in futures]
                # Tags are per-instance uuids; compare the deterministic
                # parts plus how the stream split across replicas.
                outcomes.append(
                    (
                        [(seq, bl, v) for (_t, seq, bl, v) in results],
                        len({t for (t, _s, _b, _v) in results}),
                        pool.stats()["batches"],
                    )
                )
            finally:
                repro.shutdown()
        assert outcomes[0] == outcomes[1]


def _gated_echo_class(gate_path):
    gate = str(gate_path)

    @repro.remote
    class GatedEcho:
        """Echoes its batch, but only once the gate file exists — keeps
        calls in flight so admission accounting is exact, not racy."""

        def handle(self, batch):
            while not os.path.exists(gate):
                time.sleep(0.01)
            return list(batch)

    return GatedEcho


class TestAdmissionControl:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_shed_counts_exact_under_gated_replicas(self, config, tmp_path):
        backend, kwargs = CONFIGS[config]
        gate = tmp_path / "gate"
        cap, attempts = 5, 23
        repro.init(backend=backend, num_nodes=2, num_cpus=2, **kwargs)
        try:
            pool = repro.ActorPool(
                _gated_echo_class(gate),
                size=2,
                method="handle",
                max_batch_size=4,
                batch_wait_ms=1.0,
                max_queue_depth=cap,
                admission="shed",
            )
            accepted, shed = [], 0
            for i in range(attempts):
                try:
                    accepted.append(pool.submit(i))
                except repro.Backpressure:
                    shed += 1
            # Nothing can complete while the gate is closed, so the cap
            # is provably exact: first ``cap`` accepted, rest shed.
            assert len(accepted) == cap
            assert shed == attempts - cap
            stats = pool.stats()
            assert stats["shed"] == attempts - cap
            assert stats["inflight"] == cap
            gate.write_text("go")
            assert sorted(f.result(timeout=60.0) for f in accepted) == list(
                range(cap)
            )
            assert pool.stats()["inflight"] == 0
        finally:
            repro.shutdown()

    def test_shed_exact_on_sim(self):
        repro.init(backend="sim", num_nodes=2, num_cpus=2)
        try:

            @repro.remote
            class Echo:
                def handle(self, batch):
                    return list(batch)

            pool = repro.ActorPool(
                Echo, size=1, method="handle", max_batch_size=2,
                max_queue_depth=3, admission="shed",
            )
            futures, shed = [], 0
            for i in range(10):  # sim resolves only on demand
                try:
                    futures.append(pool.submit(i))
                except repro.Backpressure:
                    shed += 1
            assert (len(futures), shed) == (3, 7)
            assert [f.result() for f in futures] == [0, 1, 2]
        finally:
            repro.shutdown()

    def test_block_admission_applies_backpressure(self, tmp_path):
        gate = tmp_path / "gate"
        repro.init(backend="local", num_nodes=2, num_cpus=2)
        try:
            pool = repro.ActorPool(
                _gated_echo_class(gate),
                size=1,
                method="handle",
                max_batch_size=2,
                batch_wait_ms=1.0,
                max_queue_depth=2,
                admission="block",
            )
            first = [pool.submit(i) for i in range(2)]  # fills the cap
            unblocked = threading.Event()
            late = []

            def blocked_submit():
                late.append(pool.submit(99))
                unblocked.set()

            thread = threading.Thread(target=blocked_submit, daemon=True)
            thread.start()
            # The submitter is being held, not shed and not failed.
            assert not unblocked.wait(timeout=0.3)
            assert pool.stats()["shed"] == 0
            gate.write_text("go")
            assert unblocked.wait(timeout=30.0)
            thread.join(timeout=30.0)
            assert [f.result(timeout=30.0) for f in first] == [0, 1]
            assert late[0].result(timeout=30.0) == 99
        finally:
            repro.shutdown()

    def test_block_admission_sim_drains_deterministically(self):
        repro.init(backend="sim", num_nodes=2, num_cpus=2)
        try:

            @repro.remote
            class Echo:
                def handle(self, batch):
                    return list(batch)

            pool = repro.ActorPool(
                Echo, size=1, method="handle", max_batch_size=2,
                max_queue_depth=2, admission="block",
            )
            futures = [pool.submit(i) for i in range(9)]
            assert [f.result() for f in futures] == list(range(9))
            assert pool.stats()["shed"] == 0
        finally:
            repro.shutdown()


class TestAsyncMultiplexing:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_many_inflight_awaits_one_thread(self, config):
        import asyncio

        backend, kwargs = CONFIGS[config]
        repro.init(backend=backend, num_nodes=2, num_cpus=2, **kwargs)
        try:

            @repro.remote
            def square(x):
                return x * x

            async def drive():
                refs = [square.remote(i) for i in range(200)]
                return await repro.get_async(refs, timeout=60.0)

            assert asyncio.run(drive()) == [i * i for i in range(200)]
        finally:
            repro.shutdown()

    def test_future_api_and_timeout(self):
        import asyncio

        repro.init(backend="local", num_nodes=1, num_cpus=2)
        try:

            @repro.remote
            def slow():
                time.sleep(5.0)
                return "late"

            @repro.remote
            def fast():
                return "soon"

            assert fast.remote().future().result(timeout=30.0) == "soon"
            with pytest.raises(repro.GetTimeoutError):
                asyncio.run(repro.get_async(slow.remote(), timeout=0.2))
        finally:
            repro.shutdown()

    def test_get_async_sim_fallback(self):
        import asyncio

        repro.init(backend="sim", num_nodes=2, num_cpus=2)
        try:

            @repro.remote
            def square(x):
                return x * x

            assert asyncio.run(repro.get_async(square.remote(6))) == 36
        finally:
            repro.shutdown()


class TestRouting:
    def test_least_loaded_avoids_busy_replica(self, tmp_path):
        gate = tmp_path / "gate"
        repro.init(backend="local", num_nodes=2, num_cpus=2)
        try:
            pool = repro.ActorPool(
                _gated_echo_class(gate),
                size=2,
                method="handle",
                routing="least_loaded",
                max_batch_size=2,
                batch_wait_ms=1.0,
                max_queue_depth=None,
            )
            stuck = pool.submit("stuck")  # lands somewhere; gate closed
            time.sleep(0.1)
            depths = pool.stats()["queue_depths"]
            busy_slot = depths.index(max(depths))
            more = [pool.submit(i) for i in range(4)]
            # Everything after the stuck call must prefer the idle
            # replica: the busy slot's depth never grows past the stuck
            # batch while an emptier peer exists.
            depths = pool.stats()["queue_depths"]
            assert depths[1 - busy_slot] >= depths[busy_slot] - 1
            gate.write_text("go")
            assert stuck.result(timeout=30.0) == "stuck"
            assert [f.result(timeout=30.0) for f in more] == list(range(4))
        finally:
            repro.shutdown()

    def test_latency_aware_starves_slow_replica(self, tmp_path):
        token = tmp_path / "slow_token"
        repro.init(backend="local", num_nodes=2, num_cpus=2)
        try:

            @repro.remote
            class Uneven:
                """First replica constructed claims the slow token and
                serves each call ~20x slower than its peer."""

                def __init__(self, token_path):
                    try:
                        with open(token_path, "x"):
                            pass
                        self.delay = 0.08
                    except FileExistsError:
                        self.delay = 0.004

                def handle(self, value):
                    time.sleep(self.delay)
                    return (self.delay, value)

            pool = repro.ActorPool(
                Uneven, size=2, method="handle", args=(str(token),),
                routing="latency_aware", max_batch_size=1,
            )
            # Sequential submit-and-wait keeps every queue empty, so the
            # score reduces to each replica's service-time EWMA: once
            # both replicas have been sampled (the optimistic 0.0 score
            # guarantees each gets at least one call), the fast replica
            # should win every pick.
            results = [pool.submit(i).result(timeout=30.0) for i in range(12)]
            slow_calls = sum(1 for delay, _v in results if delay == 0.08)
            assert slow_calls <= 3, results
            ewma = pool.stats()["service_time_ewma"]
            assert len(ewma) == 2
            assert min(ewma) > 0.0
            assert max(ewma) > 2 * min(ewma)
        finally:
            repro.shutdown()

    def test_round_robin_spreads_evenly(self):
        repro.init(backend="sim", num_nodes=2, num_cpus=4)
        try:
            pool = repro.ActorPool(
                _recorder_class(), size=3, method="handle",
                max_batch_size=2, routing="round_robin",
            )
            futures = [pool.submit(i) for i in range(12)]
            results = [f.result() for f in futures]
            counts = {}
            for tag, _seq, _bl, _v in results:
                counts[tag] = counts.get(tag, 0) + 1
            assert sorted(counts.values()) == [4, 4, 4]
        finally:
            repro.shutdown()
