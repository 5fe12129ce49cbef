"""Live tracing plane: span recording, collection, and the R7 tool chain.

Holds every backend to the same trace shape: the sim's always-on event
log and the live backends' collected wall-clock spans feed the same
``EventLog``, so ``task_spans`` / ``export_chrome_trace`` / ``run_report``
must work identically on all four — including across real process and
node boundaries (clock calibration, identity stamping, replay chains).
"""

import os
import time

import pytest

import repro
from repro.errors import BackendError
from repro.obs import (
    FLUSH_THRESHOLD,
    SpanCollector,
    SpanRecorder,
    disabled_obs_stats,
    resolve_event_log,
)
from repro.store.event_log import EventLog
from repro.tools.report import run_report
from repro.tools.timeline import export_chrome_trace, task_spans

pytestmark = pytest.mark.timeout(180)

OBS_KEYS = {
    "enabled", "spans_recorded", "spans_dropped", "flushes", "clock_skew_est",
}

#: Lifecycle kinds every backend's trace must contain for a plain run.
CORE_KINDS = {"task_submitted", "task_placed", "task_started", "task_finished"}


@repro.remote
def add(a, b):
    return a + b


@repro.remote
def fan(n):
    refs = [add.remote(i, i) for i in range(n)]
    return sum(repro.get(refs))


@repro.remote
def tag_then_linger(path, x):
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    time.sleep(0.25)
    return 2 * x


def _await_marker(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.01)
    raise AssertionError(f"marker {path} never appeared")


# ----------------------------------------------------------------------
# Units: recorder, collector, ring log
# ----------------------------------------------------------------------

class TestSpanRecorder:
    def test_disabled_recorder_is_inert(self):
        recorder = SpanRecorder(enabled=False)
        recorder.record("task_started", task_id="t1")
        assert len(recorder) == 0
        assert recorder.drain() is None
        assert not recorder.should_flush()

    def test_drain_returns_blob_and_empties(self):
        recorder = SpanRecorder()
        recorder.record("task_started", task_id="t1")
        recorder.record("task_finished", task_id="t1", timestamp=123.5)
        blob = recorder.drain()
        send_mono, records, dropped = blob
        assert send_mono <= time.monotonic()
        assert [kind for _t, kind, _p in records] == [
            "task_started", "task_finished",
        ]
        assert records[1][0] == 123.5  # explicit timestamp honored
        assert dropped == 0
        assert recorder.flushes == 1
        assert recorder.drain() is None  # emptied

    def test_capacity_overflow_counts_drops(self):
        recorder = SpanRecorder(capacity=2)
        for i in range(5):
            recorder.record("k", i=i)
        assert recorder.recorded == 2
        assert recorder.dropped == 3
        _send, records, dropped = recorder.drain()
        assert len(records) == 2
        assert dropped == 3

    def test_should_flush_at_threshold(self):
        recorder = SpanRecorder()
        for _ in range(FLUSH_THRESHOLD - 1):
            recorder.record("k")
        assert not recorder.should_flush()
        recorder.record("k")
        assert recorder.should_flush()


class TestSpanCollector:
    def test_record_feeds_event_log(self):
        collector = SpanCollector()
        collector.record("task_submitted", task_id="t1")
        log = collector.event_log
        assert len(log) == 1
        record = next(iter(log))
        assert record.kind == "task_submitted"
        assert record.get("task_id") == "t1"
        assert record.timestamp >= 0

    def test_ingest_preserves_causality(self):
        """A remote event caused by a driver event never maps before it."""
        collector = SpanCollector()
        collector.record("task_submitted", task_id="t1")
        submitted_at = next(iter(collector.event_log)).timestamp
        # A worker records on the same monotonic clock; its blob arrives
        # after some transport delay.
        t_started = time.monotonic()
        blob = (time.monotonic(), [(t_started, "task_started",
                                    {"task_id": "t1"})], 0)
        collector.ingest(("worker", 0), blob)
        records = list(collector.event_log)
        assert records[1].kind == "task_started"
        assert records[1].timestamp >= submitted_at

    def test_ingest_extra_fills_identity_without_overwriting(self):
        collector = SpanCollector()
        blob = (time.monotonic(), [
            (0.0, "task_started", {"task_id": "t1"}),
            (0.1, "task_stolen", {"task_id": "t2", "worker": "thief"}),
        ], 0)
        collector.ingest(("worker", 3), blob, extra={"worker": "worker-3",
                                                     "node": "node-0"})
        first, second = list(collector.event_log)
        assert first.get("worker") == "worker-3"
        assert first.get("node") == "node-0"
        assert second.get("worker") == "thief"  # already set: kept

    def test_remote_drops_are_cumulative_not_double_counted(self):
        collector = SpanCollector()
        mk = lambda d: (time.monotonic(), [(0.0, "k", {})], d)  # noqa: E731
        collector.ingest(("worker", 0), mk(2))
        collector.ingest(("worker", 0), mk(5))  # cumulative total, not +5
        collector.ingest(("worker", 1), mk(1))
        assert collector.spans_dropped == 6

    def test_stats_shape(self):
        assert set(SpanCollector().stats()) == OBS_KEYS
        disabled = disabled_obs_stats()
        assert set(disabled) == OBS_KEYS
        assert disabled["enabled"] is False

    def test_disabled_collector_has_no_log(self):
        collector = SpanCollector(enabled=False)
        collector.record("k")
        collector.ingest("src", (0.0, [(0.0, "k", {})], 0))
        assert collector.event_log is None
        assert collector.stats()["spans_recorded"] == 0


class TestEventLogRing:
    def test_ring_evicts_oldest_and_counts(self):
        log = EventLog(max_records=3)
        for i in range(5):
            log.append(float(i), "k", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [r.get("i") for r in log] == [2, 3, 4]

    def test_unbounded_by_default(self):
        log = EventLog()
        for i in range(10):
            log.append(float(i), "k")
        assert len(log) == 10
        assert log.dropped == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            EventLog(max_records=0)
        with pytest.raises(ValueError):
            EventLog(max_records=-5)


# ----------------------------------------------------------------------
# Cross-backend parity
# ----------------------------------------------------------------------

class TestStatsParity:
    @pytest.mark.parametrize("backend,kwargs", [
        ("sim", {}),
        ("local", {"num_nodes": 2, "num_cpus": 1}),
        ("proc", {"num_workers": 1}),
    ])
    def test_obs_stats_shape_on_every_backend(self, backend, kwargs):
        runtime = repro.init(backend=backend, tracing=True, **kwargs)
        repro.get(add.remote(1, 2), timeout=60.0)
        obs = runtime.stats()["obs"]
        assert set(obs) == OBS_KEYS
        assert obs["enabled"] is True
        repro.shutdown()

    @pytest.mark.parametrize("backend,kwargs", [
        ("local", {"num_nodes": 2, "num_cpus": 1}),
        ("proc", {"num_workers": 1}),
    ])
    def test_tracing_off_still_reports_obs_shape(self, backend, kwargs):
        runtime = repro.init(backend=backend, **kwargs)
        repro.get(add.remote(1, 2), timeout=60.0)
        obs = runtime.stats()["obs"]
        assert set(obs) == OBS_KEYS
        assert obs["enabled"] is False
        assert obs["spans_recorded"] == 0
        assert resolve_event_log(runtime) is None
        repro.shutdown()

    def test_sim_rejects_tracing_off(self):
        with pytest.raises(ValueError, match="always traces"):
            repro.init(backend="sim", tracing=False)


class TestSpanParity:
    @pytest.mark.parametrize("backend,kwargs", [
        ("sim", {"num_nodes": 2, "num_cpus": 2}),
        ("local", {"num_nodes": 2, "num_cpus": 2}),
        ("proc", {"num_workers": 2}),
    ])
    def test_core_lifecycle_kinds_on_every_backend(self, backend, kwargs):
        runtime = repro.init(backend=backend, tracing=True, **kwargs)
        assert repro.get([add.remote(i, i) for i in range(4)],
                         timeout=60.0) == [0, 2, 4, 6]
        log = resolve_event_log(runtime)
        assert log is not None
        kinds = {record.kind for record in log}
        assert CORE_KINDS <= kinds
        spans = task_spans(log)
        assert len(spans) == 4
        for span in spans:
            assert span.duration >= 0
            assert not span.failed
        repro.shutdown()

    @pytest.mark.parametrize("backend,kwargs", [
        ("local", {"num_nodes": 2, "num_cpus": 2}),
        ("proc", {"num_workers": 2}),
    ])
    def test_submit_precedes_start_precedes_finish(self, backend, kwargs):
        """Clock calibration keeps cross-process causal order: a task's
        driver-side submit never lands after its worker-side start."""
        repro.init(backend=backend, tracing=True, **kwargs)
        refs = [add.remote(i, i) for i in range(4)]
        repro.get(refs, timeout=60.0)
        log = resolve_event_log(repro.get_runtime())
        submitted = {}
        for record in log:
            key = str(record.get("task_id"))
            if record.kind == "task_submitted":
                submitted.setdefault(key, record.timestamp)
        starts = 0
        for record in log:
            if record.kind != "task_started":
                continue
            key = str(record.get("task_id"))
            if key in submitted:
                starts += 1
                assert record.timestamp >= submitted[key]
        assert starts >= 4
        repro.shutdown()


class TestTraceContext:
    def test_nested_worker_born_tasks_carry_parent_and_root(self):
        runtime = repro.init(backend="proc", num_workers=2, tracing=True)
        assert repro.get(fan.remote(4), timeout=60.0) == 12
        log = resolve_event_log(runtime)
        started = [r for r in log if r.kind == "task_started"]
        parents = [r for r in started if r.get("function") == "fan"]
        children = [r for r in started if r.get("function") == "add"]
        assert len(parents) == 1 and len(children) == 4
        parent = parents[0]
        # The fan task is its own root.
        assert parent.get("root_task_id") == parent.get("task_id")
        for child in children:
            assert child.get("parent_task_id") == parent.get("task_id")
            assert child.get("root_task_id") == parent.get("task_id")
        repro.shutdown()

    def test_local_backend_threads_context_too(self):
        runtime = repro.init(backend="local", num_nodes=2, num_cpus=2,
                             tracing=True)
        assert repro.get(fan.remote(3), timeout=60.0) == 6
        log = resolve_event_log(runtime)
        started = [r for r in log if r.kind == "task_started"]
        parent = next(r for r in started if r.get("function") == "fan")
        children = [r for r in started if r.get("function") == "add"]
        assert children and all(
            c.get("parent_task_id") == parent.get("task_id") for c in children
        )
        repro.shutdown()


class TestFailureTrace:
    def test_kill_worker_leaves_replay_chain_in_trace(self, tmp_path):
        runtime = repro.init(backend="proc", num_workers=1, tracing=True)
        marker = str(tmp_path / "started")
        ref = tag_then_linger.remote(marker, 21)
        _await_marker(marker)
        runtime.kill_worker(0)
        assert repro.get(ref, timeout=60.0) == 42  # lineage replayed it
        log = resolve_event_log(runtime)
        kinds = {record.kind for record in log}
        assert "failure_detected" in kinds
        assert "lineage_replay" in kinds
        failure = next(r for r in log if r.kind == "failure_detected")
        assert failure.get("reason") == "worker_crashed"
        replay = next(r for r in log if r.kind == "lineage_replay")
        assert replay.get("function") == "tag_then_linger"
        assert replay.get("attempt") == 1  # first replay
        # The first attempt's start span died unsent in the SIGKILLed
        # worker's buffer (flushes are out-of-band, by design); the
        # replay's execution span is collected and follows the failure.
        starts = [r for r in log if r.kind == "task_started"
                  and str(r.get("task_id")) == str(replay.get("task_id"))]
        assert len(starts) == 1
        assert starts[0].timestamp >= failure.timestamp
        repro.shutdown()


# ----------------------------------------------------------------------
# Acceptance: chrome trace + report from real proc and dist runs
# ----------------------------------------------------------------------

class TestProcAcceptance:
    def test_chrome_trace_tracks_and_no_drops(self, tmp_path):
        runtime = repro.init(backend="proc", num_workers=2, tracing=True)
        repro.get([add.remote(i, i) for i in range(6)], timeout=60.0)
        obs = runtime.stats()["obs"]
        assert obs["spans_dropped"] == 0
        assert obs["spans_recorded"] > 0
        assert obs["clock_skew_est"] < 1.0

        path = str(tmp_path / "trace.json")
        events = repro.timeline(path)
        assert os.path.exists(path)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 6
        assert {e["pid"] for e in complete} == {"node-0"}
        tids = {e["tid"] for e in complete}
        assert tids <= {"worker-0", "worker-1"} and tids
        for event in complete:
            assert event["dur"] >= 0

        report = repro.trace_report()
        assert "task profile" in report
        assert "add" in report
        repro.shutdown()

    def test_a_get_answered_on_the_worker_is_a_span(self):
        """One worker: ``fan``'s four children run inside its get, which
        then reads their results where they were produced."""
        runtime = repro.init(backend="proc", num_workers=1, tracing=True)
        assert repro.get(fan.remote(4), timeout=60.0) == 12
        log = resolve_event_log(runtime)
        (answered,) = log.filter(kind="get_local")
        (started,) = [
            r for r in log.filter(kind="task_started") if r.get("function") == "fan"
        ]
        assert answered.get("task_id") == started.get("task_id")
        assert answered.get("refs") == 4
        assert answered.get("worker") == "worker-0"
        report = repro.trace_report()
        assert "1 get(s) answered on the worker from results it had just" in report
        repro.shutdown()


class TestDistAcceptance:
    def test_trace_spans_nodes_and_report_renders(self):
        runtime = repro.init(backend="dist", num_nodes=2, num_cpus=1,
                             workers_per_node=1, seed=7, tracing=True)
        assert repro.get(fan.remote(4), timeout=60.0) == 12
        blob = repro.get(repro.put(b"x" * (1 << 20)), timeout=60.0)
        assert len(blob) == 1 << 20
        repro.get([add.remote(i, 1) for i in range(6)], timeout=60.0)

        obs = runtime.stats()["obs"]
        assert obs["enabled"] is True
        assert obs["spans_dropped"] == 0
        assert obs["clock_skew_est"] < 1.0

        log = resolve_event_log(runtime)
        spans = task_spans(log)
        assert len(spans) == 11  # fan + 4 + 6
        events = export_chrome_trace(log)
        complete = [e for e in events if e["ph"] == "X"]
        pids = {e["pid"] for e in complete}
        assert pids <= {"node-0", "node-1"} and pids
        for event in complete:
            assert event["tid"].startswith("worker-")

        report = run_report(runtime)
        assert "task profile" in report
        repro.shutdown()


# ----------------------------------------------------------------------
# Graceful degradation of the tool chain
# ----------------------------------------------------------------------

class TestToolDegradation:
    def test_run_report_without_event_log_names_the_knob(self):
        runtime = repro.init(backend="proc", num_workers=1)
        repro.get(add.remote(1, 1), timeout=60.0)
        report = run_report(runtime)
        assert "tracing=True" in report
        assert "ProcRuntime" in report
        repro.shutdown()

    def test_timeline_without_trace_raises_backend_error(self):
        repro.init(backend="local", num_nodes=1, num_cpus=1)
        with pytest.raises(BackendError, match="tracing=True"):
            repro.timeline()
        repro.shutdown()

    def test_run_report_works_on_live_trace(self):
        repro.init(backend="local", num_nodes=2, num_cpus=2, tracing=True)
        repro.get([add.remote(i, i) for i in range(4)], timeout=60.0)
        report = repro.trace_report(include_gantt=True)
        assert "task profile" in report
        assert "== gantt ==" in report
        repro.shutdown()
