"""Tests for the R7 tooling: timeline, profiler, dashboard, diagnosis."""

import json

import pytest

import repro
from repro.errors import TaskError
from repro.tools import (
    ClusterDashboard,
    TaskProfiler,
    diagnose,
    export_chrome_trace,
    task_spans,
)
from repro.tools.diagnosis import task_events


@repro.remote
def work(x):
    return x * 2


@repro.remote
def boom():
    raise ValueError("intentional")


@pytest.fixture
def busy_runtime(sim_runtime):
    refs = [work.options(duration=0.01).remote(i) for i in range(12)]
    repro.get(refs)
    return sim_runtime


class TestTimeline:
    def test_spans_cover_all_tasks(self, busy_runtime):
        spans = task_spans(busy_runtime.event_log)
        assert len(spans) == 12
        for span in spans:
            assert span.end > span.start
            assert span.function == "work"
            assert span.duration >= 0.01  # modeled compute is inside the span

    def test_spans_respect_worker_serialization(self, busy_runtime):
        spans = task_spans(busy_runtime.event_log)
        by_worker: dict = {}
        for span in spans:
            by_worker.setdefault(span.worker, []).append(span)
        for worker_spans in by_worker.values():
            worker_spans.sort(key=lambda s: s.start)
            for earlier, later in zip(worker_spans, worker_spans[1:]):
                assert later.start >= earlier.end  # one task at a time

    def test_chrome_trace_format(self, busy_runtime, tmp_path):
        path = tmp_path / "trace.json"
        events = export_chrome_trace(busy_runtime.event_log, path=str(path))
        assert len(events) == 12
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] > 0
        written = json.loads(path.read_text())
        assert len(written["traceEvents"]) == 12

    def test_failure_markers_included(self, sim_runtime):
        repro.get(work.remote(1))
        sim_runtime.kill_node(sim_runtime.node_ids[1])
        events = export_chrome_trace(sim_runtime.event_log)
        assert any(e.get("cat") == "failure" for e in events)


class TestProfiler:
    def test_function_stats(self, busy_runtime):
        profile = TaskProfiler(busy_runtime.event_log).profile()
        assert "work" in profile
        stats = profile["work"]
        assert stats.count == 12
        assert stats.mean >= 0.01
        assert stats.percentile(50) <= stats.percentile(95)
        assert stats.total_time == pytest.approx(sum(stats.durations))
        assert stats.failures == 0

    def test_failures_counted(self, sim_runtime):
        with pytest.raises(TaskError):
            repro.get(boom.remote())
        profile = TaskProfiler(sim_runtime.event_log).profile()
        assert profile["boom"].failures == 1

    def test_report_renders(self, busy_runtime):
        report = TaskProfiler(busy_runtime.event_log).report()
        assert "work" in report
        assert "p95" in report

    def test_empty_report(self, sim_runtime):
        assert "no task executions" in TaskProfiler(sim_runtime.event_log).report()


class TestDashboard:
    def test_rows_per_node(self, busy_runtime):
        rows = ClusterDashboard(busy_runtime).node_rows()
        assert len(rows) == len(busy_runtime.node_ids)
        assert sum(r["executed"] for r in rows) == 12
        for row in rows:
            assert row["alive"]

    def test_render_mentions_control_plane(self, busy_runtime):
        text = ClusterDashboard(busy_runtime).render()
        assert "control plane" in text
        assert "cluster @" in text

    def test_render_after_failure(self, sim_runtime):
        victim = sim_runtime.node_ids[1]
        sim_runtime.kill_node(victim)
        text = ClusterDashboard(sim_runtime).render()
        assert "False" in text  # the dead node shows as not alive


class TestDiagnosis:
    def test_diagnose_failed_task(self, sim_runtime):
        ref = boom.remote()
        with pytest.raises(TaskError) as excinfo:
            repro.get(ref)
        report = diagnose(excinfo.value, sim_runtime)
        assert "boom" in report
        assert "intentional" in report
        assert "lifecycle" in report
        assert "ValueError" in report

    def test_diagnose_includes_remote_traceback(self, sim_runtime):
        with pytest.raises(TaskError) as excinfo:
            repro.get(boom.remote())
        report = diagnose(excinfo.value, sim_runtime)
        assert "remote traceback" in report
        assert 'raise ValueError("intentional")' in report

    def test_diagnose_propagated_error_points_at_origin(self, sim_runtime):
        bad = boom.remote()
        downstream = work.remote(bad)
        with pytest.raises(TaskError) as excinfo:
            repro.get(downstream)
        report = diagnose(excinfo.value, sim_runtime)
        # The error names the *origin* task, not the downstream victim.
        assert "boom" in report


@pytest.mark.parametrize("backend", ["sim", "local", "proc"])
def test_diagnose_tells_the_failing_tasks_story_alone(backend):
    """Every backend keeps its control state in one ``ControlStore``:
    the failing task's events are its submission, then its state changes
    ending in ``failed``, and nothing of the task that ran before it."""
    options = {"num_workers": 1} if backend == "proc" else {}
    runtime = repro.init(backend=backend, **options)
    try:
        other = work.remote(1)
        assert repro.get(other) == 2
        with pytest.raises(TaskError) as excinfo:
            repro.get(boom.remote())
        assert runtime._control.flush(timeout=10.0)
        error = excinfo.value
        report = diagnose(error, runtime)
        events = task_events(runtime, error.task_id)
    finally:
        repro.shutdown()
    kinds = [r.kind for r in events]
    assert (kinds[0], events[0].get("state")) == ("task_submitted", "submitted")
    assert set(kinds) == {"task_submitted", "task_state"}
    assert events[-1].get("state") == "failed"
    assert {r.get("key") for r in events} == {error.task_id.hex}
    listed = report.split("  events:\n")[1].split("  remote traceback:")[0]
    assert [line.split()[1] for line in listed.splitlines()] == kinds
    assert other.producer_task.hex[:10] not in report


def test_code_lines_counts_statements_not_prose():
    """``scripts/code_lines.py`` (the size measure ROADMAP item 2 is
    judged by): blank lines, comment-only lines and docstrings do not
    count; every line of a multi-line statement does."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = '''"""Module docstring,
two lines."""

import os  # a trailing comment does not uncount its line

# a comment-only line


def f(a,
      b):
    """Docstring."""
    text = """a string that is data
    counts on both lines"""
    return os.sep, a, b, text
'''
    assert module.code_lines(source) == 6
