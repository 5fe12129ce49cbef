"""The front half every backend shares, with no process at all.

* The actor path (:func:`repro.core.actors.create_actor`,
  :func:`~repro.core.actors.call_actor`, :func:`~repro.core.actors.get_actor`)
  is one set of functions that each backend binds as its methods; it is
  driven here on ``sim``, whose control-store rows must read as the live
  backends' do.
* The five lifecycle spans have one builder each in :mod:`repro.obs`;
  their keys are fixed here, and no live runtime module records one of
  those kinds by hand.

``tests/test_backend_parity.py`` holds the same two facts on all four
backends end to end.
"""

import re
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core import actors
from repro.core.runtime import SimRuntime
from repro.core.task import CallTemplate, TaskOptions
from repro.errors import BackendError
from repro.local.runtime import LocalRuntime
from repro.proc.runtime import ProcRuntime
from repro.utils.ids import IDGenerator

#: Every lifecycle kind's payload keys, on every live backend.
LIFECYCLE_KEYS = {
    "task_submitted": {
        "task_id", "function", "worker", "node", "root_task_id",
        "parent_task_id", "worker_born",
    },
    "task_placed": {"task_id", "function", "worker", "node", "local"},
    "task_started": {
        "task_id", "function", "worker", "node", "root_task_id",
        "parent_task_id", "inline",
    },
    "task_finished": {
        "task_id", "function", "worker", "node", "duration", "failed",
    },
    "result_stored": {
        "task_id", "function", "worker", "node", "num_returns", "failed",
    },
}

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@repro.remote
class Counter:
    def __init__(self, start):
        self.total = start

    def add(self, amount):
        self.total += amount
        return self.total


@pytest.fixture
def sim():
    runtime = repro.init(backend="sim", num_nodes=2, num_cpus=2, seed=3)
    yield runtime
    repro.shutdown()


def _spec():
    ids = IDGenerator(namespace="test-front-half")
    return CallTemplate(None, ids.function_id(), "f", TaskOptions()).stamp(
        ids, (), {}
    )


def _emit_all(rec, spec):
    obs.task_submitted(rec, spec, True)
    obs.task_placed(rec, spec, local=True)
    obs.task_started(rec, spec, inline=True)
    obs.task_finished(rec, spec, 0.5, False)
    obs.result_stored(rec, spec.task_id, spec.function_name, 1, False)


class TestSpanBuilders:
    def test_each_builder_writes_its_kinds_keys(self):
        collector = obs.SpanCollector()
        _emit_all(collector, _spec())
        records = list(collector.event_log)
        assert [r.kind for r in records] == list(LIFECYCLE_KEYS)
        for record in records:
            assert set(record.payload) == LIFECYCLE_KEYS[record.kind], record.kind

    def test_a_worker_recorded_span_gets_its_identity_at_ingest(self):
        """A worker leaves ``worker``/``node`` None; the collector fills
        them from the source's identity, and the key set stays the same."""
        spec = _spec()
        recorder = obs.SpanRecorder()
        _emit_all(recorder, spec)
        collector = obs.SpanCollector()
        collector.ingest(
            ("worker", 3), recorder.drain(),
            extra={"worker": "worker-3", "node": "node-1"},
        )
        for record in collector.event_log:
            assert set(record.payload) == LIFECYCLE_KEYS[record.kind]
            assert (record.get("worker"), record.get("node")) == (
                "worker-3", "node-1",
            )
        started = collector.event_log.filter("task_started")[0]
        assert started.get("root_task_id") == str(spec.task_id)
        assert started.get("parent_task_id") is None

    def test_a_timestamp_is_a_monotonic_reading_on_both_sides(self):
        collector = obs.SpanCollector()
        spec = _spec()
        obs.task_started(collector, spec, collector._t0 + 2.0)
        assert collector.event_log.filter("task_started")[0].timestamp == 2.0

    def test_live_runtimes_record_lifecycle_kinds_only_through_the_builders(self):
        kinds = "|".join(LIFECYCLE_KEYS)
        by_hand = re.compile(r"\.record\(\s*[\"'](%s)[\"']" % kinds)
        offenders = [
            str(path.relative_to(SRC))
            for package in ("local", "proc", "sched_plane", "dist")
            for path in sorted((SRC / package).glob("*.py"))
            if by_hand.search(path.read_text())
        ]
        assert offenders == []


class TestActorPath:
    def test_every_backend_binds_the_one_actor_path(self):
        for runtime_class in (SimRuntime, LocalRuntime, ProcRuntime):
            assert runtime_class.create_actor is actors.create_actor
            assert runtime_class.call_actor is actors.call_actor
            assert runtime_class.get_actor is actors.get_actor

    def test_sim_writes_the_actor_row_the_live_backends_write(self, sim):
        counter = Counter.options(name="c").remote(1)
        assert repro.get([counter.add.remote(i) for i in (1, 2, 3)]) == [2, 4, 7]
        rows = sim._control.actors()
        assert [(row.state, row.methods_submitted, row.name) for row in rows] == [
            ("alive", 3, "c")
        ]
        assert rows[0].node == sim.actors.get(counter.actor_id).node_id
        assert repro.get_actor("c") == counter

    def test_unknown_actor_and_name_errors_are_shared(self, sim):
        with pytest.raises(BackendError, match="unknown actor"):
            sim.call_actor(sim.ids.actor_id(), "add", (1,), {})
        with pytest.raises(ValueError, match="no actor named 'ghost'"):
            repro.get_actor("ghost")
        with pytest.raises(ValueError, match="non-empty actor name"):
            repro.get_actor("")
