"""Dataflow dependency tracking, shared by every backend.

A submitted task whose argument futures (or actor-ordering dependencies)
are not yet produced must wait; when the last missing object becomes
ready the task becomes runnable.  Both runtimes used to carry private
copies of this bookkeeping — a waiting-spec table, a missing-set per
task, and an inverted index from object to waiting tasks.  This class is
that logic, once.  It is deliberately unsynchronized: the sim backend is
single-threaded by construction, the live backends (``local``, ``proc``,
``dist``) call it under their runtime lock.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.task import TaskSpec
from repro.utils.ids import ObjectID, TaskID


class DependencyTracker:
    """Tasks parked on unproduced objects, and who wakes whom."""

    def __init__(self) -> None:
        self._missing: dict[TaskID, set[ObjectID]] = {}
        self._specs: dict[TaskID, TaskSpec] = {}
        self._waiters: dict[ObjectID, set[TaskID]] = {}

    def __len__(self) -> int:
        return len(self._specs)

    def add(self, spec: TaskSpec, missing: Iterable[ObjectID]) -> list[ObjectID]:
        """Park ``spec`` until every object in ``missing`` is ready.

        Returns the dependencies not previously watched by any parked
        task — the caller's cue to install per-object subscriptions
        exactly once (the sim backend's object-table watches).
        """
        missing = set(missing)
        if not missing:
            raise ValueError(f"task {spec.task_id} has no missing dependencies")
        self._missing[spec.task_id] = missing
        self._specs[spec.task_id] = spec
        newly_watched = []
        for dep in sorted(missing, key=lambda d: d.hex):
            if dep not in self._waiters:
                newly_watched.append(dep)
            self._waiters.setdefault(dep, set()).add(spec.task_id)
        return newly_watched

    def mark_ready(self, object_id: ObjectID) -> list[TaskSpec]:
        """An object was produced; returns tasks that just became runnable.

        The result is ordered by task id for run-to-run determinism (both
        backends dispatch newly runnable work in this order).
        """
        runnable: list[TaskSpec] = []
        for task_id in sorted(self._waiters.pop(object_id, ()), key=lambda t: t.hex):
            missing = self._missing.get(task_id)
            if missing is None:
                continue
            missing.discard(object_id)
            if not missing:
                del self._missing[task_id]
                runnable.append(self._specs.pop(task_id))
        return runnable

    def is_waiting(self, task_id: TaskID) -> bool:
        return task_id in self._specs

    def spec_for(self, task_id: TaskID) -> TaskSpec | None:
        """The parked spec for a task id, if it is still parked."""
        return self._specs.get(task_id)

    def missing_for(self, task_id: TaskID) -> set[ObjectID]:
        """Objects a parked task is still waiting on (copy)."""
        return set(self._missing.get(task_id, ()))

    def watched_objects(self) -> set[ObjectID]:
        """Objects at least one parked task is waiting on."""
        return set(self._waiters)

    def waiters_for(self, object_id: ObjectID) -> set[TaskID]:
        """Task ids parked on one object (copy)."""
        return set(self._waiters.get(object_id, ()))

    def clear(self) -> None:
        """Drop all parked state (node death; recovery reads the durable
        task table, not this in-memory index)."""
        self._missing.clear()
        self._specs.clear()
        self._waiters.clear()
