"""Error diagnosis: trace a TaskError back through control-plane state.

Because every submission, state transition, and failure is in the task
table and event log, a raised :class:`~repro.errors.TaskError` can be
expanded post-hoc into the full story of the failing task — which node ran
it, how many attempts it made, what it depended on — without re-running
anything (R7).

The lookups go through the uniform shard API: live backends expose the
real :class:`~repro.gcs.ControlStore` (``runtime._control``), the sim
keeps its modeled :class:`~repro.store.control_plane.ControlPlane` —
both answer the same entry shapes (shared dataclasses in
:mod:`repro.gcs.tables`).
"""

from __future__ import annotations

from repro.errors import TaskError


def lookup_task(runtime, task_id):
    """Task-table entry for ``task_id`` on any backend (None if unknown)."""
    store = getattr(runtime, "_control", None)
    if store is not None:
        return store.task_get(task_id)
    plane = getattr(runtime, "control_plane", None)
    if plane is not None:
        return plane.debug_task(task_id)
    return None


def lookup_object(runtime, object_id):
    """Object-table entry for ``object_id`` on any backend (None if unknown)."""
    store = getattr(runtime, "_control", None)
    if store is not None:
        return store.object_get(object_id)
    plane = getattr(runtime, "control_plane", None)
    if plane is not None:
        return plane.debug_object(object_id)
    return None


def task_events(runtime, task_id) -> list:
    """Event-log records about ``task_id``, oldest first, any backend."""
    store = getattr(runtime, "_control", None)
    if store is not None:
        return store.events(key=task_id)
    log = getattr(runtime, "event_log", None)
    if log is not None:
        return log.filter(
            predicate=lambda r: str(r.get("task_id")) == str(task_id)
        )
    return []


def diagnose(error: TaskError, runtime) -> str:
    """Build a human-readable report for a task failure."""
    lines = [
        f"TaskError in {error.function_name!r} (task {error.task_id})",
        f"  cause: {error.cause_repr}",
    ]
    entry = lookup_task(runtime, error.task_id)
    if entry is not None:
        lines.append(f"  final state: {entry.state} after {entry.attempts} attempt(s)")
        if entry.node is not None:
            lines.append(f"  last node: {entry.node}")
        if entry.timestamps:
            history = ", ".join(
                f"{state}@{ts:.6f}" for state, ts in sorted(
                    entry.timestamps.items(), key=lambda kv: kv[1]
                )
            )
            lines.append(f"  lifecycle: {history}")
        spec = entry.spec
        if isinstance(spec, dict):  # worker-born: {"spec": ..., "payload": ...}
            spec = spec.get("spec")
        if spec is not None:
            deps = spec.dependencies()
            lines.append(f"  dependencies: {len(deps)}")
            for dep in deps:
                obj = lookup_object(runtime, dep)
                if obj is None:
                    lines.append(f"    {dep}: unknown")
                else:
                    lines.append(
                        f"    {dep}: ready={obj.ready} "
                        f"locations={len(obj.locations)} "
                        f"producer={obj.producer_task}"
                    )
    events = task_events(runtime, error.task_id)
    if events:
        lines.append("  events:")
        for record in events:
            lines.append(f"    t={record.timestamp:.6f} {record.kind}")
    if error.traceback_text:
        lines.append("  remote traceback:")
        for tb_line in error.traceback_text.rstrip().splitlines():
            lines.append(f"    {tb_line}")
    return "\n".join(lines)
