"""Error diagnosis: trace a TaskError back through control-plane state.

Because every submission, state transition, and failure is in the task
table and event log, a raised :class:`~repro.errors.TaskError` can be
expanded post-hoc into the full story of the failing task — which node ran
it, how many attempts it made, what it depended on — without re-running
anything (R7).

Every backend keeps its control state in one
:class:`~repro.gcs.ControlStore` (``runtime._control``; the sim puts its
cost model in front of it), so the lookups and the event tuples are the
same on all four.
"""

from __future__ import annotations

from repro.errors import TaskError


def lookup_task(runtime, task_id):
    """Task-table entry for ``task_id`` (None if unknown)."""
    return runtime._control.task_get(task_id)


def lookup_object(runtime, object_id):
    """Object-table entry for ``object_id`` (None if unknown)."""
    return runtime._control.object_get(object_id)


def task_events(runtime, task_id) -> list:
    """Control-store events about ``task_id``, oldest first."""
    return runtime._control.events(key=task_id)


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
