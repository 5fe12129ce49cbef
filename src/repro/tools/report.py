"""One-shot run report: everything R7 promises, in one artifact.

Combines the cluster dashboard, per-function profile, utilization
summary, failure history, and (optionally) the ASCII gantt into a single
text report — the terminal equivalent of the paper's "Web UI / Debugging
Tools / Profiling Tools" box in Figure 3.

Works on every backend: the sim's always-on event log, or a live
backend's collected trace (``tracing=True``).  A runtime without an
event log still gets a report — the trace sections degrade to a note
naming the knob instead of raising.
"""

from __future__ import annotations

from repro.obs import resolve_event_log
from repro.tools.dashboard import ClusterDashboard
from repro.tools.profiler import TaskProfiler
from repro.tools.utilization import render_gantt, utilization


def run_report(runtime, include_gantt: bool = False, gantt_width: int = 72) -> str:
    """Render a full post-run report for any runtime."""
    sections = []

    # The node-by-node dashboard reads the sim's modeled schedulers and
    # stores; live backends summarize through stats() instead.
    if getattr(runtime, "sim", None) is not None:
        sections.append("== cluster state ==")
        sections.append(ClusterDashboard(runtime).render())
    else:
        sections.append("== runtime state ==")
        stats = runtime.stats()
        for key in ("tasks_executed", "workers_crashed", "nodes_lost"):
            if key in stats:
                sections.append(f"  {key}: {stats[key]}")
        parked = stats.get("sched", {}).get("tasks_parked")
        if parked:
            sections.append(
                f"  {parked} get/wait(s) parked their task: its worker ran "
                "other work until the answer came"
            )
        obs = stats.get("obs")
        if isinstance(obs, dict):
            sections.append(
                f"  tracing: enabled={obs.get('enabled')} "
                f"spans={obs.get('spans_recorded')} "
                f"dropped={obs.get('spans_dropped')}"
            )

    log = resolve_event_log(runtime)
    if log is None:
        sections.append(
            f"\n(no event log on this {type(runtime).__name__}: "
            "pass tracing=True at init to collect a live trace)"
        )
        return "\n".join(sections)

    sections.append("\n== task profile ==")
    sections.append(TaskProfiler(log).report())
    inline = sum(
        1 for record in log.filter(kind="task_started") if record.get("inline")
    )
    if inline:
        sections.append(f"  {inline} task(s) ran inline, inside their parent's get")
    answered = len(log.filter(kind="get_local"))
    if answered:
        sections.append(
            f"  {answered} get(s) answered on the worker from results it had "
            "just produced"
        )
    recalled = sum(
        1 for record in log.filter(kind="task_stolen") if record.get("midtask")
    )
    if recalled:
        sections.append(
            f"  {recalled} task(s) were recalled: stolen from behind a task "
            "their worker was still inside"
        )

    windows = [
        record for record in log.filter(kind="task_frame") if record.get("actor")
    ]
    if windows:
        sections.append(
            f"  {sum(record.get('size') for record in windows)} actor call(s) "
            f"rode {len(windows)} frame(s)"
        )

    profile = utilization(log, num_bins=20)
    sections.append("\n== utilization (mean busy workers per node) ==")
    if profile.per_node:
        for node, series in sorted(profile.per_node.items()):
            mean = float(series.mean())
            peak = float(series.max())
            bar = "#" * int(round(mean)) or "."
            sections.append(f"  {node:<18} mean {mean:5.2f}  peak {peak:5.2f}  {bar}")
        cluster_series = profile.cluster_series()
        sections.append(
            f"  cluster peak parallelism: {float(cluster_series.max()):.1f} workers"
        )
    else:
        sections.append("  (no task executions recorded)")

    failures = log.filter(kind="failure_detected")
    replays = log.filter(kind="lineage_replay")
    orphans = log.filter(kind="task_orphaned")
    sections.append("\n== failures ==")
    if failures or replays or orphans:
        for record in failures:
            where = record.get("node") or record.get("worker")
            sections.append(
                f"  t={record.timestamp:.4f} {where} declared dead"
            )
        sections.append(
            f"  {len(orphans)} task(s) re-placed, {len(replays)} lineage replay(s)"
        )
    else:
        sections.append("  none")

    if log.dropped:
        sections.append(
            f"\n(note: {log.dropped} oldest record(s) evicted by the "
            "event-log ring; the sections above cover the retained window)"
        )

    if include_gantt:
        sections.append("\n== gantt ==")
        sections.append(render_gantt(log, width=gantt_width))

    return "\n".join(sections)
