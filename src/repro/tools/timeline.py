"""Task timeline export (Chrome trace / Perfetto JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.store.event_log import EventLog


@dataclass(frozen=True)
class TaskSpan:
    """One task execution interval on one worker."""

    task_id: str
    function: str
    node: str
    worker: str
    start: float
    end: float
    failed: bool = False
    #: Ran inside its blocked parent's ``get``, on the parent's worker:
    #: its interval nests in the parent's and is not a second task
    #: overlapping it.
    inline: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def task_spans(event_log: EventLog) -> list:
    """Pair task_started/task_finished events into execution spans."""
    open_spans: dict[tuple, dict] = {}
    spans: list[TaskSpan] = []
    for record in event_log:
        if record.kind == "task_started":
            key = (str(record.get("task_id")), str(record.get("worker")))
            open_spans[key] = {
                "start": record.timestamp,
                "node": str(record.get("node")),
                "function": record.get("function", "?"),
                "inline": bool(record.get("inline", False)),
            }
        elif record.kind == "task_finished":
            key = (str(record.get("task_id")), str(record.get("worker")))
            info = open_spans.pop(key, None)
            if info is None:
                continue
            spans.append(
                TaskSpan(
                    task_id=key[0],
                    function=info["function"],
                    node=info["node"],
                    worker=key[1],
                    start=info["start"],
                    end=record.timestamp,
                    failed=bool(record.get("failed", False)),
                    inline=info["inline"],
                )
            )
    return spans


def export_chrome_trace(event_log: EventLog, path: Optional[str] = None) -> list:
    """Convert the event log into Chrome ``about:tracing`` events.

    Each task execution becomes a complete ("X") event with the node as
    the process row and the worker as the thread row, so the rendered
    timeline looks exactly like Figure 2's task-shape sketches.  If
    ``path`` is given, the JSON is also written there.
    """
    events = []
    for span in task_spans(event_log):
        events.append(
            {
                "name": span.function,
                "cat": "task",
                "ph": "X",
                "ts": span.start * 1e6,       # Chrome traces use microseconds
                "dur": span.duration * 1e6,
                "pid": span.node,
                "tid": span.worker,
                "args": {
                    "task_id": span.task_id,
                    "failed": span.failed,
                    "inline": span.inline,
                },
            }
        )
    for record in event_log.filter(kind="node_killed"):
        events.append(
            {
                "name": "NODE KILLED",
                "cat": "failure",
                "ph": "i",
                "ts": record.timestamp * 1e6,
                "pid": str(record.get("node")),
                "s": "g",
            }
        )
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle, indent=2)
    return events
