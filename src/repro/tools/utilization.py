"""Cluster utilization profiles from the event log (R7).

Bins task-execution spans into fixed time windows to produce per-node
busy-fraction series — the data behind the "are my GPUs idle during
simulation stages?" question that motivates pipelining (E8), and an
ASCII Gantt renderer for terminal-side debugging of Figure 2-style
schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.store.event_log import EventLog
from repro.tools.timeline import TaskSpan, task_spans


@dataclass
class UtilizationProfile:
    """Busy fractions per node over uniform time bins."""

    bin_edges: np.ndarray            # (num_bins + 1,)
    #: node name -> busy worker-seconds per bin, normalized by bin width.
    per_node: dict

    @property
    def num_bins(self) -> int:
        return len(self.bin_edges) - 1

    def cluster_series(self) -> np.ndarray:
        """Total busy worker-count per bin, summed over nodes."""
        if not self.per_node:
            return np.zeros(self.num_bins)
        return np.sum(np.stack(list(self.per_node.values())), axis=0)


def utilization(event_log: EventLog, num_bins: int = 50) -> UtilizationProfile:
    """Compute per-node busy-worker time series from execution spans."""
    if num_bins <= 0:
        raise ValueError(f"num_bins must be positive, got {num_bins}")
    spans = task_spans(event_log)
    if not spans:
        return UtilizationProfile(bin_edges=np.linspace(0, 1, num_bins + 1),
                                  per_node={})
    end = max(span.end for span in spans)
    start = min(span.start for span in spans)
    if end <= start:
        end = start + 1e-9
    edges = np.linspace(start, end, num_bins + 1)
    width = edges[1] - edges[0]

    per_node: dict[str, np.ndarray] = {}
    for span in spans:
        series = per_node.setdefault(span.node, np.zeros(num_bins))
        first = int(np.searchsorted(edges, span.start, side="right")) - 1
        last = int(np.searchsorted(edges, span.end, side="left")) - 1
        for index in range(max(first, 0), min(last, num_bins - 1) + 1):
            overlap = min(span.end, edges[index + 1]) - max(span.start, edges[index])
            if overlap > 0:
                series[index] += overlap / width
    return UtilizationProfile(bin_edges=edges, per_node=per_node)


def render_gantt(
    event_log: EventLog,
    width: int = 80,
    max_rows: int = 40,
) -> str:
    """ASCII Gantt chart: one row per worker, one glyph per time slice.

    Different functions get different letters (a, b, c, ...), so the
    heterogeneous task shapes of Figure 2 are visible in a terminal.
    """
    spans = task_spans(event_log)
    if not spans:
        return "(no task executions recorded)"
    start = min(s.start for s in spans)
    end = max(s.end for s in spans)
    scale = (end - start) / width if end > start else 1.0

    functions = sorted({s.function for s in spans})
    glyphs = {name: chr(ord("a") + i % 26) for i, name in enumerate(functions)}

    by_worker: dict[str, list[TaskSpan]] = {}
    for span in spans:
        by_worker.setdefault(f"{span.node}/{span.worker}", []).append(span)

    lines = [f"gantt: {len(spans)} tasks over {end - start:.4f}s "
             f"({scale * 1e3:.2f} ms/column)"]
    for name, glyph in glyphs.items():
        lines.append(f"  {glyph} = {name}")
    for worker_key in sorted(by_worker)[:max_rows]:
        row = [" "] * width
        for span in by_worker[worker_key]:
            lo = int((span.start - start) / scale) if scale else 0
            hi = int((span.end - start) / scale) if scale else 0
            for col in range(max(lo, 0), min(max(hi, lo + 1), width)):
                row[col] = glyphs[span.function].upper() if span.failed else glyphs[span.function]
        lines.append(f"{worker_key[-20:]:>22} |{''.join(row)}|")
    if len(by_worker) > max_rows:
        lines.append(f"... ({len(by_worker) - max_rows} more workers)")
    return "\n".join(lines)
