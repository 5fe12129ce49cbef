"""Bench-side spans: recorded around the calls the workload makes into the
public API, kept in memory, written as a Chrome trace when the run ends.

Spans inside the program are the runtime's own event log (``repro.obs``);
these are taken from outside it, so they exist on every commit.
"""

import json


class Spans:
    """``add`` is a no-op unless enabled, so the untraced run pays one
    attribute check per wave or operation."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.rows = []  # (name, start_s, end_s, parent index or None, request)

    def add(self, name, start, end, parent=None, request=None):
        """Record one span; returns its index for use as a ``parent``."""
        if not self.enabled:
            return None
        self.rows.append((name, start, end, parent, request))
        return len(self.rows) - 1

    def write_chrome(self, path):
        """Complete ("X") events, µs since the first span; ``args`` carries
        the parent span and the request id the span belongs to."""
        if not self.rows:
            return
        origin = min(row[1] for row in self.rows)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                # parents and children on separate rows of the viewer
                "tid": 0 if parent is None else 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "request": request},
            }
            for index, (name, start, end, parent, request) in enumerate(self.rows)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
