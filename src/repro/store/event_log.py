"""Append-only event log (requirement R7: debuggability and profiling).

Components append structured records on every state transition.  The log is
written off the critical path (the paper's prototype streams events to the
database asynchronously), so appends carry no simulated cost; the payoff is
that the profiling and timeline tools in :mod:`repro.tools` can reconstruct
exactly what the system did and when.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One logged state transition (``slots``: a log holds millions)."""

    timestamp: float
    kind: str
    #: Free-form payload; keys are event-kind specific but stable (tested).
    payload: dict = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)


class EventLog:
    """In-memory append-only log with simple filtering.

    By default the log grows without bound — the sim's determinism
    tests depend on seeing every record.  ``max_records`` turns on ring
    mode for long-lived live runs: the log keeps only the newest
    ``max_records`` entries and counts evictions in :attr:`dropped`
    (surfaced by the tracing plane as ``stats()["obs"]["spans_dropped"]``).
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError(
                f"max_records must be None or >= 1, got {max_records!r}"
            )
        self.max_records = max_records
        self._records: Any = (
            [] if max_records is None else deque(maxlen=max_records)
        )
        #: Records evicted by ring mode (always 0 in unbounded mode).
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def append(self, timestamp: float, kind: str, **payload: Any) -> None:
        """Record an event at a virtual (or wall-clock) timestamp."""
        if (
            self.max_records is not None
            and len(self._records) >= self.max_records
        ):
            self.dropped += 1  # deque maxlen evicts the oldest on append
        self._records.append(EventRecord(timestamp, kind, payload))

    def filter(
        self,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[EventRecord], bool]] = None,
    ) -> list[EventRecord]:
        """Return records matching a kind and/or arbitrary predicate."""
        records = self._records
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if predicate is not None:
            records = [r for r in records if predicate(r)]
        return list(records)

    def kinds(self) -> set[str]:
        """All distinct event kinds seen so far."""
        return {r.kind for r in self._records}

    def clear(self) -> None:
        self._records.clear()
