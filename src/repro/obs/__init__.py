"""Live tracing plane: wall-clock spans from every process, one timeline.

The paper's centralized control plane exists so that "it is easy to
write tools to profile and debug the system" (Figure 3, R7).  The sim
gets this for free — every modeled component writes the driver's
:class:`~repro.store.event_log.EventLog` in virtual time.  This module
makes the *live* backends equally inspectable:

* Each process that does work — the driver, every proc worker, every
  dist node agent — owns a :class:`SpanRecorder`: an in-memory,
  bounded, lock-guarded buffer of ``(monotonic_time, kind, payload)``
  tuples.  Recording is append-to-a-list off the hot path; nothing is
  serialized or sent at record time.
* Buffers flush *out-of-band*: workers piggyback their drained buffer
  on a message they already send (the trailing element of ``DONE``,
  flushed alongside the batched submit notices),
  agents piggyback on their heartbeat cadence, and an overflowing
  buffer rides a dedicated one-way ``SPANS`` frame.  A disabled
  recorder costs one attribute check per call site.
* The driver-side :class:`SpanCollector` merges every stream onto one
  coherent wall-clock timeline.  Each flush carries the sender's
  ``time.monotonic()`` at send; the collector keeps, per source, the
  *minimum* observed ``recv - send`` delta as that process's clock
  offset (the error is bounded by the minimum transport delay, which
  is nonnegative — so causal order across processes is preserved:
  a mapped remote event never lands before the driver event that
  caused it).  Mapped records feed a plain ``EventLog``, so the
  existing R7 tools — ``task_spans``, ``export_chrome_trace``,
  ``TaskProfiler``, ``utilization``, ``run_report`` — work unchanged
  on live runs.

Span *kinds* deliberately reuse the sim's vocabulary
(``task_submitted`` / ``task_started`` / ``task_finished`` /
``lineage_replay`` / ``failure_detected`` ...), so one assertion suite
can hold all four backends to the same trace shape.  The five lifecycle
kinds have one builder each (:func:`task_submitted` ... :func:`result_stored`):
every live backend, and every process of one, writes them with the same
keys.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from repro.store.event_log import EventLog

#: Per-process recorder buffer bound (spans).  Flushes happen far more
#: often than this fills (every DONE/heartbeat), so at the
#: default size ``spans_dropped`` stays 0; the bound is the backstop
#: that keeps a wedged process from growing without limit.
DEFAULT_BUFFER_SPANS = 65536

#: A worker whose buffer reaches this many spans mid-session flushes a
#: standalone ``SPANS`` frame at its next RPC instead of waiting for
#: the session-closing message.
FLUSH_THRESHOLD = 64

#: Driver-side collected-timeline bound.  Long serving runs cap here
#: (ring mode) instead of leaking; the ``dropped`` count surfaces in
#: ``stats()["obs"]["spans_dropped"]``.
DEFAULT_COLLECTOR_RECORDS = 1_000_000


class SpanRecorder:
    """One process's span buffer: record cheaply now, flush in batches.

    ``record`` stamps :func:`time.monotonic` (the *local* clock — the
    collector maps it onto the driver timeline at ingest) and appends
    under a lock.  ``drain`` swaps the buffer out and returns an *obs
    blob* — ``(send_monotonic, records, dropped_total)`` — ready to ride
    any transport, or ``None`` when there is nothing to say (so call
    sites can skip appending a trailing element entirely).
    """

    __slots__ = (
        "enabled", "capacity", "recorded", "dropped", "flushes",
        "_buffer", "_lock",
    )

    def __init__(
        self, enabled: bool = True, capacity: int = DEFAULT_BUFFER_SPANS
    ) -> None:
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        self.recorded = 0
        self.dropped = 0
        self.flushes = 0
        self._buffer: list = []
        self._lock = threading.Lock()

    def record(
        self, kind: str, timestamp: Optional[float] = None, **payload: Any
    ) -> None:
        if not self.enabled:
            return
        t = time.monotonic() if timestamp is None else timestamp
        with self._lock:
            if len(self._buffer) >= self.capacity:
                self.dropped += 1
                return
            self._buffer.append((t, kind, payload))
            self.recorded += 1

    def __len__(self) -> int:
        return len(self._buffer)

    def should_flush(self) -> bool:
        """The buffer is large enough to justify a dedicated frame."""
        return self.enabled and len(self._buffer) >= FLUSH_THRESHOLD

    def drain(self) -> Optional[tuple]:
        """Swap out the buffer; returns an obs blob or None when empty.

        The blob's ``dropped_total`` is cumulative — the collector keeps
        the max per source, so drops are never double counted and a drop
        that happened between flushes is reported by the next one.
        """
        if not self.enabled:
            return None
        with self._lock:
            if not self._buffer and not self.dropped:
                return None
            records, self._buffer = self._buffer, []
            self.flushes += 1
            return (time.monotonic(), records, self.dropped)


class SpanCollector:
    """Driver-side merge point: every process's spans, one timeline.

    Owns the session :class:`EventLog` (timestamps are seconds since
    collector creation, i.e. since ``init``) and the per-source clock
    calibration.  ``record`` is for driver-local events; ``ingest``
    maps a remote obs blob through the source's offset estimate.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_records: Optional[int] = DEFAULT_COLLECTOR_RECORDS,
    ) -> None:
        self.enabled = bool(enabled)
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self.event_log: Optional[EventLog] = (
            EventLog(max_records=max_records) if self.enabled else None
        )
        #: source -> running min of (driver recv mono - sender send mono):
        #: the sender's clock offset onto the driver clock, biased by at
        #: most the minimum transport delay (>= 0, so causality holds).
        self._offsets: dict[Any, float] = {}
        #: source -> (min_sample, max_sample); the spread bounds how far
        #: the offset estimate can be off, surfaced as clock_skew_est.
        self._samples: dict[Any, tuple] = {}
        #: source -> cumulative drop count reported by that recorder.
        self._remote_dropped: dict[Any, int] = {}
        self.spans_recorded = 0
        self.flushes = 0

    def record(
        self, kind: str, timestamp: Optional[float] = None, **payload: Any
    ) -> None:
        """One driver-local span event, stamped now (or at the
        ``time.monotonic()`` reading ``timestamp``)."""
        if not self.enabled:
            return
        t = (time.monotonic() if timestamp is None else timestamp) - self._t0
        with self._lock:
            self.event_log.append(t, kind, **payload)
            self.spans_recorded += 1

    def ingest(
        self, source: Any, blob: Optional[tuple], extra: Optional[dict] = None
    ) -> None:
        """Map one remote obs blob onto the driver timeline.

        ``extra`` supplies identity keys (worker/node names) the remote
        recorder did not know; they fill payload keys that are missing
        or None.
        """
        if not self.enabled or blob is None:
            return
        send_mono, records, dropped_total = blob
        recv = time.monotonic()
        with self._lock:
            sample = recv - send_mono
            offset = self._offsets.get(source)
            if offset is None or sample < offset:
                self._offsets[source] = offset = sample
            lo, hi = self._samples.get(source, (sample, sample))
            self._samples[source] = (min(lo, sample), max(hi, sample))
            self.flushes += 1
            if dropped_total:
                previous = self._remote_dropped.get(source, 0)
                self._remote_dropped[source] = max(previous, dropped_total)
            for t_mono, kind, payload in records:
                if extra:
                    for key, value in extra.items():
                        if payload.get(key) is None:
                            payload[key] = value
                self.event_log.append(
                    t_mono + offset - self._t0, kind, **payload
                )
                self.spans_recorded += 1

    @property
    def clock_skew_est(self) -> float:
        """Worst per-source spread of offset samples (seconds): an upper
        bound on how far any source's mapped timestamps may sit from
        their true driver-clock positions.  0.0 with no remote sources."""
        with self._lock:
            if not self._samples:
                return 0.0
            return max(hi - lo for lo, hi in self._samples.values())

    @property
    def spans_dropped(self) -> int:
        with self._lock:
            dropped = sum(self._remote_dropped.values())
        if self.event_log is not None:
            dropped += self.event_log.dropped
        return dropped

    def stats(self) -> dict:
        """The uniform ``stats()["obs"]`` section."""
        if not self.enabled:
            return {
                "enabled": False,
                "spans_recorded": 0,
                "spans_dropped": 0,
                "flushes": 0,
                "clock_skew_est": 0.0,
            }
        return {
            "enabled": True,
            "spans_recorded": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
            "flushes": self.flushes,
            "clock_skew_est": self.clock_skew_est,
        }


# ----------------------------------------------------------------------
# The lifecycle spans: one builder per kind, called behind the caller's
# ``enabled`` guard.  ``worker``/``node`` name where it happened; a
# worker process leaves them None and the collector's ``ingest`` fills
# them in.  ``timestamp`` is a ``time.monotonic()`` reading (None: now).
# ----------------------------------------------------------------------


def task_submitted(rec, spec, worker_born: bool, worker=None, node=None) -> None:
    """A task entered the system (``worker_born``: from a running task)."""
    parent = spec.parent_task_id
    rec.record(
        "task_submitted", None, task_id=str(spec.task_id),
        function=spec.function_name, worker=worker, node=node,
        root_task_id=str(spec.root_task_id or spec.task_id),
        parent_task_id=None if parent is None else str(parent),
        worker_born=worker_born,
    )


def task_placed(rec, spec, worker=None, node=None, local: bool = False) -> None:
    """A task was given a home (``worker=None``: a node or the global
    queue; ``local``: kept on the queue of the worker it was born on)."""
    rec.record(
        "task_placed", None, task_id=str(spec.task_id),
        function=spec.function_name, worker=worker, node=node, local=local,
    )


def task_started(
    rec, spec, timestamp=None, worker=None, node=None, inline: bool = False
) -> None:
    """User code began (``inline``: inside its blocked parent's ``get``)."""
    parent = spec.parent_task_id
    rec.record(
        "task_started", timestamp, task_id=str(spec.task_id),
        function=spec.function_name, worker=worker, node=node,
        root_task_id=str(spec.root_task_id or spec.task_id),
        parent_task_id=None if parent is None else str(parent),
        inline=inline,
    )


def task_finished(
    rec, spec, duration: float, failed: bool, timestamp=None, worker=None,
    node=None,
) -> None:
    """User code returned (or raised: ``failed``) after ``duration`` s."""
    rec.record(
        "task_finished", timestamp, task_id=str(spec.task_id),
        function=spec.function_name, worker=worker, node=node,
        duration=duration, failed=failed,
    )


def result_stored(
    rec, task_id, function: str, num_returns: int, failed: bool, worker=None,
    node=None,
) -> None:
    """A task's results became visible to getters."""
    rec.record(
        "result_stored", None, task_id=str(task_id), function=function,
        worker=worker, node=node, num_returns=num_returns, failed=failed,
    )


def disabled_obs_stats() -> dict:
    """The ``stats()["obs"]`` shape for a runtime without a collector."""
    return SpanCollector(enabled=False).stats()


def resolve_event_log(runtime) -> Optional[EventLog]:
    """The runtime's live event log, or None when it has none.

    Works on every backend: the sim's always-on log, a live backend's
    collected trace (``tracing=True``), or None — callers degrade
    gracefully instead of raising ``AttributeError``.
    """
    log = getattr(runtime, "event_log", None)
    return log if isinstance(log, EventLog) else None
