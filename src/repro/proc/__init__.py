"""The multiprocess backend: true parallelism behind the same protocol.

The threaded ``"local"`` backend executes for real but under one GIL, so
CPU-bound tasks serialize.  This package implements ``"proc"``: a pool of
worker *processes* (``multiprocessing`` spawn + duplex pipes) driven by
the same shared core as every other backend — the effect interpreter
drives submission, :class:`~repro.core.dependencies.DependencyTracker`
gates readiness, objects cross an explicit serialization boundary with an
inline-vs-store threshold, and actors pin their state to one worker
process with ordered method delivery coming from each actor's lane.

Layout:

* :mod:`repro.proc.messages` — the pipe wire protocol, and the
  :class:`~repro.proc.messages.FunctionTable` both ends of a pipe keep:
  what a function id means (name, callable, code, call templates), told
  to each peer once.
* :mod:`repro.proc.worker` — the child-process main loop and the proxy
  runtime that serves nested ``.remote()``/``get``/``put`` calls made by
  user code running inside a worker.
* :mod:`repro.proc.runtime` — the driver-side :class:`ProcRuntime`:
  the transport (pipes, service threads, encode/ship, the worker-rpc
  server), submission and the actor table, crash detection and driver
  recovery.  What it decides nothing about lives in two planes it asks
  under its lock:
* :mod:`repro.proc.objects` — the **object plane** (``runtime._objects``):
  where an object lives (pipe store, shm arena, a ``dist`` node) and
  what still holds it.
* :mod:`repro.sched_plane.dispatch` — the **dispatch plane**
  (``runtime._dispatch``): what runs where, in which frame, and who
  gives work back (queues, actor lanes, frame sizing, stealing, what a
  lost worker leaves behind).  It imports nothing of this package.
* :mod:`repro.proc.transport` — the message transports (pipe, TCP) both
  wire backends share.
"""

from repro.proc.runtime import ProcRuntime

__all__ = ["ProcRuntime"]
