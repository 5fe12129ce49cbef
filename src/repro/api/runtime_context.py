"""Global runtime context: init/shutdown and the blocking primitives."""

from __future__ import annotations

import atexit
from typing import Any, Iterator, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro.core import lifecycle as _lifecycle
from repro.core.backend import create_backend
from repro.core.object_ref import ObjectRef
from repro.errors import BackendError

_current_runtime: Any = None
#: Whether this process registered its exit hook (one per process).
_atexit_registered = False


def init(backend: str = "sim", **kwargs: Any):
    """Start a runtime and make it current.

    Parameters
    ----------
    backend:
        Name of a registered backend (see :mod:`repro.core.backend`):
        ``"sim"`` for the deterministic simulated cluster (virtual time),
        ``"local"`` for the real threaded runtime (wall-clock time),
        ``"proc"`` for the real multiprocess runtime (worker processes,
        true parallelism), or any name added via
        ``repro.core.backend.register_backend``.
    num_nodes, num_cpus, num_gpus:
        Convenience shortcuts building a uniform cluster (ignored when an
        explicit ``cluster=ClusterSpec(...)`` is given).
    **kwargs:
        Forwarded to the backend factory.  Unknown options raise
        :class:`~repro.errors.BackendError` naming the offending kwarg
        and the backend's valid options.  Proc-backend options include
        ``num_workers`` (default: the cluster's total CPUs),
        ``inline_threshold`` (bytes;
        serialized objects at or below it ship inline in pipe messages,
        larger ones take the data plane) and
        ``shm_capacity`` (byte budget of the zero-copy shared-memory
        data plane for large objects — default 256 MiB, ``0`` disables
        it and every object takes the pipe; hosts without POSIX shared
        memory fall back automatically).  No live backend has a
        scheduling option: ``proc`` and ``dist`` dispatch through the
        bottom-up plane (:mod:`repro.sched_plane`), ``local`` from one
        ready list, and the policies of :mod:`repro.scheduling.policies`
        are varied on ``sim`` (``scheduler_mode``, ``spillover_policy``,
        ``placement_policy``); scheduler counters surface in
        ``get_runtime().stats()["sched"]``.  All live backends accept
        ``tracing=True`` to collect a wall-clock event log across every
        process (see :mod:`repro.obs`); the sim's log is always on.
        Every backend reports ``stats()["obs"]`` either way.
    """
    global _current_runtime, _atexit_registered
    if _current_runtime is not None:
        raise BackendError("runtime already initialized; call shutdown() first")
    if not _atexit_registered:
        # A driver that exits without shutdown() still releases its
        # workers and shared-memory arena.
        atexit.register(shutdown)
        _atexit_registered = True

    if "cluster" not in kwargs:
        num_nodes = kwargs.pop("num_nodes", 1)
        num_cpus = kwargs.pop("num_cpus", 4)
        num_gpus = kwargs.pop("num_gpus", 0)
        object_store_capacity = kwargs.pop("object_store_capacity", 2 * 1024**3)
        kwargs["cluster"] = ClusterSpec.uniform(
            num_nodes=num_nodes,
            num_cpus=num_cpus,
            num_gpus=num_gpus,
            object_store_capacity=object_store_capacity,
        )

    _current_runtime = create_backend(backend, **kwargs)
    return _current_runtime


def shutdown() -> None:
    """Stop the current runtime (idempotent).

    Also clears the shut-down runtime's per-epoch function registrations
    from every :class:`~repro.api.remote_function.RemoteFunction` handle,
    so a handle can never resolve to a dead runtime's function table.
    """
    global _current_runtime
    if _current_runtime is not None:
        from repro.api import remote_function

        epoch = getattr(_current_runtime, "_repro_epoch", None)
        _current_runtime.shutdown()
        _current_runtime = None
        remote_function.clear_registrations(epoch)


def is_initialized() -> bool:
    """Whether a runtime is currently active."""
    return _current_runtime is not None


def get_runtime():
    """The active runtime; raises if ``init`` has not been called."""
    if _current_runtime is None:
        raise BackendError("no runtime: call repro.init(...) first")
    return _current_runtime


def get(refs: Any, timeout: Optional[float] = None) -> Any:
    """Block until future(s) resolve; returns value(s).

    Raises :class:`repro.errors.TaskError` if the producing task failed
    and :class:`repro.errors.GetTimeoutError` on timeout.
    """
    return get_runtime().get(refs, timeout=timeout)


async def get_async(refs: Any, timeout: Optional[float] = None) -> Any:
    """``await``-able :func:`get`: resolve ref(s) without blocking the loop.

    Event-driven on the real backends — completion arrives from the
    runtime's pump thread, so thousands of ``get_async`` coroutines
    share one driver thread.  On the sim backend this degrades to the
    deterministic blocking ``get``.  Raises
    :class:`repro.errors.GetTimeoutError` on timeout, like ``get``.
    """
    from repro.serve.async_api import get_async as _get_async

    return await _get_async(refs, timeout=timeout)


def wait(
    refs: Sequence[ObjectRef],
    num_returns: int = 1,
    timeout: Optional[float] = None,
) -> tuple:
    """Block until ``num_returns`` of ``refs`` complete or ``timeout``
    elapses; returns ``(ready, pending)`` in input order (Section 3.1.5)."""
    return get_runtime().wait(refs, num_returns=num_returns, timeout=timeout)


def put(value: Any) -> ObjectRef:
    """Store a value in the object store; returns a future for it."""
    return get_runtime().put(value)


def cancel(ref: ObjectRef, recursive: bool = False) -> bool:
    """Cancel the task producing ``ref``; returns whether it took effect.

    A task that has not started never executes; a running task keeps
    running but its result is discarded.  Either way every ``get`` on the
    task's refs raises :class:`repro.errors.TaskCancelledError`.  Returns
    ``False`` when the task already finished.  ``recursive=True`` also
    cancels not-yet-started tasks parked on the cancelled task's outputs,
    transitively.  Actor method calls refuse cancellation with a
    :class:`ValueError` (their ordered state history cannot be holed).
    """
    return get_runtime().cancel(ref, recursive=recursive)


def get_actor(name: str):
    """Look up a live named actor created via ``Cls.options(name=...)``.

    Returns the same :class:`~repro.core.actors.ActorHandle` the creating
    call received.  Unknown names raise :class:`ValueError`; a named
    actor whose state died with its node raises
    :class:`repro.errors.ActorLostError`.
    """
    return get_runtime().get_actor(name)


def as_completed(
    refs: Sequence[ObjectRef], timeout: Optional[float] = None
) -> Iterator[ObjectRef]:
    """Iterate ``refs`` in completion order (built on ``wait``).

    ``timeout`` bounds the total time across the whole iteration in the
    runtime's clock (virtual on sim); expiry raises
    :class:`repro.errors.GetTimeoutError`.
    """
    return _lifecycle.as_completed(get_runtime(), refs, timeout=timeout)


def sleep(duration: float) -> None:
    """Sleep in the runtime's notion of time (virtual on sim, real on local)."""
    get_runtime().sleep(duration)


def now() -> float:
    """Current time in the runtime's clock (virtual seconds on sim)."""
    return get_runtime().now


def timeline(path: Optional[str] = None) -> list:
    """The current runtime's trace as Chrome ``about:tracing`` events.

    Works on any backend with an event log: the sim's always-on log, or
    a live backend started with ``tracing=True``.  Each task execution
    becomes a complete ("X") event — the node is the process row, the
    worker the thread row.  ``path`` additionally writes the JSON file
    ``chrome://tracing`` / Perfetto loads directly.  Raises
    :class:`~repro.errors.BackendError` when the runtime has no trace
    (live backend without ``tracing=True``).
    """
    from repro.obs import resolve_event_log
    from repro.tools.timeline import export_chrome_trace

    runtime = get_runtime()
    log = resolve_event_log(runtime)
    if log is None:
        raise BackendError(
            f"no trace on this {type(runtime).__name__}: pass tracing=True "
            "to repro.init(...) to collect one"
        )
    return export_chrome_trace(log, path=path)


def trace_report(include_gantt: bool = False) -> str:
    """The full post-run text report for the current runtime.

    Delegates to :func:`repro.tools.report.run_report`; on a runtime
    without an event log the trace sections degrade to a note naming
    the ``tracing=True`` knob instead of raising.
    """
    from repro.tools.report import run_report

    return run_report(get_runtime(), include_gantt=include_gantt)
