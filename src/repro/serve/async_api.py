"""Async submission/await: futures and coroutines over ObjectRefs.

The serving plane's first ingredient is an *event-driven* bridge from
the dataflow futures of Section 3.1 to the host language's native
concurrency: :func:`future_for` turns an :class:`~repro.core.object_ref.
ObjectRef` into a ``concurrent.futures.Future`` resolved by the
runtime's completion pump (one daemon thread for the whole runtime —
not one blocking ``get`` thread per call), and :func:`get_async` awaits
that future from asyncio.  One driver thread can therefore multiplex
thousands of in-flight requests: submission is non-blocking, and
completion arrives as a callback on the pump rather than a poll loop.

On the simulated backend — single-threaded by design, with no
completion pump — both entry points degrade to the deterministic
blocking ``get``, so programs written against the async surface stay
backend-portable.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, Optional

from repro.core.object_ref import ObjectRef
from repro.errors import GetTimeoutError


def _runtime_or_current(runtime: Any) -> Any:
    if runtime is not None:
        return runtime
    from repro.api import runtime_context

    return runtime_context.get_runtime()


def future_for(
    ref: ObjectRef, runtime: Any = None
) -> "concurrent.futures.Future":
    """A ``concurrent.futures.Future`` that resolves to ``ref``'s value.

    Event-driven wherever the backend exposes ``watch_object`` (local,
    proc, dist): the runtime's completion pump fires our callback the moment
    the object is stored, and the callback caches the value — or the
    task's re-raised error — into the future.  ``future.result()``
    never touches the runtime again, so consuming resolved futures is
    pure in-process bookkeeping.

    On backends without a pump (sim) the value is resolved immediately
    via the blocking ``get``, which on virtual time is both cheap and
    deterministic.
    """
    runtime = _runtime_or_current(runtime)
    future: concurrent.futures.Future = concurrent.futures.Future()
    watch = getattr(runtime, "watch_object", None)
    if not callable(watch):
        try:
            future.set_result(runtime.get(ref))
        except BaseException as exc:  # noqa: BLE001 - stored task errors
            future.set_exception(exc)
        return future

    def _resolve(object_id: Any) -> None:
        # Fired by the completion pump with no runtime lock held.  The
        # object is resident (or the runtime is shutting down), so the
        # timeout=0 get is a table lookup, not a wait.
        if future.done():  # cancelled by the caller
            return
        try:
            value = runtime.get(ref, timeout=0)
        except BaseException as exc:  # noqa: BLE001 - any stored error
            try:
                future.set_exception(exc)
            except concurrent.futures.InvalidStateError:
                pass
        else:
            try:
                future.set_result(value)
            except concurrent.futures.InvalidStateError:
                pass

    watch(ref.object_id, _resolve)
    return future


async def get_async(
    refs: Any, timeout: Optional[float] = None
) -> Any:
    """``await``-able ``get``: resolve ref(s) without blocking the loop.

    Accepts one ref or a list of refs, mirroring ``repro.get``.  The
    wait happens on the runtime's completion pump, so any number of
    ``get_async`` coroutines share one driver thread.  On timeout the
    in-flight watch is abandoned (the task itself keeps running) and
    :class:`~repro.errors.GetTimeoutError` is raised, exactly like the
    blocking ``get``.
    """
    if isinstance(refs, ObjectRef):
        futures = [future_for(refs)]
        single = True
    else:
        futures = [future_for(ref) for ref in refs]
        single = False
    wrapped = [asyncio.wrap_future(f) for f in futures]
    try:
        values = await asyncio.wait_for(asyncio.gather(*wrapped), timeout)
    except asyncio.TimeoutError:
        raise GetTimeoutError(
            f"get_async timed out after {timeout}s"
        ) from None
    return values[0] if single else list(values)
