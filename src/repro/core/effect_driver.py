"""The effect interpreter shared by every backend.

Generator task bodies yield effects (:mod:`repro.core.effects`); a
backend supplies an :class:`EffectHandler` saying what each effect *does*
in its world — virtual-time processes on the simulated cluster, real
blocking calls on the live ones (``local``, and a ``proc``/``dist``
worker).  The loop itself — stepping the
user generator, capturing user exceptions as :class:`ErrorValue`s,
throwing recoverable framework errors back into the body, rejecting
unknown effects — is backend-invariant and lives here, once.

Mechanically the loop is a generator: when a handler method returns a
generator (the sim backend's virtual-time processes), the loop delegates
to it with ``yield from``; when it returns a plain value (a live
backend, which blocks for real inside the handler), the loop never
suspends and can be driven to completion with a single ``next()`` —
see :func:`run_effect_loop_sync`.
"""

from __future__ import annotations

import time
import types
from typing import Any, Generator, Optional

from repro.core.actors import call_from_effect, create_from_effect
from repro.core.effects import ActorCall, ActorCreate, Cancel, Compute, Get, Put, Wait
from repro.core.task import TaskSpec
from repro.errors import ReproError


class EffectHandler:
    """Backend bindings for the effect vocabulary.

    Each ``on_*`` method either returns the value to send back into the
    task body, or returns a generator producing it (simulated backends).
    Raising a :class:`ReproError` from a handler throws that error *into*
    the task body at the yield point — the recoverable-failure path (an
    upstream task error, a lost object) that user code may catch.  Any
    exception type listed in ``passthrough`` aborts the loop instead
    (e.g. the sim kernel's ProcessKilled).
    """

    passthrough: tuple = ()

    def push_context(self) -> None:
        """Enter user code (sim: activate the worker context)."""

    def pop_context(self) -> None:
        """Leave user code."""

    def on_compute(self, effect: Compute) -> Any:
        raise NotImplementedError

    def on_get(self, effect: Get) -> Any:
        raise NotImplementedError

    def on_wait(self, effect: Wait) -> Any:
        raise NotImplementedError

    def on_put(self, effect: Put) -> Any:
        raise NotImplementedError

    def on_cancel(self, effect: Cancel) -> Any:
        raise NotImplementedError

    def on_actor_create(self, effect: ActorCreate) -> Any:
        raise NotImplementedError

    def on_actor_call(self, effect: ActorCall) -> Any:
        raise NotImplementedError


class BlockingEffectHandler(EffectHandler):
    """The effect vocabulary as real blocking calls on ``runtime``: the
    threaded runtime itself, or a worker process's proxy to its driver."""

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime

    def on_compute(self, effect: Compute) -> None:
        time.sleep(effect.duration)

    def on_get(self, effect: Get) -> Any:
        return self.runtime.get(effect.refs)

    def on_wait(self, effect: Wait) -> tuple:
        return self.runtime.wait(
            list(effect.refs),
            num_returns=effect.num_returns,
            timeout=effect.timeout,
        )

    def on_put(self, effect: Put) -> Any:
        return self.runtime.put(effect.value)

    def on_cancel(self, effect: Cancel) -> bool:
        return self.runtime.cancel(effect.ref, recursive=effect.recursive)

    def on_actor_create(self, effect: ActorCreate) -> Any:
        return create_from_effect(self.runtime, effect)

    def on_actor_call(self, effect: ActorCall) -> Any:
        return call_from_effect(self.runtime, effect)


_DISPATCH = (
    (Compute, "on_compute"),
    (Get, "on_get"),
    (Wait, "on_wait"),
    (Put, "on_put"),
    (Cancel, "on_cancel"),
    (ActorCreate, "on_actor_create"),
    (ActorCall, "on_actor_call"),
)


def effect_loop(
    spec: TaskSpec, generator: Generator, handler: EffectHandler
) -> Generator:
    """Drive a task-body generator to completion under ``handler``.

    Returns the body's return value, or an :class:`ErrorValue` capturing
    the exception that escaped it.
    """
    from repro.core.worker import error_value_from  # cycle: worker uses this loop

    send_value: Any = None
    throw_exc: Optional[BaseException] = None
    while True:
        handler.push_context()
        try:
            if throw_exc is not None:
                item = generator.throw(throw_exc)
            else:
                item = generator.send(send_value)
        except StopIteration as stop:
            return stop.value
        except handler.passthrough:
            raise
        except BaseException as exc:  # noqa: BLE001 - user code boundary
            return error_value_from(spec, exc)
        finally:
            handler.pop_context()
        throw_exc = None
        send_value = None

        method_name = next(
            (name for kind, name in _DISPATCH if isinstance(item, kind)), None
        )
        if method_name is None:
            throw_exc = TypeError(f"task body yielded unsupported effect {item!r}")
            continue
        try:
            outcome = getattr(handler, method_name)(item)
            if isinstance(outcome, types.GeneratorType):
                outcome = yield from outcome
            send_value = outcome
        except handler.passthrough:
            raise
        except (ReproError, TypeError, ValueError) as exc:
            # Recoverable framework failure or argument-validation error
            # (e.g. cancelling an actor call): surface it inside the body
            # so user code can handle or propagate it (R7).
            throw_exc = exc


def run_effect_loop_sync(
    spec: TaskSpec, generator: Generator, handler: EffectHandler
) -> Any:
    """Drive :func:`effect_loop` for a handler that never suspends.

    The threaded backend's handlers block for real and return plain
    values, so the loop generator runs start-to-finish on its first step.
    """
    loop = effect_loop(spec, generator, handler)
    try:
        yielded = next(loop)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(
        f"synchronous effect handler {type(handler).__name__} suspended "
        f"on {yielded!r}; only simulated handlers may yield"
    )
