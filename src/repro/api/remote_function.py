"""``@remote`` decorator and remote-function handles.

Applied to a function, ``@remote`` yields a :class:`RemoteFunction` whose
``.remote()`` submits stateless tasks.  Applied to a **class**, it yields
an :class:`~repro.core.actors.ActorClass` whose ``.remote()`` creates a
stateful actor and returns an :class:`~repro.core.actors.ActorHandle` —
the sixth element of the programming model.

Both handles are thin wrappers over the frozen options dataclasses
(:class:`~repro.core.task.TaskOptions` /
:class:`~repro.core.actors.ActorOptions`): the decorator's configured
form and ``.options(...)`` overrides share
one validate/merge path, so the accepted option sets cannot drift between
surfaces and every rejection names the offending option.

**Call templates.**  Nothing about a submission changes from call to
call except its arguments, so a handle resolves the rest once per
runtime into a :class:`~repro.core.task.CallTemplate` — the function's
registration in that runtime's function table, its display name, the
validated options and the resources they request — and ``.remote()``
hands the runtime that template plus ``args``/``kwargs``
(``Backend.submit_call``).  Templates are keyed by the runtime's epoch
and dropped at its shutdown.  Handles made by ``.options(...)`` share
the registrations of the handle they came from: one function id per
runtime however many option variants exist, one template per variant
(equal option sets get the same variant handle back).
"""

from __future__ import annotations

import functools
import inspect
import weakref
from typing import Any, Callable, Optional

from repro.api import runtime_context
from repro.core.actors import ActorClass, ActorOptions
from repro.core.backend import next_runtime_epoch
from repro.core.task import CallTemplate, TaskOptions

#: Handles holding per-runtime function registrations, so a runtime
#: shutdown can clear its epoch's entries from all of them.
_live_handles: "weakref.WeakSet[RemoteFunction]" = weakref.WeakSet()

#: Epochs for runtimes that cannot take new attributes (__slots__-style
#: custom backends): keyed by the live instance, dying with it.
_slots_epochs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _runtime_epoch(runtime) -> int:
    """The runtime's monotonic epoch (assigned lazily for direct
    constructions that bypassed ``create_backend``).

    Epochs are never reissued, unlike ``id(runtime)`` — a GC'd runtime's
    address can be handed to a new runtime, which used to let a stale
    registration leak a dead runtime's ``function_id`` into the new one.
    """
    epoch = getattr(runtime, "_repro_epoch", None)
    if epoch is None:
        try:
            epoch = _slots_epochs.get(runtime)
        except TypeError:  # unhashable/unweakrefable exotic runtime
            epoch = None
        if epoch is None:
            epoch = next_runtime_epoch()
            try:
                runtime._repro_epoch = epoch
            except AttributeError:  # __slots__-style custom backends
                try:
                    _slots_epochs[runtime] = epoch
                except TypeError:
                    pass  # one-call epoch; still never aliases another runtime
    return epoch


def clear_registrations(epoch: Optional[int]) -> None:
    """Drop every handle's registration and call template for a
    shut-down runtime epoch."""
    if epoch is None:
        return
    for handle in list(_live_handles):
        handle._registrations.pop(epoch, None)
        handle._templates.pop(epoch, None)


class RemoteFunction:
    """A function designated as a remote task (Section 3.1, point 2).

    Call ``.remote(*args)`` to submit; futures among the arguments become
    dataflow dependencies.  ``.options(...)`` returns a re-configured
    copy (resources, modeled duration, placement hint, ``num_returns``,
    display ``name``) without mutating this one; overrides compose
    left-to-right through :meth:`TaskOptions.merged`.
    """

    def __init__(
        self,
        function: Callable,
        options: Optional[TaskOptions] = None,
        **overrides: Any,
    ) -> None:
        if not callable(function):
            raise TypeError(f"@remote expects a callable, got {type(function).__name__}")
        self._function = function
        self._options = (options or TaskOptions()).merged(**overrides)
        #: function-table registration per runtime epoch — one dict
        #: shared by every ``.options()`` variant of this function.
        self._registrations: dict[int, Any] = {}
        #: This option set's call template per runtime epoch.
        self._templates: dict[int, CallTemplate] = {}
        #: ``.options()`` variants by their resolved option set (shared
        #: like the registrations), so a variant re-derived in a loop is
        #: the same handle with the same template.
        self._variants: dict[TaskOptions, RemoteFunction] = {}
        functools.update_wrapper(self, function)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteFunction({self.name})"

    def __reduce__(self):
        # A handle pickled by value (a ``__main__`` function calling
        # itself) arrives in another process, whose runtime epochs are
        # its own: this process's registrations must not travel.
        return RemoteFunction, (self._function, self._options)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError(
            f"remote function {self.name!r} cannot be called directly; "
            f"use {self.name}.remote(...) (or .local(...) to run in-process)"
        )

    def local(self, *args: Any, **kwargs: Any) -> Any:
        """Run the underlying function in-process (tests, baselines)."""
        return self._function(*args, **kwargs)

    @property
    def function(self) -> Callable:
        return self._function

    @property
    def name(self) -> str:
        return self._options.name or getattr(
            self._function, "__name__", "anonymous"
        )

    @property
    def submit_options(self) -> TaskOptions:
        return self._options

    def options(self, **overrides: Any) -> "RemoteFunction":
        """A copy of this handle with overridden submission options.

        The original handle is never mutated; unknown or invalid options
        raise an error naming the offending option.  The copy shares this
        handle's function registrations: it is the same function.
        """
        options = self._options.merged(**overrides)
        try:
            return self._variants[options]
        except KeyError:
            cacheable = True
        except TypeError:  # an unhashable option value (a duration object)
            cacheable = False
        variant = RemoteFunction(self._function, options)
        variant._registrations = self._registrations
        variant._variants = self._variants
        if cacheable:
            self._variants[options] = variant
        return variant

    def _function_id(self, runtime) -> Any:
        epoch = _runtime_epoch(runtime)
        if epoch not in self._registrations:
            self._registrations[epoch] = runtime.register_function(
                self._function,
                getattr(self._function, "__name__", "anonymous"),
            )
        _live_handles.add(self)
        return self._registrations[epoch]

    def _bind(self, runtime) -> CallTemplate:
        """Build (once per runtime epoch) this option set's template."""
        template = self._templates[_runtime_epoch(runtime)] = CallTemplate(
            self._function, self._function_id(runtime), self.name, self._options
        )
        return template

    def remote(self, *args: Any, **kwargs: Any) -> Any:
        """Submit one invocation; returns its future(s) immediately.

        With ``num_returns=1`` (the default) this is one
        :class:`~repro.core.object_ref.ObjectRef`; with ``num_returns=k``
        it is a tuple of k refs, each independently gettable/waitable.
        """
        runtime = runtime_context.get_runtime()
        template = self._templates.get(getattr(runtime, "_repro_epoch", None))
        if template is None:
            template = self._bind(runtime)
        return runtime.submit_call(template, args, kwargs)


def remote(function: Optional[Callable] = None, **options: Any):
    """Designate a function as a remote task, or a class as an actor.

    Bare forms::

        @remote
        def f(x): ...          # f.remote(x) -> ObjectRef

        @remote
        class Counter:         # Counter.remote() -> ActorHandle
            def incr(self): ...

    Configured form (heterogeneous resources, R4; modeled sim duration;
    multiple returns; display name; placement)::

        @remote(num_gpus=1, duration=0.003)
        def fit(params, batch): ...

        @remote(num_returns=2)
        def split(xs): return xs[::2], xs[1::2]

    Every task option accepted here is exactly the
    :class:`~repro.core.task.TaskOptions` field set (functions) or the
    :class:`~repro.core.actors.ActorOptions` field set (classes); an
    option valid for one but not the other — e.g. ``num_returns`` on an
    actor class — is rejected by name instead of silently dropped.

    ``duration`` models virtual compute time on the simulated backend: a
    float (seconds) or a callable ``(rng, args) -> float`` sampled per
    attempt.  It is ignored by the real-time backends, where time is real
    (and by actors, whose methods cost what they cost).
    """
    if function is not None:
        if inspect.isclass(function):
            return ActorClass(function)
        return RemoteFunction(function)

    def decorator(inner: Callable):
        if inspect.isclass(inner):
            return ActorClass(inner, ActorOptions().merged(**options))
        return RemoteFunction(inner, TaskOptions().merged(**options))

    return decorator
