"""Effects yieldable from generator-style task bodies.

Plain remote functions run atomically at a modeled cost.  Tasks that need
to *block mid-body* — get a future's value, wait on a set of futures with a
timeout (the paper's ``wait`` primitive), or model a stretch of compute —
are written as generators yielding these effects.  Every backend
interprets them: the simulated runtime maps them onto virtual-time
processes, the live ones (``local``, ``proc``, ``dist``) onto real blocking
calls, so workload code runs unchanged on any.  ``ActorCreate`` and ``ActorCall`` extend the vocabulary to the
stateful-actor half of the model: task bodies can create actors and invoke
their methods without blocking, receiving handles and futures back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence


@dataclass(frozen=True)
class Compute:
    """Model ``duration`` seconds of on-CPU/GPU work inside a task body.

    On the threaded backend this is a real ``time.sleep`` stand-in for
    compute; on the simulated backend it advances virtual time only.
    """

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative compute duration: {self.duration}")


@dataclass(frozen=True)
class Get:
    """Block until the given future(s) resolve; yields their value(s).

    ``yield Get(ref)`` evaluates to the value; ``yield Get([r1, r2])``
    evaluates to a list of values.
    """

    refs: Any  # ObjectRef or sequence of ObjectRef


@dataclass(frozen=True)
class Wait:
    """The paper's ``wait`` primitive (Section 3.1, point 5).

    Yields ``(ready, pending)`` lists once ``num_returns`` futures have
    completed or ``timeout`` seconds elapsed, whichever comes first.
    """

    refs: Sequence
    num_returns: int = 1
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_returns < 0:
            raise ValueError(f"negative num_returns: {self.num_returns}")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"negative timeout: {self.timeout}")


@dataclass(frozen=True)
class Put:
    """Store a value in the object store; yields an ObjectRef for it."""

    value: Any


@dataclass(frozen=True)
class Cancel:
    """Cancel the task producing ``ref`` from inside a task body.

    ``yield Cancel(ref)`` evaluates to the same bool ``repro.cancel``
    returns: True if the target will never produce a normal result,
    False if it already finished.  ``recursive=True`` also cancels
    not-yet-started tasks parked on the target's outputs.
    """

    ref: Any  # ObjectRef
    recursive: bool = False


@dataclass(frozen=True)
class ActorCreate:
    """Create a stateful actor from inside a task body.

    ``yield ActorCreate(Counter, args=(0,))`` evaluates to an
    :class:`~repro.core.actors.ActorHandle`; creation itself is
    non-blocking (the constructor runs as a placed task).  ``actor_class``
    may be the plain class or its ``@remote``-wrapped
    :class:`~repro.core.actors.ActorClass`.
    """

    actor_class: Any
    args: tuple = ()
    kwargs: Any = None

    def __post_init__(self) -> None:
        if self.kwargs is None:
            object.__setattr__(self, "kwargs", {})


@dataclass(frozen=True)
class ActorCall:
    """Invoke ``method_name`` on an actor; yields the call's ObjectRef.

    Non-blocking, exactly like ``handle.method.remote(...)`` — follow
    with ``yield Get(ref)`` to consume the result.
    """

    handle: Any  # ActorHandle
    method_name: str
    args: tuple = ()
    kwargs: Any = None

    def __post_init__(self) -> None:
        if self.kwargs is None:
            object.__setattr__(self, "kwargs", {})
