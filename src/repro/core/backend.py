"""The backend protocol and registry: one programming model, many systems.

The paper's central claim is that the programming model (non-blocking task
creation, futures as dataflow edges, ``get``/``wait``) is separable from
the system that serves it.  This module makes that separation literal:

* :class:`Backend` is the protocol every runtime implements — the complete
  surface :mod:`repro.api` is allowed to touch.  The simulated cluster
  (``"sim"``), the threaded runtime (``"local"``), the multiprocess
  runtime (``"proc"``) and the multi-node runtime (``"dist"``: node
  agents over TCP) are four interchangeable implementations; user
  programs cannot tell them apart except by the clock and by how fast
  CPU-bound work actually goes.  The actor path is one set of
  functions all four bind (:mod:`repro.core.actors`).
* The **registry** maps backend names to factories, so
  ``repro.init(backend=...)`` dispatches by name.  Third-party backends
  register themselves with :func:`register_backend` instead of patching
  ``init``.
* Each registration carries a :class:`BackendCapabilities` record —
  static facts a program or test harness may branch on (does the backend
  give *true* parallelism? a virtual clock? fault injection?) without
  instantiating it.  ``backend_capabilities(name)`` looks them up.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

from repro.core.object_ref import ObjectRef
from repro.core.task import CallTemplate, ResourceRequest
from repro.errors import BackendError
from repro.utils.ids import FunctionID, NodeID

#: Monotonic epochs stamped onto every backend instance.  Unlike
#: ``id(runtime)`` — whose address the allocator happily reuses after a
#: runtime is garbage-collected — an epoch is never reissued, so anything
#: keyed by it (e.g. per-runtime function registrations) can never alias
#: a dead runtime's state.
_EPOCHS = itertools.count(1)


def next_runtime_epoch() -> int:
    """Allocate a fresh, never-reused runtime epoch."""
    return next(_EPOCHS)


@dataclass(frozen=True)
class BackendCapabilities:
    """Static, backend-invariant facts about one registered backend.

    ``true_parallelism``
        CPU-bound tasks genuinely overlap (separate processes, no GIL).
        False for the threaded backend, where parallelism is concurrency.
    ``virtual_time``
        ``sleep``/``now`` run on a simulated clock rather than wall time.
    ``fault_injection``
        The runtime exposes kill primitives (``kill_node`` on sim,
        ``kill_worker`` on proc) for failure testing.
    ``multiprocess``
        Tasks execute in worker *processes* distinct from the driver.
    ``shared_memory``
        The backend implements a zero-copy shared-memory data plane for
        large objects (``repro.shm``): payloads are written once into
        shm arenas and cross process boundaries as descriptors, not
        bytes.  Declares *support* — at runtime the backend still falls
        back to its byte path on hosts without POSIX shm or when
        initialized with ``shm_capacity=0``.
    ``bottom_up_scheduling``
        The backend dispatches through the real two-level scheduling
        plane (:mod:`repro.sched_plane`): workers own local task queues
        with a zero-round-trip nested submission fast path, the driver
        tier places spillover locality-aware, and idle workers steal.
        It is the backend's only dispatch path, not a mode.
    """

    true_parallelism: bool = False
    virtual_time: bool = False
    fault_injection: bool = False
    multiprocess: bool = False
    shared_memory: bool = False
    bottom_up_scheduling: bool = False


@runtime_checkable
class Backend(Protocol):
    """Everything a runtime must provide to serve the programming model.

    Methods mirror the API elements of Section 3.1 plus lifecycle and the
    actor extension: task submission is non-blocking and returns a future;
    ``get``/``wait`` block in the backend's notion of time; ``put`` stores
    driver-local values; actors are created and called through the same
    future-returning discipline.
    """

    # -- lifecycle ------------------------------------------------------
    closed: bool

    def shutdown(self) -> None: ...

    def stats(self) -> dict: ...

    # -- function/actor registration ------------------------------------
    def register_function(self, function: Callable, name: str) -> FunctionID: ...

    # -- task protocol --------------------------------------------------
    def submit_call(
        self, template: CallTemplate, args: tuple, kwargs: dict
    ) -> Any: ...
    # (what ``RemoteFunction.remote`` calls: everything but the arguments
    # was resolved once into the template; returns one ObjectRef, or a
    # tuple of num_returns refs)

    def get(self, refs: Any, timeout: Optional[float] = None) -> Any: ...

    def wait(
        self,
        refs: Sequence[ObjectRef],
        num_returns: int = 1,
        timeout: Optional[float] = None,
    ) -> tuple: ...

    def put(self, value: Any) -> ObjectRef: ...

    def cancel(self, ref: ObjectRef, recursive: bool = False) -> bool: ...

    def sleep(self, duration: float) -> None: ...

    @property
    def now(self) -> float: ...

    # -- actor protocol -------------------------------------------------
    def create_actor(
        self,
        actor_class: type,
        class_name: str,
        args: tuple,
        kwargs: dict,
        resources: ResourceRequest,
        placement_hint: Optional[NodeID] = None,
        name: Optional[str] = None,
    ) -> Any: ...

    def call_actor(
        self,
        actor_id: Any,
        method_name: str,
        args: tuple,
        kwargs: dict,
        num_returns: int = 1,
    ) -> Any: ...

    def get_actor(self, name: str) -> Any: ...


#: name -> zero-arg loader returning the backend factory (a callable that
#: accepts the ``init`` kwargs and returns a :class:`Backend`).  Loaders
#: keep registration lazy: importing ``repro`` must not import both
#: runtimes and their dependency trees.
_REGISTRY: dict[str, Callable[[], Callable[..., Any]]] = {}

#: name -> static capability flags declared at registration time.
_CAPABILITIES: dict[str, BackendCapabilities] = {}


def register_backend(
    name: str,
    loader: Callable[[], Callable[..., Any]],
    capabilities: Optional[BackendCapabilities] = None,
) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``loader`` is called lazily, once, the first time the backend is
    instantiated; it returns the factory (usually the runtime class).
    ``capabilities`` defaults to all-False flags.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = loader
    _CAPABILITIES[name] = capabilities or BackendCapabilities()


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (tests, plugin teardown)."""
    _REGISTRY.pop(name, None)
    _CAPABILITIES.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """Names currently registered, sorted for stable error messages."""
    return tuple(sorted(_REGISTRY))


def backend_capabilities(name: str) -> BackendCapabilities:
    """Capability flags declared for a registered backend."""
    if name not in _CAPABILITIES:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{list(registered_backends())}"
        )
    return _CAPABILITIES[name]


def _check_init_kwargs(name: str, factory: Callable[..., Any], kwargs: dict) -> None:
    """Reject unknown init options, naming the kwarg and the valid set.

    Skipped when the factory takes ``**kwargs`` (custom backends may do
    their own validation) or when its signature cannot be introspected.
    """
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return
    valid = sorted(
        pname
        for pname, p in parameters.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    )
    unknown = sorted(k for k in kwargs if k not in valid)
    if unknown:
        raise BackendError(
            f"unknown init option(s) {unknown} for backend {name!r}; "
            f"valid options: {valid}"
        )


def create_backend(name: str, **kwargs: Any) -> Any:
    """Instantiate the backend registered under ``name``.

    Raises :class:`~repro.errors.BackendError` with the full list of
    registered names when ``name`` is unknown, and with the offending
    kwarg(s) plus the backend's valid options when an init option is
    misspelled (rather than silently ignoring it).
    """
    loader = _REGISTRY.get(name)
    if loader is None:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{list(registered_backends())}"
        )
    factory = loader()
    _check_init_kwargs(name, factory, kwargs)
    instance = factory(**kwargs)
    if getattr(instance, "_repro_epoch", None) is None:
        try:
            instance._repro_epoch = next_runtime_epoch()
        except AttributeError:  # __slots__-style custom backends
            pass
    return instance


def _load_sim() -> Callable[..., Any]:
    from repro.core.runtime import SimRuntime

    return SimRuntime


def _load_local() -> Callable[..., Any]:
    from repro.local.runtime import LocalRuntime

    return LocalRuntime


def _load_proc() -> Callable[..., Any]:
    from repro.proc.runtime import ProcRuntime

    return ProcRuntime


def _load_dist() -> Callable[..., Any]:
    from repro.dist.runtime import DistRuntime

    return DistRuntime


register_backend(
    "sim",
    _load_sim,
    BackendCapabilities(virtual_time=True, fault_injection=True),
)
register_backend("local", _load_local, BackendCapabilities())
register_backend(
    "proc",
    _load_proc,
    BackendCapabilities(
        true_parallelism=True,
        fault_injection=True,
        multiprocess=True,
        shared_memory=True,
        bottom_up_scheduling=True,
    ),
)
register_backend(
    "dist",
    _load_dist,
    BackendCapabilities(
        true_parallelism=True,
        fault_injection=True,
        multiprocess=True,
        shared_memory=True,
        bottom_up_scheduling=True,
    ),
)
