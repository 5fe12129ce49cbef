"""Stateful actors: the second pillar of the programming model.

The paper's successor systems pair stateless tasks with **actors** —
long-lived stateful workers whose methods execute in submission order and
return futures like any task.  This module is the backend-independent
half: the ``@remote``-on-a-class front end (:class:`ActorClass`,
:class:`ActorHandle`), the actor table (:class:`ActorRegistry`), and the
execution-side resolution every backend's workers share.

The actor path itself — :func:`create_actor`, :func:`call_actor` and
:func:`get_actor`, with their registry records and control-store rows —
is written here once, and every backend binds these functions as its
methods.  A backend answers only three questions, under its
``_lifecycle_guard()`` lock:

* where a new actor lives (``_actor_home(spec)``, a node id; a hint the
  caller gave is in ``spec.placement_hint``);
* how one of its tasks joins the actor's order and is submitted
  (``_submit_actor_task(record, spec)``).  On ``sim`` and ``local`` the
  order falls out of the dataflow graph: every call carries an
  *ordering dependency* on the previous call's result object (and the
  first on the creation object) — :func:`chain_submission`.  On
  ``proc`` and ``dist`` it is the actor's *lane*: a call enters its
  actor's FIFO at submission, waits there for its own arguments only,
  and leaves in lane order inside a dispatch frame for the one process
  that runs the actor (``last_call_ref`` stays ``None`` there);
* which node a submission comes from (``_current_node_id()``).

Node failure (sim backend) marks every actor whose constructed instance
lived there as dead; orphaned and future method calls resolve to an
:class:`~repro.errors.ActorLostError` at ``get`` time, because actor
state — unlike stateless task lineage — cannot be replayed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.object_ref import ObjectRef
from repro.core.protocol import check_cluster_feasible
from repro.core.task import OptionsBase, ResourceRequest, TaskSpec
from repro.errors import ActorLostError, BackendError
from repro.utils.ids import ActorID, FunctionID, NodeID, TaskID

#: ``TaskSpec.actor_method`` value marking the constructor task.
CREATION_METHOD = "__init__"


@dataclass(frozen=True)
class ActorOptions(OptionsBase):
    """Every per-creation knob of an actor submission.

    The actor-side sibling of :class:`~repro.core.task.TaskOptions`,
    built on the same validate/merge machinery, so ``Cls.options(...)``
    and ``fn.options(...)`` stay symmetric by construction: an option one
    accepts and the other does not is rejected *by name* rather than
    silently dropped.

    ``name``
        Registers the created actor under a runtime-wide name:
        ``Cls.options(name="ps").remote()`` +  ``repro.get_actor("ps")``.
        Creating a second live actor under the same name is an error.
    """

    num_cpus: int = 1
    num_gpus: int = 0
    placement_hint: Optional[NodeID] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        self._check_resources()
        if self.name == "":
            raise ValueError("invalid option name='': actor names must be non-empty")


class _RemoteInstance:
    """Placeholder stored in ``ActorRecord.instance`` when the live Python
    object exists in another *process* (the proc backend pins each actor's
    state to one worker process; the driver's record only tracks that the
    constructor succeeded).  Liveness logic (``mark_dead_on_node``,
    ``instance is None`` checks) treats it like any bound instance."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<actor instance lives in a worker process>"


#: Singleton placeholder for out-of-process actor instances.
REMOTE_INSTANCE = _RemoteInstance()


# ----------------------------------------------------------------------
# Actor table (one per runtime)
# ----------------------------------------------------------------------


@dataclass
class ActorRecord:
    """One actor's row: identity, placement, liveness, and call chain."""

    actor_id: ActorID
    class_name: str
    resources: ResourceRequest
    #: Node chosen at creation time; re-pointed to wherever the
    #: constructor actually ran (placement hints are advisory).
    node_id: Optional[NodeID] = None
    #: The live Python instance; stays None until the constructor task
    #: executes (and forever, if it failed).
    instance: Any = None
    dead: bool = False
    #: Result ref of the most recent submission (creation or method call);
    #: the next call's ordering dependency — on the runtimes that order
    #: by dataflow (:func:`chain_submission`); None on those that do not.
    last_call_ref: Optional[ObjectRef] = None
    #: One function id per method, minted at its first call: what a
    #: runtime keys a method's measured execution time on.
    method_ids: dict = field(default_factory=dict)
    methods_executed: int = 0
    #: Runtime-wide name (``ActorOptions.name``); None for anonymous actors.
    name: Optional[str] = None
    #: The user-facing handle, kept so ``get_actor(name)`` can return an
    #: identical handle (same method surface) as the creating call did.
    handle: Any = None
    #: The actor's tasks in submission order, on the runtimes where that
    #: queue is the actor's order (``proc``/``dist``: set by
    #: ``create_actor``, so every live record there has one); None on
    #: those that order by dataflow.
    lane: Any = field(default=None, repr=False)

    def method_id(self, method_name: str, ids) -> FunctionID:
        """The method's function id, minted from ``ids`` at its first call."""
        function_id = self.method_ids.get(method_name)
        if function_id is None:
            function_id = self.method_ids[method_name] = ids.function_id()
        return function_id

    def call_spec(
        self, method_name: str, function_id: FunctionID, task_id: TaskID,
        return_ids: tuple, submitted_from: Optional[NodeID] = None,
        root_task_id: Any = None, parent_task_id: Any = None,
        args: tuple = (), kwargs: Optional[dict] = None, arg_refs: Any = None,
    ) -> TaskSpec:
        """The spec of one of this actor's tasks, whoever builds it — a
        submission (:func:`build_call_spec`) or a receiver of its wire
        entry (``repro.proc.messages.decode_entry``): named, sized and
        hinted by this record, chained on its previous submission if the
        runtime chains them (``last_call_ref``).  Positional, in
        :class:`TaskSpec` field order, as ``CallTemplate.instantiate``."""
        last = self.last_call_ref
        return TaskSpec(
            task_id, function_id, f"{self.class_name}.{method_name}", None,
            args, {} if kwargs is None else kwargs,
            return_ids[0], return_ids, len(return_ids),  # the returns
            self.resources, None, submitted_from,
            self.node_id, 3,                  # placement hint, replays
            () if last is None else (last,),  # extra_dependencies
            self.actor_id, method_name,
            task_id if root_task_id is None else root_task_id,
            parent_task_id, arg_refs,
        )


class ActorRegistry:
    """The runtime's actor table (including the named-actor index).
    ``control`` is the runtime's control store, told of every actor this
    table marks lost (a table that never marks one — a worker's,
    ``local``'s — has none)."""

    def __init__(self, control: Any = None) -> None:
        self._records: dict[ActorID, ActorRecord] = {}
        self._names: dict[str, ActorID] = {}
        self._control = control

    def __len__(self) -> int:
        return len(self._records)

    def create(
        self,
        actor_id: ActorID,
        class_name: str,
        resources: ResourceRequest,
        node_id: Optional[NodeID],
        name: Optional[str] = None,
    ) -> ActorRecord:
        if name is not None:
            holder = self.by_name(name)
            if holder is not None and not holder.dead:
                raise ValueError(
                    f"actor name {name!r} is already taken by a live "
                    f"{holder.class_name} actor; names must be unique "
                    "per runtime"
                )
        record = ActorRecord(
            actor_id=actor_id,
            class_name=class_name,
            resources=resources,
            node_id=node_id,
            name=name,
        )
        self._records[actor_id] = record
        if name is not None:
            self._names[name] = actor_id
        return record

    def get(self, actor_id: ActorID) -> Optional[ActorRecord]:
        return self._records.get(actor_id)

    def by_name(self, name: str) -> Optional[ActorRecord]:
        actor_id = self._names.get(name)
        return self._records.get(actor_id) if actor_id is not None else None

    def is_dead(self, actor_id: ActorID) -> bool:
        record = self._records.get(actor_id)
        return record is not None and record.dead

    def mark_dead_on_node(self, node_id: NodeID) -> list[ActorRecord]:
        """Node failure: kill every actor whose *constructed* state lived
        there.  Actors whose constructor has not run yet survive — their
        creation task is stateless and will be recovered elsewhere by the
        ordinary failure machinery."""
        lost = []
        for record in sorted(self._records.values(), key=lambda r: r.actor_id.hex):
            if record.node_id == node_id and record.instance is not None and not record.dead:
                self.mark_lost(record)
                lost.append(record)
        return lost

    def mark_lost(self, record: ActorRecord) -> None:
        """The one way an actor dies: its state is gone for good, and its
        control-store row says so (synchronously, so no reader of the
        store sees it alive after a call has failed with
        :class:`~repro.errors.ActorLostError`)."""
        record.dead = True
        record.instance = None
        if self._control is not None:
            self._control.actor_update(
                record.actor_id, state="dead", node=record.node_id
            )

    def on_node(self, node_id: NodeID) -> list[ActorRecord]:
        return [r for r in self._records.values() if r.node_id == node_id]


# ----------------------------------------------------------------------
# Submission-side spec building
# ----------------------------------------------------------------------


def build_creation_spec(
    ids,
    actor_id: ActorID,
    actor_class: type,
    class_name: str,
    args: tuple,
    kwargs: dict,
    resources: ResourceRequest,
    submitted_from: Optional[NodeID],
    placement_hint: Optional[NodeID] = None,
) -> TaskSpec:
    """The constructor task for a new actor."""
    return TaskSpec(
        task_id=ids.task_id(),
        function_id=ids.function_id(),
        function_name=f"{class_name}.{CREATION_METHOD}",
        function=actor_class,
        args=tuple(args),
        kwargs=dict(kwargs),
        return_object_id=ids.object_id(),
        resources=resources,
        submitted_from=submitted_from,
        placement_hint=placement_hint,
        actor_id=actor_id,
        actor_method=CREATION_METHOD,
    )


def build_call_spec(
    ids,
    record: ActorRecord,
    method_name: str,
    args: tuple,
    kwargs: dict,
    submitted_from: Optional[NodeID],
    num_returns: int = 1,
) -> TaskSpec:
    """One method-call task, built by its actor's record
    (:meth:`ActorRecord.call_spec`) from fresh ids: the method's on its
    first call, then the return ids, then the task's.

    ``num_returns=k`` allocates k return objects exactly like stateless
    multi-return tasks: the method must return a sequence of k values,
    each stored under its own ref.  The serving plane's micro-batcher is
    built on this — one vectorized invocation fans back out into one ref
    per coalesced call.  Chaining stays on the primary (first) ref, so
    the actor's total order is unaffected by how many refs a call has.
    """
    function_id = record.method_id(method_name, ids)
    return_ids = tuple([ids.object_id() for _ in range(num_returns)])
    return record.call_spec(
        method_name, function_id, ids.task_id(), return_ids, submitted_from,
        args=tuple(args), kwargs=dict(kwargs),
    )


def chain_submission(record: ActorRecord, spec: TaskSpec) -> None:
    """Advance the actor's call chain: the next call depends on this one."""
    record.last_call_ref = spec.result_ref()


# ----------------------------------------------------------------------
# The actor path (bound as a method by every backend)
# ----------------------------------------------------------------------


def create_actor(
    runtime,
    actor_class: type,
    class_name: str,
    args: tuple,
    kwargs: dict,
    resources: ResourceRequest,
    placement_hint: Optional[NodeID] = None,
    name: Optional[str] = None,
) -> "ActorHandle":
    """Create a stateful actor; returns its handle immediately.

    The actor's home is chosen *now* (``runtime._actor_home``), and the
    constructor task and every method call carry it as their placement
    hint.  ``name`` registers the actor for :func:`get_actor` lookup
    (collisions with a live holder raise).
    """
    runtime._check_open()
    check_cluster_feasible(
        runtime.cluster, resources, f"{class_name}.{CREATION_METHOD}"
    )
    with runtime._lifecycle_guard():
        actor_id = runtime.ids.actor_id()
        spec = build_creation_spec(
            runtime.ids, actor_id, actor_class, class_name, args, kwargs,
            resources, runtime._current_node_id(), placement_hint,
        )
        node_id = spec.placement_hint = runtime._actor_home(spec)
        record = runtime.actors.create(
            actor_id, class_name, resources, node_id, name=name
        )
        record.handle = handle_for(record, actor_class)
        runtime._control.actor_register(
            actor_id,
            spec={"class_name": class_name, "resources": resources},
            name=name,
            node=node_id,
        )
        runtime._submit_actor_task(record, spec)
    return record.handle


def call_actor(
    runtime,
    actor_id: ActorID,
    method_name: str,
    args: tuple,
    kwargs: dict,
    num_returns: int = 1,
) -> Any:
    """Submit one actor method invocation — built, counted in the
    actor's control-store row and submitted in the actor's order — and
    return its future (a tuple of ``num_returns`` futures when more than
    one).  No per-actor lock exists: the backend's order keeps one
    actor's methods from interleaving."""
    runtime._check_open()
    with runtime._lifecycle_guard():
        record = runtime.actors.get(actor_id)
        if record is None:
            raise BackendError(f"unknown actor {actor_id}")
        spec = build_call_spec(
            runtime.ids, record, method_name, args, kwargs,
            runtime._current_node_id(), num_returns,
        )
        runtime._control.actor_update(actor_id, method_inc=True)
        runtime._submit_actor_task(record, spec)
    return spec.public_result()


def get_actor(runtime, name: str) -> "ActorHandle":
    """Look up a live named actor's handle.

    Raises :class:`ValueError` for unknown names and
    :class:`~repro.errors.ActorLostError` when the named actor's state
    died with its node, with identical text on every backend.
    """
    runtime._check_open()
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"get_actor expects a non-empty actor name, got {name!r}"
        )
    with runtime._lifecycle_guard():
        record = runtime.actors.by_name(name)
    if record is None:
        raise ValueError(
            f"no actor named {name!r}; names are assigned at creation via "
            "Cls.options(name=...).remote()"
        )
    if record.dead:
        raise ActorLostError(
            record.actor_id, record.class_name,
            f"the actor named {name!r} was lost and cannot be looked up",
        )
    return record.handle


# ----------------------------------------------------------------------
# Execution-side resolution (shared by every backend's workers)
# ----------------------------------------------------------------------


def actor_lost_error_value(spec, record: ActorRecord):
    """The stored result for a call whose actor died (kind-tagged so
    ``get`` raises ActorLostError, not a generic TaskError)."""
    from repro.core.worker import ErrorValue

    return ErrorValue(
        task_id=spec.task_id,
        function_name=spec.function_name,
        cause_repr="actor state lost in a node failure",
        chain=(spec.function_name,),
        kind="actor_lost",
        actor_id=record.actor_id,
    )


def resolve_actor_callable(registry: ActorRegistry, spec):
    """Map an actor task spec to the callable to run.

    Returns ``(callable, record, error_value)`` — exactly one of
    ``callable``/``error_value`` is non-None.  For creation tasks the
    callable is the class itself; the caller must pass the constructed
    instance to :func:`register_instance`.
    """
    from repro.core.worker import ErrorValue

    record = registry.get(spec.actor_id)
    if record is None:
        return None, None, ErrorValue(
            task_id=spec.task_id,
            function_name=spec.function_name,
            cause_repr=f"unknown actor {spec.actor_id}",
            chain=(spec.function_name,),
        )
    if record.dead:
        return None, record, actor_lost_error_value(spec, record)
    if spec.actor_method == CREATION_METHOD:
        return spec.function, record, None
    if record.instance is None:
        return None, record, ErrorValue(
            task_id=spec.task_id,
            function_name=spec.function_name,
            cause_repr=(
                f"actor {record.class_name} has no live instance "
                "(its constructor failed or was lost)"
            ),
            chain=(spec.function_name,),
        )
    method = getattr(record.instance, spec.actor_method, None)
    if method is None or not callable(method):
        return None, record, ErrorValue(
            task_id=spec.task_id,
            function_name=spec.function_name,
            cause_repr=(
                f"actor {record.class_name} has no method {spec.actor_method!r}"
            ),
            chain=(spec.function_name,),
        )
    return method, record, None


def register_instance(record: ActorRecord, instance: Any, node_id: NodeID) -> None:
    """The constructor ran: bind the live instance to its actual node."""
    record.instance = instance
    record.node_id = node_id


# ----------------------------------------------------------------------
# API front end: @remote on a class
# ----------------------------------------------------------------------


def public_methods(cls: type) -> tuple[str, ...]:
    """Names a handle exposes: public callables defined on the class."""
    names = []
    for name, value in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if callable(value):
            names.append(name)
    return tuple(names)


class ActorMethod:
    """One bound method slot on a handle; ``.remote(...)`` submits a call."""

    def __init__(
        self, handle: "ActorHandle", method_name: str, num_returns: int = 1
    ) -> None:
        self._handle = handle
        self._method_name = method_name
        self._num_returns = num_returns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActorMethod({self._handle.class_name}.{self._method_name})"

    def options(self, num_returns: int = 1) -> "ActorMethod":
        """Per-call override, mirroring ``fn.options(...)``:
        ``handle.method.options(num_returns=k).remote(...)`` makes the
        call return a tuple of k independently consumable refs (the
        method must return a sequence of k values).  Checked here, before
        any runtime is reached: a call made inside a task gets its ids
        where it is made."""
        if not isinstance(num_returns, int) or num_returns < 1:
            raise ValueError(
                f"invalid num_returns={num_returns!r} for actor call "
                f"{self._handle.class_name}.{self._method_name}: must be an int >= 1"
            )
        return ActorMethod(self._handle, self._method_name, num_returns)

    def remote(self, *args: Any, **kwargs: Any):
        """Submit one method invocation; returns its future immediately
        (a tuple of futures under ``options(num_returns=k)``)."""
        from repro.api import runtime_context

        runtime = runtime_context.get_runtime()
        return runtime.call_actor(
            self._handle.actor_id, self._method_name, args, kwargs,
            num_returns=self._num_returns,
        )


@dataclass(frozen=True)
class ActorHandle:
    """A serializable reference to a live actor.

    Handles hold no runtime state — call ordering lives in the runtime's
    actor table — so copies (including pickled ones crossing task
    boundaries) all feed the same totally-ordered call chain.
    """

    actor_id: ActorID
    class_name: str
    method_names: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActorHandle({self.class_name}, {self.actor_id})"

    def __getattr__(self, name: str) -> ActorMethod:
        # Only reached when normal attribute lookup fails; anything not a
        # declared public method (including pickle's dunder probes) must
        # raise AttributeError, not fabricate a method.  Fields are read
        # through __dict__ because during unpickling this runs *before*
        # the instance state exists — touching self.class_name here would
        # recurse straight back into __getattr__.
        fields = object.__getattribute__(self, "__dict__")
        if name.startswith("_") or name not in fields.get("method_names", ()):
            raise AttributeError(
                f"actor {fields.get('class_name', '<unpickling>')!r} has no "
                f"remote method {name!r}"
            )
        return ActorMethod(self, name)


class ActorClass:
    """A class designated as an actor factory (``@remote`` on a class).

    ``.remote(*args)`` creates one actor instance somewhere on the
    cluster and returns an :class:`ActorHandle` immediately;
    ``.options(...)`` returns a copy with overridden
    :class:`ActorOptions` without mutating this factory, mirroring
    :class:`~repro.api.remote_function.RemoteFunction` (both are thin
    wrappers over the same options machinery).
    """

    def __init__(
        self,
        cls: type,
        options: Optional[ActorOptions] = None,
        **overrides: Any,
    ) -> None:
        if not inspect.isclass(cls):
            raise TypeError(f"ActorClass expects a class, got {type(cls).__name__}")
        self._cls = cls
        self._options = (options or ActorOptions()).merged(**overrides)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActorClass({self.name})"

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError(
            f"actor class {self.name!r} cannot be instantiated directly; "
            f"use {self.name}.remote(...) (or .local(...) for an in-process "
            "instance)"
        )

    def local(self, *args: Any, **kwargs: Any) -> Any:
        """Construct a plain in-process instance (tests, baselines)."""
        return self._cls(*args, **kwargs)

    @property
    def cls(self) -> type:
        return self._cls

    @property
    def name(self) -> str:
        return self._cls.__name__

    @property
    def creation_options(self) -> ActorOptions:
        return self._options

    @property
    def resources(self) -> ResourceRequest:
        return self._options.resources

    @property
    def placement_hint(self) -> Any:
        return self._options.placement_hint

    def options(self, **overrides: Any) -> "ActorClass":
        """A copy of this factory with overridden creation options.

        Overrides compose left-to-right and validate exactly like
        ``RemoteFunction.options``; unknown or invalid options raise an
        error naming the offending option.
        """
        return ActorClass(self._cls, self._options.merged(**overrides))

    def remote(self, *args: Any, **kwargs: Any) -> ActorHandle:
        """Create one actor; returns its handle immediately (non-blocking)."""
        from repro.api import runtime_context

        runtime = runtime_context.get_runtime()
        return runtime.create_actor(
            actor_class=self._cls,
            class_name=self.name,
            args=args,
            kwargs=kwargs,
            resources=self._options.resources,
            placement_hint=self._options.placement_hint,
            name=self._options.name,
        )


def handle_for(record: ActorRecord, cls: type) -> ActorHandle:
    """Build the user-facing handle for a freshly created actor."""
    return ActorHandle(
        actor_id=record.actor_id,
        class_name=record.class_name,
        method_names=public_methods(cls),
    )


def create_from_effect(runtime, effect) -> ActorHandle:
    """Serve an ``ActorCreate`` effect against ``runtime``."""
    factory = effect.actor_class
    if not isinstance(factory, ActorClass):
        factory = ActorClass(factory)
    return runtime.create_actor(
        actor_class=factory.cls,
        class_name=factory.name,
        args=tuple(effect.args),
        kwargs=dict(effect.kwargs),
        resources=factory.resources,
        placement_hint=factory.placement_hint,
        name=factory.creation_options.name,
    )


def call_from_effect(runtime, effect) -> ObjectRef:
    """Serve an ``ActorCall`` effect against ``runtime``."""
    return runtime.call_actor(
        effect.handle.actor_id,
        effect.method_name,
        tuple(effect.args),
        dict(effect.kwargs),
    )
