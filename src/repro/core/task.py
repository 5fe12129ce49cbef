"""Task specifications: the unit of remote execution and of lineage.

A :class:`TaskSpec` is everything the system needs to run a task — and,
because the control plane's task table stores specs durably, everything it
needs to *re*-run the task during lineage replay after a failure (R6).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.object_ref import ObjectRef
from repro.core.protocol import check_cluster_feasible
from repro.utils.ids import FunctionID, NodeID, ObjectID, TaskID


class TaskState:
    """Lifecycle states recorded in the task table."""

    SUBMITTED = "submitted"
    WAITING = "waiting"      # dependencies not yet produced
    QUEUED = "queued"        # runnable, waiting for resources on a node
    SPILLED = "spilled"      # handed to a global scheduler
    ASSIGNED = "assigned"    # placed on a node by a global scheduler
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    LOST = "lost"            # was on a node that died; awaiting resubmit
    CANCELLED = "cancelled"  # repro.cancel() won the race with execution

    ALL = (SUBMITTED, WAITING, QUEUED, SPILLED, ASSIGNED, RUNNING,
           FINISHED, FAILED, LOST, CANCELLED)
    #: States in which a node failure orphans the task.
    PENDING = (SUBMITTED, WAITING, QUEUED, ASSIGNED, RUNNING)


@dataclass(frozen=True)
class ResourceRequest:
    """Resources a task occupies while running (R4: heterogeneous tasks)."""

    num_cpus: int = 1
    num_gpus: int = 0

    def __post_init__(self) -> None:
        if self.num_cpus < 0 or self.num_gpus < 0:
            raise ValueError("resource requests must be non-negative")
        if self.num_cpus == 0 and self.num_gpus == 0:
            raise ValueError("task must request at least one CPU or GPU")

    def fits(self, available_cpus: int, available_gpus: int) -> bool:
        return self.num_cpus <= available_cpus and self.num_gpus <= available_gpus

    def fits_node(self, num_cpus: int, num_gpus: int) -> bool:
        """Whether any amount of waiting could run this task on such a node."""
        return self.num_cpus <= num_cpus and self.num_gpus <= num_gpus


class OptionsBase:
    """Shared validate/merge machinery for the frozen options dataclasses.

    Every submission surface — ``@remote(...)`` and ``.options(...)``,
    on functions *and* actor classes — goes through exactly this path,
    so the accepted option sets cannot drift between surfaces and every
    rejection names the offending option.
    """

    def merged(self, **overrides: Any):
        """A copy with ``overrides`` applied (left-to-right composition).

        Unknown option names raise :class:`TypeError` naming the option
        and the valid set; invalid values raise :class:`ValueError` from
        the dataclass's own validation.
        """
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise TypeError(
                f"unknown option(s) {unknown} for {type(self).__name__}; "
                f"valid options: {sorted(valid)}"
            )
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)

    def _check_resources(self) -> None:
        if not isinstance(self.num_cpus, int) or self.num_cpus < 0:
            raise ValueError(
                f"invalid option num_cpus={self.num_cpus!r}: "
                "must be a non-negative integer"
            )
        if not isinstance(self.num_gpus, int) or self.num_gpus < 0:
            raise ValueError(
                f"invalid option num_gpus={self.num_gpus!r}: "
                "must be a non-negative integer"
            )
        if self.num_cpus == 0 and self.num_gpus == 0:
            raise ValueError(
                "invalid options num_cpus=0, num_gpus=0: a task must "
                "request at least one CPU or GPU"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(
                f"invalid option name={self.name!r}: must be a string or None"
            )

    @property
    def resources(self) -> ResourceRequest:
        return ResourceRequest(num_cpus=self.num_cpus, num_gpus=self.num_gpus)


@dataclass(frozen=True)
class TaskOptions(OptionsBase):
    """Every per-invocation knob of a stateless task submission.

    One frozen value object carries the whole configuration from the
    ``@remote`` decorator through ``.options(...)`` overrides down to
    the :class:`CallTemplate` a backend stamps specs from.

    ``name``
        Display-name override recorded as the spec's ``function_name``.
    ``num_returns``
        Number of return objects: ``k > 1`` makes ``.remote()`` return a
        tuple of ``k`` refs, each independently gettable/waitable.
    """

    num_cpus: int = 1
    num_gpus: int = 0
    duration: Any = None
    placement_hint: Optional[NodeID] = None
    max_reconstructions: int = 3
    name: Optional[str] = None
    num_returns: int = 1

    def __post_init__(self) -> None:
        self._check_resources()
        if not isinstance(self.max_reconstructions, int) or self.max_reconstructions < 0:
            raise ValueError(
                f"invalid option max_reconstructions={self.max_reconstructions!r}: "
                "must be a non-negative integer"
            )
        if not isinstance(self.num_returns, int) or self.num_returns < 1:
            raise ValueError(
                f"invalid option num_returns={self.num_returns!r}: "
                "must be an integer >= 1"
            )
        if (
            self.duration is not None
            and not callable(self.duration)
            and not isinstance(self.duration, (int, float))
        ):
            raise ValueError(
                f"invalid option duration={self.duration!r}: must be None, "
                "a number of seconds, or a callable (rng, args) -> float"
            )


@dataclass
class TaskSpec:
    """One remote function invocation.

    ``function`` is the actual Python callable.  (The paper's prototype
    ships pickled functions through the function table; we store the
    callable in the in-process function registry and charge the table
    costs, which preserves timing without double-serializing code.)

    ``duration`` models the task's virtual compute time on the simulated
    cluster: ``None`` (free), a float (seconds), or a callable
    ``(rng, args) -> float`` sampled per attempt.  On the threaded backend
    durations are real and this field is ignored.
    """

    task_id: TaskID
    function_id: FunctionID
    function_name: str
    function: Optional[Callable] = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    return_object_id: Optional[ObjectID] = None
    #: All return objects, in position order (``num_returns=k`` tasks have
    #: k of them; ``return_object_id`` stays the first, the primary object
    #: used for actor chaining and liveness checks).  Empty means "just
    #: the primary" for specs built before multi-return existed.
    return_object_ids: tuple = ()
    num_returns: int = 1
    resources: ResourceRequest = field(default_factory=ResourceRequest)
    duration: Any = None
    #: Node the submitter was on (for locality bookkeeping / debugging).
    submitted_from: Optional[NodeID] = None
    #: Test/bench hook: force placement on a specific node via spillover.
    placement_hint: Optional[NodeID] = None
    #: How many times the object may be rebuilt via lineage replay.
    max_reconstructions: int = 3
    #: Ordering-only dependencies: awaited before the task becomes
    #: runnable but never resolved into argument values.  Actor method
    #: calls chain on the previous call's result ref through this field,
    #: which is what serializes an actor's methods on every backend.
    extra_dependencies: tuple = ()
    #: Set for actor tasks: the actor this task belongs to and the method
    #: it runs (``actors.CREATION_METHOD`` for the constructor, whose
    #: ``function`` field holds the class itself).
    actor_id: Optional[Any] = None
    actor_method: Optional[str] = None
    #: Trace context (the tracing plane's span tree): the driver-born
    #: task this one transitively descends from, and the immediate
    #: submitting task.  ``build_task_spec`` roots a task with no
    #: inherited context at itself; ``parent_task_id`` stays None for
    #: driver-born tasks.
    root_task_id: Optional[Any] = None
    parent_task_id: Optional[Any] = None
    #: The top-level :class:`ObjectRef` arguments, found by one scan of
    #: ``args``/``kwargs`` — at submission for a templated call, else on
    #: first use (None: not scanned yet).  Dependency gating, placement
    #: and wire encoding all read this instead of re-scanning.
    arg_refs: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: The option set the call was submitted under when it is not the
    #: default one (``duration`` stripped): what crosses the wire so a
    #: peer can rebuild the call's template.  The flattened fields above
    #: are what the runtimes read.
    options: Optional[TaskOptions] = field(default=None, repr=False, compare=False)
    #: Object ids this task keeps alive (its dependencies, pinned by a
    #: runtime that releases dead objects) until no replay of it can
    #: need them; empty once unpinned, and on runtimes that never free.
    pins: tuple = field(default=(), repr=False, compare=False)
    #: The task's wire entry on ``proc``/``dist``
    #: (:func:`repro.proc.messages.encode_entry`), built once by the
    #: process that submitted it: what the driver ships, reships and
    #: records as lineage.  None elsewhere.
    wire: Optional[tuple] = field(default=None, repr=False, compare=False)

    def dependencies(self) -> list[ObjectID]:
        """Object IDs gating this task (argument futures + ordering deps)."""
        return [ref.object_id for ref in self.dependency_refs()]

    def dependency_refs(self) -> list[ObjectRef]:
        return [*self.argument_refs(), *self.extra_dependencies]

    def argument_refs(self) -> tuple:
        """The top-level ref arguments (scanned at most once)."""
        refs = self.arg_refs
        if refs is None:
            refs = self.arg_refs = scan_arg_refs(self.args, self.kwargs)
        return refs

    def sample_duration(self, rng) -> float:
        """Resolve the duration model for one execution attempt."""
        if self.duration is None:
            return 0.0
        if callable(self.duration):
            value = self.duration(rng, self.args)
        else:
            value = float(self.duration)
        if value < 0:
            raise ValueError(f"negative task duration {value} for {self.function_name}")
        return value

    def result_ref(self) -> ObjectRef:
        """The future for this task's (primary) return value."""
        if self.return_object_id is None:
            raise ValueError("task spec has no return object id")
        return ObjectRef(self.return_object_id, producer_task=self.task_id)

    def all_return_ids(self) -> tuple:
        """Every return object id, in position order."""
        if self.return_object_ids:
            return self.return_object_ids
        if self.return_object_id is None:
            return ()
        return (self.return_object_id,)

    def result_refs(self) -> tuple:
        """Futures for all return values, in position order."""
        return tuple(
            ObjectRef(object_id, producer_task=self.task_id)
            for object_id in self.all_return_ids()
        )

    def public_result(self):
        """What ``.remote()`` hands back: one ref, or a tuple of k refs."""
        if self.num_returns == 1:
            return ObjectRef(self.return_object_id, self.task_id)
        return self.result_refs()


def scan_arg_refs(args: tuple, kwargs: dict) -> tuple:
    """The top-level :class:`ObjectRef` arguments of one call, in order."""
    refs = [value for value in args if isinstance(value, ObjectRef)]
    if kwargs:
        refs += [value for value in kwargs.values() if isinstance(value, ObjectRef)]
    return tuple(refs)


class CallTemplate:
    """Everything about a submission that is the same for every call.

    One template stands for one remote function under one resolved
    option set: function id and display name, the validated
    :class:`TaskOptions`, the resources they request (with the verdict
    of the cluster-feasibility check once a runtime has made it), the
    number of returns and the replay budget.  ``RemoteFunction`` builds
    one per runtime and reuses it for every ``.remote()``; a call then
    costs its arguments and two fresh ids, not a re-validation and a
    twenty-argument constructor.

    :meth:`stamp` is the submitting side (allocates ids, scans the
    arguments once); :meth:`instantiate` is the receiving side of the
    wire, where the ids arrive in the message.
    """

    __slots__ = (
        "function", "function_id", "function_name", "options", "resources",
        "feasible", "wire_options",
    )

    def __init__(
        self,
        function: Optional[Callable],
        function_id: FunctionID,
        function_name: str,
        options: TaskOptions,
    ) -> None:
        self.function = function
        self.function_id = function_id
        #: The display name: ``options.name`` overrides the function's own.
        self.function_name = options.name or function_name
        self.options = options
        self.resources = options.resources
        #: Whether a runtime already checked ``resources`` against its
        #: cluster (see :meth:`check_feasible`).
        self.feasible = False
        #: ``TaskSpec.options`` of every call: None for the default
        #: option set (``duration`` is a sim-only concept and may be a
        #: closure, so it never crosses the wire).
        self.wire_options = (
            None if options == _DEFAULT_OPTIONS else options.merged(duration=None)
        )

    def check_feasible(self, cluster) -> None:
        """Reject a task no node of ``cluster`` could ever run — once per
        template; an infeasible one raises on every call."""
        if not self.feasible:
            check_cluster_feasible(cluster, self.resources, self.function_name)
            self.feasible = True

    def stamp(
        self,
        ids,
        args: tuple,
        kwargs: dict,
        submitted_from: Optional[NodeID] = None,
        root_task_id: Optional[Any] = None,
        parent_task_id: Optional[Any] = None,
    ) -> TaskSpec:
        """The spec of one call: fresh return and task ids (allocated in
        that order) plus the arguments, scanned once for refs.  A task
        submitted outside any running task (``root_task_id=None``) roots
        its own trace: its trace context is its own id."""
        if self.options.num_returns == 1:
            return_ids = (ids.object_id(),)
        else:
            return_ids = tuple(
                ids.object_id() for _ in range(self.options.num_returns)
            )
        if type(args) is not tuple:
            args = tuple(args)
        return self.instantiate(
            ids.task_id(), return_ids, submitted_from, root_task_id,
            parent_task_id, args, kwargs, scan_arg_refs(args, kwargs),
        )

    def instantiate(
        self,
        task_id: TaskID,
        return_ids: tuple,
        submitted_from: Optional[NodeID] = None,
        root_task_id: Optional[Any] = None,
        parent_task_id: Optional[Any] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        arg_refs: Optional[tuple] = None,
    ) -> TaskSpec:
        """A spec with the given ids — and, on the executing and the
        lineage-mirroring side of the wire, no arguments: they never
        read them.  Positional, in :class:`TaskSpec` field order: a third
        of the cost of the keyword call, on the hottest path there is."""
        options = self.options
        return TaskSpec(
            task_id,
            self.function_id,
            self.function_name,
            self.function,
            args,
            {} if kwargs is None else kwargs,
            return_ids[0],                # return_object_id
            return_ids,                   # return_object_ids
            options.num_returns,
            self.resources,
            options.duration,
            submitted_from,
            options.placement_hint,
            options.max_reconstructions,
            (),                           # extra_dependencies
            None,                         # actor_id
            None,                         # actor_method
            root_task_id if root_task_id is not None else task_id,
            parent_task_id,
            arg_refs,
            self.wire_options,            # options
        )


_DEFAULT_OPTIONS = TaskOptions()


def build_task_spec(
    ids,
    *,
    function: Optional[Callable],
    function_id: FunctionID,
    function_name: str,
    args: tuple,
    kwargs: dict,
    options: TaskOptions,
    submitted_from: Optional[NodeID] = None,
    root_task_id: Optional[Any] = None,
    parent_task_id: Optional[Any] = None,
) -> TaskSpec:
    """One spec from explicit arguments: a one-off :class:`CallTemplate`
    stamped once.  Repeated submissions of one function keep the
    template instead (``RemoteFunction`` does)."""
    return CallTemplate(function, function_id, function_name, options).stamp(
        ids, args, dict(kwargs), submitted_from, root_task_id, parent_task_id
    )
