"""Exception hierarchy for the framework.

Errors raised inside remote tasks are captured, stored in the object store
in place of the task's return value, and re-raised at ``get`` time wrapped
in :class:`TaskError` — the error-diagnosis half of requirement R7.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all framework errors."""


class BackendError(ReproError):
    """Misuse of the runtime lifecycle (init/shutdown ordering, etc.)."""


class TaskError(ReproError):
    """A remote task raised an exception.

    Attributes
    ----------
    task_id:
        The failing task, for lineage lookup in the event log.
    function_name:
        Human-readable name of the remote function.
    cause_repr:
        ``repr`` of the original exception (the original object may not be
        serializable, so we always keep its repr and traceback text).
    traceback_text:
        Formatted traceback captured in the worker.
    """

    def __init__(self, task_id, function_name: str, cause_repr: str, traceback_text: str = "") -> None:
        self.task_id = task_id
        self.function_name = function_name
        self.cause_repr = cause_repr
        self.traceback_text = traceback_text
        super().__init__(
            f"task {task_id} ({function_name}) failed: {cause_repr}"
        )


class ObjectLostError(ReproError):
    """An object's every replica was lost and reconstruction is disabled."""


class GetTimeoutError(ReproError):
    """A blocking ``get`` exceeded its timeout."""


class SchedulingError(ReproError):
    """A task can never be scheduled (e.g. requests more GPUs than any node has)."""


class TaskCancelledError(ReproError):
    """The task producing this object was cancelled via ``repro.cancel``.

    Raised at ``get`` time for the cancelled task's own return refs and —
    because cancellation propagates through the dataflow graph exactly
    like an ordinary task failure — for every downstream task that
    consumed one of them.  A task cancelled before it was scheduled never
    executes at all; a task cancelled while running keeps running (its
    side effects are not undone) but its result is discarded and replaced
    by this error.

    Attributes
    ----------
    task_id / function_name:
        The task that was cancelled (the origin, for refs downstream).
    detail:
        Human-readable context (e.g. whether it ever started).
    """

    def __init__(self, task_id=None, function_name: str = "", detail: str = "") -> None:
        self.task_id = task_id
        self.function_name = function_name
        self.detail = detail
        message = "task was cancelled"
        if function_name:
            message = f"task {task_id} ({function_name}) was cancelled"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class WorkerCrashedError(ReproError):
    """The worker executing a task died before finishing.

    On the ``proc`` backend a crashed worker *process* first triggers
    lineage replay for the stateless task it was running (the task spec is
    resubmitted to a surviving or replacement worker, up to the task's
    ``max_reconstructions``); this error surfaces at ``get`` time only when
    the replay budget is exhausted (at the first crash of a task with
    ``max_reconstructions=0``).

    Attributes
    ----------
    task_id / function_name:
        The task that was in flight when the worker died.
    detail:
        Human-readable context (crash policy, replay attempts).
    """

    def __init__(self, task_id=None, function_name: str = "", detail: str = "") -> None:
        self.task_id = task_id
        self.function_name = function_name
        self.detail = detail
        message = "worker crashed"
        if function_name:
            message = f"worker crashed while executing task {task_id} ({function_name})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class ActorLostError(ReproError):
    """The node hosting an actor died; its state is gone.

    Raised at ``get`` time for every method call placed on the dead actor
    — pending calls orphaned by the failure and any call submitted after
    it.  Unlike stateless tasks, actor methods cannot be transparently
    re-executed by lineage replay: their results depend on state that died
    with the node (Section 3.2.1's recovery story covers only stateless
    components).
    """

    def __init__(self, actor_id, class_name: str, detail: str = "") -> None:
        self.actor_id = actor_id
        self.class_name = class_name
        message = f"actor {actor_id} ({class_name}) was lost to a node failure"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class NodeLostError(ReproError):
    """A whole node (its agent and every worker on it) was lost.

    The ``dist`` backend's node-level analogue of
    :class:`WorkerCrashedError`: raised at ``get`` time for objects that
    were resident only on the dead node when replay could not rebuild
    them — the producing task's lineage-replay budget was exhausted, or
    the object was a ``put`` with no producing task to replay.  Stateless
    tasks lost with the node are otherwise transparently re-executed on
    the survivors, and actor state lost with it surfaces as
    :class:`ActorLostError`, exactly as for a single crashed worker.

    Attributes
    ----------
    node_index:
        Index of the lost node within the cluster (``kill_node`` order).
    detail:
        Human-readable context (what was lost, why replay was off).
    """

    def __init__(self, node_index=None, detail: str = "") -> None:
        self.node_index = node_index
        self.detail = detail
        message = "node was lost"
        if node_index is not None:
            message = f"node {node_index} was lost with all its workers"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class Backpressure(ReproError):
    """Admission control rejected a serving-plane submission.

    Raised by :meth:`repro.serve.ActorPool.submit` when the pool's
    in-flight depth is at ``max_queue_depth`` and the admission policy is
    ``"shed"`` — the serving plane's explicit load-shedding signal.  The
    caller owns the retry decision; nothing was enqueued and nothing will
    complete for the rejected call.
    """

    def __init__(self, detail: str = "") -> None:
        message = "serving queue full: submission shed by admission control"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
