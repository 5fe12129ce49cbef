"""Backend-independent semantics of the submit/get/wait protocol.

Everything here is *policy-free, time-free* logic that must behave
identically on every backend: argument validation for ``get`` and
``wait``, the input-order partition of ``wait``'s result, error-value
unwrapping at ``get`` time, and the static feasibility check at submit
time.  The runtimes supply time and placement; this module supplies the
contract.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.core.object_ref import ObjectRef
from repro.errors import BackendError
from repro.utils.serialization import ByteAccountant, deserialize


def normalize_get_refs(refs: Any) -> tuple[list[ObjectRef], bool]:
    """Validate ``get``'s argument; returns ``(ref_list, single)``.

    ``single`` is True when the caller passed one bare ref (so the result
    should be a scalar, not a one-element list).
    """
    single = isinstance(refs, ObjectRef)
    try:
        ref_list = [refs] if single else list(refs)
    except TypeError:
        raise TypeError(
            f"get expects ObjectRef(s), got {type(refs).__name__}"
        ) from None
    for ref in ref_list:
        if not isinstance(ref, ObjectRef):
            raise TypeError(f"get expects ObjectRef(s), got {type(ref).__name__}")
    return ref_list, single


def validate_wait_args(ref_list: Sequence[ObjectRef], num_returns: int) -> None:
    """The paper's ``wait`` argument contract (Section 3.1, point 5)."""
    if num_returns < 0:
        raise ValueError(f"negative num_returns: {num_returns}")
    if num_returns > len(ref_list):
        raise ValueError(
            f"num_returns={num_returns} exceeds number of refs ({len(ref_list)})"
        )


def partition_by_ready(
    ref_list: Sequence[ObjectRef], is_ready: Callable[[ObjectRef], bool]
) -> tuple[list[ObjectRef], list[ObjectRef]]:
    """Split into ``(ready, pending)`` preserving input order."""
    ready = [ref for ref in ref_list if is_ready(ref)]
    pending = [ref for ref in ref_list if not is_ready(ref)]
    return ready, pending


def unwrap_loaded(value: Any) -> Any:
    """Raise if an already-deserialized stored object is a captured
    error; return it unchanged otherwise.  The zero-copy ``get`` paths
    (shared-memory reads arrive as values, not bytes) share this with
    :func:`unwrap_value`."""
    from repro.core.worker import ErrorValue  # cycle: worker imports effects

    if isinstance(value, ErrorValue):
        raise value.to_exception()
    return value


def unwrap_value(data: bytes) -> Any:
    """Deserialize a stored object; raise if it is a captured error.

    This is the R7 diagnosis path shared by every ``get``: failed tasks
    store an :class:`~repro.core.worker.ErrorValue` in place of their
    result, and the error surfaces wherever the value is consumed.
    """
    return unwrap_loaded(deserialize(data))


def check_cluster_feasible(cluster, resources, function_name: str) -> None:
    """Reject tasks no node could ever run (identical text on all backends)."""
    max_cpus = cluster.max_cpus_per_node()
    max_gpus = cluster.max_gpus_per_node()
    if not resources.fits_node(max_cpus, max_gpus):
        raise BackendError(
            f"task {function_name} requests {resources} but the largest "
            f"node has {max_cpus} CPUs / {max_gpus} GPUs"
        )


#: One node's row of ``stats()["cluster"]["per_node"]``, after its index.
_NODE_KEYS = (
    "alive", "agent_pid", "shm_enabled", "heartbeat_age", "workers_alive",
    "objects_resident", "bytes_resident",
)


def cluster_stats(
    nodes: list,
    workers_per_node: int,
    *,
    nodes_lost: int = 0,
    heartbeat_timeouts: int = 0,
    heartbeat_interval: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
    objects_node_resident: int = 0,
    internode: Optional[dict] = None,
) -> dict:
    """The ``stats()["cluster"]`` section, one key set on every backend,
    so a harness can read it without caring which one is live.

    ``nodes`` holds one ``(alive, agent_pid, shm_enabled, heartbeat_age,
    workers_alive, objects_resident, bytes_resident)`` per node, in node
    order.  The keyword arguments are the membership plane's numbers;
    their defaults describe a backend whose nodes all live on the
    driver's host — no heartbeats, no node can be lost, nothing crosses
    a node boundary (``internode``: a
    :class:`~repro.utils.serialization.ByteAccountant` snapshot)."""
    return {
        "num_nodes": len(nodes),
        "workers_per_node": workers_per_node,
        "nodes_alive": sum(1 for node in nodes if node[0]),
        "nodes_lost": nodes_lost,
        "heartbeat_timeouts": heartbeat_timeouts,
        "heartbeat_interval": heartbeat_interval,
        "heartbeat_timeout": heartbeat_timeout,
        "objects_node_resident": objects_node_resident,
        "internode": (
            ByteAccountant().snapshot() if internode is None else internode
        ),
        "per_node": [
            {"node_index": index, **dict(zip(_NODE_KEYS, node))}
            for index, node in enumerate(nodes)
        ],
    }
