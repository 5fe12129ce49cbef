"""repro — reproduction of "Real-Time Machine Learning: The Missing Pieces"
(Nishihara, Moritz, et al., HotOS 2017), the vision paper that became Ray.

A distributed execution framework for real-time ML: a futures API
(``remote`` / ``get`` / ``wait``) plus stateful actors over a
hybrid-scheduled, centrally coordinated cluster — available as a
deterministic discrete-event *simulated* cluster (``backend="sim"``), a
real threaded runtime (``backend="local"``), a real *multiprocess*
runtime with true parallelism and crash recovery (``backend="proc"``),
and that runtime's workers spread over node agents on TCP
(``backend="dist"``).  All are implementations of one backend protocol
(:mod:`repro.core.backend`), so every program runs unchanged on any.

Quickstart::

    import repro

    repro.init(backend="sim", num_nodes=4, num_cpus=8)

    @repro.remote
    def square(x):
        return x * x

    @repro.remote
    class Counter:
        def __init__(self):
            self.value = 0

        def add(self, delta):
            self.value += delta
            return self.value

    refs = [square.remote(i) for i in range(10)]
    print(repro.get(refs))

    counter = Counter.remote()
    counter.add.remote(2)
    print(repro.get(counter.add.remote(3)))   # 5 — calls run in order
    repro.shutdown()
"""

from repro.api import (
    ActorClass,
    ActorHandle,
    ActorOptions,
    ActorPool,
    RemoteFunction,
    TaskOptions,
    as_completed,
    cancel,
    get,
    get_actor,
    get_async,
    get_runtime,
    init,
    is_initialized,
    now,
    put,
    remote,
    shutdown,
    sleep,
    timeline,
    trace_report,
    wait,
)
from repro.core.effects import (
    ActorCall,
    ActorCreate,
    Cancel,
    Compute,
    Get,
    Put,
    Wait,
)
from repro.core.object_ref import ObjectRef
from repro.errors import (
    ActorLostError,
    BackendError,
    Backpressure,
    GetTimeoutError,
    NodeLostError,
    ObjectLostError,
    ReproError,
    SchedulingError,
    TaskCancelledError,
    TaskError,
    WorkerCrashedError,
)

__version__ = "0.3.0"

__all__ = [
    "init",
    "shutdown",
    "is_initialized",
    "get_runtime",
    "remote",
    "RemoteFunction",
    "TaskOptions",
    "ActorOptions",
    "ActorClass",
    "ActorHandle",
    "ActorPool",
    "get",
    "get_async",
    "wait",
    "put",
    "cancel",
    "get_actor",
    "as_completed",
    "sleep",
    "now",
    "timeline",
    "trace_report",
    "ObjectRef",
    "Compute",
    "Get",
    "Put",
    "Wait",
    "Cancel",
    "ActorCreate",
    "ActorCall",
    "ReproError",
    "TaskError",
    "BackendError",
    "ObjectLostError",
    "SchedulingError",
    "GetTimeoutError",
    "TaskCancelledError",
    "ActorLostError",
    "WorkerCrashedError",
    "NodeLostError",
    "Backpressure",
    "__version__",
]
