"""Micro-probes: one layer's public function, timed directly on the inputs
the workloads give it (a ``tick`` task message, a 1 MiB float64 array).

Each probe reports the median over chunks of calls, so a timer read costs
1/CHUNK of a call.  Everything runs in this process on one thread unless
the probe is about threads, so scheduling noise stays out of it.
"""

import multiprocessing
import shutil
import socket
import statistics
import tempfile
import threading
import time

import numpy as np

from repro.core.task import TaskOptions, build_task_spec
from repro.gcs import ControlStore
from repro.proc.transport import (
    TcpTransport,
    decode_message,
    encode_message,
    ensure_transport,
)
from repro.sched_plane import (
    LocalTaskQueue,
    SchedCounters,
    WorkerCandidate,
    plan_placement,
)
from repro.scheduling.policies import PlacementPolicy
from repro.shm import SharedObjectStore
from repro.utils.ids import IDGenerator
from repro.utils.serialization import (
    deserialize_frame,
    serialize_buffers,
    serialize_portable,
    write_frame,
)

from perfbench import OUT, fns
from perfbench.workloads import ARRAY_BYTES, ARRAY_LEN

CHUNK = 20


def _median_us(call, calls):
    """Median µs per call over ``calls`` calls; returns ``(us, calls)``."""
    chunks = []
    for _ in range(max(1, calls // CHUNK)):
        start = time.perf_counter()
        for _ in range(CHUNK):
            call()
        chunks.append((time.perf_counter() - start) / CHUNK * 1e6)
    return statistics.median(chunks), len(chunks) * CHUNK


def _spec(ids):
    function = fns.tick.function
    return build_task_spec(
        ids, function=function, function_id=ids.function_id(),
        function_name="tick", args=(7,), kwargs={}, options=TaskOptions(),
    )


def _task_message(spec):
    """The ``(TASK, payload)`` tuple the driver writes for a ``tick`` task,
    rebuilt from public pieces (the runtime's own builder is private)."""
    return ("task", {
        "task_id": spec.task_id,
        "function_id": spec.function_id,
        "function_name": spec.function_name,
        "return_object_id": spec.return_object_id,
        "return_object_ids": spec.return_object_ids,
        "num_returns": spec.num_returns,
        "root_task_id": spec.root_task_id,
        "parent_task_id": spec.parent_task_id,
        "call_bytes": serialize_portable((spec.args, spec.kwargs)),
        "inline": {},
        "function_bytes": serialize_portable(spec.function),
    })


def _roundtrip(near, far, message, calls):
    """One message each way per call, on one thread: the kernel buffers
    hold it, so this is codec + two writes + two reads and no scheduling."""

    def call():
        near.send(message)
        far.send(far.recv())
        near.recv()

    try:
        return _median_us(call, calls)
    finally:
        near.close()
        far.close()


def _tcp_pair():
    with socket.create_server(("127.0.0.1", 0)) as server:
        near = socket.create_connection(server.getsockname())
        far, _ = server.accept()
    for sock in (near, far):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpTransport(near), TcpTransport(far)


def _task_put_us(store, spec, calls):
    """Median µs of one write-ahead ``task_put`` on one thread."""
    ids = IDGenerator(namespace="perfbench/gcs")
    try:
        return _median_us(lambda: store.task_put(ids.task_id(), spec, node="driver"), calls)
    finally:
        store.close()


def _task_put_threads(store, spec, calls, threads):
    """Total ``task_put`` per second with ``threads`` submitters."""
    barrier = threading.Barrier(threads + 1)

    def submitter(index):
        ids = IDGenerator(namespace=f"perfbench/gcs/{index}")
        barrier.wait()
        for _ in range(calls):
            store.task_put(ids.task_id(), spec, node="driver")

    pool = [threading.Thread(target=submitter, args=(i,)) for i in range(threads)]
    try:
        for thread in pool:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in pool:
            thread.join()
        return threads * calls / (time.perf_counter() - start), threads * calls
    finally:
        store.close()


def run(calls=2000):
    """``name -> (value, n)`` for every probe (source P) metric."""
    ids = IDGenerator(namespace="perfbench/probe")
    out = {}
    out["core.build_task_spec_us"] = _median_us(lambda: _spec(ids), calls)

    spec = _spec(ids)
    message = _task_message(spec)
    encoded = encode_message(message)
    out["codec.encode_task_us"] = _median_us(lambda: encode_message(message), calls)
    out["codec.decode_task_us"] = _median_us(lambda: decode_message(encoded), calls)
    out["codec.task_msg_bytes"] = (len(encoded), 1)

    array = np.full(ARRAY_LEN, 3.0)
    serialized = serialize_buffers(array)
    frame = memoryview(bytearray(serialized.frame_bytes))
    us, n = _median_us(lambda: write_frame(frame, serialized), calls // 10)
    out["codec.write_frame_gb_per_s"] = (ARRAY_BYTES / us / 1e3, n)
    out["codec.deserialize_frame_us"] = _median_us(
        lambda: deserialize_frame(frame), calls
    )

    ends = multiprocessing.Pipe()
    out["transport.pipe_roundtrip_us"] = _roundtrip(
        ensure_transport(ends[0]), ensure_transport(ends[1]), message, calls
    )
    out["transport.tcp_roundtrip_us"] = _roundtrip(*_tcp_pair(), message, calls)

    out["gcs.task_put_us"] = _task_put_us(ControlStore(num_shards=8), spec, calls)
    out["gcs.task_put_1shard_us"] = _task_put_us(ControlStore(num_shards=1), spec, calls)
    wal_dir = tempfile.mkdtemp(prefix="wal_", dir=OUT)
    try:
        # every durable put is an fsync: a tenth of the calls is plenty
        out["gcs.task_put_durable_us"] = _task_put_us(
            ControlStore(num_shards=8, wal_dir=wal_dir, wal_sync=True),
            spec, calls // 10,
        )
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    out["gcs.task_put_2thr_ops_per_s"] = _task_put_threads(
        ControlStore(num_shards=8), spec, calls, threads=2
    )

    candidates = [
        WorkerCandidate(ids.node_id(), est_cpus=1, est_gpus=0, queue_length=0),
        WorkerCandidate(ids.node_id(), est_cpus=0, est_gpus=0, queue_length=3),
    ]
    policy, counters = PlacementPolicy(), SchedCounters()
    out["sched_plane.plan_placement_us"] = _median_us(
        lambda: plan_placement(spec, candidates, policy, counters), calls
    )
    queue = LocalTaskQueue()

    def push_pop():
        queue.push(spec.task_id, spec)
        queue.pop_head()

    out["sched_plane.queue_push_pop_us"] = _median_us(push_pop, calls)

    payload = bytes(array.data)
    store = SharedObjectStore(ids.node_id(), capacity=64 << 20, max_clients=2)
    try:
        object_ids = [ids.object_id() for _ in range(40)]
        remaining = iter(object_ids)
        us, n = _median_us(lambda: store.put(next(remaining), payload), len(object_ids))
        out["shm.store_put_gb_per_s"] = (ARRAY_BYTES / us / 1e3, n)
        out["shm.store_get_us"] = _median_us(lambda: store.get(object_ids[0]), calls)
    finally:
        store.shutdown()
    return out
