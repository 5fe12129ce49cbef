"""Call templates: a task costs its arguments, not its metadata.

What a remote function's calls have in common — function id, display
name, resolved options, resources — is resolved once into a
``CallTemplate``, and on the wire backends it crosses once per (worker,
function) in a frame's function table while each task is one compact
positional entry.  These tests pin down the three legs: the submit leg
(one registration per function whatever its option variants, a spec
stamped field-for-field like the keyword constructor would build it, the
dependency-free placement fast path agreeing with ``PlacementPolicy``),
the wire leg (entry size, the function table crossing once and again
after a respawn, every kind of task through the one entry shape with the
observables of ``local``), and that none of it costs the exactly-once
guarantees across a driver restart.
"""

import dataclasses
import os
import pickle
import time

import numpy as np
import pytest

import repro
from repro.core.task import (
    CallTemplate,
    ResourceRequest,
    TaskOptions,
    TaskSpec,
)
from repro.errors import TaskError
from repro.gcs import ControlStore
from repro.gcs.tables import shard_of
from repro.proc import messages as msg
from repro.sched_plane.dispatch import WorkerSlot
from repro.sched_plane.placement import place_without_locality
from repro.proc.transport import encode_message
from repro.sched_plane import LocalTaskQueue, WorkerCandidate
from repro.scheduling.policies import PlacementPolicy
from repro.utils import ids as ids_module
from repro.utils.ids import BaseID, IDGenerator, ObjectID, TaskID

pytestmark = pytest.mark.timeout(180)

WIRE_POOLS = {
    "proc": {"backend": "proc", "num_workers": 1},
    "dist": {"backend": "dist", "num_nodes": 1, "num_cpus": 1},
}


@pytest.fixture(params=tuple(WIRE_POOLS))
def pool(request):
    runtime = repro.init(seed=7, **WIRE_POOLS[request.param])
    yield runtime
    repro.shutdown()


@repro.remote
def tick(x):
    return x + 1


@repro.remote
def combine(a, b=0, *, scale=1):
    return (a + b) * scale


@repro.remote(num_returns=3)
def three(x):
    return x, x + 1, x + 2


@repro.remote
def total(array):
    return float(array.sum())


@repro.remote
def boom():
    raise RuntimeError("bang")


@repro.remote
def fan(n):
    return sum(repro.get([tick.remote(i) for i in range(n)], timeout=60.0))


@repro.remote
class Counter:
    def __init__(self, start):
        self.value = start

    def add(self, amount):
        self.value += amount
        return self.value


@repro.remote
def mark_after_flag(directory, index, flag):
    """Wait for the flag file, then append one line to this task's marker."""
    deadline = time.monotonic() + 60.0
    while not os.path.exists(flag) and time.monotonic() < deadline:
        time.sleep(0.005)
    with open(os.path.join(directory, f"{index}.marker"), "a") as handle:
        handle.write("ran\n")
    return index


@repro.remote
def wait_for_flag(flag):
    while not os.path.exists(flag):
        time.sleep(0.005)
    return 1


@repro.remote
def spawn_marked(directory, count, flag):
    """Worker-born children through the fast path; their refs go back."""
    return [mark_after_flag.remote(directory, 1000 + i, flag) for i in range(count)]


class _Recorder:
    """A worker's transport, remembering the TASK frames sent through it."""

    def __init__(self, conn):
        self._conn = conn
        self.frames = []

    def send(self, message):
        if message[0] == msg.TASK:
            self.frames.append(message)
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _record_frames(runtime, index=0):
    with runtime._cond:
        worker = runtime._workers[index]
        worker.conn = recorder = _Recorder(worker.conn)
    return recorder


# ----------------------------------------------------------------------
# Submit leg
# ----------------------------------------------------------------------


def test_stamp_builds_what_the_keyword_constructor_builds():
    """``CallTemplate.instantiate`` passes TaskSpec's fields by position;
    a reordered or added field must not silently shift them."""
    ids = IDGenerator(namespace="templates")
    options = TaskOptions(
        num_cpus=2, max_reconstructions=1, name="shown", num_returns=2,
        duration=0.5,
    )
    template = CallTemplate(tick.function, ids.function_id(), "tick", options)
    spec = template.stamp(ids, (1, repro.ObjectRef(ids.object_id())), {"k": 2})
    expected = TaskSpec(
        task_id=spec.task_id,
        function_id=template.function_id,
        function_name="shown",
        function=tick.function,
        args=spec.args,
        kwargs={"k": 2},
        return_object_id=spec.return_object_ids[0],
        return_object_ids=spec.return_object_ids,
        num_returns=2,
        resources=ResourceRequest(num_cpus=2),
        duration=0.5,
        max_reconstructions=1,
        root_task_id=spec.task_id,
        arg_refs=(spec.args[1],),
        options=options.merged(duration=None),
    )
    for field in dataclasses.fields(TaskSpec):
        assert getattr(spec, field.name) == getattr(expected, field.name), field.name
    assert len(spec.return_object_ids) == 2
    assert spec.dependencies() == [spec.args[1].object_id]
    # The default option set needs no options on the wire.
    plain = CallTemplate(None, ids.function_id(), "tick", TaskOptions())
    assert plain.stamp(ids, (), {}).options is None


def test_option_variants_share_one_registration():
    """The bug: ``f.options(...)`` used to start from an empty
    registration table, so a loop of ``f.options(name=...).remote()``
    registered (and shipped, and never learned the cost of) a new
    function per call."""
    runtime = repro.init(backend="proc", num_workers=1, seed=3)
    try:
        assert repro.get(tick.options(name="t").remote(0), timeout=60.0) == 1
        registered = len(runtime.functions)
        before = runtime.stats()["sched"]
        refs = [tick.options(name="t").remote(i) for i in range(200)]
        assert repro.get(refs, timeout=60.0) == [i + 1 for i in range(200)]
        after = runtime.stats()["sched"]
        assert len(runtime.functions) == registered
        assert tick.options(name="t") is tick.options(name="t")
        assert tick.options(name="t")._function_id(runtime) == tick._function_id(runtime)
        frames = after["frames_sent"] - before["frames_sent"]
        assert (after["tasks_shipped"] - before["tasks_shipped"]) / frames >= 4
    finally:
        repro.shutdown()


def _handles(table):
    """Worker handles for rows of ``(alive, busy, inflight, queued)``."""
    ids = IDGenerator(namespace="placement")
    handles = []
    for index, (alive, busy, inflight, queued) in enumerate(table):
        handle = WorkerSlot(index=index, node_id=ids.node_id(), alive=alive)
        handle.busy = busy
        handle.inflight = {f"t{i}": None for i in range(inflight)}
        handle.mirror = LocalTaskQueue()
        for i in range(queued):
            handle.placed.append(i)
        handles.append(handle)
    return handles


@pytest.mark.parametrize(
    "table",
    [
        [(True, False, 0, 0), (True, False, 0, 0)],    # all idle: node id decides
        [(True, False, 0, 2), (True, False, 0, 1)],    # shortest queue
        [(True, False, 0, 1), (True, False, 0, 1), (True, False, 0, 0)],
        [(True, True, 0, 0), (True, False, 0, 3)],     # busy loses to a long queue
        [(True, False, 1, 0), (True, False, 0, 5)],    # so does a running task
        [(True, True, 0, 0), (True, False, 2, 0)],     # nobody has capacity
        [(False, False, 0, 0), (True, False, 0, 4)],   # the dead are not candidates
        [(False, False, 0, 0), (False, False, 0, 0)],
        [],
    ],
)
@pytest.mark.parametrize(
    "resources",
    [ResourceRequest(), ResourceRequest(num_cpus=2), ResourceRequest(num_cpus=1, num_gpus=1)],
)
def test_fast_placement_agrees_with_the_policy(table, resources):
    handles = _handles(table)
    spec = TaskSpec(
        task_id=None, function_id=None, function_name="f", resources=resources
    )
    candidates = [
        WorkerCandidate(
            node_id=h.node_id,
            est_cpus=0 if (h.busy or h.inflight) else 1,
            est_gpus=0,
            queue_length=len(h.placed) + len(h.mirror) + len(h.pinned),
        )
        for h in handles
        if h.alive
    ]
    chosen = PlacementPolicy().choose(spec, candidates)
    fast = place_without_locality(handles, resources)
    assert (fast.node_id if fast is not None else None) == chosen


# ----------------------------------------------------------------------
# Ids
# ----------------------------------------------------------------------

ID_TYPES = [
    cls
    for cls in vars(ids_module).values()
    if isinstance(cls, type) and issubclass(cls, BaseID)
]


@pytest.mark.parametrize("cls", ID_TYPES, ids=lambda cls: cls.__name__)
def test_ids_round_trip_and_hash_as_their_hex(cls):
    original = cls.from_seed("call-templates")
    copy = pickle.loads(pickle.dumps(original, protocol=5))
    assert type(copy) is cls and copy == original and copy.hex == original.hex
    assert hash(copy) == hash(original) == hash(original.hex)
    assert {original: 1}[copy] == 1
    for other in ID_TYPES:
        if other is not cls:
            twin = other(original.hex)
            assert twin != original and original != twin
            assert len({original, twin}) == 2
    assert original != original.hex


def test_shard_routing_of_existing_ids_is_unchanged():
    """Ids minted and routed by every earlier release (a WAL written then
    must replay into the same shards now): hex, shard of 8, shard of 3."""
    ids = IDGenerator(namespace="repro-proc/0")
    for expected_hex, of_8, of_3 in (
        ("39a7516a9ce846dee9c5d17694789d262f17e59b", 2, 0),
        ("9bd6a4cba01a1c99de969ba675a12ad8f971ab04", 3, 1),
        ("26d8658d34c94ed53c46383a42e48214b211b9f1", 5, 1),
        ("d612843920378557cc31d7a19797d4489467cff1", 1, 1),
    ):
        task_id = ids.task_id()
        assert task_id == TaskID(expected_hex)
        assert (shard_of(task_id, 8), shard_of(task_id, 3)) == (of_8, of_3)
        assert task_id.shard_index(8) == of_8
        assert shard_of(ObjectID(expected_hex), 8) == of_8
    assert shard_of("generation/1", 8) == 2


# ----------------------------------------------------------------------
# Wire leg
# ----------------------------------------------------------------------


def test_entry_is_compact_and_the_function_crosses_once(pool):
    assert repro.get(tick.remote(0), timeout=60.0) == 1
    function_hex = tick._function_id(pool).hex
    recorder = _record_frames(pool)
    for _ in range(2):
        refs = [tick.remote(i) for i in range(64)]
        assert repro.get(refs, timeout=60.0) == [i + 1 for i in range(64)]
    entries = [entry for frame in recorder.frames for entry in frame[1]]
    assert len(entries) == 128
    for entry in entries:
        assert entry[1] == function_hex
        assert entry[msg.ENTRY_INLINE] is None and entry[5] is None
    # Already sent with the warm-up call: no table names it again.
    assert all(function_hex not in frame[2] for frame in recorder.frames)

    # A 32-entry frame, of entries built by the encoder every task is
    # born with.
    template = tick._templates[pool._repro_epoch]
    with pool._cond:
        specs = [
            template.stamp(pool.ids, (i,), {}, pool.head_node_id)
            for i in range(1 << 30, (1 << 30) + 32)
        ]
    frame = [msg.encode_entry(spec) for spec in specs]
    size = len(encode_message((msg.TASK, frame, {})))
    assert size / 32 <= 130, f"{size / 32:.1f} bytes per entry"


def test_respawned_worker_is_sent_the_function_again(pool):
    assert repro.get(tick.remote(1), timeout=60.0) == 2
    function_hex = tick._function_id(pool).hex
    first = pool._workers[0]
    assert function_hex in first.functions_sent
    pool.kill_worker(0)
    # The crash is noticed at the next dispatch; the task replays on the
    # replacement, which has never seen the function: it can only run it
    # because the table came along again.
    assert repro.get(tick.remote(2), timeout=60.0) == 3
    replacement = pool._workers[0]
    assert replacement is not first and pool.stats()["workers_crashed"] == 1
    assert function_hex in replacement.functions_sent
    recorder = _record_frames(pool)
    assert repro.get(tick.remote(3), timeout=60.0) == 4
    assert [frame[2] for frame in recorder.frames] == [{}]


def _program():
    """One of everything that crosses the wire as an entry."""
    out = {}
    out["kwargs"] = repro.get(combine.remote(2, b=3, scale=4), timeout=60.0)
    out["three"] = repro.get(list(three.remote(5)), timeout=60.0)
    small = repro.put(7)
    out["inline_ref"] = repro.get(combine.remote(small, b=small), timeout=60.0)
    large = repro.put(np.arange(200_000, dtype=np.float64))
    out["large_ref"] = repro.get(total.remote(large), timeout=60.0)
    out["chained"] = repro.get(tick.remote(tick.remote(1)), timeout=60.0)
    named = boom.options(name="renamed_boom", max_reconstructions=0)
    with pytest.raises(TaskError) as err:
        repro.get(named.remote(), timeout=60.0)
    out["error_name"] = err.value.function_name
    counter = Counter.remote(10)
    out["actor"] = repro.get(
        [counter.add.remote(1), counter.add.remote(2)], timeout=60.0
    )
    out["nested"] = repro.get(fan.remote(12), timeout=60.0)
    return out


def test_every_kind_of_task_matches_local():
    results = {}
    for backend, options in (("local", {"backend": "local"}), *WIRE_POOLS.items()):
        runtime = repro.init(seed=5, **options)
        try:
            results[backend] = _program()
            if backend != "local":
                # The nested fan-out took the worker-local fast path and
                # its function reached the driver through a notice table.
                assert runtime.stats()["sched"]["tasks_placed_local"] >= 12
        finally:
            repro.shutdown()
    assert results["local"]["error_name"] == "renamed_boom"
    assert results["proc"] == results["local"]
    assert results["dist"] == results["local"]


def test_worker_born_entry_decodes_like_a_driver_born_one():
    """``decode_entry`` over ``encode_entry`` is the identity on what a
    receiver reads — including non-default options and trace context."""
    ids = IDGenerator(namespace="wire")
    options = TaskOptions(name="shown", max_reconstructions=1, num_returns=2)
    template = CallTemplate(tick.function, ids.function_id(), "tick", options)
    parent = ids.task_id()
    spec = template.stamp(ids, (1,), {"k": 2}, None, parent, parent)
    entry = msg.encode_entry(spec, None)
    assert entry[msg.ENTRY_INLINE] is None
    functions = msg.FunctionTable()
    functions.learn({entry[1]: ("tick", b"code")})
    decoded = msg.decode_entry(pickle.loads(pickle.dumps(entry)), functions)
    for name in (
        "task_id", "function_id", "function_name", "return_object_ids",
        "num_returns", "resources", "max_reconstructions", "root_task_id",
        "parent_task_id", "options",
    ):
        assert getattr(decoded, name) == getattr(spec, name), name
    assert decoded.args == () and decoded.function is None


# ----------------------------------------------------------------------
# Driver restart with a wave in flight
# ----------------------------------------------------------------------


def _marker_counts(directory):
    counts = {}
    for name in os.listdir(directory):
        if name.endswith(".marker"):
            with open(os.path.join(directory, name)) as handle:
                counts[int(name[:-7])] = len(handle.readlines())
    return counts


def test_wave_in_flight_survives_a_driver_restart_from_its_wal(tmp_path):
    """The replay record is self-contained: a driver rebuilt from the
    write-ahead log alone — no function table, no templates, no live
    store object of the dead one — runs every pending task, driver-born
    and worker-born, exactly once."""
    markers = str(tmp_path / "markers")
    os.makedirs(markers)
    flag = str(tmp_path / "flag")
    wal_dir = str(tmp_path / "wal")
    store = ControlStore(num_shards=4, wal_dir=wal_dir)
    runtime = repro.init(backend="proc", num_workers=2, seed=31, control_store=store)

    gate = wait_for_flag.remote(flag)
    wave = [
        mark_after_flag.options(name="wave").remote(markers, i, gate)
        for i in range(40)
    ]
    children = repro.get(spawn_marked.remote(markers, 8, flag), timeout=60.0)
    runtime.fail_driver()
    repro.shutdown()
    store.flush(timeout=30.0)
    store.close()
    assert _marker_counts(markers) == {}

    with open(flag, "w") as handle:
        handle.write("go")
    reopened = ControlStore.open(wal_dir)
    repro.init(
        backend="proc", num_workers=2, seed=31, control_store=reopened, recover=True
    )
    try:
        assert repro.get(wave, timeout=60.0) == list(range(40))
        assert repro.get(children, timeout=60.0) == [1000 + i for i in range(8)]
        expected = {i: 1 for i in list(range(40)) + [1000 + i for i in range(8)]}
        assert _marker_counts(markers) == expected, "lost or duplicated executions"
    finally:
        repro.shutdown()
        reopened.close()
