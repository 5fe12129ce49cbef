"""A value held as its shared-memory frame, by itself: no runtime, no
worker process.

A node agent hands out an arena-resident object as the frame it lies in
(``ObjectStores.bytes_of``: nothing deserialized, nothing re-pickled),
and whoever receives it — the driver's pipe store, a node's byte cache,
a worker — reads it through the one loader, ``deserialize``, which
tells a frame from a pickle by its magic.
"""

import pickle

import numpy as np
import pytest

from repro.proc import objects
from repro.proc.objects import ObjectStores
from repro.shm.segment import shm_available
from repro.utils.ids import IDGenerator, NodeID
from repro.utils.serialization import (
    deserialize,
    serialize,
    serialize_buffers,
    write_frame,
)

pytestmark = pytest.mark.timeout(30)


def _frame(value) -> bytes:
    serialized = serialize_buffers(value)
    out = bytearray(serialized.frame_bytes)
    write_frame(memoryview(out), serialized)
    return bytes(out)


def _equal(left, right) -> bool:
    if isinstance(left, np.ndarray):
        return isinstance(right, np.ndarray) and np.array_equal(left, right)
    if isinstance(left, list):
        return len(left) == len(right) and all(map(_equal, left, right))
    return left == right


VALUES = {
    "array_1mib": np.arange(1 << 17, dtype=np.float64),
    "array_small": np.arange(5, dtype=np.int32),
    "bytes": b"payload" * 1000,
    "list_of_arrays": [np.full(1000, 2.5), np.arange(3), np.zeros((4, 4))],
    "int": 42,
    "dict": {"a": 1, "b": [1, 2], "c": "text"},
}


@pytest.mark.parametrize("name", sorted(VALUES))
@pytest.mark.parametrize("holder", [bytes, bytearray])
def test_a_frame_deserializes_to_the_value(name, holder):
    value = VALUES[name]
    assert _equal(deserialize(holder(_frame(value))), deserialize(serialize(value)))


@pytest.mark.parametrize("holder", [bytes, bytearray])
def test_arrays_read_from_a_frame_are_read_only(holder):
    data = holder(_frame([np.arange(10), {"x": np.ones(3)}]))
    loaded = deserialize(data)
    assert not loaded[0].flags.writeable
    assert not loaded[1]["x"].flags.writeable
    with pytest.raises(ValueError):
        loaded[0][0] = 1
    # A pickled writable array still loads writable.
    assert deserialize(serialize(np.arange(10))).flags.writeable


def test_a_frame_read_outlives_its_holder():
    loaded = deserialize(bytearray(_frame(np.arange(100_000))))
    assert int(loaded.sum()) == sum(range(100_000))


@pytest.mark.skipif(not shm_available(), reason="host has no POSIX shared memory")
def test_bytes_of_hands_out_an_arena_objects_frame_unserialized(monkeypatch):
    stores = ObjectStores(NodeID.from_seed("frames"), 1 << 20, 8 << 20, 1, 0)
    try:
        assert stores.shm is not None
        object_id = IDGenerator(3).object_id()
        value = [np.arange(50_000, dtype=np.float64), "tail"]
        frame = _frame(value)
        stores.shm.put(object_id, frame)

        def refuse(value):
            raise AssertionError("bytes_of re-serialized an arena object")

        monkeypatch.setattr(objects, "serialize", refuse)
        data = stores.bytes_of(object_id)
        assert isinstance(data, pickle.PickleBuffer)
        assert bytes(data) == frame
        loaded = deserialize(bytes(data))
        assert np.array_equal(loaded[0], value[0]) and loaded[1] == "tail"
        # Copied into a pipe message in-band, it arrives as the frame.
        assert pickle.loads(pickle.dumps(data, protocol=5)) == frame
        del data
    finally:
        stores.shutdown()
