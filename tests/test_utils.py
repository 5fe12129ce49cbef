"""Unit tests for IDs, RNG streams, and serialization."""

import numpy as np
import pytest

from repro.utils.ids import IDGenerator, NodeID, ObjectID, TaskID
from repro.utils.rng import RNGRegistry
from repro.utils.serialization import (
    deserialize,
    serialize,
    serialize_buffers,
    serialized_size,
)


class TestIDs:
    def test_ids_unique(self):
        gen = IDGenerator()
        ids = {gen.task_id().hex for _ in range(1000)}
        assert len(ids) == 1000

    def test_ids_deterministic_per_namespace(self):
        a = IDGenerator(namespace="x")
        b = IDGenerator(namespace="x")
        assert a.task_id() == b.task_id()
        assert a.object_id() == b.object_id()

    def test_different_namespaces_differ(self):
        assert IDGenerator(namespace="x").task_id() != IDGenerator(namespace="y").task_id()

    def test_typed_ids_not_equal_across_types(self):
        # Same hex but different classes must not collide in dicts/sets.
        task = TaskID("ab" * 20)
        obj = ObjectID("ab" * 20)
        assert task != obj

    def test_shard_index_range_and_stability(self):
        gen = IDGenerator()
        for _ in range(100):
            object_id = gen.object_id()
            index = object_id.shard_index(8)
            assert 0 <= index < 8
            assert index == object_id.shard_index(8)

    def test_shard_distribution_roughly_uniform(self):
        gen = IDGenerator()
        counts = [0] * 4
        for _ in range(4000):
            counts[gen.object_id().shard_index(4)] += 1
        for count in counts:
            assert 800 <= count <= 1200

    def test_shard_index_validates(self):
        with pytest.raises(ValueError):
            NodeID("00" * 20).shard_index(0)

    def test_from_seed(self):
        assert TaskID.from_seed("hello") == TaskID.from_seed("hello")
        assert TaskID.from_seed("hello") != TaskID.from_seed("world")


class TestRNG:
    def test_streams_reproducible(self):
        a = RNGRegistry(7).stream("workload").random(5)
        b = RNGRegistry(7).stream("workload").random(5)
        assert np.allclose(a, b)

    def test_streams_independent_of_creation_order(self):
        r1 = RNGRegistry(7)
        r1.stream("a")
        x = r1.stream("b").random()
        r2 = RNGRegistry(7)
        y = r2.stream("b").random()
        assert x == y

    def test_different_streams_differ(self):
        reg = RNGRegistry(7)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_stream_is_cached(self):
        reg = RNGRegistry(0)
        assert reg.stream("x") is reg.stream("x")

    def test_spawn_children_independent(self):
        reg = RNGRegistry(1)
        child_a = reg.spawn("a")
        child_b = reg.spawn("b")
        assert child_a.stream("s").random() != child_b.stream("s").random()

    def test_reset_reseeds(self):
        reg = RNGRegistry(3)
        first = reg.stream("s").random()
        reg.stream("s").random()
        reg.reset()
        assert reg.stream("s").random() == first


class TestSerialization:
    def test_roundtrip_basic_types(self):
        for value in [None, 42, 3.14, "text", [1, 2], {"a": (1, 2)}, {1, 2}]:
            assert deserialize(serialize(value)) == value

    def test_roundtrip_numpy(self):
        array = np.arange(100.0).reshape(10, 10)
        assert np.allclose(deserialize(serialize(array)), array)

    def test_size_grows_with_payload(self):
        small = serialized_size(np.zeros(10))
        large = serialized_size(np.zeros(10000))
        assert large > small
        assert large >= 10000 * 8

    def test_unserializable_raises_type_error(self):
        with pytest.raises(TypeError, match="not serializable"):
            serialize(lambda x: x)

    def test_generator_not_serializable(self):
        with pytest.raises(TypeError):
            serialize((i for i in range(3)))

    def test_joined_is_an_ordinary_pickle_of_the_split_value(self):
        """``SerializedBuffers.joined()``: the in-band stream itself when
        nothing went out-of-band, else the parts wrapped without pickling
        the value again — loadable by plain ``deserialize``, buffers
        writable exactly where in-band pickling leaves them writable."""
        plain = serialize_buffers({"a": (1, 2)})
        assert plain.joined() is plain.inband
        frozen = np.arange(6)
        frozen.flags.writeable = False
        value = {"x": np.arange(8.0), "y": [np.ones((2, 3), dtype=np.int32), "s"],
                 "z": frozen}
        split = serialize_buffers(value)
        assert len(split.buffers) == 3
        loaded = deserialize(split.joined())
        reference = deserialize(serialize(value))
        assert np.array_equal(loaded["x"], value["x"])
        assert np.array_equal(loaded["y"][0], value["y"][0]) and loaded["y"][1] == "s"
        assert loaded["y"][0].dtype == np.int32 and loaded["y"][0].shape == (2, 3)
        for key in ("x", "z"):
            assert loaded[key].flags.writeable == reference[key].flags.writeable
