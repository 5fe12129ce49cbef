"""Typed identifiers for system entities.

The paper's control plane shards its tables by hashed keys ("since the keys
are computed as hashes, sharding is straightforward", Section 3.2.1).  We
mirror that: every ID wraps a short hex digest produced by hashing a
deterministic (namespace, counter) pair, so IDs are unique, reproducible
run-to-run, and uniformly distributed across shards.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class BaseID:
    """A typed, hashable identifier backed by a hex digest string."""

    hex: str

    #: Short two-letter tag used in ``repr`` (overridden per subclass).
    _tag = "id"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.hex[:10]})"

    # An id is its hex string: it hashes as the string (CPython caches a
    # str's hash, the generated dataclass hash rebuilt a tuple per call)
    # and pickles as the string (the generated ``__getstate__`` of a
    # slots dataclass runs in Python, several times the cost).  Equality
    # stays type-aware: ids of different kinds with equal hex differ.
    def __hash__(self) -> int:
        return hash(self.hex)

    def __reduce__(self):
        return type(self), (self.hex,)

    def __str__(self) -> str:
        return f"{self._tag}:{self.hex[:10]}"

    def shard_index(self, num_shards: int) -> int:
        """Map this ID onto one of ``num_shards`` hash shards."""
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        return int(self.hex[:8], 16) % num_shards

    @classmethod
    def from_seed(cls, seed: str) -> "BaseID":
        """Derive an ID deterministically from an arbitrary seed string."""
        digest = hashlib.sha1(seed.encode("utf-8")).hexdigest()
        return cls(digest)


class TaskID(BaseID):
    """Identifies one task submission (one row of the task table)."""

    _tag = "task"


class ObjectID(BaseID):
    """Identifies one immutable object (a future's eventual value)."""

    _tag = "obj"


class NodeID(BaseID):
    """Identifies one machine in the (simulated or threaded) cluster."""

    _tag = "node"


class WorkerID(BaseID):
    """Identifies one worker process on a node."""

    _tag = "work"


class FunctionID(BaseID):
    """Identifies one registered remote function (function-table key)."""

    _tag = "func"


class ActorID(BaseID):
    """Identifies one stateful actor (its row in the actor table)."""

    _tag = "actor"


@dataclass
class IDGenerator:
    """Deterministic factory for fresh IDs.

    A single generator is owned by the runtime; components draw from it so
    that a run with a fixed seed produces the same IDs every time, which
    keeps the discrete-event simulation fully reproducible.
    """

    namespace: str = "repro"
    _counter: itertools.count = field(default_factory=itertools.count, repr=False)

    def _next_hex(self, kind: str) -> str:
        seed = f"{self.namespace}/{kind}/{next(self._counter)}"
        return hashlib.sha1(seed.encode("utf-8")).hexdigest()

    def task_id(self) -> TaskID:
        return TaskID(self._next_hex("task"))

    def object_id(self) -> ObjectID:
        return ObjectID(self._next_hex("object"))

    def node_id(self) -> NodeID:
        return NodeID(self._next_hex("node"))

    def worker_id(self) -> WorkerID:
        return WorkerID(self._next_hex("worker"))

    def function_id(self) -> FunctionID:
        return FunctionID(self._next_hex("function"))

    def actor_id(self) -> ActorID:
        return ActorID(self._next_hex("actor"))
