"""Plasma-style shared-memory object store: the zero-copy data plane.

The paper's "missing pieces" for real-time ML include an in-memory object
store that lets processes on one node exchange large numerical data in
milliseconds through *shared memory* instead of copying bytes through
RPC.  This package is that data plane:

* :mod:`repro.shm.segment` — an arena allocator over
  ``multiprocessing.shared_memory`` segments with a create/seal/release
  object lifecycle and cross-process per-object refcounts kept in the
  segment's header region (one single-writer cell per client, so no
  cross-process write races and no locks on the read path);
* :mod:`repro.shm.store` — :class:`~repro.shm.store.SharedObjectStore`,
  the one owner of a node's arena: the object directory (ObjectID →
  segment/slot/size), two-phase writes with explicit release (an
  allocator, not a cache: nothing is evicted), the owner's zero-copy
  leases, the reaper that reclaims space once refcounts drain and the
  refcount columns of crashed clients, and guaranteed segment unlinking
  on shutdown — plus the worker-side :class:`~repro.shm.store.ShmClient`
  that attaches segments lazily.

The ``proc`` backend routes every large object (above its inline
threshold) through this store when shared memory is available —
see ``repro.init("proc", shm_capacity=...)`` — and transparently falls
back to the pipe path when it is not; on ``dist`` each node agent owns
its node's arena.
"""

from repro.shm.segment import (
    SegmentError,
    SharedSegment,
    shm_available,
)
from repro.shm.store import SharedObjectStore, ShmClient

__all__ = [
    "SegmentError",
    "SharedSegment",
    "SharedObjectStore",
    "ShmClient",
    "shm_available",
]
