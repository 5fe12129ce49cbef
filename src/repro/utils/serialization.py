"""Object serialization used by the object stores.

Every backend stores *serialized* values, exactly as the paper's shared-memory
object store would: putting an object costs a serialization, getting it costs
a deserialization, and the serialized size drives transfer times over the
simulated network, eviction pressure in the store, and — on the multiprocess
backend — whether an argument ships inline with its task or stays in the
driver's store to be fetched (and cached) on demand.

Two serialization regimes coexist:

* :func:`serialize`/:func:`deserialize` — plain pickle, for *data* (task
  arguments, results, put values).  Values must be picklable.
* :func:`serialize_portable`/:func:`deserialize_portable` — ``cloudpickle``
  when available, for *code* crossing a process boundary.  Plain pickle
  serializes functions by reference (module + qualname), which breaks for
  closures, test-local definitions, and names rebound by ``@remote``;
  cloudpickle serializes them by value.  Without cloudpickle we fall back
  to pickle, which restricts the ``proc`` backend to importable functions.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Any

try:  # cloudpickle ships with many scientific stacks but is not stdlib.
    import cloudpickle as _cloudpickle
except ImportError:  # pragma: no cover - exercised only on bare installs
    _cloudpickle = None

#: Protocol 5 supports out-of-band buffers; we use it for realistic sizes on
#: numpy arrays while staying stdlib-only.
_PROTOCOL = 5

#: Serialized objects at or below this size ship *inline* inside task
#: messages crossing the process boundary; larger ones stay in the driver's
#: object store and workers fetch them on demand into a per-worker
#: :class:`~repro.objectstore.store.LocalObjectStore` cache.  64 KiB
#: mirrors the in-band/out-of-band split of real object stores, where small
#: values ride the control message and large ones take the data path.
DEFAULT_INLINE_THRESHOLD = 64 * 1024


def serialize(value: Any) -> bytes:
    """Serialize ``value`` to bytes.

    Raises
    ------
    TypeError
        If the value is not picklable (e.g. a lambda result containing a
        socket); surfacing this at ``put`` time mirrors real systems, where
        unserializable returns fail in the worker, not silently later.
    """
    try:
        return pickle.dumps(value, protocol=_PROTOCOL)
    except Exception as exc:
        raise TypeError(f"value of type {type(value).__name__} is not serializable: {exc}") from exc


def deserialize(data: bytes) -> Any:
    """Inverse of :func:`serialize`, and of :func:`write_frame` too: a
    value that crossed as its shared-memory frame (a node-to-driver pull
    carries the frame as it lies in the node arena) starts with the frame
    magic and is read zero-copy through a read-only view, so its arrays
    alias ``data`` and are read-only, as they are when read from the
    arena itself.  Anything else is unpickled."""
    if data[:4] == _FRAME_TAG:
        return deserialize_frame(memoryview(data).toreadonly())
    return pickle.loads(data)


def serialized_size(value: Any) -> int:
    """Return the serialized size of ``value`` in bytes."""
    return len(serialize(value))


def should_inline(num_bytes: int, threshold: int = DEFAULT_INLINE_THRESHOLD) -> bool:
    """Whether a serialized object of ``num_bytes`` ships inline with its
    task message (True) or stays in the store for on-demand fetch (False)."""
    return num_bytes <= threshold


def serialize_portable(value: Any) -> bytes:
    """Serialize ``value`` so it survives a process boundary.

    Uses cloudpickle when available (functions/classes by value, so
    closures and ``@remote``-rebound names work); falls back to plain
    pickle, whose by-reference function pickling requires the target to be
    importable under its original name in the worker process.
    """
    dumper = _cloudpickle.dumps if _cloudpickle is not None else pickle.dumps
    try:
        return dumper(value, protocol=_PROTOCOL)
    except Exception as exc:
        hint = "" if _cloudpickle is not None else (
            " (cloudpickle is not installed; only importable module-level "
            "functions can cross the process boundary)"
        )
        raise TypeError(
            f"value of type {type(value).__name__} cannot cross the process "
            f"boundary: {exc}{hint}"
        ) from exc


def serialize_call(args: tuple, kwargs: dict) -> bytes:
    """Serialize one call's ``(args, kwargs)`` for a worker.

    Arguments are *values*, so plain pickle — several times cheaper than
    building a cloudpickler per call — is tried first; what it refuses
    (a lambda, a locally defined class among the arguments) goes by
    value through :func:`serialize_portable`.  Either output loads with
    :func:`deserialize_portable`."""
    try:
        return pickle.dumps((args, kwargs), protocol=_PROTOCOL)
    except Exception:  # noqa: BLE001 - any pickling refusal takes the slow way
        return serialize_portable((args, kwargs))


def deserialize_portable(data: bytes) -> Any:
    """Inverse of :func:`serialize_portable` (cloudpickle output is plain
    pickle-loadable as long as cloudpickle is importable at load time)."""
    return pickle.loads(data)


@dataclass
class ByteAccountant:
    """Size accounting for one flow of serialized objects.

    The proc backend keeps one per flow (inlined args, fetched args,
    shipped results, the shm data plane) so ``stats()`` can report where
    bytes actually went across the serialization boundary.  The three
    shm counters split one flow's traffic by *path*:
    ``zero_copy_bytes``/``shm_hits`` count objects served as shared-memory
    descriptors (bytes that never crossed a pipe), ``pipe_fallbacks``
    counts large objects that had to take the pipe even though shm was
    on (allocation failure, an unattachable segment, shm-less host).
    """

    count: int = 0
    total_bytes: int = 0
    max_bytes: int = 0
    zero_copy_bytes: int = 0
    shm_hits: int = 0
    pipe_fallbacks: int = 0
    #: Objects whose bytes crossed a node boundary (dist backend):
    #: descriptor-first transfer fetches each object's payload at most
    #: once per consuming node, and these two count exactly those pulls.
    internode_fetches: int = 0
    internode_bytes: int = 0

    def record(self, num_bytes: int) -> None:
        self.count += 1
        self.total_bytes += num_bytes
        if num_bytes > self.max_bytes:
            self.max_bytes = num_bytes

    def record_zero_copy(self, num_bytes: int) -> None:
        """One object served by descriptor: counted in the flow's totals
        and in the zero-copy split."""
        self.record(num_bytes)
        self.shm_hits += 1
        self.zero_copy_bytes += num_bytes

    def record_pipe_fallback(self, num_bytes: int) -> None:
        """A large object that crossed the pipe despite shm being on."""
        self.record(num_bytes)
        self.pipe_fallbacks += 1

    def record_internode(self, num_bytes: int) -> None:
        """One object's bytes pulled across a node boundary."""
        self.record(num_bytes)
        self.internode_fetches += 1
        self.internode_bytes += num_bytes

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "zero_copy_bytes": self.zero_copy_bytes,
            "shm_hits": self.shm_hits,
            "pipe_fallbacks": self.pipe_fallbacks,
            "internode_fetches": self.internode_fetches,
            "internode_bytes": self.internode_bytes,
        }


# ----------------------------------------------------------------------
# Out-of-band (pickle protocol 5) serialization for the shm data plane
# ----------------------------------------------------------------------

#: Frame layout inside a shared-memory payload:
#:   [magic u32][nbuf u32][inband_len u64][buf_len u64 × nbuf]
#:   [inband ...][64-B pad][buffer 0][64-B pad][buffer 1]...
#: Buffers start 64-byte aligned so reconstructed numpy arrays view
#: cache-line-aligned memory.
_FRAME_MAGIC = 0x5246314F  # "RF1O" — repro frame, out-of-band, v1
_FRAME_HEAD = struct.Struct("<II")
_U64 = struct.Struct("<Q")
_FRAME_ALIGN = 64
#: The first four bytes of every frame; a pickle stream starts with
#: ``0x80`` (PROTO) instead.
_FRAME_TAG = struct.pack("<I", _FRAME_MAGIC)


def _frame_align(n: int) -> int:
    return (n + _FRAME_ALIGN - 1) // _FRAME_ALIGN * _FRAME_ALIGN


def _load_joined(inband: bytes, buffers: list) -> Any:
    """What a :meth:`SerializedBuffers.joined` pickle reduces to."""
    return pickle.loads(inband, buffers=buffers)


#: Pickle opcodes of :meth:`SerializedBuffers.joined`: PROTO 5 and the
#: GLOBAL that names :func:`_load_joined`; a length-prefixed (u64)
#: ``bytes`` / ``bytearray``.
_JOINED_HEAD = b"\x80\x05c" + f"{__name__}\n_load_joined\n".encode()
_BINBYTES8 = b"\x8e"
_BYTEARRAY8 = b"\x96"


@dataclass
class SerializedBuffers:
    """A value split into a small in-band pickle stream plus the raw
    out-of-band buffers (protocol 5) it references.

    The buffers are memoryviews of the *original* object's memory (e.g.
    a numpy array's data) — nothing has been copied yet.  Writing the
    frame into a shm arena is therefore the value's single copy; reading
    it back reconstructs arrays that alias the arena directly.
    """

    inband: bytes
    buffers: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Payload bytes this value needs (excluding frame framing)."""
        return len(self.inband) + sum(b.nbytes for b in self.buffers)

    def joined(self) -> bytes:
        """The value as one ordinary pickle (:func:`deserialize` loads
        it), for a value that takes the byte path after all — found
        small, or refused by the arena — without pickling it a second
        time.  The in-band stream *is* that pickle when nothing went
        out-of-band.  Otherwise the parts are wrapped, by hand, in the
        few opcodes that call :func:`_load_joined` on them: the stream
        as ``bytes``, each buffer as ``bytes`` or — a writable one, as
        in-band pickling would have it — ``bytearray``."""
        if not self.buffers:
            return self.inband
        parts = [_JOINED_HEAD, _BINBYTES8, _U64.pack(len(self.inband)), self.inband, b"]("]
        for buffer in self.buffers:
            parts += (
                _BINBYTES8 if buffer.readonly else _BYTEARRAY8,
                _U64.pack(buffer.nbytes),
                buffer,
            )
        parts.append(b"e\x86R.")  # APPENDS, TUPLE2, REDUCE, STOP
        return b"".join(parts)

    @property
    def frame_bytes(self) -> int:
        """Exact frame size :func:`write_frame` will produce."""
        size = _FRAME_HEAD.size + _U64.size * (1 + len(self.buffers))
        size += len(self.inband)
        for buffer in self.buffers:
            size = _frame_align(size) + buffer.nbytes
        return size


def serialize_buffers(value: Any) -> SerializedBuffers:
    """Serialize ``value`` splitting buffer-protocol payloads out-of-band.

    Objects that support pickle protocol 5's out-of-band path (numpy
    arrays, ``PickleBuffer``-reducible types) contribute zero-copy
    memoryviews; everything else lands in the in-band stream.
    Non-contiguous buffers stay in-band rather than failing.

    Raises :class:`TypeError` for unpicklable values, like
    :func:`serialize`.
    """
    buffers: list = []

    def keep_out_of_band(pickle_buffer: pickle.PickleBuffer) -> bool:
        # Return-value contract of ``buffer_callback``: falsy ⇒ the
        # buffer goes out-of-band, truthy ⇒ it stays in the stream.
        try:
            raw = pickle_buffer.raw()
        except BufferError:      # non-contiguous: pickle it in-band
            return True
        buffers.append(raw)
        return False

    try:
        inband = pickle.dumps(
            value, protocol=_PROTOCOL, buffer_callback=keep_out_of_band
        )
    except Exception as exc:
        raise TypeError(
            f"value of type {type(value).__name__} is not serializable: {exc}"
        ) from exc
    return SerializedBuffers(inband=inband, buffers=buffers)


def write_frame(view: memoryview, serialized: SerializedBuffers) -> None:
    """Write a frame into ``view`` (must be ``serialized.frame_bytes``
    long and writable) — the single copy of the value's payload."""
    nbuf = len(serialized.buffers)
    _FRAME_HEAD.pack_into(view, 0, _FRAME_MAGIC, nbuf)
    cursor = _FRAME_HEAD.size
    _U64.pack_into(view, cursor, len(serialized.inband))
    cursor += _U64.size
    for buffer in serialized.buffers:
        _U64.pack_into(view, cursor, buffer.nbytes)
        cursor += _U64.size
    view[cursor : cursor + len(serialized.inband)] = serialized.inband
    cursor += len(serialized.inband)
    for buffer in serialized.buffers:
        cursor = _frame_align(cursor)
        view[cursor : cursor + buffer.nbytes] = buffer
        cursor += buffer.nbytes


def read_frame(view: memoryview) -> tuple[memoryview, list]:
    """Split a frame back into ``(inband, buffers)`` — all zero-copy
    windows into ``view``."""
    magic, nbuf = _FRAME_HEAD.unpack_from(view, 0)
    if magic != _FRAME_MAGIC:
        raise ValueError("shared-memory payload has no frame header")
    cursor = _FRAME_HEAD.size
    (inband_len,) = _U64.unpack_from(view, cursor)
    cursor += _U64.size
    lengths = []
    for _ in range(nbuf):
        (length,) = _U64.unpack_from(view, cursor)
        cursor += _U64.size
        lengths.append(length)
    inband = view[cursor : cursor + inband_len]
    cursor += inband_len
    buffers = []
    for length in lengths:
        cursor = _frame_align(cursor)
        buffers.append(view[cursor : cursor + length])
        cursor += length
    return inband, buffers


def deserialize_frame(view: memoryview) -> Any:
    """Reconstruct a value from a frame, zero-copy.

    Out-of-band buffers are handed to pickle as read-only windows into
    the frame, so reconstructed numpy arrays *alias* the shared-memory
    arena (and are read-only — copy before mutating).  In-band payloads
    (plain ``bytes``, lists, dicts) are materialized normally.
    """
    inband, buffers = read_frame(view)
    return pickle.loads(inband, buffers=buffers)
