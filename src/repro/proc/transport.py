"""Interchangeable wire transports for the proc/dist message protocol.

The driver↔worker protocol of :mod:`repro.proc.messages` is defined over
*messages* (picklable tuples), not over any particular byte channel.
This module is the seam that makes the channel swappable:

* :class:`Transport` — the five-method surface the runtime and worker
  code talk to (``send``/``recv``/``poll``/``writable``/``close``).
* :class:`PipeTransport` — the original duplex-pipe channel
  (``multiprocessing.Pipe``), used between a driver and its local
  workers and between a node agent and the workers it owns.
* :class:`TcpTransport` — length-prefixed frames over a socket, used
  between the ``dist`` driver and its node agents.

Both transports share **one codec** (:func:`encode_message` /
:func:`decode_message`, pickle protocol 5).  A TCP frame is the pickle
stream of the message followed by its out-of-band buffers (a node
agent's reply to a pull holds the object's arena frame as one), each
sent raw as one ``sendmsg`` iovec straight from the memory it lies in —
nothing joins them into the stream::

    [magic "RW1B" u32][nbuf u32][payload_len u64][buf_len u64 × nbuf]
    [payload][buffer 0][buffer 1]...

A message with no ``pickle.PickleBuffer`` in it has ``nbuf`` = 0, and
its payload is byte-identical to what a pipe carries for it.  The
receiver reads each buffer with ``recv_into`` into one ``bytearray`` of
exactly its size, and unpickling hands that memory to the message as it
is (a read-only buffer arrives as a read-only ``memoryview`` over its
``bytearray``).  So the memory a buffer aliases must stay unchanged
until ``send`` returns; a pipe, whose codec has no out-of-band part,
copies it into the stream instead.
"""

from __future__ import annotations

import pickle
import select
import struct
import threading
from typing import Any

from repro.utils.serialization import serialize_buffers

#: Protocol 5 matches repro.utils.serialization: out-of-band-capable,
#: stdlib-only.
_PROTOCOL = 5

#: TCP frame header: magic, the number of out-of-band buffers, the
#: length of the pickle stream.
_WIRE_MAGIC = 0x52573142  # "RW1B" — repro wire, v1, buffers follow
_WIRE_HEAD = struct.Struct("<IIQ")

#: iovecs per ``sendmsg`` call, under every platform's IOV_MAX.
_IOV_BATCH = 512


def encode_message(message: Any) -> bytes:
    """Serialize one protocol message (the codec both transports share)."""
    return pickle.dumps(message, protocol=_PROTOCOL)


def decode_message(data: bytes) -> Any:
    """Inverse of :func:`encode_message`."""
    return pickle.loads(data)


def frame_parts(message: Any) -> list:
    """One TCP frame as the parts ``sendmsg`` gathers: header, buffer
    lengths, pickle stream and the out-of-band buffers themselves
    (module docstring)."""
    serialized = serialize_buffers(message)
    lengths = [buffer.nbytes for buffer in serialized.buffers]
    return [
        _WIRE_HEAD.pack(_WIRE_MAGIC, len(lengths), len(serialized.inband)),
        struct.pack(f"<{len(lengths)}Q", *lengths),
        serialized.inband,
        *serialized.buffers,
    ]


class Transport:
    """What a message channel must provide (the ``Connection`` surface
    the proc runtime and worker historically used, made explicit).

    ``send``/``recv`` move whole protocol messages and raise
    ``EOFError``/``OSError`` when the peer is gone — the runtime's crash
    detection edge.  ``poll`` is a non-blocking (or bounded) readability
    probe.  ``writable`` answers "can a small send complete without
    blocking right now?" — the guard ``_WorkerHandle.send_control``
    uses to stay non-blocking under the runtime lock, so only what a
    worker's handle talks through has it: a pipe, or a ``dist``
    channel (never a bare TCP link).
    """

    def send(self, message: Any) -> None:
        raise NotImplementedError

    def recv(self) -> Any:
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        raise NotImplementedError

    def writable(self) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def fileno(self) -> int:
        raise NotImplementedError


class PipeTransport(Transport):
    """The duplex-pipe transport (one ``multiprocessing.Connection`` end).

    Messages cross as ``send_bytes(encode_message(...))`` so the bytes on
    a pipe equal the payload of a TCP frame carrying the same message —
    the shared-codec property a relaying node agent depends on.
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def send(self, message: Any) -> None:
        self._conn.send_bytes(encode_message(message))

    def recv(self) -> Any:
        return decode_message(self._conn.recv_bytes())

    def poll(self, timeout: float = 0.0) -> bool:
        return self._conn.poll(timeout)

    def writable(self) -> bool:
        """Whether a small send can complete without blocking.

        POSIX marks a pipe write-ready only when at least PIPE_BUF
        (>= 512, 4096 on Linux) bytes are free, so a ready pipe takes a
        <100-byte control message atomically."""
        try:
            _, ready, _ = select.select([], [self._conn], [], 0)
        except (OSError, ValueError):
            return False  # closing/closed: the crash path owns delivery
        return bool(ready)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass

    def fileno(self) -> int:
        return self._conn.fileno()


class TcpTransport(Transport):
    """Length-prefixed message frames over a (connected) TCP socket.

    Sends are serialized by a lock so multiple threads may share the
    sending side (the dist driver's link sender and handshake path).
    Each part of a frame is read with ``recv_into`` into a ``bytearray``
    of exactly its size.  ``recv`` blocks until a whole frame is
    available and raises ``EOFError`` on a clean peer close, ``OSError``
    on a broken one — the same edges a pipe gives the crash detector.
    """

    def __init__(self, sock: Any) -> None:
        sock.setblocking(True)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, message: Any) -> None:
        parts = frame_parts(message)  # bytes and 1-D byte views: len = size
        with self._send_lock:
            while parts:
                sent = self._sock.sendmsg(parts[:_IOV_BATCH])
                # Drop what went; a partial send resumes mid-part.
                while parts and sent >= len(parts[0]):
                    sent -= len(parts.pop(0))
                if sent:
                    parts[0] = memoryview(parts[0])[sent:]

    def _take(self, length: int) -> bytearray:
        """The next ``length`` bytes off the socket."""
        out = bytearray(length)
        view = memoryview(out)
        have = 0
        while have < length:
            got = self._sock.recv_into(view[have:])
            if not got:
                raise EOFError("transport peer closed the connection")
            have += got
        return out

    def recv(self) -> Any:
        magic, count, length = _WIRE_HEAD.unpack(self._take(_WIRE_HEAD.size))
        if magic != _WIRE_MAGIC:
            raise OSError(f"bad frame magic {magic:#x} on TCP transport")
        lengths = struct.unpack(f"<{count}Q", self._take(8 * count))
        payload = self._take(length)
        return pickle.loads(payload, buffers=[self._take(size) for size in lengths])

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether bytes are waiting on the socket.

        A True result means ``recv`` will make progress; with a partial
        frame in flight it may still briefly block for the remainder —
        senders write whole frames, so the window is the wire latency."""
        if self._closed:
            return True  # recv will raise EOF immediately
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return True
        return bool(ready)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(2)  # SHUT_RDWR
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def fileno(self) -> int:
        return self._sock.fileno()


def ensure_transport(channel: Any) -> Transport:
    """Adapt ``channel`` to the :class:`Transport` surface.

    Accepts a transport (returned as-is) or a raw pipe ``Connection``
    (wrapped) — the worker entry point takes either, because process
    spawn can only ship the picklable Connection."""
    if isinstance(channel, Transport):
        return channel
    return PipeTransport(channel)
