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
  between the ``dist`` driver and its node agents.  Frames are padded to
  the same 64-byte alignment as the shared-memory frame layout of
  :mod:`repro.utils.serialization`, so a payload copied straight out of
  a receive buffer lands cache-line aligned.

Both transports share **one codec** (:func:`encode_message` /
:func:`decode_message`, pickle protocol 5): a message produced for a
pipe is byte-identical to the same message produced for a socket, which
is what lets a node agent relay frames between the two without ever
interpreting payloads it does not care about.
"""

from __future__ import annotations

import pickle
import select
import struct
import threading
from typing import Any

#: Protocol 5 matches repro.utils.serialization: out-of-band-capable,
#: stdlib-only.
_PROTOCOL = 5

#: TCP frame header: magic, pad bytes after the payload, payload length.
#: The whole frame (header + payload + pad) is a multiple of
#: ``_WIRE_ALIGN`` — the PR-4 shm frame alignment reused on the wire.
_WIRE_MAGIC = 0x52573157  # "RW1W" — repro wire, v1
_WIRE_HEAD = struct.Struct("<IIQ")
_WIRE_ALIGN = 64

#: Socket read granularity.
_RECV_CHUNK = 256 * 1024


def encode_message(message: Any) -> bytes:
    """Serialize one protocol message (the codec both transports share)."""
    return pickle.dumps(message, protocol=_PROTOCOL)


def decode_message(data: bytes) -> Any:
    """Inverse of :func:`encode_message`."""
    return pickle.loads(data)


def frame_message(message: Any) -> bytes:
    """One wire frame: header + encoded message + pad to 64-B alignment."""
    payload = encode_message(message)
    pad = (-(_WIRE_HEAD.size + len(payload))) % _WIRE_ALIGN
    return b"".join(
        (_WIRE_HEAD.pack(_WIRE_MAGIC, pad, len(payload)), payload, b"\x00" * pad)
    )


class Transport:
    """What a message channel must provide (the ``Connection`` surface
    the proc runtime and worker historically used, made explicit).

    ``send``/``recv`` move whole protocol messages and raise
    ``EOFError``/``OSError`` when the peer is gone — the runtime's crash
    detection edge.  ``poll`` is a non-blocking (or bounded) readability
    probe.  ``writable`` answers "can a small send complete without
    blocking right now?" — the guard ``_WorkerHandle.send_control``
    uses to stay non-blocking under the runtime lock.
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

    @property
    def connection(self) -> Any:
        """The underlying Connection (process-spawn plumbing)."""
        return self._conn

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

    Reads are buffered; sends are serialized by a lock so multiple
    threads may share the sending side (the dist driver's link sender
    and handshake path).  ``recv`` blocks until a whole frame is
    available and raises ``EOFError`` on a clean peer close, ``OSError``
    on a broken one — the same edges a pipe gives the crash detector.
    """

    def __init__(self, sock: Any) -> None:
        sock.setblocking(True)
        self._sock = sock
        self._buffer = bytearray()
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, message: Any) -> None:
        frame = frame_message(message)
        with self._send_lock:
            self._sock.sendall(frame)

    def _fill(self, needed: int) -> None:
        """Grow the read buffer to at least ``needed`` bytes."""
        while len(self._buffer) < needed:
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                raise EOFError("transport peer closed the connection")
            self._buffer.extend(chunk)

    def recv(self) -> Any:
        self._fill(_WIRE_HEAD.size)
        magic, pad, length = _WIRE_HEAD.unpack_from(self._buffer, 0)
        if magic != _WIRE_MAGIC:
            raise OSError(f"bad frame magic {magic:#x} on TCP transport")
        total = _WIRE_HEAD.size + length + pad
        self._fill(total)
        payload = bytes(memoryview(self._buffer)[_WIRE_HEAD.size:_WIRE_HEAD.size + length])
        del self._buffer[:total]
        return decode_message(payload)

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether bytes are available (buffered or on the socket).

        A True result means ``recv`` will make progress; with a partial
        frame in flight it may still briefly block for the remainder —
        senders write whole frames, so the window is the wire latency."""
        if self._buffer:
            return True
        if self._closed:
            return True  # recv will raise EOF immediately
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return True
        return bool(ready)

    def writable(self) -> bool:
        try:
            _, ready, _ = select.select([], [self._sock], [], 0)
        except (OSError, ValueError):
            return False
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
