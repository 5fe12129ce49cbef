"""The TCP transport by itself, over ``socket.socketpair()``: no runtime,
no worker process.

A message holding a ``pickle.PickleBuffer`` crosses as an out-of-band
frame: the buffer goes raw after the pickle stream (``sendmsg``) and is
read into one ``bytearray`` of its size (``recv_into``).  A message
without buffers has the same frame with none, and its pickle stream is
what a pipe carries.
"""

import multiprocessing
import pickle
import random
import socket
import struct
import threading

import pytest

from repro.proc.transport import (
    PipeTransport,
    TcpTransport,
    encode_message,
    frame_parts,
)

pytestmark = pytest.mark.timeout(30)

MIB = 1 << 20


@pytest.fixture
def pair():
    ours, theirs = socket.socketpair()
    receiver, sender = TcpTransport(ours), TcpTransport(theirs)
    yield receiver, sender
    receiver.close()
    sender.close()


def _wire(message) -> bytes:
    return b"".join(bytes(part) for part in frame_parts(message))


def test_a_mib_buffer_arrives_as_one_bytearray_equal_to_it(pair):
    receiver, sender = pair
    payload = bytes(random.Random(1).getrandbits(8) for _ in range(4096)) * 256
    assert len(payload) == MIB
    # A reader that waits meanwhile: the sender blocks once the socket's
    # buffer is full.
    thread = threading.Thread(
        target=sender.send, args=(("data", 7, pickle.PickleBuffer(bytearray(payload))),)
    )
    thread.start()
    tag, req, data = receiver.recv()
    thread.join()
    assert (tag, req) == ("data", 7)
    assert type(data) is bytearray  # a writable buffer arrives as itself
    assert data == payload


def test_a_read_only_buffer_arrives_as_a_read_only_view_of_its_bytearray(pair):
    receiver, sender = pair
    sender.send(("data", pickle.PickleBuffer(b"frame" * 100)))
    _, data = receiver.recv()
    assert isinstance(data, memoryview) and data.readonly
    assert type(data.obj) is bytearray and data.obj == b"frame" * 100


def test_small_and_large_messages_keep_their_order_across_partial_reads(pair):
    """The sender runs in another thread, so the reader sees frames cut
    anywhere: inside a header, a payload, the buffer lengths, a buffer."""
    receiver, sender = pair
    rng = random.Random(7)
    messages = []
    for index in range(200):
        kind = rng.choice(("small", "large", "buffers"))
        if kind == "small":
            body = (b"s" * rng.randrange(0, 300),)
        elif kind == "large":  # a pickle stream larger than a socket buffer
            body = (bytes([index % 256]) * rng.randrange(1, 600_000),)
        else:
            body = tuple(
                pickle.PickleBuffer(bytes([index % 256]) * rng.randrange(0, 300_000))
                for _ in range(rng.randrange(1, 4))
            )
        messages.append((kind, index, body))
    expected = [
        (kind, index, [bytes(part) for part in body]) for kind, index, body in messages
    ]
    thread = threading.Thread(target=lambda: [sender.send(m) for m in messages])
    thread.start()
    received = []
    for _ in messages:
        kind, index, body = receiver.recv()
        received.append((kind, index, [bytes(part) for part in body]))
    thread.join()
    assert received == expected
    assert receiver.poll() is False


@pytest.mark.parametrize("cut", [4, 30, 50, MIB // 2, -1])
def test_eof_in_the_middle_of_a_frame_raises_eoferror(cut):
    ours, theirs = socket.socketpair()
    receiver = TcpTransport(ours)
    wire = _wire(("data", pickle.PickleBuffer(bytes(MIB))))
    thread = threading.Thread(target=lambda: (theirs.sendall(wire[:cut]), theirs.close()))
    thread.start()
    with pytest.raises(EOFError):
        receiver.recv()
    thread.join()
    receiver.close()


def test_a_frame_without_buffers_carries_the_pipe_bytes(pair):
    receiver, sender = pair
    message = ("task", 3, {"k": b"v" * 1000}, [1.5, None])
    payload = encode_message(message)
    wire = _wire(message)
    magic, nbuf, length = struct.unpack_from("<IIQ", wire)
    assert (magic, nbuf, length) == (0x52573142, 0, len(payload))
    assert wire[16:] == payload
    sender.send(message)
    assert receiver.recv() == message


def test_the_pipe_carries_encode_message_bytes():
    left, right = multiprocessing.Pipe(duplex=True)
    message = ("ok", pickle.PickleBuffer(b"frame" * 10), [b"x", 2])
    PipeTransport(left).send(message)
    assert right.recv_bytes() == encode_message(message)
    left.close()
    right.close()
