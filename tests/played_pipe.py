"""A worker's pipe with the driver played by a test, for the cases that
drive a :class:`~repro.proc.worker.ProcWorker` with no process.

The worker reads its pipe on a reader thread of its own
(``ProcWorker._read``), which waits for the pipe to be readable: so the
played pipe is readable through ``fileno`` like a real one — a byte on
an OS pipe per message the test ``put`` there.  ``hang_up`` is the
driver going away: the reader's next ``recv`` raises ``EOFError``.
"""

import contextlib
import os
import select
import threading
from collections import deque

from repro.proc.transport import Transport


class PlayedPipe(Transport):
    """``put`` is what the played driver sends; what the worker sends
    lands in ``sent``."""

    def __init__(self):
        self.inbox = deque()
        self.sent = []
        self._readable, self._ring = os.pipe()
        self.closed = False

    def put(self, message):
        self.inbox.append(message)
        os.write(self._ring, b"\0")

    def send(self, message):
        if self.closed:
            raise OSError("the played driver hung up")
        self.sent.append(message)

    def recv(self):
        if not os.read(self._readable, 1):
            raise EOFError("the played driver hung up")
        return self.inbox.popleft()

    def poll(self, timeout=0.0):
        return bool(select.select([self._readable], [], [], timeout)[0])

    def fileno(self):
        return self._readable

    def writable(self):
        return True

    def close(self):
        pass

    def hang_up(self):
        if not self.closed:
            self.closed = True
            os.close(self._ring)

    def tags(self):
        return [message[0] for message in self.sent]


def start_reader(worker):
    """The worker's reader thread, ended by ``worker.conn.hang_up()``."""

    def read():
        with contextlib.suppress(EOFError, OSError):
            worker._read()

    thread = threading.Thread(target=read, name="played-reader", daemon=True)
    thread.start()
    return thread
