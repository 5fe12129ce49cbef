"""Host facts read straight from ``/proc`` (no psutil): process tree, CPU
time, steal, the environment stamp, and the leak / watchdog guards."""

import os
import pickle
import platform
import signal
import sys
import threading
import time

from perfbench import REPO

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid):
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)``; None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def descendants(root=None):
    """PIDs of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and fields[0] != "Z":
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        frontier = [c for pid in frontier for c in children.get(pid, ())]
        found.extend(frontier)
    return found


def cpu_seconds(pids):
    """Summed user+system CPU seconds of ``pids`` (vanished ones count 0)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICK


def host_jiffies():
    """``(steal, total)`` jiffies of the whole host since boot."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values[:8])


_YARD_MESSAGE = {"id": b"t" * 20, "args": (1, 2, 3), "name": "tick", "blob": b"b" * 300}
_YARD_ARRAY = bytearray(1 << 20)
_YARD_COPY = bytearray(1 << 20)
_YARD_PIPE = []  # one self-pipe, opened at the first reading


def yardstick_ms():
    """Milliseconds this host takes for a fixed mix of what the runtime is
    made of - bytecode and pickling, pipe system calls, a 1 MiB copy - in
    about equal parts: the host's speed right now.  Standard library only,
    so no change to the program can move it.  About 1 ms on the sandbox."""
    if not _YARD_PIPE:
        _YARD_PIPE.extend(os.pipe())
    reader, writer = _YARD_PIPE
    frame = bytes(900)
    start = time.perf_counter()
    total = 0
    for _ in range(65):
        total += len(pickle.loads(pickle.dumps(_YARD_MESSAGE, 5)))
        for i in range(100):
            total += i * i
    for _ in range(330):
        os.write(writer, frame)
        os.read(reader, 900)
    for _ in range(6):
        _YARD_COPY[:] = _YARD_ARRAY
    return (time.perf_counter() - start) * 1e3


def shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _commit():
    """HEAD's hash read from ``.git`` by hand: the driver's checkout is not
    a repository, and running git there would search parent directories."""
    git = os.path.join(REPO, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def stamp():
    """What a reader needs to judge whether two runs are comparable."""
    import cloudpickle
    import numpy

    shm = os.statvfs("/dev/shm") if os.path.isdir("/dev/shm") else None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cloudpickle": cloudpickle.__version__,
        "nproc": os.cpu_count(),
        "cores_visible": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "dev_shm_free_bytes": shm.f_bavail * shm.f_frsize if shm else 0,
        "loadavg_start": os.getloadavg()[0],
    }


def adopt_orphans():
    """Make this process the reaper of its whole tree: a process whose
    parent dies (a dist worker whose agent was killed) is handed to us, not
    to init, so ``stop_all`` can still find it and wait for it."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # orphans go to init; direct children are still waited for


def _kill(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def stop_all(graceful=True):
    """Stop every process this run started and wait until each has ended;
    True when none is left.  Called on every path out of a run.

    ``multiprocessing``'s resource tracker is one of them: spawn starts it,
    and it only notices that we are gone when its pipe closes, so left alone
    it outlives the benchmark by a moment.  ``graceful`` closes that pipe
    and waits for it (it unlinks what it tracks on the way out), after
    killing everything else, which holds the pipe open too; whatever is
    still alive after that is killed."""
    if graceful:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        _kill(pid for pid in descendants() if pid != getattr(tracker, "_pid", None))
        try:
            tracker._stop()
        except Exception:  # no such method on this Python: killed below
            pass
    deadline = time.monotonic() + 10.0  # a killed process ends in milliseconds
    while True:
        alive = descendants()
        _kill(alive)
        try:  # reap what has ended, our own children and adopted ones
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            if not alive:
                return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)


def leaks(shm_before):
    """Descendant processes and shm segments a finished workload left."""
    # multiprocessing's resource tracker is a helper of this interpreter,
    # not of the runtime under test; stop_all ends it.
    procs = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline") as handle:
                if "resource_tracker" not in handle.read():
                    procs.append(pid)
        except OSError:
            pass
    return procs, sorted(shm_entries() - shm_before)


def start_watchdog(seconds, shm_before):
    """Hard limit on one run: kill the process tree and wait for it, unlink
    what it made in ``/dev/shm``, and exit non-zero without printing a result."""

    def fire():
        sys.stderr.write(f"perfbench: watchdog fired after {seconds} s\n")
        stop_all(graceful=False)
        for name in shm_entries() - shm_before:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        os._exit(3)

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    timer.start()
    return timer
