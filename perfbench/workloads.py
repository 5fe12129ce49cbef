"""The five workloads.  Each drives a live backend through the public API
only, checks every result against a value computed here, and feeds the
``Ctx`` it is handed; the harness owns sessions, warm-up and reduction.

Every timed loop repeats one fixed unit of work (a wave of 200 tasks, a
round, one request) until its share of the session's seconds is spent,
and the metrics are medians over those units: two commits do identical
work per unit however many units fit.
"""

import concurrent.futures
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro
from perfbench import fns

#: Every blocking call carries this timeout (seconds); expiry is a failure.
TIMEOUT = 60.0
#: 1 MiB of float64: large enough that the data plane, not the fixed
#: per-task cost, dominates an operation.
ARRAY_LEN = (1 << 20) // 8
ARRAY_BYTES = ARRAY_LEN * 8

now = time.perf_counter


@dataclass
class Workload:
    name: str
    why: str
    init: dict  # repro.init(...) arguments
    warm: Callable  # first warm result of every function used; ends setup_s
    phases: Callable  # (ctx, seconds, warm) -> None, the timed work
    latency_key: str  # the sample list that is the latency_p50_ms slot
    #: Whether that operation's time is CPU work (read at reference host
    #: speed) or set by a timer in the program (read as wall-clock).
    latency_cpu_bound: bool
    #: The issue's metric names: name -> (sample key, unit, median -> value).
    named: dict


# -- call generators: rng -> (remote function, args, check(value)) ---------


def _tick(rng):
    x = rng.randrange(1 << 30)
    return fns.tick, (x,), lambda v: v == x + 1


def _fan_out(width):
    def gen(rng):
        base = rng.randrange(1 << 20)
        expected = sum(base + i + 1 for i in range(width))
        return fns.fan_out, (base, width), lambda v: v == expected

    return gen


def _produce(rng):
    fill = float(rng.randrange(1, 1 << 20))
    return (
        fns.produce,
        (ARRAY_LEN, fill),
        lambda v: v.shape == (ARRAY_LEN,) and bool(np.all(v == fill)),
    )


def _same(value):
    return value


def _gb_per_s(objects):
    """Median ms of an operation that moves ``objects`` arrays -> GB/s."""
    return lambda ms: objects * ARRAY_BYTES / ms / 1e6


def _get(refs):
    """Values, or None when the get failed or timed out."""
    try:
        return repro.get(refs, timeout=TIMEOUT)
    except repro.ReproError:
        return None


# -- loop shapes ------------------------------------------------------------


def _waves(ctx, seconds, size, gen, tasks_per_call=1):
    """Closed loop, one client: submit ``size`` calls, get them all, repeat.
    One ``rate`` sample (tasks/s) per wave."""
    deadline = now() + seconds
    while True:
        calls = [gen(ctx.rng) for _ in range(size)]
        t0 = now()
        refs = [fn.remote(*args) for fn, args, _ in calls]
        t1 = now()
        values = _get(refs)
        t2 = now()
        wrong = size if values is None else sum(
            not check(v) for v, (_, _, check) in zip(values, calls)
        )
        tasks = size * tasks_per_call
        ctx.ops(tasks, wrong * tasks_per_call)
        ctx.rate(tasks / (t2 - t0))
        ctx.add("remote_call_us", (t1 - t0) / size * 1e6)
        ctx.add("get_wait_ms", (t2 - t1) * 1e3)
        wave = ctx.spans.add("wave", t0, t2)
        ctx.spans.add("api.submit", t0, t1, wave)
        ctx.spans.add("api.get", t1, t2, wave)
        if t2 >= deadline:
            return


def _call(ctx, gen, key, limit_ms, request, tasks_per_call=1):
    """One call alone: submit, get, then check outside the timed interval.
    Adds a ``key`` sample (ms, submit to value) and a ``key:submit`` sample
    (ms, the submitting call alone); returns the call's seconds."""
    fn, args, check = gen(ctx.rng)
    t0 = now()
    ref = fn.remote(*args)
    t1 = now()
    values = _get([ref])
    t2 = now()
    ok = values is not None and check(values[0])
    ctx.ops(tasks_per_call, 0 if ok else tasks_per_call)
    ctx.timed(key, (t2 - t0) * 1e3, ok, limit_ms)
    ctx.add(key + ":submit", (t1 - t0) * 1e3)
    op = ctx.spans.add(key, t0, t2, request=request)
    ctx.spans.add("api.submit", t0, t1, op, request)
    ctx.spans.add("api.get", t1, t2, op, request)
    return t2 - t0


def _sequential(ctx, seconds, gen, key, limit_ms, tasks_per_call=1, cap=None):
    """Closed loop, one client, one call in flight, until ``seconds`` are
    spent or ``cap`` calls were made."""
    deadline = now() + seconds
    count = 0
    while True:
        _call(ctx, gen, key, limit_ms, count, tasks_per_call)
        count += 1
        if now() >= deadline or count == cap:
            return


# -- small_tasks / dist_mixed -------------------------------------------------

RTT_LIMIT_MS = 10.0
FETCH_LIMIT_MS = 100.0


def _expect(ok, what):
    """Set-up results are checked like timed ones (``assert`` goes with -O)."""
    if not ok:
        raise RuntimeError(f"wrong result during set-up: {what}")


def _warm_tick(ctx):
    _expect(repro.get(fns.tick.remote(1), timeout=TIMEOUT) == 2, "tick")


def _small_tasks(ctx, seconds, warm):
    _waves(ctx, 0.6 * seconds, 200, _tick)
    _sequential(ctx, 0.4 * seconds, _tick, "rtt_ms", RTT_LIMIT_MS)


#: A node arena holds 127 one-MiB results and never gives space back, and
#: placement may put every ``produce`` on one node: stay well under it.
DIST_FETCHES = 40


def _warm_dist(ctx):
    _warm_tick(ctx)
    _expect(repro.get(fns.produce.remote(8, 1.0), timeout=TIMEOUT)[0] == 1.0, "produce")


def _dist_mixed(ctx, seconds, warm):
    _waves(ctx, 0.4 * seconds, 100, _tick)
    _sequential(ctx, 0.3 * seconds, _tick, "rtt_ms", RTT_LIMIT_MS)
    _sequential(
        ctx, 0.3 * seconds, _produce, "result_ms", FETCH_LIMIT_MS,
        cap=2 if warm else DIST_FETCHES,
    )


# -- nested_fanout ---------------------------------------------------------------

FAN = 100
#: An idle worker looks for work to steal every 20 ms, and the lone leaf of a
#: blocked root runs only when stolen: a nested round trip is ~25 ms today.
NESTED_LIMIT_MS = 100.0


def _warm_nested(ctx):
    _expect(repro.get(fns.fan_out.remote(0, 2), timeout=TIMEOUT) == 3, "fan_out")


def _nested_fanout(ctx, seconds, warm):
    _waves(ctx, 0.7 * seconds, 4, _fan_out(FAN), tasks_per_call=FAN + 1)
    _sequential(
        ctx, 0.3 * seconds, _fan_out(1), "nested_rtt_ms", NESTED_LIMIT_MS,
        tasks_per_call=2,
    )


# -- large_objects ---------------------------------------------------------------

#: ``put`` pins and arena space is never reclaimed: a session may write
#: 255 one-MiB objects into the default 256 MiB arena before every later
#: object silently takes the pipe.  3 (set-up) + 4 rounds x 4 (warm-up) +
#: 48 x 4 (timed) = 211 stays under it, so a session ends at 48 rounds or
#: at its seconds, whichever comes first.
LARGE_ROUNDS = 48
LARGE_LIMIT_MS = 100.0


class _Put:
    """``repro.put`` in the shape of a remote function, so a put followed
    by a driver-side get is timed like any other call."""

    remote = staticmethod(repro.put)


class _Chain:
    @staticmethod
    def remote(n, fill):
        return fns.consume.remote(fns.transform.remote(fns.produce.remote(n, fill)))


def _put(rng):
    fill = float(rng.randrange(1, 1 << 20))
    return (
        _Put,
        (np.full(ARRAY_LEN, fill),),
        lambda v: v.shape == (ARRAY_LEN,) and bool(np.all(v == fill)),
    )


def _chain(rng):
    fill = float(rng.randrange(1, 1 << 20))
    expected = 2.0 * (fill + 1.0) + ARRAY_LEN
    return _Chain, (ARRAY_LEN, fill), lambda v: v == expected


def _warm_large(ctx):
    for gen in (_put, _chain):
        fn, args, check = gen(ctx.rng)
        _expect(check(repro.get(fn.remote(*args), timeout=TIMEOUT)), fn.__name__)


def _large_objects(ctx, seconds, warm):
    """One round = the data plane used three ways: driver writes and reads
    (put + get), worker writes and driver reads (a task's result), worker
    to worker to driver (a three-task chain)."""
    deadline = now() + seconds
    for index in range(4 if warm else LARGE_ROUNDS):
        spent = _call(ctx, _put, "put_get_ms", LARGE_LIMIT_MS, index)
        spent += _call(ctx, _produce, "result_ms", LARGE_LIMIT_MS, index)
        spent += _call(ctx, _chain, "chain_ms", LARGE_LIMIT_MS, index, 3)
        # four objects crossed a process boundary: put, result, two in the chain
        ctx.rate(4.0 / spent)
        if now() >= deadline:
            return


# -- serving -------------------------------------------------------------------------

SERVE_RATE = 1000.0  # requests/s offered by the open loop
SERVE_LIMIT_MS = 10.0  # from the instant a request was due
SERVE_BURST = 1000  # requests submitted at once by the closed loop


def _warm_serving(ctx):
    pool = repro.ActorPool(
        fns.Echo, size=2, max_batch_size=8, batch_wait_ms=1.0,
        routing="least_loaded",
    )
    ctx.state["pool"] = pool
    futures = [pool.submit(i) for i in range(8)]
    _expect([f.result(timeout=TIMEOUT) for f in futures] == list(range(8)), "Echo")


def _results(futures):
    """Each future's value, None for one that failed, was shed or timed out."""
    values = []
    for future in futures:
        try:
            values.append(future.result(timeout=TIMEOUT))
        except (repro.ReproError, concurrent.futures.TimeoutError):
            values.append(None)
    return values


def _serve_open(ctx, pool, seconds):
    """Open loop: requests are due on a seeded Poisson schedule whether or
    not earlier ones finished, and each is timed from when it was due."""
    due, at = [], 0.0
    while at < seconds:
        due.append(at)
        at += ctx.rng.expovariate(SERVE_RATE)
    values = [ctx.rng.randrange(1 << 30) for _ in due]
    done_at = [0.0] * len(due)

    def mark(index):
        def callback(_future):
            done_at[index] = now()

        return callback

    sent_at, returned_at, futures = [], [], []
    start = now()
    for index, offset in enumerate(due):
        delay = start + offset - now()
        if delay > 0:
            time.sleep(delay)
        sent_at.append(now())
        try:
            future = pool.submit(values[index])
        except repro.ReproError as exc:  # shed by admission control
            future = concurrent.futures.Future()
            future.set_exception(exc)
        returned_at.append(now())
        future.add_done_callback(mark(index))
        futures.append(future)
    results = _results(futures)
    gave_up = now()  # the "done" of a request whose callback never ran
    for index, offset in enumerate(due):
        ok = results[index] == values[index]
        ctx.ops(1, 0 if ok else 1)
        due_at = start + offset
        done = done_at[index] or gave_up
        ctx.timed("serve_ms", (done - due_at) * 1e3, ok, SERVE_LIMIT_MS)
        ctx.add("generator_late_ms", (sent_at[index] - due_at) * 1e3)
        ctx.add("serve_submit_us", (returned_at[index] - sent_at[index]) * 1e6)
        op = ctx.spans.add("request", due_at, done, request=index)
        ctx.spans.add("serve.submit", sent_at[index], returned_at[index], op, index)


def _serve_closed(ctx, pool, seconds):
    """Closed loop: a burst submitted at once, waited for, repeated."""
    deadline = now() + seconds
    while True:
        values = [ctx.rng.randrange(1 << 30) for _ in range(SERVE_BURST)]
        t0 = now()
        futures = [pool.submit(v) for v in values]
        t1 = now()
        results = _results(futures)
        t2 = now()
        ctx.ops(SERVE_BURST, sum(r != v for r, v in zip(results, values)))
        ctx.rate(SERVE_BURST / (t2 - t0))
        burst = ctx.spans.add("burst", t0, t2)
        ctx.spans.add("serve.submit", t0, t1, burst)
        if t2 >= deadline:
            return


def _serving(ctx, seconds, warm):
    pool = ctx.state["pool"]
    _serve_open(ctx, pool, 0.6 * seconds)
    _serve_closed(ctx, pool, 0.4 * seconds)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small_tasks",
            "driver-born tiny tasks on proc: api, core, codec, pipe transport, "
            "gcs write-ahead, placement, worker, completion; shm, serve and "
            "dist idle",
            dict(backend="proc", num_workers=2),
            _warm_tick, _small_tasks,
            "rtt_ms", True,
            {"tasks_per_s": ("rate_raw", "1/s", _same),
             "task_rtt_p50_ms": ("rtt_ms", "ms", _same)},
        ),
        Workload(
            "nested_fanout",
            "the same tiny tasks born on workers: sched_plane local queues and "
            "stealing do the work and the driver submit path is bypassed",
            dict(backend="proc", num_workers=2, dispatch_mode="bottom_up"),
            _warm_nested, _nested_fanout,
            "nested_rtt_ms", False,  # the 20 ms steal poll
            {"nested_tasks_per_s": ("rate_raw", "1/s", _same)},
        ),
        Workload(
            "large_objects",
            "1 MiB arrays through shm three ways (driver write, worker write, "
            "worker read): frame codec and data plane dominate, per-task cost "
            "is the minority",
            dict(backend="proc", num_workers=2),
            _warm_large, _large_objects,
            "chain_ms", True,
            {"put_gb_per_s": ("put_get_ms:submit", "GB/s", _gb_per_s(1)),
             "result_gb_per_s": ("result_ms", "GB/s", _gb_per_s(1)),
             "chain_gb_per_s": ("chain_ms", "GB/s", _gb_per_s(2))},
        ),
        Workload(
            "serving",
            "ActorPool micro-batching, routing and the completion pump at 1000 "
            "req/s open loop, then closed-loop bursts; task graph and data "
            "plane idle",
            dict(backend="proc", num_workers=2),
            _warm_serving, _serving,
            "serve_ms", False,  # the 1 ms batch wait and the arrival schedule
            {"serve_p50_ms": ("serve_ms", "ms", _same),
             "serve_closed_qps": ("rate_raw", "1/s", _same)},
        ),
        Workload(
            "dist_mixed",
            "the small_tasks driver core through dist node agents and TCP, plus "
            "1 MiB node-to-driver result fetches: shows a proc change that "
            "costs dist",
            dict(backend="dist", num_nodes=2, workers_per_node=1),
            _warm_dist, _dist_mixed,
            "result_ms", True,
            {"tasks_per_s": ("rate_raw", "1/s", _same),
             "task_rtt_p50_ms": ("rtt_ms", "ms", _same),
             "result_gb_per_s": ("result_ms", "GB/s", _gb_per_s(1))},
        ),
    )
}
