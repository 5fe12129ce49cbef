"""One run of one workload: sessions, warm-up, timed phases, reduction.

A run is ``SESSIONS`` independent sessions (``repro.init`` ... ``shutdown``),
each measuring for ``seconds / SESSIONS``: where processes and pages land
differs from one ``init`` to the next, and a median over sessions is what
repeats from run to run.  It also gives ``setup_s`` one sample per session.
"""

import collections
import os
import random
import statistics
import time

import repro
from perfbench import env, fns, layers
from perfbench.spans import Spans
from perfbench.workloads import TIMEOUT

SESSIONS = 5
#: Warm-up is the timed phase's own shape at this share of its seconds.
WARM_SHARE = 0.15
#: CPU-bound numbers are reported as they would read on a host whose
#: yardstick (env.yardstick_ms) takes this long; see Ctx.host_factor.
YARDSTICK_REF_MS = 1.0
#: The host's speed is measured again when the last reading is this old (s).
YARDSTICK_EVERY = 0.05

now = time.perf_counter


class Ctx:
    """What a workload writes to: samples, operation counts, spans."""

    def __init__(self, seed, spans):
        self.rng = random.Random(seed)
        self.spans = spans
        self.samples = collections.defaultdict(list)
        self.recording = False
        self.attempted = 0
        self.failed = 0
        self.timed_ops = 0  # operations that carry a latency limit ...
        self.within = 0  # ... and were correct and inside it
        self.state = {}  # per-session objects (the serving pool)
        self.yardsticks = []  # every reading of the run, ms
        self._recent = collections.deque(maxlen=5)
        self._read_at = 0.0

    def host_factor(self, fresh=False):
        """How slow the host is right now: the median of the last five
        yardstick readings over the reference, 1.0 on the reference host.

        Pinned to one CPU, every CPU-bound number here tracks the yardstick
        from run to run (r = 0.86-0.97) while the host's speed swings by a
        quarter between minutes; scaling by this factor about halves the
        spread on four of the five workloads (SEED_REPORT.md).
        A reading costs 1 ms and is taken between units of work, at most
        every YARDSTICK_EVERY seconds; ``fresh`` starts over with five.
        """
        if fresh:
            self._recent.clear()
        if fresh or now() - self._read_at > YARDSTICK_EVERY:
            for _ in range(5 if fresh else 1):
                reading = env.yardstick_ms()
                self._recent.append(reading)
                self.yardsticks.append(reading)
            self._read_at = now()
        return statistics.median(self._recent) / YARDSTICK_REF_MS

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def add(self, key, value):
        if self.recording:
            self.samples[key].append(value)

    def rate(self, per_second):
        """One unit's throughput: as measured under ``rate_raw``, and at
        reference host speed under ``rate``."""
        if self.recording:
            self.samples["rate_raw"].append(per_second)
            self.samples["rate"].append(per_second * self.host_factor())

    def timed(self, key, ms, ok, limit_ms):
        """A latency sample, as measured under ``key`` and at reference host
        speed under ``key@ref``; the limit is wall-clock, and a failed
        operation misses it."""
        if self.recording:
            self.samples[key].append(ms)
            self.samples[key + "@ref"].append(ms / self.host_factor())
            self.timed_ops += 1
            self.within += ok and ms <= limit_ms


def _throwaway(workload):
    """One untimed init -> task -> shutdown: page cache and .pyc files are
    warm before the first timed set-up, as they are on every later one."""
    repro.init(**workload.init)
    try:
        repro.get(fns.tick.remote(0), timeout=TIMEOUT)
    finally:
        repro.shutdown()


def pin_to_one_cpu():
    """Run this process, and every worker and agent it will spawn, on one CPU.

    On the 2-vCPU sandbox a wake-up that crosses vCPUs goes through the
    host, and its cost swings 3-5x between minutes: unpinned, the same code
    gave 700-2500 tasks/s.  On one vCPU every hand-over is a local context
    switch; the run is steady (and faster).  The price is that gains from
    running in parallel do not show: see README.md, "Not measured".
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, seed, seconds, trace):
    """Returns ``(ctx, trace_data)``; ``trace_data`` is None unless ``trace``.

    A traced run alternates traced and untraced sessions: per-layer numbers
    come from the traced ones only, and the untraced ones are the baseline
    ``obs.overhead_pct`` compares them with.
    """
    spans = Spans(False)
    ctx = Ctx(seed, spans)
    traced_samples, control = ctx.samples, collections.defaultdict(list)
    trace_data = layers.TraceData() if trace else None
    _throwaway(workload)
    for index in range(SESSIONS):
        traced = bool(trace) and index % 2 == 0
        spans.enabled = traced
        ctx.samples = control if trace and not traced else traced_samples
        ctx.state = {}
        start = now()
        runtime = repro.init(seed=seed + index, tracing=traced, **workload.init)
        try:
            first_submit = time.monotonic()
            workload.warm(ctx)
            setup = (now() - start) / ctx.host_factor(fresh=True)
            workload.phases(ctx, WARM_SHARE * seconds / SESSIONS, True)
            before = layers.snapshot(runtime, ctx) if traced else None
            ctx.recording = True
            ctx.add("setup_s", setup)
            workload.phases(ctx, seconds / SESSIONS, False)
            ctx.recording = False
            if traced:
                trace_data.collect(
                    runtime, before, layers.snapshot(runtime, ctx), first_submit
                )
            if runtime.stats()["shm"]["pipe_fallbacks"]:
                # a large object that silently took the pipe measures
                # something else: the run is wrong, not slow
                ctx.ops(0, 1)
        finally:
            repro.shutdown()
    if trace:
        ctx.samples = traced_samples
        trace_data.control_rates = control["rate"]
    return ctx, trace_data


def _row(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def end_to_end(workload, ctx):
    """The end-to-end metrics of one run, ``name -> {value, unit, n}``.

    Throughput and set-up time are CPU-bound on every workload and read at
    reference host speed; latency does where the operation is CPU-bound and
    is wall-clock where a timer sets it (``Workload.latency_cpu_bound``)."""
    samples = ctx.samples
    latency = samples[workload.latency_key + ("@ref" if workload.latency_cpu_bound else "")]
    return {
        "setup_s": _row(statistics.median(samples["setup_s"]), "s", len(samples["setup_s"])),
        "throughput_per_s": _row(statistics.median(samples["rate"]), "1/s", len(samples["rate"])),
        "latency_p50_ms": _row(statistics.median(latency), "ms", len(latency)),
        "within_limit_share": _row(ctx.within / ctx.timed_ops, "share", ctx.timed_ops),
    }


def named(workload, ctx):
    """The same operations under the issue's metric names, as measured on
    this host (reported, not gated: the gates are the four metrics above)."""
    return {
        name: _row(convert(statistics.median(ctx.samples[key])), unit, len(ctx.samples[key]))
        for name, (key, unit, convert) in workload.named.items()
    }


def check_leaks(shm_before):
    procs, segments = env.leaks(shm_before)
    if procs or segments:  # __main__ stops them on the way out
        raise RuntimeError(
            f"leaked after shutdown: processes {procs}, /dev/shm {segments}"
        )
