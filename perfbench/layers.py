"""The per-layer table of a traced run, taken from outside the program.

Four sources (README.md, "Per-layer metrics"): S bench-side timings around
public calls, E the runtime's own event log, C counter deltas of
``runtime.stats()`` / ``pool.stats()`` over the timed phase, P micro-probes
of a layer's public functions, plus CPU time from ``/proc``.  A metric a
workload or backend cannot supply is ``None`` with a reason, never a crash.
"""

import collections
import os
import statistics
import time

from repro.obs import resolve_event_log

from perfbench import env

#: name, unit, better, source.  The order is the order of the printed table.
PER_LAYER = [
    ("api.remote_call_us", "us", "lower", "S"),
    ("api.get_wait_ms", "ms", "lower", "S"),
    ("api.put_ms", "ms", "lower", "S"),
    ("api.result_get_ms", "ms", "lower", "S"),
    ("api.chain_ms", "ms", "lower", "S"),
    ("api.task_rtt_p50_ms", "ms", "lower", "S"),
    ("api.task_rtt_p95_ms", "ms", "lower", "S"),
    ("api.task_rtt_p99_ms", "ms", "lower", "S"),
    ("core.build_task_spec_us", "us", "lower", "P"),
    ("codec.encode_task_us", "us", "lower", "P"),
    ("codec.decode_task_us", "us", "lower", "P"),
    ("codec.task_msg_bytes", "bytes", "lower", "P"),
    ("codec.write_frame_gb_per_s", "GB/s", "higher", "P"),
    ("codec.deserialize_frame_us", "us", "lower", "P"),
    ("transport.pipe_roundtrip_us", "us", "lower", "P"),
    ("transport.tcp_roundtrip_us", "us", "lower", "P"),
    ("gcs.task_put_us", "us", "lower", "P"),
    ("gcs.task_put_1shard_us", "us", "lower", "P"),
    ("gcs.task_put_durable_us", "us", "lower", "P"),
    ("gcs.task_put_2thr_ops_per_s", "1/s", "higher", "P"),
    ("gcs.ops_per_task", "count", "lower", "C"),
    ("gcs.contended_ops", "count", "lower", "C"),
    ("gcs.async_backlog_max", "count", "lower", "C"),
    ("sched_plane.plan_placement_us", "us", "lower", "P"),
    ("sched_plane.queue_push_pop_us", "us", "lower", "P"),
    ("sched_plane.placed_local_share", "share", "higher", "C"),
    ("sched_plane.stolen_share", "share", "lower", "C"),
    ("sched_plane.spilled", "count", "lower", "C"),
    ("sched_plane.locality_hit_share", "share", "higher", "C"),
    ("proc.submit_to_placed_us", "us", "lower", "E"),
    ("proc.placed_to_started_us", "us", "lower", "E"),
    ("proc.exec_us", "us", "lower", "E"),
    ("proc.finished_to_stored_us", "us", "lower", "E"),
    ("proc.worker_busy_share", "share", "higher", "E"),
    ("proc.driver_cpu_us_per_task", "us", "lower", "CPU"),
    ("proc.worker_cpu_us_per_task", "us", "lower", "CPU"),
    ("proc.driver_unattributed_us", "us", "lower", "CPU"),
    ("shm.store_put_gb_per_s", "GB/s", "higher", "P"),
    ("shm.store_get_us", "us", "lower", "P"),
    ("shm.hits", "count", "higher", "C"),
    ("shm.zero_copy_bytes", "bytes", "higher", "C"),
    ("shm.pipe_fallbacks", "count", "lower", "C"),
    ("shm.seal_count", "count", "lower", "E"),
    ("shm.fetch_count", "count", "lower", "E"),
    ("serve.submit_call_us", "us", "lower", "S"),
    ("serve.mean_batch_size", "count", "higher", "C"),
    ("serve.largest_batch", "count", "higher", "C"),
    ("serve.shed", "count", "lower", "C"),
    ("serve.failed", "count", "lower", "C"),
    ("serve.lat_p95_ms", "ms", "lower", "S"),
    ("serve.lat_p99_ms", "ms", "lower", "S"),
    ("serve.generator_late_p99_ms", "ms", "lower", "S"),
    ("dist.internode_fetches", "count", "lower", "C"),
    ("dist.internode_bytes", "bytes", "lower", "C"),
    ("dist.bytes_per_result", "bytes", "lower", "C"),
    ("dist.agent_cpu_us_per_task", "us", "lower", "CPU"),
    ("obs.overhead_pct", "%", "lower", "S"),
    ("obs.spans_recorded", "count", "lower", "C"),
    ("obs.spans_dropped", "count", "lower", "C"),
    ("obs.clock_skew_est_ms", "ms", "lower", "C"),
    ("env.host_steal_pct", "%", "lower", "ENV"),
    ("env.loadavg_start", "count", "lower", "ENV"),
    ("env.cores_visible", "count", "higher", "ENV"),
    ("env.host_yardstick_ms", "ms", "lower", "ENV"),
    ("env.run_s", "s", "lower", "ENV"),
]

#: Consecutive lifecycle events of one task and the stage between them.
_STAGES = [
    ("proc.submit_to_placed_us", "task_submitted", "task_placed"),
    ("proc.placed_to_started_us", "task_placed", "task_started"),
    ("proc.exec_us", "task_started", "task_finished"),
    ("proc.finished_to_stored_us", "task_finished", "result_stored"),
]
_LIFECYCLE = {kind for _, a, b in _STAGES for kind in (a, b)}


def snapshot(runtime, ctx):
    """Counters and CPU clocks at one edge of a session's timed phase."""
    workers = set(runtime.worker_pids())
    pool = ctx.state.get("pool")
    return {
        "stats": runtime.stats(),
        "pool": pool.stats() if pool is not None else None,
        "cpu_driver": env.cpu_seconds([os.getpid()]),
        "cpu_workers": env.cpu_seconds(workers),
        # on dist, the node agents (plus multiprocessing's idle tracker)
        "cpu_others": env.cpu_seconds(set(env.descendants()) - workers),
        "ops": ctx.attempted,
        "mono": time.monotonic(),
    }


def _walk(tree, path):
    for key in path:
        tree = tree[key]
    return tree


class TraceData:
    """What the traced sessions of one run add up to."""

    def __init__(self):
        self.counts = collections.Counter()  # summed over sessions
        self.peaks = collections.Counter()  # maximum over sessions
        self.stage_us = collections.defaultdict(list)  # per-task stage times
        self.kinds_seen = set()
        self.busy_s = 0.0
        self.capacity_s = 0.0  # window x workers, what busy_s is a share of
        self.control_rates = []  # the untraced sessions' throughput samples

    def collect(self, runtime, before, after, first_submit_mono):
        counts, peaks = self.counts, self.peaks
        for name, path in (
            ("gcs.ops", ("stats", "control", "ops_total")),
            ("gcs.contended", ("stats", "control", "contended_ops")),
            ("tasks_executed", ("stats", "tasks_executed")),
            ("sched.local", ("stats", "sched", "tasks_placed_local")),
            ("sched.global", ("stats", "sched", "tasks_placed_global")),
            ("sched.spilled", ("stats", "sched", "tasks_spilled")),
            ("sched.stolen", ("stats", "sched", "tasks_stolen")),
            ("sched.locality_hits", ("stats", "sched", "placement_locality_hits")),
            ("shm.hits", ("stats", "shm", "shm_hits")),
            ("shm.zero_copy_bytes", ("stats", "shm", "zero_copy_bytes")),
            ("shm.pipe_fallbacks", ("stats", "shm", "pipe_fallbacks")),
            ("dist.fetches", ("stats", "cluster", "internode", "internode_fetches")),
            ("dist.bytes", ("stats", "cluster", "internode", "internode_bytes")),
            ("cpu_driver", ("cpu_driver",)),
            ("cpu_workers", ("cpu_workers",)),
            ("cpu_others", ("cpu_others",)),
            ("ops", ("ops",)),
        ):
            counts[name] += _walk(after, path) - _walk(before, path)
        if after["pool"] is not None:
            for key in ("completed", "batches", "shed", "failed"):
                counts["serve." + key] += after["pool"][key] - before["pool"][key]
            peaks["serve.largest_batch"] = max(
                peaks["serve.largest_batch"], after["pool"]["largest_batch"]
            )
            counts["serve.pools"] += 1
        stats = after["stats"]
        peaks["gcs.async_backlog_max"] = max(
            peaks["gcs.async_backlog_max"], stats["control"]["async_backlog_max"]
        )
        counts["obs.spans_recorded"] += stats["obs"]["spans_recorded"]
        counts["obs.spans_dropped"] += stats["obs"]["spans_dropped"]
        peaks["obs.clock_skew_ms"] = max(
            peaks["obs.clock_skew_ms"], stats["obs"]["clock_skew_est"] * 1e3
        )
        self._collect_events(
            resolve_event_log(runtime), before, after, first_submit_mono,
            stats["num_workers"],
        )

    def _collect_events(self, log, before, after, first_submit_mono, workers):
        if log is None:
            return
        records = list(log)
        self.kinds_seen.update(record.kind for record in records)
        submitted = [r for r in records if r.kind == "task_submitted"]
        if not submitted:
            return
        # Log time is seconds since the collector was made inside init();
        # the first submission recorded is the one set-up made right after
        # ``first_submit_mono``, which ties log time to this process's clock.
        offset = first_submit_mono - min(r.timestamp for r in submitted)
        lo, hi = before["mono"] - offset, after["mono"] - offset
        tasks = collections.defaultdict(dict)
        for record in records:
            if record.kind in _LIFECYCLE:
                tasks[record.get("task_id")].setdefault(record.kind, record.timestamp)
            elif lo <= record.timestamp <= hi:
                self.counts["events." + record.kind] += 1
        for times in tasks.values():
            if not lo <= times.get("task_submitted", times.get("task_started", -1.0)) <= hi:
                continue  # set-up and warm-up tasks
            for name, first, second in _STAGES:
                if first in times and second in times:
                    self.stage_us[name].append((times[second] - times[first]) * 1e6)
            if "task_started" in times and "task_finished" in times:
                self.busy_s += times["task_finished"] - times["task_started"]
        self.capacity_s += (hi - lo) * workers


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def table(workload, ctx, data, probes, environment):
    """``name -> {value or None, unit, n, source, reason}`` for every
    PER_LAYER metric, in PER_LAYER's order."""
    samples, counts, peaks = ctx.samples, data.counts, data.peaks
    out = {}

    def sampled(name, key, reduce=statistics.median):
        values = samples.get(key)
        if values:
            out[name] = (reduce(values), len(values), None)
        else:
            out[name] = (None, 0, f"{workload.name} makes no such call")

    def ratio(name, top, bottom, reason, scale=1.0):
        if bottom:
            out[name] = (scale * top / bottom, int(bottom), None)
        else:
            out[name] = (None, 0, reason)

    def count(name, value):
        out[name] = (value, 1, None)

    sampled("api.remote_call_us", "remote_call_us")
    sampled("api.get_wait_ms", "get_wait_ms")
    sampled("api.put_ms", "put_get_ms:submit")
    sampled("api.result_get_ms", "result_ms")
    sampled("api.chain_ms", "chain_ms")
    sampled("api.task_rtt_p50_ms", "rtt_ms")
    sampled("api.task_rtt_p95_ms", "rtt_ms", lambda v: _percentile(v, 0.95))
    sampled("api.task_rtt_p99_ms", "rtt_ms", lambda v: _percentile(v, 0.99))
    for name, (value, n) in probes.items():
        out[name] = (value, n, None)

    ops = counts["ops"]
    no_ops = "no operation ran in a traced session"
    ratio("gcs.ops_per_task", counts["gcs.ops"], ops, no_ops)
    count("gcs.contended_ops", counts["gcs.contended"])
    count("gcs.async_backlog_max", peaks["gcs.async_backlog_max"])
    placed = counts["sched.local"] + counts["sched.global"]
    ratio("sched_plane.placed_local_share", counts["sched.local"], placed,
          "no task was placed")
    ratio("sched_plane.stolen_share", counts["sched.stolen"],
          counts["tasks_executed"], "no task executed")
    count("sched_plane.spilled", counts["sched.spilled"])
    ratio("sched_plane.locality_hit_share", counts["sched.locality_hits"],
          counts["sched.global"], "the driver tier placed no task")

    for name, first, second in _STAGES:
        values = data.stage_us.get(name)
        if values:
            out[name] = (statistics.median(values), len(values), None)
        else:
            absent = [k for k in (first, second) if k not in data.kinds_seen]
            out[name] = (None, 0, (
                f"event kind {' and '.join(absent)} not emitted on this backend"
                if absent else f"no task has both {first} and {second}"
            ))
    # above 1 when a task blocked in get covers the tasks run inside it
    executed = len(data.stage_us["proc.exec_us"])
    out["proc.worker_busy_share"] = (
        (data.busy_s / data.capacity_s, executed, None) if executed
        else (None, 0, "no task_started/task_finished pair in the event log")
    )
    ratio("proc.driver_cpu_us_per_task", counts["cpu_driver"], ops, no_ops, 1e6)
    ratio("proc.worker_cpu_us_per_task", counts["cpu_workers"], ops, no_ops, 1e6)
    if ops:
        explained = (
            probes["core.build_task_spec_us"][0]
            + probes["codec.encode_task_us"][0]
            + probes["codec.decode_task_us"][0]
            + probes["gcs.task_put_us"][0] * counts["gcs.ops"] / ops
            + probes["sched_plane.plan_placement_us"][0]
        )
        out["proc.driver_unattributed_us"] = (
            out["proc.driver_cpu_us_per_task"][0] - explained, ops, None
        )
    else:
        out["proc.driver_unattributed_us"] = (None, 0, no_ops)

    count("shm.hits", counts["shm.hits"])
    count("shm.zero_copy_bytes", counts["shm.zero_copy_bytes"])
    count("shm.pipe_fallbacks", counts["shm.pipe_fallbacks"])
    count("shm.seal_count", counts["events.shm_seal"])
    count("shm.fetch_count", counts["events.shm_fetch"])

    sampled("serve.submit_call_us", "serve_submit_us")
    no_pool = f"{workload.name} has no ActorPool"
    ratio("serve.mean_batch_size", counts["serve.completed"],
          counts["serve.batches"], no_pool)
    for name, value in (
        ("serve.largest_batch", peaks["serve.largest_batch"]),
        ("serve.shed", counts["serve.shed"]),
        ("serve.failed", counts["serve.failed"]),
    ):
        out[name] = (value, 1, None) if counts["serve.pools"] else (None, 0, no_pool)
    sampled("serve.lat_p95_ms", "serve_ms", lambda v: _percentile(v, 0.95))
    sampled("serve.lat_p99_ms", "serve_ms", lambda v: _percentile(v, 0.99))
    sampled("serve.generator_late_p99_ms", "generator_late_ms",
            lambda v: _percentile(v, 0.99))

    count("dist.internode_fetches", counts["dist.fetches"])
    count("dist.internode_bytes", counts["dist.bytes"])
    ratio("dist.bytes_per_result", counts["dist.bytes"], counts["dist.fetches"],
          "no object crossed a node boundary")
    if workload.init["backend"] == "dist":
        ratio("dist.agent_cpu_us_per_task", counts["cpu_others"], ops, no_ops, 1e6)
    else:
        out["dist.agent_cpu_us_per_task"] = (None, 0, "proc has no node agents")

    traced, control = samples.get("rate"), data.control_rates
    if traced and control:
        base = statistics.median(control)
        out["obs.overhead_pct"] = (
            100.0 * (base - statistics.median(traced)) / base, len(traced), None
        )
    else:
        out["obs.overhead_pct"] = (None, 0, "no untraced session to compare with")
    count("obs.spans_recorded", counts["obs.spans_recorded"])
    count("obs.spans_dropped", counts["obs.spans_dropped"])
    count("obs.clock_skew_est_ms", peaks["obs.clock_skew_ms"])

    for key, value in environment.items():
        count("env." + key, value)
    return {
        name: dict(zip(("value", "n", "reason"), out[name]), unit=unit, source=source)
        for name, unit, _, source in PER_LAYER
    }
