"""E6 — requirement R2: task throughput scales with control-plane shards.

Paper: "support for high-throughput task execution on the order of
millions of tasks per second", achieved by sharding the database ("since
the keys are computed as hashes, sharding is straightforward") and by
hybrid scheduling keeping most work off the global scheduler.

The storm uses *nested* task creation — spawner tasks fan out no-ops from
workers across the cluster (R3) — so submission itself is parallel and
the control plane, not the driver, is the contended resource.  We sweep
shard counts and compare against the centralized-scheduler architecture.
"""

import multiprocessing
import os
import time

import repro
from _artifacts import emit_bench_json, environment_stamp
from _tables import print_table
from repro.proc.messages import TASK
from repro.proc.transport import encode_message

NUM_SPAWNERS = 16
PER_SPAWNER = 100

#: Proc-mode sweep: CPU-bound tasks against a growing worker-process pool.
PROC_TASKS = 8
PROC_BURN_ITERS = 400_000


@repro.remote
def storm_noop():
    return 1


@repro.remote
def storm_spawner(count):
    return [storm_noop.remote() for _ in range(count)]


def _storm(num_shards: int, scheduler_mode: str) -> dict:
    runtime = repro.init(
        backend="sim",
        num_nodes=8,
        num_cpus=8,
        num_gcs_shards=num_shards,
        scheduler_mode=scheduler_mode,
    )
    start = repro.now()
    spawner_refs = [storm_spawner.remote(PER_SPAWNER) for _ in range(NUM_SPAWNERS)]
    leaf_refs = [ref for refs in repro.get(spawner_refs) for ref in refs]
    repro.wait(leaf_refs, num_returns=len(leaf_refs))
    elapsed = repro.now() - start
    total_tasks = NUM_SPAWNERS * (1 + PER_SPAWNER)
    stats = runtime.stats()
    repro.shutdown()
    return {
        "tasks": total_tasks,
        "elapsed": elapsed,
        "throughput": total_tasks / elapsed,
        "gcs_ops": stats["gcs_ops"],
        "spilled": stats["tasks_spilled"],
    }


def _run_sweep() -> dict:
    sweep = {}
    for shards in (1, 2, 4, 8):
        sweep[f"hybrid/{shards}"] = _storm(shards, "hybrid")
    sweep["centralized/1"] = _storm(1, "centralized")
    return sweep


def test_e6_throughput_scaling(benchmark):
    sweep = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    rows = []
    for name, result in sweep.items():
        rows.append(
            (
                name,
                result["tasks"],
                f"{result['elapsed'] * 1e3:.1f} ms",
                f"{result['throughput']:,.0f} tasks/s",
                result["gcs_ops"],
                result["spilled"],
            )
        )
    print_table(
        "E6: R2 throughput — nested no-op storm vs control-plane shards",
        ["config (mode/shards)", "tasks", "makespan", "throughput",
         "gcs ops", "spilled"],
        rows,
    )
    benchmark.extra_info.update(
        {name: round(r["throughput"]) for name, r in sweep.items()}
    )
    emit_bench_json("e6", dict(benchmark.extra_info))

    # Shape: sharding buys throughput until the scheduler is the
    # bottleneck; the hybrid architecture beats the centralized one.
    assert sweep["hybrid/8"]["throughput"] > 1.3 * sweep["hybrid/1"]["throughput"]
    assert sweep["hybrid/4"]["throughput"] >= sweep["hybrid/1"]["throughput"]
    assert (
        sweep["hybrid/1"]["throughput"] > sweep["centralized/1"]["throughput"]
    )
    # Nested creation means workers, not the driver, source the tasks;
    # overflow beyond each node's slots spills to the global scheduler.
    assert all(
        result["spilled"] > 0
        for name, result in sweep.items()
        if name.startswith("hybrid")
    )


# ----------------------------------------------------------------------
# Proc mode: true parallelism on real cores (the GIL-free data point)
# ----------------------------------------------------------------------


def _burn(iterations):
    """Pure-Python arithmetic: holds the GIL, so only real processes can
    overlap it.  This is the workload threads cannot speed up."""
    total = 0
    for i in range(iterations):
        total += i * i
    return total


cpu_burn = repro.remote(_burn)


def _proc_storm(num_workers: int) -> dict:
    repro.init(backend="proc", num_workers=num_workers, num_cpus=num_workers)
    # Warm the pool (spawn + first-code-ship costs stay out of the timing).
    repro.get([cpu_burn.remote(10) for _ in range(num_workers)])
    start = time.perf_counter()
    refs = [cpu_burn.remote(PROC_BURN_ITERS) for _ in range(PROC_TASKS)]
    repro.get(refs)
    elapsed = time.perf_counter() - start
    repro.shutdown()
    return {
        "tasks": PROC_TASKS,
        "elapsed": elapsed,
        "throughput": PROC_TASKS / elapsed,
    }


def _bare_storm(processes: int) -> float:
    """The storm's makespan on ``processes`` bare ``multiprocessing``
    children — no ``repro`` anywhere."""
    with multiprocessing.get_context("spawn").Pool(processes) as pool:
        pool.map(_burn, [10] * processes, chunksize=1)  # children are up
        start = time.perf_counter()
        pool.map(_burn, [PROC_BURN_ITERS] * PROC_TASKS, chunksize=1)
        return time.perf_counter() - start


def _host_yardstick(processes: int) -> float:
    """What this host, right now, lets ``processes`` processes overlap:
    the bare storm's speedup over one process."""
    return _bare_storm(1) / _bare_storm(processes)


def test_e6_proc_true_parallelism(benchmark):
    """R2 on hardware instead of a model: CPU-bound task throughput must
    scale with worker *processes* — as far as the host lets processes
    scale at all.  ``os.cpu_count()`` does not say: a runner that shows
    two cores and is sharing them reads anywhere from 0.9x to 2.2x on
    one commit, and changes its mind within seconds.  So the same storm
    is also run on bare processes, right before and right after, as a
    yardstick (the lower reading counts): when *that* overlaps
    (>= 1.5x), ``repro`` must keep 0.8 of it; when it does not, the
    speedup is reported as not measured, with the reason — the runner's
    doing is not a result."""
    cores = os.cpu_count() or 1
    wide = min(4, max(2, cores))
    yardsticks = []

    def run_sweep():
        yardsticks.append(_host_yardstick(wide))
        sweep = {
            "workers/1": _proc_storm(1),
            f"workers/{wide}": _proc_storm(wide),
        }
        yardsticks.append(_host_yardstick(wide))
        return sweep

    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    yardstick = min(yardsticks)

    rows = [
        (name, result["tasks"], f"{result['elapsed'] * 1e3:.1f} ms",
         f"{result['throughput']:.2f} tasks/s")
        for name, result in sweep.items()
    ]
    print_table(
        f"E6: proc-backend CPU-bound storm ({cores} cores visible)",
        ["config", "tasks", "makespan", "throughput"],
        rows,
    )
    speedup = (
        sweep[f"workers/{wide}"]["throughput"] / sweep["workers/1"]["throughput"]
    )
    print(
        f"speedup {wide} workers vs 1: {speedup:.2f}x "
        f"(bare processes on this host: {yardstick:.2f}x)"
    )
    measured = yardstick >= 1.5
    benchmark.extra_info.update(
        {name: round(r["throughput"], 2) for name, r in sweep.items()}
    )
    benchmark.extra_info.update(
        {
            "proc_parallel_speedup": round(speedup, 2) if measured else None,
            "proc_parallel_yardstick": round(yardstick, 2),
            "proc_parallel_reason": None if measured else (
                f"not measured: {wide} bare processes only reached "
                f"{yardstick:.2f}x of one on this host (need 1.5x; repro read "
                f"{speedup:.2f}x)"
            ),
            "proc_parallel_env": environment_stamp(),
        }
    )
    emit_bench_json("e6", dict(benchmark.extra_info))
    if measured:
        assert speedup >= 0.8 * yardstick, (
            f"{wide} bare processes reach {yardstick:.2f}x of one on this "
            f"host, {wide} workers only {speedup:.2f}x (need 0.8 of it)"
        )


# ----------------------------------------------------------------------
# Proc mode, driver-born waves: dispatch frames on the small-task path
# ----------------------------------------------------------------------

WAVE_TASKS = 200
WAVE_ROUNDS = 5


class _FrameMeter:
    """A worker's transport, weighing the TASK frames sent through it."""

    def __init__(self, conn):
        self._conn = conn
        self.frames = 0
        self.frame_bytes = 0
        self.tasks = 0

    def send(self, message):
        if message[0] == TASK:
            self.frames += 1
            self.frame_bytes += len(encode_message(message))
            self.tasks += len(message[1])
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def driver_born_wave(**pool) -> dict:
    """Waves of no-ops from the driver on ``repro.init(**pool)`` — a
    wire backend, two workers: what a task costs in time, submit CPU,
    frames and bytes (``bench_e11`` runs the same waves on ``dist``)."""
    runtime = repro.init(**pool)
    try:
        repro.get([storm_noop.remote() for _ in range(WAVE_TASKS)], timeout=120.0)
        before = runtime.stats()["sched"]
        rates, submit_us = [], []
        for _ in range(WAVE_ROUNDS):
            start = time.perf_counter()
            cpu = time.thread_time()
            refs = [storm_noop.remote() for _ in range(WAVE_TASKS)]
            submit_us.append((time.thread_time() - cpu) / WAVE_TASKS * 1e6)
            values = repro.get(refs, timeout=120.0)
            rates.append(WAVE_TASKS / (time.perf_counter() - start))
            assert values == [1] * WAVE_TASKS
        after = runtime.stats()["sched"]
        # One more wave, untimed (the meters encode every frame a second
        # time): what the wire carries per task once the code is shipped.
        with runtime._cond:
            meters = []
            for worker in runtime._workers:
                worker.conn = _FrameMeter(worker.conn)
                meters.append(worker.conn)
        repro.get([storm_noop.remote() for _ in range(WAVE_TASKS)], timeout=120.0)
    finally:
        repro.shutdown()
    frames = after["frames_sent"] - before["frames_sent"]
    shipped = after["tasks_shipped"] - before["tasks_shipped"]
    return {
        "tasks_per_s": sorted(rates)[len(rates) // 2],
        "submit_us_per_call": sorted(submit_us)[len(submit_us) // 2],
        "task_bytes_per_task": sum(m.frame_bytes for m in meters)
        / sum(m.tasks for m in meters),
        "tasks_per_frame": shipped / frames,
        "tasks_per_done_frame": shipped
        / (after["done_frames"] - before["done_frames"]),
    }


def test_e6_proc_driver_born_wave_rides_frames(benchmark):
    """The driver-born hot path: a wave of no-ops submitted from the
    driver must reach the workers in dispatch frames, not one message
    exchange per task, and a task must cost the wire its arguments, not
    its metadata.  Throughput and submit CPU are recorded with the
    machine they were taken on; the gates are the machine-independent
    ones — the mean window per TASK frame and the bytes per task in
    one."""
    wave = benchmark.pedantic(
        driver_born_wave, kwargs={"backend": "proc", "num_workers": 2},
        rounds=1, iterations=1,
    )
    print_table(
        f"E6: proc driver-born waves ({WAVE_ROUNDS} x {WAVE_TASKS} no-ops, "
        "2 workers)",
        [
            "median tasks/s", "submit CPU us per call", "TASK bytes per task",
            "tasks per TASK frame", "tasks per DONE frame",
        ],
        [(
            f"{wave['tasks_per_s']:,.0f}",
            f"{wave['submit_us_per_call']:.1f}",
            f"{wave['task_bytes_per_task']:.0f}",
            f"{wave['tasks_per_frame']:.1f}",
            f"{wave['tasks_per_done_frame']:.1f}",
        )],
    )
    benchmark.extra_info.update(
        {
            "proc_wave_tasks_per_s": round(wave["tasks_per_s"]),
            "proc_submit_us_per_call": round(wave["submit_us_per_call"], 1),
            "proc_wave_task_bytes_per_task": round(wave["task_bytes_per_task"], 1),
            "proc_wave_tasks_per_frame": round(wave["tasks_per_frame"], 1),
            "proc_wave_env": environment_stamp(),
        }
    )
    emit_bench_json("e6", dict(benchmark.extra_info))
    assert wave["tasks_per_frame"] >= 4.0
    assert wave["task_bytes_per_task"] <= 130


# ----------------------------------------------------------------------
# Proc mode with heavy payloads: throughput on the shm data plane
# ----------------------------------------------------------------------

#: Each task returns a 1 MB array: with the pipe, every result crosses
#: the driver's pipes as bytes; with shm, only descriptors do.
HEAVY_TASKS = 16
HEAVY_ELEMS = 131_072  # 1 MB of float64


@repro.remote
def heavy_result(n, tag):
    import numpy

    return numpy.full(n, float(tag))


def _heavy_storm(shm_capacity: int) -> dict:
    from repro.shm.segment import shm_available

    if shm_capacity and not shm_available():
        return {}
    repro.init(backend="proc", num_workers=4, shm_capacity=shm_capacity)
    repro.get(heavy_result.remote(8, 0))  # warm the pool
    start = time.perf_counter()
    refs = [heavy_result.remote(HEAVY_ELEMS, i) for i in range(HEAVY_TASKS)]
    arrays = repro.get(refs, timeout=300.0)
    elapsed = time.perf_counter() - start
    assert all(arrays[i][0] == float(i) for i in range(HEAVY_TASKS))
    volume = HEAVY_TASKS * HEAVY_ELEMS * 8
    result = {
        "elapsed": elapsed,
        "throughput": HEAVY_TASKS / elapsed,
        "bandwidth": volume / elapsed,
    }
    if shm_capacity:
        del refs, arrays
        result.update(_large_object_steady_state())
    repro.shutdown()
    return result


#: Sequential 1 MiB put+get operations timed after the storm: more than
#: the 255 a 256 MiB arena holds at once, so an arena that never gave
#: space back would show in the late ones.
STEADY_OBJECTS = 300


def _large_object_steady_state() -> dict:
    """One object at a time, each dead before the next: the late ones
    (200-300) must cost what a write into warm, reused arena space costs,
    and no more than the early ones (3-13)."""
    import statistics

    import numpy

    times = []
    for index in range(STEADY_OBJECTS):
        array = numpy.full(HEAVY_ELEMS, float(index))
        start = time.perf_counter()
        value = repro.get(repro.put(array), timeout=60.0)
        times.append(time.perf_counter() - start)
        assert value[0] == index and value[-1] == index
    steady = statistics.median(times[200:300])
    return {
        "steady_ms": steady * 1e3,
        "cold_ratio": steady / statistics.median(times[3:13]),
    }


def test_e6_proc_shm_heavy_payload_throughput(benchmark):
    """R2 with real payloads: result throughput must not collapse when
    results are megabytes — the shm data plane keeps the pipes carrying
    descriptors only, so heavy-payload throughput beats the pipe path."""
    from repro.shm.segment import shm_available

    if not shm_available():
        import pytest

        pytest.skip("host has no POSIX shared memory")

    def run_sweep():
        return {
            "pipe": _heavy_storm(0),
            "shm": _heavy_storm(512 * 1024**2),
        }

    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        (
            name,
            HEAVY_TASKS,
            f"{result['elapsed'] * 1e3:.1f} ms",
            f"{result['throughput']:.1f} tasks/s",
            f"{result['bandwidth'] / 1e6:.0f} MB/s",
        )
        for name, result in sweep.items()
    ]
    print_table(
        f"E6: proc heavy-result storm ({HEAVY_TASKS} x 1 MB results)",
        ["data plane", "tasks", "makespan", "throughput", "result bandwidth"],
        rows,
    )
    benchmark.extra_info.update(
        {f"{name}_mb_s": round(r["bandwidth"] / 1e6) for name, r in sweep.items()}
    )
    benchmark.extra_info.update(
        {
            "proc_large_object_steady_ms": round(sweep["shm"]["steady_ms"], 3),
            "proc_large_object_cold_ratio": round(sweep["shm"]["cold_ratio"], 2),
            "proc_large_object_env": environment_stamp(),
        }
    )
    emit_bench_json("e6", dict(benchmark.extra_info))
    assert sweep["shm"]["throughput"] > sweep["pipe"]["throughput"], (
        "the shm data plane should beat the pipe on 1 MB results"
    )


# ----------------------------------------------------------------------
# Proc mode, nested tasks: what the bottom-up scheduling plane is for
# ----------------------------------------------------------------------

NESTED_SPAWNERS = 2
NESTED_PER_SPAWNER = 100


@repro.remote
def nested_noop():
    return 1


@repro.remote
def nested_timed_spawner(count):
    """Worker-born fan-out that measures its own submission cost: the
    time per nested ``.remote()`` as seen from inside the task body —
    a local enqueue plus a one-way notice on the fast path."""
    import time as _time

    start = _time.perf_counter()
    refs = [nested_noop.remote() for _ in range(count)]
    return refs, _time.perf_counter() - start


@repro.remote
def nested_spawn_and_get():
    """One worker-born child, waited for inside the task: the round
    trip the bottom-up scheduler exists for."""
    return repro.get(nested_noop.remote(), timeout=60.0)


@repro.remote
def nested_fan_out(count):
    """A worker-born fan-out gathered inside the task: on one worker
    every child runs inline, inside the get."""
    return sum(repro.get([nested_noop.remote() for _ in range(count)], timeout=60.0))


NESTED_ROUND_TRIPS = 50

#: Sequential ``nested_fan_out(100)`` calls behind the frame count.
NESTED_FANOUTS = 20


def _nested_storm() -> dict:
    repro.init(backend="proc", num_workers=2)
    try:
        # Warm the pool and both sides' per-function code caches.
        repro.get(
            [nested_timed_spawner.remote(3) for _ in range(2)], timeout=120.0
        )
        start = time.perf_counter()
        results = repro.get(
            [nested_timed_spawner.remote(NESTED_PER_SPAWNER)
             for _ in range(NESTED_SPAWNERS)],
            timeout=300.0,
        )
        leaf_refs = [ref for refs, _ in results for ref in refs]
        repro.wait(leaf_refs, num_returns=len(leaf_refs), timeout=300.0)
        elapsed = time.perf_counter() - start
        total = NESTED_SPAWNERS * NESTED_PER_SPAWNER
        submit_latency = sum(spent for _, spent in results) / total
        sched = repro.get_runtime().stats()["sched"]
        round_trips = []
        for _ in range(1 + NESTED_ROUND_TRIPS):  # the first one warms
            t0 = time.perf_counter()
            assert repro.get(nested_spawn_and_get.remote(), timeout=60.0) == 1
            round_trips.append(time.perf_counter() - t0)
    finally:
        repro.shutdown()
    return {
        "tasks": total,
        "elapsed": elapsed,
        "throughput": total / elapsed,
        "submit_latency": submit_latency,
        "sched": sched,
        "rtt": sorted(round_trips[1:])[NESTED_ROUND_TRIPS // 2],
    }


def _done_frames_per_fanout() -> float:
    """``DONE`` frames the driver applies per ``nested_fan_out(100)`` on
    a one-worker pool: how many times a fan-out's children report, which
    is a count of messages and does not depend on this host's speed."""
    repro.init(backend="proc", num_workers=1)
    try:
        runtime = repro.get_runtime()
        before = None
        for _ in range(1 + NESTED_FANOUTS):  # the first one warms
            assert repro.get(
                nested_fan_out.remote(NESTED_PER_SPAWNER), timeout=60.0
            ) == NESTED_PER_SPAWNER
            if before is None:
                before = runtime.stats()["sched"]["done_frames"]
        return (runtime.stats()["sched"]["done_frames"] - before) / NESTED_FANOUTS
    finally:
        repro.shutdown()


def test_e6_proc_nested_storm(benchmark):
    """Worker-born tasks with locally resident args ride the fast path
    (no driver round trip per submission), and a task that spawns one
    child and waits for it pays no timer."""

    def run_rounds():
        # Best of two rounds: single-core CI runners schedule the
        # driver and both workers on one CPU, which makes a single
        # round noisy in either direction.
        rounds = [_nested_storm() for _ in range(2)]
        best = dict(min(rounds, key=lambda r: r["elapsed"]))
        best["submit_latency"] = min(r["submit_latency"] for r in rounds)
        best["rtt"] = min(r["rtt"] for r in rounds)
        return best

    storm = benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    done_frames = _done_frames_per_fanout()

    print_table(
        f"E6: nested-task storm ({NESTED_SPAWNERS} spawners x "
        f"{NESTED_PER_SPAWNER} children)",
        ["tasks", "makespan", "throughput", "submit latency",
         "spawn+get rtt", "placed local", "stolen", "DONE frames / fan-out"],
        [
            (
                storm["tasks"],
                f"{storm['elapsed'] * 1e3:.1f} ms",
                f"{storm['throughput']:,.0f} tasks/s",
                f"{storm['submit_latency'] * 1e6:.0f} us",
                f"{storm['rtt'] * 1e3:.2f} ms",
                storm["sched"]["tasks_placed_local"],
                storm["sched"]["tasks_stolen"],
                f"{done_frames:.1f}",
            )
        ],
    )
    benchmark.extra_info.update(
        {
            # Median of 50 sequential spawn-one-and-get round trips: the
            # machine-independent "no timer on this path" gate (it read
            # 22 ms, one steal-poll tick, until the poll was deleted).
            "proc_nested_rtt_ms": round(storm["rtt"] * 1e3, 3),
            # Children run inline inside their parent's get report
            # together: one frame per flush point, not one per child.
            "proc_nested_done_frames_per_fanout": round(done_frames, 2),
            "proc_nested_env": environment_stamp(),
        }
    )
    emit_bench_json("e6", dict(benchmark.extra_info))
    # The fast path really ran (zero driver round-trips per child; the
    # warm-up fan-outs ride it too, hence >=).
    assert (
        storm["sched"]["tasks_placed_local"]
        >= NESTED_SPAWNERS * NESTED_PER_SPAWNER
    )
