"""E11 — cluster data plane: descriptor-first transfer and node scaling.

The dist backend's claim is that crossing a *node* boundary should cost
bytes only when somebody actually reads them.  Three measurements:

* **descriptor-first vs naive re-ship** — the same workload run twice
  on a 2-node cluster: a multi-stage pipeline whose every result is
  then consumed by a fan-out of readers (the repeated-argument case).
  Descriptor-first: stages chain futures directly, results stay
  node-resident, locality-aware placement keeps each chain where its
  input lives, repeated consumers hit their node's cache, and the
  driver reads only small digests.  Naive: the driver ``get``s every
  intermediate and re-``put``s it — once per hop and once per repeated
  consumer — the dataflow a program is forced into without
  node-resident objects.  Both runs are scored by the runtime's own
  internode accountant (``stats()["cluster"]["internode"]``: every byte
  that crossed a node boundary over TCP); the bar is >= 2x fewer bytes
  moved.
* **2-node vs 1-node CPU scaling** — the same CPU-bound batch with the
  same per-node worker count; doubling nodes must actually shorten the
  makespan (true parallelism across node agents, not just processes).

* **driver-born waves** — ``bench_e6``'s waves of no-ops on 2 nodes x
  1 worker: a frame on ``dist`` is sized by the same budget as on
  ``proc`` (tasks per TASK frame is the machine-independent gate; the
  rate is recorded with the machine it was taken on).

All three emit into ``BENCH_e11.json`` (repo root) for
``check_regression.py`` to diff against ``benchmarks/baselines.json``.
"""

import os
import time

import repro
from _artifacts import emit_bench_json, environment_stamp
from _tables import print_table
from bench_e6_throughput import WAVE_ROUNDS, WAVE_TASKS, driver_born_wave

MiB = 1024 * 1024

#: Pipeline shape for the transfer comparison.
CHAINS = 4
DEPTH = 3
FANOUT = 4  # repeated consumers of each chain's final payload
PAYLOAD = 1 * MiB
TRANSFER_RATIO_MIN = 2.0

#: CPU-scaling batch: tasks of ~200ms of pure arithmetic (long enough
#: that dispatch/steal overhead cannot mask the extra node's cores).
BURN_TASKS = 8
BURN_ITERS = 3_000_000
SCALING_MIN = 1.3


@repro.remote
def seed_payload(i, size):
    return bytes([i % 256]) * size


@repro.remote
def stage(blob):
    """One pipeline hop: same-size transform (keeps bytes honest)."""
    return bytes((b + 1) % 256 for b in blob[:1]) * len(blob)


@repro.remote
def digest(blob):
    return (len(blob), blob[0])


@repro.remote
def burn(iters):
    total = 0
    for i in range(iters):
        total += i * i
    return total


def _internode_bytes(runtime) -> int:
    return runtime.stats()["cluster"]["internode"]["internode_bytes"]


def _run_descriptor_first() -> int:
    runtime = repro.init(backend="dist", num_nodes=2, num_cpus=2, seed=11)
    try:
        heads = [seed_payload.remote(i, PAYLOAD) for i in range(CHAINS)]
        for _ in range(DEPTH):
            heads = [stage.remote(ref) for ref in heads]
        # Repeated-argument fan-out: each final payload is read by
        # FANOUT consumers, who share their node's single fetch.
        digests = repro.get(
            [digest.remote(ref) for ref in heads for _ in range(FANOUT)],
            timeout=120.0,
        )
        assert [size for size, _first in digests] == [PAYLOAD] * CHAINS * FANOUT
        return _internode_bytes(runtime)
    finally:
        repro.shutdown()


def _run_naive_reship() -> int:
    runtime = repro.init(backend="dist", num_nodes=2, num_cpus=2, seed=11)
    try:
        values = [
            repro.get(seed_payload.remote(i, PAYLOAD), timeout=120.0)
            for i in range(CHAINS)
        ]
        for _ in range(DEPTH):
            # Without node-resident descriptors every hop is brokered by
            # the driver: read the bytes back, re-put, hand the new ref
            # to the next stage.
            refs = [stage.remote(repro.put(value)) for value in values]
            values = repro.get(refs, timeout=120.0)
        assert all(len(value) == PAYLOAD for value in values)
        # Repeated-argument fan-out, re-put style: every consumer gets
        # its own freshly-put copy of the argument.
        digests = repro.get(
            [
                digest.remote(repro.put(value))
                for value in values
                for _ in range(FANOUT)
            ],
            timeout=120.0,
        )
        assert [size for size, _first in digests] == [PAYLOAD] * CHAINS * FANOUT
        return _internode_bytes(runtime)
    finally:
        repro.shutdown()


def _burn_makespan(num_nodes: int) -> float:
    repro.init(
        backend="dist", num_nodes=num_nodes, workers_per_node=2, seed=11
    )
    try:
        assert repro.get(burn.remote(1000), timeout=60.0) is not None  # warm
        start = time.perf_counter()
        results = repro.get(
            [burn.remote(BURN_ITERS) for _ in range(BURN_TASKS)], timeout=120.0
        )
        elapsed = time.perf_counter() - start
        assert len(set(results)) == 1
        return elapsed
    finally:
        repro.shutdown()


def test_e11_descriptor_first_transfer(benchmark):
    def _sweep():
        return {
            "descriptor": _run_descriptor_first(),
            "naive": _run_naive_reship(),
        }

    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    moved = CHAINS * (DEPTH + 1) * PAYLOAD  # bytes produced by the pipeline
    # Floor the denominator at one payload so a perfectly-local run
    # (zero bytes moved) reports a finite, still-honest ratio.
    ratio = sweep["naive"] / max(sweep["descriptor"], PAYLOAD)

    print_table(
        f"E11: internode bytes, {CHAINS} chains x {DEPTH} hops of "
        f"{PAYLOAD // MiB} MiB on 2 nodes",
        ["data plane", "bytes crossed", "vs produced"],
        [
            ("descriptor-first", f"{sweep['descriptor'] / MiB:.1f} MiB",
             f"{sweep['descriptor'] / moved:.2f}x"),
            ("naive re-ship", f"{sweep['naive'] / MiB:.1f} MiB",
             f"{sweep['naive'] / moved:.2f}x"),
        ],
    )
    print(f"descriptor-first moves {ratio:.1f}x fewer bytes")

    assert ratio >= TRANSFER_RATIO_MIN, (
        f"descriptor-first only saved {ratio:.2f}x bytes "
        f"(need {TRANSFER_RATIO_MIN:.1f}x)"
    )

    emitted = {
        "descriptor_bytes_moved": sweep["descriptor"],
        "naive_bytes_moved": sweep["naive"],
        "transfer_ratio": round(ratio, 2),
        "pipeline_bytes_produced": moved,
    }
    benchmark.extra_info.update(emitted)
    emit_bench_json("e11", emitted)


def test_e11_two_node_cpu_scaling(benchmark):
    """On a multi-core host the 2-node cluster must beat 1 node by
    >= 1.3x on the same batch; on a single-core host (some CI runners)
    the sweep still runs but only reports — four workers cannot out-run
    two when they all share one core."""
    cores = os.cpu_count() or 1

    def _sweep():
        return {
            "one_node": _burn_makespan(1),
            "two_nodes": _burn_makespan(2),
        }

    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    speedup = sweep["one_node"] / sweep["two_nodes"]

    print_table(
        f"E11: {BURN_TASKS} CPU-bound tasks, 2 workers per node",
        ["cluster", "makespan"],
        [
            ("1 node (2 workers)", f"{sweep['one_node'] * 1e3:.0f} ms"),
            ("2 nodes (4 workers)", f"{sweep['two_nodes'] * 1e3:.0f} ms"),
        ],
    )
    print(f"2-node scaling: {speedup:.2f}x ({cores} cores visible)")

    if cores >= 2:
        assert speedup >= SCALING_MIN, (
            f"two nodes only bought {speedup:.2f}x (need {SCALING_MIN:.1f}x)"
        )

    emitted = {
        "scaling_speedup": round(speedup, 2),
        "one_node_makespan_s": round(sweep["one_node"], 3),
        "two_node_makespan_s": round(sweep["two_nodes"], 3),
        "burn_tasks": BURN_TASKS,
        "cores_visible": cores,
    }
    benchmark.extra_info.update(emitted)
    emit_bench_json("e11", emitted)


def test_e11_dist_driver_born_wave_rides_budget_sized_frames(benchmark):
    """The dist twin of ``bench_e6``'s wave gate.  Frames to a node used
    to be held to 4 tasks whatever the budget allowed; now that a worker
    gives a frame's tail back while its head runs, the budget is the
    only rule — a floor of 8 tasks per frame is one no capped build can
    meet, on any machine."""
    wave = benchmark.pedantic(
        driver_born_wave,
        kwargs={"backend": "dist", "num_nodes": 2, "num_cpus": 1},
        rounds=1, iterations=1,
    )
    print_table(
        f"E11: dist driver-born waves ({WAVE_ROUNDS} x {WAVE_TASKS} no-ops, "
        "2 nodes x 1 worker)",
        ["median tasks/s", "tasks per TASK frame", "tasks per DONE frame"],
        [(
            f"{wave['tasks_per_s']:,.0f}",
            f"{wave['tasks_per_frame']:.1f}",
            f"{wave['tasks_per_done_frame']:.1f}",
        )],
    )
    emitted = {
        "dist_wave_tasks_per_s": round(wave["tasks_per_s"]),
        "dist_wave_tasks_per_frame": round(wave["tasks_per_frame"], 1),
        "dist_wave_env": environment_stamp(),
    }
    benchmark.extra_info.update(emitted)
    emit_bench_json("e11", emitted)
    assert wave["tasks_per_frame"] >= 8.0
