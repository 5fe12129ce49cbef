"""E9 — Section 3.2.2 ablation: hybrid vs centralized vs local-only.

Paper (Section 5): dynamic-dataflow systems with entirely centralized
scheduling (CIEL, Dask) must trade low latency (R1) against high
throughput (R2), "whereas our applications require both".  The hybrid
design's claim is dominance on the latency x throughput frontier:

* latency probe — end-to-end time of one empty task on an idle cluster
  (centralized pays the global-scheduler round trip on *every* task);
* throughput probe — makespan of a 400-task storm (local-only cannot
  load-balance; everything piles onto the driver's node).

A spillover-threshold sweep covers the design decision DESIGN.md lists.
"""

import numpy as np

import repro
from repro.scheduling.policies import PlacementPolicy, SpilloverPolicy
from _tables import ms, print_table, us

CLUSTER = dict(num_nodes=4, num_cpus=4)
STORM_TASKS = 400
STORM_DURATION = 0.002
DATA_MB = 4
NUM_DATASETS = 12


@repro.remote
def probe():
    return None


@repro.remote(duration=STORM_DURATION)
def storm_task(i):
    return i


@repro.remote(duration=0.005)
def make_dataset(i):
    """Produce a ~4 MB object (the locality experiment's payload)."""
    return np.full(DATA_MB * 1024 * 1024 // 8, float(i))


@repro.remote(duration=0.010)
def reduce_dataset(data):
    return float(data.sum())


def _measure(mode: str, **kwargs) -> dict:
    repro.init(backend="sim", scheduler_mode=mode, **CLUSTER, **kwargs)
    repro.get(probe.remote())  # warm-up

    # Latency axis (R1): end-to-end time of one task on an idle cluster.
    # Centralized scheduling pays its global round trip on every task;
    # under contention the gap widens further (E6 measures that side).
    t0 = repro.now()
    repro.get(probe.remote())
    idle_latency = repro.now() - t0

    # Throughput axis (R2): makespan of a burst of small tasks.
    t0 = repro.now()
    repro.get([storm_task.remote(i) for i in range(STORM_TASKS)])
    storm = repro.now() - t0
    stats = repro.get_runtime().stats()
    repro.shutdown()
    return {
        "idle_latency": idle_latency,
        "storm": storm,
        "spilled": stats["tasks_spilled"],
    }


def _measure_locality(locality_weight: float) -> dict:
    """Design decision #3: locality-aware global placement on/off.

    Producers scatter ~4 MB datasets across the cluster; consumers (forced
    through the global scheduler) each reduce one dataset.  With locality
    disabled, placement ignores where the bytes live and the network pays.
    """
    runtime = repro.init(
        backend="sim",
        **CLUSTER,
        scheduler_mode="centralized",   # every consumer placed globally
        num_gcs_shards=8,
        placement_policy=PlacementPolicy(locality_weight=locality_weight),
    )
    data_refs = [make_dataset.remote(i) for i in range(NUM_DATASETS)]
    repro.wait(data_refs, num_returns=NUM_DATASETS)
    t0 = repro.now()
    totals = repro.get([reduce_dataset.remote(ref) for ref in data_refs])
    elapsed = repro.now() - t0
    stats = runtime.stats()
    repro.shutdown()
    assert totals == [
        float(i) * (DATA_MB * 1024 * 1024 // 8) for i in range(NUM_DATASETS)
    ]
    return {"elapsed": elapsed, "bytes": stats["bytes_transferred"]}


def _run_all() -> dict:
    results = {
        "hybrid": _measure("hybrid", num_gcs_shards=8),
        "centralized": _measure("centralized", num_gcs_shards=1),
        "local_only": _measure("local_only", num_gcs_shards=8),
    }
    for threshold in (0.5, 2.0, 4.0):
        results[f"hybrid(thr={threshold})"] = _measure(
            "hybrid",
            num_gcs_shards=8,
            spillover_policy=SpilloverPolicy(mode="hybrid", queue_threshold=threshold),
        )
    results["_locality_on"] = _measure_locality(1.0)
    results["_locality_off"] = _measure_locality(0.0)
    return results


def test_e9_scheduler_ablation(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    locality_on = results.pop("_locality_on")
    locality_off = results.pop("_locality_off")
    rows = [
        (
            name,
            us(result["idle_latency"]),
            ms(result["storm"]),
            result["spilled"],
        )
        for name, result in results.items()
    ]
    print_table(
        "E9: scheduler architecture ablation "
        f"(latency probe + {STORM_TASKS}-task storm on 4x4 CPUs)",
        ["architecture", "task latency", "storm makespan", "spilled"],
        rows,
    )
    benchmark.extra_info.update(
        {
            name: {
                "idle_latency_us": round(r["idle_latency"] * 1e6),
                "storm_ms": round(r["storm"] * 1e3, 1),
            }
            for name, r in results.items()
        }
    )

    hybrid, central, local = (
        results["hybrid"], results["centralized"], results["local_only"]
    )
    # R1: centralized pays the global round trip on every single task.
    assert hybrid["idle_latency"] < central["idle_latency"]
    # Local-only keeps the probe local too — idle latency parity.
    assert abs(hybrid["idle_latency"] - local["idle_latency"]) < 50e-6
    # R2: local-only cannot use the other 3 nodes; hybrid can.
    assert hybrid["storm"] < 0.5 * local["storm"]
    # The frontier claim: no alternative beats hybrid on both axes.
    for name in ("centralized", "local_only"):
        other = results[name]
        assert (
            hybrid["idle_latency"] <= other["idle_latency"] * 1.05
            and hybrid["storm"] <= other["storm"] * 1.05
        ), f"{name} dominates hybrid"

    print_table(
        "E9b: locality-aware placement ablation "
        f"({NUM_DATASETS} x {DATA_MB} MB reduce tasks)",
        ["placement", "reduce makespan", "bytes moved"],
        [
            ("locality-aware", ms(locality_on["elapsed"]),
             f"{locality_on['bytes'] / 1e6:.0f} MB"),
            ("locality-blind", ms(locality_off["elapsed"]),
             f"{locality_off['bytes'] / 1e6:.0f} MB"),
        ],
    )
    # Locality-aware placement moves (much) less data and finishes sooner.
    assert locality_on["bytes"] < 0.5 * locality_off["bytes"]
    assert locality_on["elapsed"] < locality_off["elapsed"]

