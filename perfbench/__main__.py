"""Command line of the benchmark (README.md has the full description).

    python3 -m perfbench --workload small_tasks --seed 1 --seconds 10 --trace 0
    python3 -m perfbench --quick
    python3 -m perfbench --repeat 5 --report
    python3 -m perfbench --traced

Workers are ``multiprocessing`` spawn children and re-import this module,
so nothing here runs outside the ``__main__`` check.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time


def run_single(name, seed, seconds, trace):
    """One run of one workload in this process; the last line printed is the
    result object.  Returns the exit code."""
    from perfbench import OUT, env, harness, layers, probes
    from perfbench.workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    harness.pin_to_one_cpu()
    env.adopt_orphans()
    shm_before = env.shm_entries()
    env.start_watchdog(150.0, shm_before)
    started = time.perf_counter()
    steal0, total0 = env.host_jiffies()
    stamp = env.stamp()
    workload = WORKLOADS[name]

    ctx, data = harness.run(workload, seed, seconds, trace)
    harness.check_leaks(shm_before)

    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace} "
          f"commit={stamp['commit'][:12]} cores={stamp['cores_visible']}")
    if trace:
        probe_values = probes.run()
        harness.check_leaks(shm_before)
        steal1, total1 = env.host_jiffies()
        rows = layers.table(workload, ctx, data, probe_values, {
            "host_steal_pct": 100.0 * (steal1 - steal0) / max(1, total1 - total0),
            "loadavg_start": stamp["loadavg_start"],
            "cores_visible": stamp["cores_visible"],
            "host_yardstick_ms": statistics.median(ctx.yardsticks),
            "run_s": time.perf_counter() - started,
        })
        ctx.spans.write_chrome(os.path.join(OUT, f"trace_{name}.json"))
    else:
        rows = harness.end_to_end(workload, ctx)
    # the result line carries numbers only: a metric this workload cannot
    # supply reads 0 there, and null with its reason in the run record
    metrics = {
        metric: {"value": 0 if row["value"] is None else row["value"], "unit": row["unit"]}
        for metric, row in rows.items()
    }
    if not trace:  # the issue's names for the same samples, printed with "="
        rows.update(harness.named(workload, ctx))
    for metric, row in rows.items():
        shown = (f"n/a ({row['reason']})" if row["value"] is None
                 else f"{row['value']:.6g} {row['unit']}")
        print(f"  {' ' if metric in metrics else '='} {metric:32s} {shown}  n={row['n']}"
              + (f" source={row['source']}" if trace else ""))

    correct = ctx.failed == 0
    result = {
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  env=stamp, metrics=rows)
    with open(os.path.join(OUT, f"{name}.trace{trace}.seed{seed}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    if not env.stop_all():  # no result from a run that left a process behind
        raise RuntimeError("a process of this run would not end")
    print(json.dumps(result))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload, untraced and traced, briefly; checks structure only")
    parser.add_argument("--traced", action="store_true",
                        help="the per-layer table of every workload")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="N passes over the workloads, round-robin, one seed per pass")
    parser.add_argument("--report", action="store_true",
                        help="with --repeat: write the repeatability report to perfbench/out/REPORT.md")
    args = parser.parse_args()

    import perfbench

    if not os.path.isdir(os.path.join(perfbench.SRC, "repro")):
        sys.stderr.write(f"perfbench: no program to measure: {perfbench.SRC}/repro is missing\n")
        return 2

    from perfbench import report
    from perfbench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else report.run_seconds()
    if args.quick:
        return report.quick()
    if args.repeat:
        return report.repeat(args.repeat, args.seed, seconds, args.report)
    if args.traced:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return report.traced(names, args.seed, seconds)
    if args.workload is None:
        parser.error("give --workload, --quick, --traced or --repeat")
    from perfbench import env

    # a polite kill takes the same way out as an exception: through stop_all
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_single(args.workload, args.seed, seconds, args.trace)
    finally:  # on the failing paths too: nothing this run started outlives it
        env.stop_all()


if __name__ == "__main__":
    sys.exit(main())
