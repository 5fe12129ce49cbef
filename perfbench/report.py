"""Modes that run several workloads: each run is a fresh child process
(``python3 -m perfbench --workload ...``), so no state, page or worker
survives from one run into the next."""

import json
import os
import statistics
import subprocess
import sys
import time

from perfbench import OUT, REPO, layers
from perfbench.workloads import WORKLOADS


def _contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_seconds():
    return _contract()["run_seconds"]


def _child(name, seed, seconds, trace):
    """One run in a child: ``(result object, stdout)``; raises with the
    child's output when it failed."""
    command = [sys.executable, "-m", "perfbench", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def quick():
    """Structure only: every workload untraced and traced for a twentieth
    of the run length; values are not looked at."""
    contract = _contract()
    seconds = contract["run_seconds"] / 20
    problems = []
    started = time.perf_counter()
    for name in WORKLOADS:
        for trace, declared in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
            result, _ = _child(name, 1, seconds, trace)
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if any(not isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{name} trace={trace}: a value is not a number")
        with open(os.path.join(OUT, f"{name}.trace1.seed1.json")) as handle:
            for metric, row in json.load(handle)["metrics"].items():
                if row["value"] is None and not row["reason"]:
                    problems.append(f"{name}: {metric} is null without a reason")
        if not os.path.exists(os.path.join(OUT, f"trace_{name}.json")):
            problems.append(f"{name}: no trace_{name}.json")
    if contract["workloads"] != [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    if [m["name"] for m in contract["per_layer"]] != [row[0] for row in layers.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from perfbench/layers.py")
    for problem in problems:
        print("FAIL", problem)
    print(f"quick: {len(problems)} problems, {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def traced(names, seed, seconds):
    for name in names:
        _, text = _child(name, seed, seconds, 1)
        print(text, end="")
    return 0


def repeat(passes, seed, seconds, write_report):
    """``passes`` passes over the workloads in round-robin order (A B C D E,
    A B C D E ...): slow minutes of the host are spread over every workload
    instead of landing on one.  Pass ``i`` uses seed ``seed + i``."""
    contract = _contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    values = {name: {metric: [] for metric in bounds} for name in WORKLOADS}
    for index in range(passes):
        for name in WORKLOADS:
            result, _ = _child(name, seed + index, seconds, 0)
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"pass {index + 1}/{passes} {name} seed={seed + index} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    lines = [
        f"Repeatability: {passes} runs per workload, round-robin, seeds "
        f"{seed}..{seed + passes - 1}, {seconds} s measured per run.",
        "",
        "| workload | metric | median | q1 | q3 | IQR/median | bound | inside |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name in WORKLOADS:
        for metric, bound in bounds.items():
            runs = values[name][metric]
            if len(runs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / statistics.median(runs)
            lines.append(
                f"| {name} | {metric} | {statistics.median(runs):.5g} | {q1:.5g} | "
                f"{q3:.5g} | {spread:.3f} | {bound} | {'yes' if spread <= bound else 'NO'} |"
            )
    text = "\n".join(lines) + "\n"
    print(text)
    if write_report:
        with open(os.path.join(OUT, "REPORT.md"), "w") as handle:
            handle.write(text)
        with open(os.path.join(OUT, "REPORT.json"), "w") as handle:
            json.dump(values, handle, indent=1)
    return 0
