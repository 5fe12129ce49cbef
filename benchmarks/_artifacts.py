"""Machine-readable benchmark artifacts.

Each benchmark that wants its numbers tracked calls
``emit_bench_json("e10", {...})`` after measuring.  The helper writes (or
merges into) ``BENCH_<name>.json`` at the repo root — a flat, diff-friendly
document that ``check_regression.py`` compares against
``benchmarks/baselines.json`` in CI.

Merging matters because one bench file may hold several tests (e1 has a
microbenchmark and a data-plane test) that each contribute their own keys;
whichever runs last must not clobber the other's metrics.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def environment_stamp() -> dict:
    """Where a number was taken: without it a checked-in throughput is
    not comparable with anything, including its own next run."""
    def git(*args: str) -> str:
        return subprocess.run(
            ("git",) + args, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short=12", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            commit += "+uncommitted"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}",
        "cores_visible": os.cpu_count() or 1,
    }


def artifact_path(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def emit_bench_json(name: str, metrics: dict) -> Path:
    """Write/merge ``metrics`` into ``BENCH_<name>.json`` and return its path.

    Values must be JSON-serializable (numbers and strings in practice).
    Existing keys are overwritten; keys from earlier emits are preserved.
    """
    path = artifact_path(name)
    doc = {"bench": name, "metrics": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("metrics"), dict):
                doc["metrics"] = existing["metrics"]
        except (ValueError, OSError):
            pass  # corrupt artifact: regenerate from scratch
    doc["metrics"].update(metrics)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
