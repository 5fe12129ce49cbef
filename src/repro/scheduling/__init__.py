"""Hybrid bottom-up scheduling (Section 3.2.2).

Work is born at workers and drivers; each node's :class:`LocalScheduler`
either queues it for its own workers or "spills it over" to a
:class:`GlobalScheduler`, which places it cluster-wide using heartbeat load
reports and object locality from the control plane.  Policies are
pluggable so the scheduler ablation (experiment E9) can compare hybrid
scheduling against always-spill (centralized, CIEL/Dask-style) and
never-spill (purely local) extremes.
"""

from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.local import LocalScheduler
from repro.scheduling.policies import PlacementPolicy, SpilloverPolicy

__all__ = [
    "LocalScheduler",
    "GlobalScheduler",
    "SpilloverPolicy",
    "PlacementPolicy",
]
