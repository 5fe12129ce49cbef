"""Scheduling-plane counters (the ``stats()["sched"]`` surface).

Same shape as :class:`~repro.utils.serialization.ByteAccountant`: a tiny
mutable record the runtime mutates under its own lock and snapshots into
``stats()``.  The four headline counters are the observables the paper's
scheduling story predicts — most work placed locally, a bounded spill
stream, and steals only when the pool is imbalanced — and the scheduler
ablation benchmarks assert on exactly these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SchedCounters:
    """Where tasks were placed, and by whom.

    ``tasks_placed_local``
        Worker-born tasks the bottom-up fast path kept on their birth
        worker: zero driver round-trips, acked asynchronously for
        lineage.
    ``tasks_adopted``
        Of those, the ones the driver had to *adopt* — build the spec,
        lifecycle entry, argument pins and control-store row of — because
        something needed more than the wire entry it mirrors: a steal
        grant, a cancel, the loss of its birth worker, an escape of one of
        its returns, a failure or a result that is not inline bytes, or
        its parent ending first (proc/dist; 0 on backends without a
        wire).  ``tasks_adopted / tasks_placed_local`` is the share of
        worker-born tasks that still cost the driver a task.
    ``tasks_spilled``
        Worker-born tasks the driver tier placed instead (a dependency
        not resident on the worker, resource misfit, placement hint, or
        a local backlog past the spillover threshold): on proc/dist the
        routed entries of ``SUBMIT_LOCAL`` notices, one-way like the
        kept ones.
    ``tasks_placed_global``
        Placements decided by the driver tier's policy (driver-born
        work, spillover, crash re-homing).
    ``tasks_stolen``
        Tasks moved from one worker's queue to another by work stealing
        (both driver-side queue raids and the wire steal protocol).
    ``tasks_recalled``
        Of the wire-stolen tasks, those their worker gave up *while it
        was inside a task* (its reader answered the steal request while
        a task held the execution token): frame mates taken back from
        behind a head that outran its estimate, instead of waiting for
        it (proc/dist; 0 on backends without a wire).
    ``tasks_parked``
        Worker ``get``/``wait`` requests the driver could not answer at
        once and parked — "pending" replies sent: each time a task gave
        its worker's token up until a late reply resumed it (proc/dist;
        0 on backends without a wire).
    ``placement_locality_hits``
        Driver-tier placements where the chosen worker already held at
        least one of the task's argument objects.
    ``frames_sent`` / ``tasks_shipped``
        TASK frames the driver tier sent to workers and the tasks they
        carried; their ratio is the mean window per frame (proc/dist;
        0 on backends without a wire).
    ``done_frames``
        DONE frames received back: how far completions coalesced.
    """

    tasks_placed_local: int = 0
    tasks_adopted: int = 0
    tasks_spilled: int = 0
    tasks_placed_global: int = 0
    tasks_stolen: int = 0
    tasks_recalled: int = 0
    tasks_parked: int = 0
    placement_locality_hits: int = 0
    frames_sent: int = 0
    tasks_shipped: int = 0
    done_frames: int = 0

    def snapshot(self) -> dict:
        return {
            "tasks_placed_local": self.tasks_placed_local,
            "tasks_adopted": self.tasks_adopted,
            "tasks_spilled": self.tasks_spilled,
            "tasks_placed_global": self.tasks_placed_global,
            "tasks_stolen": self.tasks_stolen,
            "tasks_recalled": self.tasks_recalled,
            "tasks_parked": self.tasks_parked,
            "placement_locality_hits": self.placement_locality_hits,
            "frames_sent": self.frames_sent,
            "tasks_shipped": self.tasks_shipped,
            "done_frames": self.done_frames,
        }
