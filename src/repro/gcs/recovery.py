"""Driver HA: derive a recovery plan from the control store.

The paper's claim is that with all control state in the GCS, every other
component — including the driver — is stateless and replaceable.  This
module is that claim made executable: given a :class:`ControlStore` that
outlived a dead driver, compute exactly what a fresh runtime must restore.

The plan guarantees **zero lost and zero duplicate** task executions for
tasks whose results fit the inline-payload limit:

* a task is *recovered* (never re-run) iff every one of its return objects
  is ready in the object table with its payload inline;
* otherwise it is *pending* and gets resubmitted — by spec for driver-born
  tasks, by its recorded wire entry for worker-born ones;
* a worker-born task the dead driver never adopted has no row at all
  (its driver wrote one only when something needed the task — a steal,
  a cancel, the loss of its worker, an escape, a failure or a result
  that is not inline bytes, or its parent ending before it): it is
  recreated, under new ids, by its parent's replay, and a parent that
  had finished had its unfinished children adopted first;
* readiness is judged from the object table, not the task-state column,
  because state transitions ride the async writer and may be arbitrarily
  stale at the moment of death — the object payload either made it into a
  shard or the producer re-runs.  ``plan_recovery`` drains the async
  backlog first (the event-log replay step), so every write the dead
  driver managed to enqueue counts.

Actors recover as **lost with provenance**: their registry rows and name
index survive, but the live instances died with the driver's worker pool,
so recovered handles surface ``ActorLostError`` rather than silently
re-running constructors with fresh state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.worker import ErrorValue


@dataclass
class RecoveryPlan:
    """Everything a fresh driver needs to pick up a dead one's workload."""

    generation: int = 0
    #: object_id -> serialized bytes: ready results restored verbatim.
    ready_payloads: dict = field(default_factory=dict)
    #: Driver-born TaskSpecs to resubmit (dependency-gated as usual).
    pending_specs: list = field(default_factory=list)
    #: (spec, wire_payload) pairs for worker-born tasks to re-dispatch.
    pending_payloads: list = field(default_factory=list)
    #: ActorEntry snapshots; all recover as dead-with-provenance.
    actor_entries: list = field(default_factory=list)
    #: Ready objects with no payload and no producing task (driver ``put``
    #: of a large value): unrecoverable — error markers, not hangs.
    unrecoverable: list = field(default_factory=list)

    @property
    def recovered_objects(self) -> int:
        return len(self.ready_payloads)

    @property
    def resubmitted_tasks(self) -> int:
        return len(self.pending_specs) + len(self.pending_payloads)

    def handed_out(self) -> list:
        """Ids of every object the dead driver gave out a ref to — the
        handles died with it, uncounted by its successor's ledger, so
        all of them are escaped there."""
        object_ids = [*self.ready_payloads, *self.unrecoverable]
        for spec in self.pending_specs:
            object_ids += spec.all_return_ids()
        for spec, _payload in self.pending_payloads:
            object_ids += spec.all_return_ids()
        return object_ids

    @staticmethod
    def lost_object_error(object_id):
        """What stands in for an :attr:`unrecoverable` object (a large
        driver ``put`` has no lineage to replay)."""
        return ErrorValue(
            task_id=None,
            function_name="driver",
            cause_repr=(
                f"object {object_id} was lost with the failed driver: no "
                "inline payload in the control store and no producing task "
                "to replay"
            ),
            chain=("driver",),
        )

    @staticmethod
    def lost_actor_error(spec):
        """What a pending call resolves to when even its actor's
        registry row did not survive."""
        return ErrorValue(
            task_id=spec.task_id,
            function_name=spec.function_name,
            cause_repr="actor state lost with the failed driver",
            chain=(spec.function_name,),
            kind="actor_lost",
            actor_id=spec.actor_id,
        )


def plan_recovery(store, *, flush_timeout: Optional[float] = 30.0) -> RecoveryPlan:
    """Read the shards and decide: restore, resubmit, or mark lost."""
    store.flush(timeout=flush_timeout)
    snap = store.snapshot()
    objects = snap["objects"]
    tasks = snap["tasks"]
    actors = snap["actors"]

    plan = RecoveryPlan(generation=store.generation)
    plan.ready_payloads = {
        oid: entry.payload
        for oid, entry in objects.items()
        if entry.ready and entry.payload is not None
    }

    def recoverable(object_id) -> bool:
        entry = objects.get(object_id)
        return entry is not None and entry.ready and entry.payload is not None

    produced: set = set()
    ordered = sorted(
        tasks.values(), key=lambda e: e.timestamps.get("submitted", 0.0)
    )
    for entry in ordered:
        spec = entry.spec
        payload = None
        if isinstance(spec, dict):  # worker-born: {"spec": ..., "payload": ...}
            payload = spec.get("payload")
            spec = spec.get("spec")
        if spec is None:
            continue
        return_ids = spec.all_return_ids()
        produced.update(return_ids)
        if all(recoverable(oid) for oid in return_ids):
            continue  # every result restorable: exactly-once, never re-run
        if payload is not None:
            plan.pending_payloads.append((spec, payload))
        else:
            plan.pending_specs.append(spec)

    plan.unrecoverable = [
        oid
        for oid, entry in objects.items()
        if entry.ready and entry.payload is None and oid not in produced
    ]
    plan.actor_entries = list(actors.values())
    return plan
