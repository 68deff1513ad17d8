"""Bounded-step merge scheduling for the leveled update path.

The :class:`CompactionScheduler` turns every level maintenance obligation
into a :class:`MergeJob` on a FIFO queue and works the queue off in
*bounded increments*: each update pays at most
``ServiceConfig.merge_step_blocks`` block transfers of outstanding merge
debt, so no single update is ever charged an ``O(n/B)`` rebuild -- the
logarithmic-method amortisation of the paper's dynamic structures
(Theorems 4 and 6), made operational.

How a merge stays incremental in the simulation
-----------------------------------------------
When a job starts, the merged output component (its sorted run plus its
static index) is materialised eagerly on a *private* ledger that is not
part of the service aggregate, and the job remembers the exact read/write
cost as *debt*: the output's build plus ``ceil(m/B)`` reads per indexed
input of ``m`` records.  Each update then mirrors up to
``merge_step_blocks`` of that debt onto the service's maintenance ledger
-- the only charges the aggregate ever sees -- and the output becomes
visible (and its private ledger joins the aggregate, reset to zero) only
once the debt is fully paid.  Until then queries keep reading the input
components, so pausing the merge at any intermediate step is invisible
to correctness: the visible state is always either "before the merge" or
"after the merge", never a half-merged hybrid.  Totals are conserved
exactly: every staged transfer is mirrored once, and input ledgers are
retired into the accumulator that keeps
:meth:`repro.service.SkylineService.io_total` monotone.

An output of at most one block gets no index (see
:class:`~repro.service.lsm.Component`): it has no build debt, only the
reads of its indexed inputs, so a merge of in-memory inputs completes on
the tick that starts it.

Tombstone lifecycle at a merge
------------------------------
A job captures, at start, the tombstones owned by its input components;
their victims are dropped from the merged output and the captured
tombstones are consumed at swap time (the annihilation that keeps the
table from growing without bound).  Tombstones added against an input
*after* the job started are not captured -- their victims are part of the
output snapshot -- so at swap they are re-owned to the output component
and keep masking it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.core.point import Point
from repro.service.delta import Key, point_key
from repro.service.lsm.component import Component

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.lsm.levels import LevelManager


@dataclass(frozen=True)
class MergeJob:
    """One queued maintenance obligation.

    ``kind`` is ``"flush"`` (seal a frozen memtable into level 1) or
    ``"merge"`` (fold level ``level`` into level ``level + 1``).  Inputs
    are resolved when the job *starts*, not when it is queued, so a queue
    of jobs against the same level composes correctly.
    """

    kind: str
    frozen_id: Optional[int] = None
    level: Optional[int] = None


class ActiveMerge:
    """A started job: its inputs, staged output, and outstanding debt."""

    def __init__(
        self,
        job: MergeJob,
        inputs: List[Component],
        output: Component,
        out_level: int,
        consumed: Dict[Key, Point],
        input_reads: int,
    ) -> None:
        self.job = job
        self.inputs = inputs
        self.output = output
        self.out_level = out_level
        self.consumed = consumed
        self.debt_reads = input_reads
        self.debt_writes = 0
        if output.stats is not None:
            self.debt_reads += output.stats.reads
            self.debt_writes = output.stats.writes

    @property
    def debt(self) -> int:
        return self.debt_reads + self.debt_writes


class CompactionScheduler:
    """FIFO merge queue worked off in bounded per-update increments."""

    def __init__(self, manager: "LevelManager") -> None:
        self.manager = manager
        self.queue: Deque[MergeJob] = deque()
        self.active: Optional[ActiveMerge] = None
        # Lifetime counters for dashboards and benches.
        self.merges_completed = 0
        self.records_merged = 0

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------
    def schedule(self, job: MergeJob) -> None:
        self.queue.append(job)

    def clear(self) -> None:
        """Drop every queued and staged job (a full compaction folds the
        inputs anyway; the staged output's private ledger never joined
        the aggregate, so discarding it loses no charged transfer)."""
        self.queue.clear()
        self.active = None

    @property
    def merge_debt(self) -> int:
        """Outstanding transfers of the active job (0 when idle)."""
        return 0 if self.active is None else self.active.debt

    @property
    def pending_jobs(self) -> int:
        return len(self.queue) + (1 if self.active is not None else 0)

    # ------------------------------------------------------------------
    # Paying the debt
    # ------------------------------------------------------------------
    def pay(self, budget: int) -> int:
        """Perform up to ``budget`` transfers of merge work; returns the
        transfers actually charged (to the maintenance ledger)."""
        charged = 0
        while budget > 0:
            if self.active is None and not self._start_next():
                break
            active = self.active
            assert active is not None
            step = min(budget, active.debt)
            self._mirror(active, step)
            charged += step
            budget -= step
            if active.debt == 0:
                self._complete(active)
        return charged

    def drain(self) -> int:
        """Pay every outstanding transfer; returns the total charged."""
        charged = 0
        while self.active is not None or self.queue:
            paid = self.pay(1 << 30)
            charged += paid
            if paid == 0 and self.active is None:
                break  # queue held only skippable jobs
        return charged

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _start_next(self) -> bool:
        """Start the first startable queued job; False when none is."""
        manager = self.manager
        while self.queue:
            job = self.queue.popleft()
            if job.kind == "flush":
                source = manager.find_frozen(job.frozen_id)
                out_level = 1
            else:
                source = manager.levels.get(job.level or 0)
                out_level = (job.level or 0) + 1
            if source is None:  # superseded (e.g. a compaction cleared it)
                continue
            sibling = manager.levels.get(out_level)
            inputs = [source] + ([sibling] if sibling is not None else [])
            self.active = self._stage(job, inputs, out_level)
            return True
        return False

    def _stage(
        self, job: MergeJob, inputs: List[Component], out_level: int
    ) -> ActiveMerge:
        """Materialise the merged output on a private ledger; record debt."""
        manager = self.manager
        consumed: Dict[Key, Point] = {}
        for comp in inputs:
            consumed.update(manager.delta.owned_tombstones(comp.owner))
        merged = [
            p
            for comp in inputs
            for p in comp.points
            if point_key(p) not in consumed
        ]
        output = Component(
            manager.next_component_id(),
            merged,
            em_config=manager.em_config,
            epsilon=manager.epsilon,
        )
        # A real merge also reads its indexed inputs off their machines:
        # ceil(m/B) reads per indexed input (in-memory inputs scan free).
        input_reads = sum(
            math.ceil(len(comp.points) / manager.block_size)
            for comp in inputs
            if comp.index is not None and comp.points
        )
        return ActiveMerge(job, inputs, output, out_level, consumed, input_reads)

    def _mirror(self, active: ActiveMerge, step: int) -> None:
        """Move ``step`` staged transfers onto the maintenance ledger."""
        reads = min(step, active.debt_reads)
        writes = step - reads
        active.debt_reads -= reads
        active.debt_writes -= writes
        if reads:
            self.manager.maintenance.record_read(reads)
        if writes:
            self.manager.maintenance.record_write(writes)

    def _complete(self, active: ActiveMerge) -> None:
        """Swap the paid-off output in for its inputs, atomically."""
        manager = self.manager
        delta = manager.delta
        output = active.output
        for comp in active.inputs:
            manager.remove_component(comp)
            # Tombstones added against an input after the job started:
            # their victims are in the output snapshot, so re-own them.
            for key, victim in delta.owned_tombstones(comp.owner).items():
                if key not in active.consumed:
                    delta.add_tombstone(victim, output.owner)
        for key, victim in active.consumed.items():
            if key in delta.tombstones:
                delta.drop_tombstone(key)
            else:
                # The tombstone was revived while the merge was in flight:
                # the output snapshot dropped the record, so the live copy
                # moves back into the memtable.
                delta.restore_insert(victim)
        # The build cost was mirrored to the maintenance ledger in steps;
        # reset the private ledger before it joins the aggregate so the
        # transfers are counted exactly once.
        if output.stats is not None:
            output.stats.reset()
        if output.points:
            manager.install_level(active.out_level, output)
        else:
            # Every input record was tombstone-consumed.  An empty
            # component would be unadoptable at a topology change (no
            # point falls in any child's clip), so drop it instead of
            # installing it; its ledger is already reset, and no re-owned
            # tombstone can reference it (a post-start tombstone's victim
            # would be in the output).
            manager._on_layout_change()
        # Counted at completion, not at staging: a merge a compaction
        # discards mid-flight never happened as far as the counters go.
        self.merges_completed += 1
        self.records_merged += len(output.points)
        self.active = None
        if len(output.points) > manager.capacity(active.out_level):
            self.schedule(MergeJob("merge", level=active.out_level))

    def describe(self) -> dict:
        return {
            "active": None
            if self.active is None
            else {
                "kind": self.active.job.kind,
                "out_level": self.active.out_level,
                "debt": self.active.debt,
                "output_records": len(self.active.output.points),
            },
            "queued_jobs": len(self.queue),
            "merges_completed": self.merges_completed,
            "records_merged": self.records_merged,
        }
