"""repro.service.lsm -- the leveled log-structured update subsystem.

This package is the service's write path, a Bentley--Saxe-style leveled
design:

* **Level 0** is the in-memory memtable (the service's
  :class:`~repro.service.delta.DeltaBuffer`): pending inserts plus
  component-bucketed tombstones, folded into every query for free.
* **Levels 1..k** hold immutable static components
  (:class:`~repro.service.lsm.component.Component`) of geometrically
  increasing capacity, each a static top-open/four-sided structure on its
  own simulated machine.
* The :class:`~repro.service.lsm.scheduler.CompactionScheduler` merges a
  level into the next in bounded incremental steps -- at most
  ``ServiceConfig.merge_step_blocks`` block transfers piggybacked per
  update, with :meth:`~repro.service.SkylineService.drain` as the
  explicit full-drain entry point -- so the worst-case single-update I/O
  is ``O(1)`` transfers, never an ``O(n/B)`` rebuild, while the amortised
  cost stays the logarithmic-method
  ``O((g/B) * log_g(n/c))`` per update.

Queries fan across the memtable, the frozen memtables, every level and
the base shards, and fold the per-component answers with the generalised
right-to-left running-max-y merge
(:func:`repro.service.merge.merge_component_skylines`); tombstones mask
exactly the component that owns their victim.
"""

from repro.service.lsm.component import Component
from repro.service.lsm.levels import LevelManager
from repro.service.lsm.scheduler import CompactionScheduler, MergeJob

__all__ = ["Component", "LevelManager", "CompactionScheduler", "MergeJob"]
