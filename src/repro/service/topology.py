"""Online shard topology management: hot-shard splits, cold-shard merges.

The static shard layout a :class:`~repro.service.SkylineService` is born
with only ever moved at a full :meth:`~repro.service.SkylineService
.compact` -- a stop-the-world ``O(n/B)`` global rebuild.  Under a skewed
(e.g. Zipf-x) insert stream that leaves one x-region's load growing
without bound: the hot shard's per-query ``O(log_B n + k/B)`` bound
degrades and batch parallelism collapses onto one machine.  The
:class:`TopologyManager` watches per-shard *range load* -- base residents
plus the memtable and level records resident in each shard's x-range --
and keeps the layout balanced with three bounded local operations:

* **split** a hot shard at the size-balanced midpoint of its range's live
  records -- with per-shard towers an O(1) *metadata move*: the parent's
  base index and whole components are handed to the children, no block
  is read or rebuilt (:meth:`~repro.service.SkylineService.split_shard`);
* **merge** two adjacent cold shards into one
  (:meth:`~repro.service.SkylineService.merge_shards`);
* **fold** a shard whose private level tower has piled up back into its
  own base structure, cuts untouched
  (:meth:`~repro.service.SkylineService.fold_shard`) -- the pressure
  valve that keeps a skewed stream from burying its hot region under an
  ever-deeper level fan-out, compacting one tower without touching its
  neighbours.

All three are charged to the maintenance ledger (the same escrow
discipline as the incremental level merges), WAL-logged as
``OP_SPLIT``/``OP_MERGE``/``OP_FOLD`` records on a durable service, and
bounded by the affected range's own ``O(n_shard/B)`` rebuild cost --
never a global rebuild.  The policy is deliberately hysteretic: a shard
splits at ``split_load_factor`` times the target load (live points over
the configured shard count), a pair merges at ``merge_load_factor`` of
it (``merge < 1 < split``, so the two cannot thrash), and a fold fires
at ``fold_pressure_factor`` of it.  ``benchmarks/bench_resharding.py``
measures the payoff: under a Zipf-x mixed workload the adaptive topology
keeps query I/O near the balanced-uniform baseline while a static
topology degrades beyond 2x.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.service.service import SkylineService


class TopologyManager:
    """Per-shard load statistics and the split/merge policy over them."""

    def __init__(self, service: "SkylineService") -> None:
        self.service = service
        self.splits = 0
        self.merges = 0
        self.folds = 0
        # One entry per topology change, oldest first:
        # {"op", "sid", "cut", "touched", "charged", "version"}.
        # Bounded: a long-lived adaptive service performs topology
        # changes indefinitely, so only the newest HISTORY_LIMIT entries
        # are retained (the lifetime counts live in splits/merges/folds).
        self.history: List[Dict[str, object]] = []
        self._updates_since_check = 0

    HISTORY_LIMIT = 1024

    # ------------------------------------------------------------------
    # Load statistics
    # ------------------------------------------------------------------
    def _range_stats(self) -> Tuple[List[int], List[int]]:
        """One pass over the service state: per-shard ``(loads, slices)``.

        ``loads[sid]`` counts the records resident in shard ``sid``'s
        x-range wherever they live -- the shard's own residents minus its
        tombstones (dead weight a merge or fold would reclaim, which must
        not keep a cold shard looking warm), the pending memtable inserts
        routed there, and the frozen/level records inside the range.
        This is the load a split would actually rebalance: the split
        children are built from exactly these records.  ``slices[sid]``
        is the tower share of that load -- everything resident in shard
        ``sid``'s private tower, inherited components counted through its
        clip -- the *pressure* the fold trigger watches.  Towers are
        per-shard, so the sweep is one routing pass over the memtable
        plus one :meth:`~repro.service.lsm.LevelManager.resident` call
        per shard (a handful of bisects each); the cross-shard component
        walk of the shared-tower era is gone.
        """
        service = self.service
        count = len(service.shards)
        loads = [
            len(shard) - len(service.delta.owned_tombstones(shard.owner))
            for shard in service.shards
        ]
        for p in service.delta.inserts.values():
            loads[service.router.route_point(p.x)] += 1
        slices = [0] * count
        for sid, shard in enumerate(service.shards):
            if shard.tower is not None:
                slices[sid] = shard.tower.resident()
        for sid in range(count):
            loads[sid] += slices[sid]
        return loads, slices

    def range_load(self, sid: int) -> int:
        """Records resident in shard ``sid``'s x-range, wherever they live."""
        return self._range_stats()[0][sid]

    def range_loads(self) -> List[int]:
        return self._range_stats()[0]

    def level_slice(self, sid: int) -> int:
        """Records of shard ``sid``'s x-range resident in the LSM tower."""
        return self._range_stats()[1][sid]

    def target_load(self) -> int:
        """The per-shard load a balanced layout would carry: live points
        over the *configured* shard count (the parallelism the deployment
        sized for -- the actual count floats around it as shards split
        and merge)."""
        return max(1, len(self.service) // self.service.config.shard_count)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def on_update(self) -> None:
        """Called by the service once per applied update (adaptive mode):
        every ``topology_check_every``-th call runs one policy check."""
        self._updates_since_check += 1
        if self._updates_since_check < self.service.config.topology_check_every:
            return
        self._updates_since_check = 0
        self.maybe_rebalance()

    def maybe_rebalance(self) -> Optional[str]:
        """One policy step: split the hottest shard over the split
        threshold, else merge the coldest adjacent pair under the merge
        threshold, else *fold* the shard under the worst level-tower
        pressure (rebuilt in place from its tower: same cuts, range
        compacted locally).  At most one action per call, so the work any
        single update can trigger stays bounded.  Returns ``"split"``,
        ``"merge"``, ``"fold"`` or ``None``.
        """
        service = self.service
        config = service.config
        loads, slices = self._range_stats()
        target = self.target_load()
        hot = max(range(len(loads)), key=lambda sid: loads[sid])
        if loads[hot] >= config.split_load_factor * target and loads[hot] >= 2:
            if service.split_shard(hot) is not None:
                return "split"
        if len(loads) > 1:
            cold = min(
                range(len(loads) - 1), key=lambda sid: loads[sid] + loads[sid + 1]
            )
            if loads[cold] + loads[cold + 1] <= config.merge_load_factor * target:
                service.merge_shards(cold)
                return "merge"
        if config.fold_pressure_factor > 0:
            pressured = max(range(len(slices)), key=lambda sid: slices[sid])
            if slices[pressured] >= config.fold_pressure_factor * target:
                service.fold_shard(pressured)
                return "fold"
        return None

    # ------------------------------------------------------------------
    # Bookkeeping (the service records every applied change here)
    # ------------------------------------------------------------------
    def record(
        self, op: str, sid: int, cut: Optional[float], touched: int, charged: int
    ) -> None:
        if op == "split":
            self.splits += 1
        elif op == "merge":
            self.merges += 1
        else:
            self.folds += 1
        self.history.append(
            {
                "op": op,
                "sid": sid,
                "cut": cut,
                "touched": touched,
                "charged": charged,
                "version": self.service.router.version,
            }
        )
        if len(self.history) > self.HISTORY_LIMIT:
            del self.history[: len(self.history) - self.HISTORY_LIMIT]

    def describe(self) -> Dict[str, object]:
        """The live topology, as ``describe()``/dashboards report it."""
        service = self.service
        return {
            "shard_count": len(service.shards),
            "configured_shard_count": service.config.shard_count,
            "cuts": list(service.router.cuts),
            "version": service.router.version,
            "adaptive": service.config.adaptive_topology,
            "splits": self.splits,
            "merges": self.merges,
            "folds": self.folds,
            "shard_loads": self.range_loads(),
            "target_load": self.target_load(),
            "history": [dict(entry) for entry in self.history[-16:]],
        }
