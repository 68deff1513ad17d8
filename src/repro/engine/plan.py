"""Query planning: structure choice and the paper's predicted I/O bound.

``explain`` never executes anything.  A :class:`QueryPlan` answers two
questions about a request *before* it runs:

1. **Which structure serves it.**  The dispatch mirrors
   :meth:`repro.RangeSkylineIndex.query` exactly, because both call
   :func:`repro.core.queries.choose_structure`.  Each index routes on its
   own extent: a rectangle whose ``y_hi`` is at or above the index's
   largest y goes to the top-open structure; otherwise one whose ``x_hi``
   is at or beyond its largest x goes to the axis-swapped top-open
   (right-open) structure; only the rest go to the 4-sided structure.
   Every :class:`ScopePlan` records the structure its index will pick for
   the rectangle that index receives.  The plan's own ``structure`` and
   ``bound`` give the shape-level choice, the same rule with infinite
   extents: every shape with a grounded top (top-open, dominance,
   contour, x-slabs) is top-open; the rest with a grounded right edge
   (right-open, y-slabs, ``y <= d``) are right-open.  Slabs are *not* as
   hard as the 4-sided case: an x-slab is top-open with ``y_lo = -inf``
   and a y-slab right-open with ``x_lo = -inf``.  Only left-open,
   bottom-open, anti-dominance and general 4-sided shapes are 4-sided,
   and even those run Theorem 1 on any index whose points they clear.

2. **What the paper says it should cost.**  The relevant bound --
   Theorem 1's ``O(log_B n + k/B)`` for static top-open/right-open,
   Theorem 4's ``O(log_{2B^eps}(n/B) + k/B^(1-eps))`` for the dynamic
   structure, Theorem 6's ``O((n/B)^eps + k/B)`` for 4-sided -- is
   *instantiated* with the backend's actual ``B``, ``n`` and ``eps``:
   the plan carries the numeric search term (k-independent) and the
   per-reported-point term, so ``plan.predicted_io(k)`` is a number a
   report can sit next to a measured ledger delta.

On the sharded backend a query fans out to the shards whose x-range its
rectangle intersects; the plan then carries one scope per *visited* shard
(each a static structure over that shard's resident points) and the
search term is the sum over the visited scopes -- pruned shards
contribute nothing, which is exactly the service's pruning win.  A shard
the rectangle crosses all the way to its right end runs the right-open
structure even when the rectangle itself is 4-sided, and its scope's
search term is Theorem 1's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import structure_epsilon
from repro.core.queries import STRUCTURE_FOUR_SIDED, choose_structure
from repro.engine.requests import QueryRequest

#: Paper bounds, by (structure, dynamic?).
BOUND_STATIC_EASY = "O(log_B n + k/B)"  # Theorems 1 and 6 (swapped)
BOUND_DYNAMIC_EASY = "O(log_{2B^eps}(n/B) + k/B^(1-eps))"  # Theorem 4
BOUND_FOUR_SIDED = "O((n/B)^eps + k/B)"  # Theorem 6

#: Update-path bounds the sharded backend instantiates (Theorems 4/6 pay
#: O(log_B n) amortized per update via the logarithmic method; the leveled
#: subsystem realises it with growth factor g and memtable capacity c).
BOUND_UPDATE_LEVELED = "O((g/B) * log_g(n/c)) amortized per update"


def amortized_update_io(
    n: int, block_size: int, growth: int, memtable_capacity: int
) -> float:
    """The leveled path's amortized per-update transfers, instantiated.

    Each record is rewritten at most ``g`` times per level (leveling) over
    ``log_g(n/c)`` levels, at ``1/B`` transfers per rewritten record.
    """
    b = max(2, block_size)
    g = max(2, growth)
    levels = max(1.0, math.log(max(2.0, n / max(1, memtable_capacity)), g))
    return g * levels / b


def bound_for(structure: str, dynamic: bool) -> str:
    """The paper bound governing ``structure`` (see module docstring)."""
    if structure == STRUCTURE_FOUR_SIDED:
        return BOUND_FOUR_SIDED
    return BOUND_DYNAMIC_EASY if dynamic else BOUND_STATIC_EASY


def search_term(
    structure: str, dynamic: bool, n: int, block_size: int, epsilon: float
) -> float:
    """The k-independent term of the bound, instantiated numerically."""
    if n <= 0:
        return 0.0
    b = max(2, block_size)
    if structure == STRUCTURE_FOUR_SIDED:
        return max(1.0, (n / b) ** epsilon)
    if dynamic:
        base = max(2.0, 2.0 * b**epsilon)
        return max(1.0, math.log(max(2.0, n / b), base))
    return max(1.0, math.log(n, b))


def per_result_term(
    structure: str, dynamic: bool, block_size: int, epsilon: float
) -> float:
    """The per-reported-point term: ``1/B`` (or ``1/B^(1-eps)`` dynamic)."""
    b = max(2, block_size)
    if structure != STRUCTURE_FOUR_SIDED and dynamic:
        return 1.0 / (b ** (1.0 - epsilon))
    return 1.0 / b


def _render_term(structure: str, dynamic: bool, b: int, epsilon: float) -> str:
    if structure == STRUCTURE_FOUR_SIDED:
        return f"(n/{b})^{epsilon:g}"
    if dynamic:
        return f"log_(2*{b}^{epsilon:g})(n/{b})"
    return f"log_{b}(n)"


@dataclass(frozen=True)
class ScopePlan:
    """One structure instance the query will touch.

    ``shard`` is the shard id on the sharded backend, ``None`` on the
    monolithic one; ``n`` is the points resident in that instance.
    ``structure`` is the one that instance's index picks for the
    rectangle it receives, ``epsilon`` the value that structure runs
    with, and ``search_io`` its instantiated k-independent term.
    ``level`` marks the leveled-update-path component the scope belongs
    to (``None`` for a base shard or the monolithic index): on the
    leveled path a query fans across the base shards *and* every indexed
    level structure, and the plan carries one scope per instance so the
    search term stays honest (a level of at most one block is read in
    memory and gets no scope).
    """

    shard: Optional[int]
    n: int
    structure: str
    epsilon: float
    search_io: float
    level: Optional[int] = None


@dataclass(frozen=True)
class QueryPlan:
    """The pre-execution plan ``engine.explain(request)`` returns."""

    backend: str
    variant: str
    structure: str
    bound: str
    block_size: int
    n: int
    epsilon: float
    dynamic: bool
    scopes: Tuple[ScopePlan, ...]
    shards_visited: int
    shards_pruned: int
    search_io: float
    per_result_io: float
    # Update-path facts (sharded backend): the current level layout
    # (records per level, level 0 being the memtable), and the amortized
    # update bound instantiated with the backend's actual B, n, growth and
    # memtable capacity.
    level_layout: Tuple[Tuple[int, int], ...] = ()
    update_bound: Optional[str] = None
    update_io: Optional[float] = None
    # Topology facts (sharded backend): the router version the scopes were
    # planned against.  Scopes always come from the *live* router -- the
    # actual shard count is ``shards_visited + shards_pruned``, which can
    # differ from ``ServiceConfig.shard_count`` once online splits/merges
    # (or a degenerate cut computation) have moved the layout.
    topology_version: Optional[int] = None

    def predicted_io(self, k: int) -> float:
        """The bound instantiated at output size ``k`` (block transfers)."""
        return self.search_io + k * self.per_result_io

    @property
    def update_path(self) -> Optional[str]:
        """How writes reach the static structures: ``"leveled"`` (the
        sharded service's per-shard LSM towers) when the plan carries an
        update bound, else ``None``."""
        return None if self.update_bound is None else "leveled"

    @property
    def formula(self) -> str:
        """The instantiated bound, rendered for humans.

        Computed on demand: the hot query path builds a plan per request
        but only ``explain``-style consumers render the string.
        """
        b = self.block_size
        counts: Dict[Tuple[str, float], int] = {}
        for scope in self.scopes:
            key = (scope.structure, scope.epsilon)
            counts[key] = counts.get(key, 0) + 1
        if not counts:
            counts[(self.structure, self.epsilon)] = 1
        parts: List[str] = []
        for (structure, epsilon), count in counts.items():
            term = _render_term(structure, self.dynamic, b, epsilon)
            parts.append(
                f"sum over {count} scopes of {term}" if count > 1 else term
            )
        head = " + ".join(parts)
        return (
            f"{head} + k*{self.per_result_io:.6g} = "
            f"{self.search_io:.3f} + k*{self.per_result_io:.6g}"
            f"  [B={b}, n={self.n}]"
        )


def build_plan(
    request: QueryRequest,
    *,
    backend: str,
    block_size: int,
    epsilon: float,
    dynamic: bool,
    scopes: Sequence[Tuple[Optional[int], int, str]],
    shards_visited: Optional[int] = None,
    shards_pruned: int = 0,
    level_scopes: Sequence[Tuple[int, int, str]] = (),
    level_layout: Sequence[Tuple[int, int]] = (),
    update_bound: Optional[str] = None,
    update_io: Optional[float] = None,
    topology_version: Optional[int] = None,
) -> QueryPlan:
    """Assemble a :class:`QueryPlan` from a backend's structural facts.

    ``scopes`` lists the structure instances that will serve the request
    as ``(shard_id_or_None, resident_points, structure)`` triples;
    ``level_scopes`` lists the leveled components the query additionally
    fans across as ``(level, resident_points, structure)`` triples.
    ``shards_visited`` counts the routed shards, empty ones included (by
    default one per scope).  Each
    ``structure`` is the one that instance's index picks
    (:meth:`repro.RangeSkylineIndex.route`).  ``epsilon`` is the knob the
    indexes were built with, and :func:`repro.api.structure_epsilon`
    gives each structure's own value; ``dynamic`` says whether the easy
    structures are Theorem 4's dynamic ones.  The plan's ``structure``
    and ``bound`` are the shape-level choice; its per-result term is the
    largest of its scopes'.
    """
    structure = choose_structure(request.rect)

    def scope_plan(
        shard: Optional[int], n: int, chosen: str, level: Optional[int]
    ) -> ScopePlan:
        eps = structure_epsilon(chosen, epsilon)
        return ScopePlan(
            shard=shard,
            n=n,
            structure=chosen,
            epsilon=eps,
            search_io=search_term(chosen, dynamic, n, block_size, eps),
            level=level,
        )

    scope_plans = tuple(
        scope_plan(sid, n, chosen, None) for sid, n, chosen in scopes
    ) + tuple(
        scope_plan(None, n, chosen, level) for level, n, chosen in level_scopes
    )
    search_io = sum(scope.search_io for scope in scope_plans)
    plan_epsilon = structure_epsilon(structure, epsilon)
    per_result = max(
        (
            per_result_term(scope.structure, dynamic, block_size, scope.epsilon)
            for scope in scope_plans
        ),
        default=per_result_term(structure, dynamic, block_size, plan_epsilon),
    )
    total_n = sum(scope.n for scope in scope_plans)
    return QueryPlan(
        backend=backend,
        variant=request.variant,
        structure=structure,
        bound=bound_for(structure, dynamic),
        block_size=block_size,
        n=total_n,
        epsilon=plan_epsilon,
        dynamic=dynamic,
        scopes=scope_plans,
        shards_visited=len(scopes) if shards_visited is None else shards_visited,
        shards_pruned=shards_pruned,
        search_io=search_io,
        per_result_io=per_result,
        level_layout=tuple(level_layout),
        update_bound=update_bound,
        update_io=update_io,
        topology_version=topology_version,
    )
