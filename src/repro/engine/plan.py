"""Query planning: structure choice and the paper's predicted I/O bound.

``explain`` never executes anything.  A :class:`QueryPlan` answers two
questions about a request *before* it runs:

1. **Which structure serves it.**  The dispatch mirrors
   :meth:`repro.RangeSkylineIndex.query` exactly: the *easy* variants of
   Figure 2 (top-open, dominance, contour, 1-sided, unbounded) go to the
   top-open structure; right-open goes to the axis-swapped top-open
   structure; everything else (left-open, bottom-open, anti-dominance,
   slabs, general 4-sided) is provably as hard as the 4-sided case
   (Theorem 5) and goes to the 4-sided structure.

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
contribute nothing, which is exactly the service's pruning win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.engine.requests import QueryRequest

#: Variants served by the top-open structure (the paper's "easy" side,
#: minus right-open which needs the swapped copy).
EASY_TOP_OPEN_VARIANTS = frozenset(
    {"top-open", "dominance", "contour", "1-sided", "unbounded"}
)

STRUCTURE_TOP_OPEN = "top-open"
STRUCTURE_RIGHT_OPEN = "right-open"
STRUCTURE_FOUR_SIDED = "four-sided"

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


def structure_for(variant: str) -> str:
    """The structure :meth:`repro.RangeSkylineIndex.query` dispatches to."""
    if variant in EASY_TOP_OPEN_VARIANTS:
        return STRUCTURE_TOP_OPEN
    if variant == "right-open":
        return STRUCTURE_RIGHT_OPEN
    return STRUCTURE_FOUR_SIDED


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


@dataclass(frozen=True)
class ScopePlan:
    """One structure instance the query will touch.

    ``shard`` is the shard id on the sharded backend, ``None`` on the
    monolithic one; ``n`` is the points resident in that instance and
    ``search_io`` its instantiated k-independent term.  ``level`` marks
    the leveled-update-path component the scope belongs to (``None`` for
    a base shard or the monolithic index): on the leveled path a query
    fans across the base shards *and* every level structure, and the plan
    carries one scope per instance so the search term stays honest.
    """

    shard: Optional[int]
    n: int
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
        if self.structure == STRUCTURE_FOUR_SIDED:
            term = f"(n/{b})^{self.epsilon:g}"
        elif self.dynamic:
            term = f"log_(2*{b}^{self.epsilon:g})(n/{b})"
        else:
            term = f"log_{b}(n)"
        head = (
            f"sum over {len(self.scopes)} shards of {term}"
            if len(self.scopes) > 1
            else term
        )
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
    scopes: Sequence[Tuple[Optional[int], int]],
    shards_pruned: int = 0,
    level_scopes: Sequence[Tuple[int, int]] = (),
    level_layout: Sequence[Tuple[int, int]] = (),
    update_bound: Optional[str] = None,
    update_io: Optional[float] = None,
    topology_version: Optional[int] = None,
) -> QueryPlan:
    """Assemble a :class:`QueryPlan` from a backend's structural facts.

    ``scopes`` lists the structure instances that will serve the request
    as ``(shard_id_or_None, resident_points)`` pairs; ``level_scopes``
    lists the leveled components the query additionally fans across as
    ``(level, resident_points)`` pairs; ``dynamic`` says whether the
    easy-variant structures are Theorem 4's dynamic ones.
    """
    variant = request.variant
    structure = structure_for(variant)
    scope_plans = tuple(
        ScopePlan(
            shard=sid,
            n=n,
            search_io=search_term(structure, dynamic, n, block_size, epsilon),
        )
        for sid, n in scopes
    ) + tuple(
        ScopePlan(
            shard=None,
            n=n,
            search_io=search_term(structure, dynamic, n, block_size, epsilon),
            level=level,
        )
        for level, n in level_scopes
    )
    search_io = sum(scope.search_io for scope in scope_plans)
    per_result = per_result_term(structure, dynamic, block_size, epsilon)
    total_n = sum(scope.n for scope in scope_plans)
    return QueryPlan(
        backend=backend,
        variant=variant,
        structure=structure,
        bound=bound_for(structure, dynamic),
        block_size=block_size,
        n=total_n,
        epsilon=epsilon,
        dynamic=dynamic,
        scopes=scope_plans,
        shards_visited=len(scopes),
        shards_pruned=shards_pruned,
        search_io=search_io,
        per_result_io=per_result,
        level_layout=tuple(level_layout),
        update_bound=update_bound,
        update_io=update_io,
        topology_version=topology_version,
    )
