"""An asyncio dashboard fed by continuous skyline subscriptions.

One :class:`repro.serve.SkylineServer` serves a producer coroutine that
streams inserts through the writer lane and a dashboard coroutine that
never polls: it registered a rectangle with
:meth:`~repro.serve.SkylineServer.subscribe` and sits in ``async for
delta in handle.deltas()``, redrawing only when points actually enter or
leave the watched skyline.  The server pumps its
:class:`repro.stream.SubscriptionManager` after every applied write, and
the per-shard ``(uid, write_version)`` scopes mean a write outside the
watched x-band costs the dashboard zero block transfers.

Run it::

    PYTHONPATH=src python examples/continuous_dashboard.py
"""

from __future__ import annotations

import asyncio
import random

from repro import Point, RangeQuery
from repro.engine import SkylineEngine, SubscribeRequest
from repro.serve import SkylineServer
from repro.workloads import uniform_points

UNIVERSE = 1_000_000
WATCHED = RangeQuery(x_lo=0.25 * UNIVERSE, x_hi=0.75 * UNIVERSE)
PRODUCED = 200


async def producer(server: SkylineServer) -> None:
    """Stream inserts through the writer lane, everywhere on the x-axis."""
    rng = random.Random(11)
    for i in range(PRODUCED):
        point = Point(
            rng.uniform(0, UNIVERSE) + (i + 1) / (PRODUCED + 2.0),
            rng.uniform(0, UNIVERSE) + (i + 1) / (PRODUCED + 2.0),
            ident=10_000 + i,
        )
        await server.ainsert(point)
        if i % 50 == 49:
            await asyncio.sleep(0)  # let the dashboard breathe


async def dashboard(handle) -> int:
    """Redraw on deltas only; returns how many redraws happened.

    The ``async for`` ends cleanly when the handle is closed -- no
    polling, no cancellation, no sentinel values in user code.
    """
    redraws = 0
    view: set = set()
    async for delta in handle.deltas():
        for left in delta.left:
            view.discard((left.x, left.y, left.ident))
        for entered in delta.entered:
            view.add((entered.x, entered.y, entered.ident))
        redraws += 1
        print(
            f"redraw {redraws:>2}: rev {delta.revision:>2}, "
            f"+{len(delta.entered)} / -{len(delta.left)}, "
            f"view holds {len(view)} maxima "
            f"({delta.report.blocks} blocks charged)"
        )
    return redraws


async def main() -> None:
    engine = SkylineEngine.sharded(
        uniform_points(512, universe=UNIVERSE, seed=7),
        shard_count=4,
        cache_capacity=0,
    )
    server = SkylineServer(engine)
    try:
        handle = server.subscribe(SubscribeRequest(WATCHED))
        redraw_task = asyncio.create_task(dashboard(handle))
        await producer(server)
        # The producer is done; let the last pump land, then end the
        # subscription -- the dashboard's iterator finishes by itself.
        await asyncio.sleep(0.1)
        handle.close()
        redraws = await redraw_task
        status = server.describe()["server"]
        subs = status["subscriptions"]
        print()
        print(f"writes produced        : {PRODUCED}")
        print(f"dashboard redraws      : {redraws}")
        print(
            f"pump economics         : {subs['recomputed']} recomputed, "
            f"{subs['skipped']} skipped by write-version scope"
        )
        print(f"notification blocks    : {subs['notify_blocks']}")
        print(f"effective gather window: {status['gather_window_s']*1e3:.3f} ms")
    finally:
        server.stop()


if __name__ == "__main__":
    asyncio.run(main())
