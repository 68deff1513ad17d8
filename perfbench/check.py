"""Correctness gate: sampled answers against the naive oracle, and the
two accounting partitions every run must satisfy exactly."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import EMConfig, Point, StorageManager
from repro.baselines.naive import NaiveScanSkyline
from repro.core.queries import RangeQuery


def _coords(points: Iterable[Point]) -> List[Tuple[float, float]]:
    return sorted((p.x, p.y) for p in points)


class Gate:
    """Collects mismatches; a run is correct iff none were recorded."""

    def __init__(self) -> None:
        self.errors: List[str] = []
        self.answers_checked = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def answers(
        self, live: Sequence[Point], samples: Sequence[Tuple[RangeQuery, Sequence[Point]]]
    ) -> None:
        """Compare each ``(rect, served points)`` with
        :class:`~repro.baselines.naive.NaiveScanSkyline` over ``live``."""
        if not samples:
            return
        oracle = NaiveScanSkyline(StorageManager(EMConfig()), live)
        for rect, served in samples:
            expected = _coords(oracle.query(rect))
            self.answers_checked += 1
            if _coords(served) != expected:
                self.errors.append(
                    f"wrong answer for {rect}: served {len(served)} points, "
                    f"oracle {len(expected)}"
                )

    def ledger(self, engine: object) -> None:
        """``attributed + maintenance == total - build``, exactly."""
        attributed = engine.attributed_io()  # type: ignore[attr-defined]
        maintenance = engine.maintenance_io()  # type: ignore[attr-defined]
        total = engine.io_total()  # type: ignore[attr-defined]
        build = engine.build_io  # type: ignore[attr-defined]
        if attributed + maintenance != total - build:
            self.errors.append(
                f"ledger partition broken: attributed {attributed} + "
                f"maintenance {maintenance} != total {total} - build {build}"
            )

    def outcomes(
        self, counts: Dict[str, int], server_status: Optional[Dict[str, object]] = None
    ) -> None:
        """``served + shed + expired + failed == submitted``, and the
        server's own counters agree with the client's."""
        parts = counts["served"] + counts["shed"] + counts["expired"] + counts["failed"]
        if parts != counts["submitted"]:
            self.errors.append(f"outcome partition broken: {counts}")
        if server_status is not None:
            mine = (counts["submitted"], counts["served"], counts["shed"], counts["expired"])
            theirs = (
                server_status["submitted"],
                server_status["served"],
                server_status["shed"],
                server_status["timed_out"],
            )
            if mine != theirs:
                self.errors.append(
                    f"server counters {theirs} disagree with client counts {mine} "
                    "(submitted, served, shed, expired)"
                )


def replay(base: Sequence[Point], ops: Sequence[Tuple[str, Point]]) -> List[Point]:
    """The live point set after applying ``ops`` to ``base`` in order."""
    live: Dict[Tuple[float, float, int], Point] = {
        (p.x, p.y, p.ident): p for p in base
    }
    for op, point in ops:
        key = (point.x, point.y, point.ident)
        if op == "insert":
            live[key] = point
        else:
            live.pop(key, None)
    return list(live.values())
