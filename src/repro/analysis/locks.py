"""Named locks with optional runtime order tracking.

The serving tier creates its locks through :func:`tracked_lock` /
:func:`tracked_condition` instead of ``threading.Lock()`` /
``threading.Condition()`` directly.  The wrappers carry a stable *name*
(the same name the static pass in :mod:`repro.analysis.locklint`
extracts), and when a :class:`LockOrderTracker` is installed -- via
``REPRO_SANITIZE=1`` or :func:`repro.analysis.sanitize.enable` -- every
acquisition is checked against the per-thread held set:

* acquiring ``B`` while holding ``A`` records the edge ``A -> B``; if
  that edge closes a cycle in the dynamically observed order graph, the
  acquisition raises :class:`~repro.analysis.sanitize.LockOrderError`
  *before* blocking (so the report arrives instead of the deadlock);
* when the tracker was built with the **static** lock-order graph, any
  observed edge missing from it raises too -- the dynamic behaviour must
  stay inside what ``tools/reprolint`` verified to be acyclic.

Acquisitions also bump the global sync epoch
(:func:`repro.analysis.sanitize.sync_point`), which is what lets the
ledger-ownership sanitizer accept lock-protected cross-thread charges.

With no tracker installed the wrappers cost one attribute load and a
``None`` check per acquisition, so production code keeps them on
permanently.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import sanitize

__all__ = [
    "LockOrderTracker",
    "TrackedLock",
    "TrackedCondition",
    "tracked_lock",
    "tracked_condition",
    "install_tracker",
    "tracker",
]


class LockOrderTracker:
    """Per-thread held-lock stacks plus a global observed order graph.

    ``allowed_edges`` (optional) is the static lock-order graph as
    ``(outer, inner)`` name pairs; when given, dynamically observed
    edges must be a subset of it.
    """

    def __init__(
        self, allowed_edges: Optional[Iterable[Tuple[str, str]]] = None
    ) -> None:
        self._graph_lock = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}
        self._allowed: Optional[Set[Tuple[str, str]]] = (
            None if allowed_edges is None else set(allowed_edges)
        )
        self._local = threading.local()

    # -- per-thread state ---------------------------------------------
    def _held(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def held_locks(self) -> Tuple[str, ...]:
        """The lock names the calling thread currently holds, outermost
        first (introspection for tests)."""
        return tuple(self._held())

    def observed_edges(self) -> Set[Tuple[str, str]]:
        """Every ``(outer, inner)`` pair observed so far."""
        with self._graph_lock:
            return {(a, b) for a, inner in self._edges.items() for b in inner}

    # -- acquisition protocol -----------------------------------------
    def before_acquire(self, name: str) -> None:
        """Validate acquiring ``name`` given the caller's held set.

        Raises :class:`~repro.analysis.sanitize.LockOrderError` on an
        inversion (or an edge outside the static graph) *before* the
        caller blocks on the lock.
        """
        held = self._held()
        if not held:
            return
        with self._graph_lock:
            for outer in held:
                if outer == name:
                    raise sanitize.LockOrderError(
                        f"lock {name!r} acquired while already held by this "
                        "thread (self-deadlock on a non-reentrant lock, or "
                        "two same-ranked instances taken together)"
                    )
                if self._allowed is not None and (outer, name) not in self._allowed:
                    raise sanitize.LockOrderError(
                        f"observed acquisition order {outer!r} -> {name!r} is "
                        "not in the static lock-order graph -- run "
                        "tools/reprolint and annotate the call chain (repro: "
                        "calls(...)) or fix the ordering"
                    )
                if self._reaches(name, outer):
                    raise sanitize.LockOrderError(
                        f"lock-order inversion: acquiring {name!r} while "
                        f"holding {outer!r}, but the order "
                        f"{name!r} -> ... -> {outer!r} was already observed"
                    )
            for outer in held:
                self._edges.setdefault(outer, set()).add(name)

    def note_acquired(self, name: str) -> None:
        self._held().append(name)
        sanitize.sync_point()

    def note_released(self, name: str) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    # -- internals ----------------------------------------------------
    def _reaches(self, source: str, target: str) -> bool:
        """Whether ``target`` is reachable from ``source`` in the
        observed graph (caller holds ``_graph_lock``)."""
        stack = [source]
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, ()))
        return False


# The installed tracker (None = lock-order sanitizing off).
_tracker: Optional[LockOrderTracker] = None


def install_tracker(instance: Optional[LockOrderTracker]) -> None:
    """Install (or remove, with ``None``) the global lock-order tracker."""
    global _tracker
    _tracker = instance


def tracker() -> Optional[LockOrderTracker]:
    """The currently installed tracker, if any."""
    return _tracker


class TrackedLock:
    """A ``threading.Lock`` wrapper carrying a stable name.

    Supports the mutex surface the serving tier uses (``with``,
    ``acquire``/``release``, ``locked``).  Acquisitions consult the
    installed :class:`LockOrderTracker` (when any) and bump the global
    sync epoch, making every lock acquisition a declared
    synchronization point for the ledger-ownership sanitizer.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        active = _tracker
        if active is not None:
            active.before_acquire(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            if active is not None:
                active.note_acquired(self.name)
            elif sanitize.ledger_checks:
                sanitize.sync_point()
        return acquired

    def release(self) -> None:
        active = _tracker
        if active is not None:
            active.note_released(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedLock({self.name!r})"


class TrackedCondition:
    """A ``threading.Condition`` wrapper carrying a stable name.

    Exposes the condition surface the worker pool uses (``with``,
    ``wait``, ``notify``, ``notify_all``).  Entering the condition is
    tracked like a lock acquisition; waking from ``wait`` re-acquires
    the same underlying lock (no new order edge) but declares a sync
    point, since a wake-up is a cross-thread handoff.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._cond = threading.Condition()

    def __enter__(self) -> "TrackedCondition":
        active = _tracker
        if active is not None:
            active.before_acquire(self.name)
        self._cond.__enter__()
        if active is not None:
            active.note_acquired(self.name)
        elif sanitize.ledger_checks:
            sanitize.sync_point()
        return self

    def __exit__(self, *exc_info: object) -> None:
        active = _tracker
        if active is not None:
            active.note_released(self.name)
        self._cond.__exit__(None, None, None)

    def wait(self, timeout: Optional[float] = None) -> bool:
        notified = self._cond.wait(timeout)
        if _tracker is not None or sanitize.ledger_checks:
            sanitize.sync_point()
        return notified

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedCondition({self.name!r})"


def tracked_lock(name: str) -> TrackedLock:
    """A named mutex; the name is what reprolint's static graph and the
    runtime tracker report."""
    return TrackedLock(name)


def tracked_condition(name: str) -> TrackedCondition:
    """A named condition variable (see :func:`tracked_lock`)."""
    return TrackedCondition(name)
