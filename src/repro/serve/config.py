"""Tunables of the async serving runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: ``block`` makes an over-capacity submission wait for queue space (up to
#: ``submit_timeout``); ``shed`` rejects it immediately with a typed
#: :class:`~repro.serve.errors.Overloaded` failure on the returned future.
BACKPRESSURE_POLICIES = ("block", "shed")

#: Admission-control bound on the write intake queue; a full queue
#: triggers the ``backpressure`` policy like the read queue does.
MAX_WRITE_QUEUE = 1024


@dataclass(frozen=True)
class ServerConfig:
    """Parameters of a :class:`repro.serve.SkylineServer`.

    Attributes
    ----------
    gather_window:
        Read gathering window, in seconds, and the one bound on how long
        a read waits for company.  After the dispatcher pulls the first
        pending read it keeps gathering submissions until the window
        closes (or until ``max_batch``), so concurrent callers hitting
        the service within one window are served as *one*
        :meth:`~repro.engine.SkylineEngine.query_batch_shared` call, where
        identical and nested rectangles among them share one execution.
        The window opens at the previous dispatch when that one is less
        than a window ago, so a batch's execution eats into the next
        window, and at the pull otherwise.  The wait is arrival-aware:
        the dispatcher keeps an EWMA of read inter-arrival gaps and
        waits only while that mean gap is no longer than the window (or
        before any estimate exists).  When reads arrive further apart,
        no company can come within the window, so it drains whatever is
        already queued and dispatches at once.  ``0`` never waits but
        still drains the queue into one batch.  ``describe()`` reports
        the window in effect and the EWMA.
    max_batch:
        Upper bound on the submissions gathered into one read batch.
        ``1`` executes every submission alone -- the uncoalesced
        baseline ``benchmarks/bench_serving.py`` measures against.
    max_read_queue:
        Admission-control bound on the read intake queue (the write
        queue's is :data:`MAX_WRITE_QUEUE`).  A full queue triggers the
        ``backpressure`` policy, so queue wait -- and therefore tail
        latency -- is bounded by construction.
    backpressure:
        ``"block"`` or ``"shed"`` -- see :data:`BACKPRESSURE_POLICIES`.
    submit_timeout:
        Under the ``block`` policy, how long a submission may wait for
        queue space before it is shed anyway (``None`` = wait forever).
    max_subscription_queue:
        Bound on each subscription's pending-notification queue.  A
        subscriber that stops draining is *shed*: its subscription is
        cancelled with a terminal :class:`~repro.serve.errors.Overloaded`
        -- the same admission-control stance the intake queues take, so a
        slow consumer cannot hold delta history without bound.
    """

    gather_window: float = 0.002
    max_batch: int = 64
    max_read_queue: int = 1024
    backpressure: str = "block"
    submit_timeout: Optional[float] = None
    max_subscription_queue: int = 256

    def __post_init__(self) -> None:
        if self.gather_window < 0:
            raise ValueError(
                f"gather_window must be >= 0, got {self.gather_window}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_read_queue < 1:
            raise ValueError(
                f"max_read_queue must be >= 1, got {self.max_read_queue}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.submit_timeout is not None and self.submit_timeout <= 0:
            raise ValueError(
                f"submit_timeout must be > 0 or None, got {self.submit_timeout}"
            )
        if self.max_subscription_queue < 1:
            raise ValueError(
                f"max_subscription_queue must be >= 1, "
                f"got {self.max_subscription_queue}"
            )
