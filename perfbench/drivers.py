"""Load generators and one measured pass of each workload.

A *pass* is: set the system up from the generated inputs, run the
workload's loop for the configured seconds, run the closing write probe
where the workload has one, then check the answers and both ledgers.
Open loops submit on the workload's precomputed schedule from one
generator thread and time every request from its *due* time to its
future's completion, so a stall is charged to every request it delayed;
the generator's own lateness is recorded alongside.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import Point
from repro.core.queries import RangeQuery
from repro.engine import QueryRequest, SkylineEngine, SubscribeRequest, UpdateRequest
from repro.serve import DeadlineExceeded, Overloaded, SkylineServer
from repro.service import DurableStore, ServiceConfig

from check import Gate, replay
from speed import Speed
from tracing import GcMonitor, Tracer, install_layer_spans
from workloads import SPECS, AdhocInputs, MixedInputs, ReadHotInputs

#: How long a pass waits for outstanding futures after the last submit.
DRAIN_TIMEOUT_S = 120.0
#: Served answers compared with the naive oracle per pass.
ANSWER_SAMPLES = 16


@dataclass
class PassResult:
    """Everything one measured pass observed."""

    setup_s: float = 0.0
    # Reference timings (speed.py) around the set-up builds, and inside
    # the window of the closed loop (None for the open loops).
    setup_speed: Speed = field(default_factory=Speed)
    window_speed: Optional[Speed] = None
    window_s: float = 0.0
    window_ops: int = 0  # requests served inside the measured window
    # (start or due time, latency) of every served request; the write
    # probe's samples are kept apart from the window's
    read_lat_s: List[Tuple[float, float]] = field(default_factory=list)
    write_lat_s: List[Tuple[float, float]] = field(default_factory=list)
    probe_lat_s: List[Tuple[float, float]] = field(default_factory=list)
    counts: Dict[str, int] = field(
        default_factory=lambda: dict(submitted=0, served=0, shed=0, expired=0, failed=0)
    )
    reads: int = 0
    writes: int = 0
    read_blocks: int = 0
    write_blocks: int = 0
    write_maintenance_blocks: int = 0
    busy_s: float = 0.0
    late_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    fanins: List[int] = field(default_factory=list)
    shards_visited: List[int] = field(default_factory=list)
    space_amp: float = 0.0
    status_before: Dict[str, object] = field(default_factory=dict)
    status_end: Dict[str, object] = field(default_factory=dict)
    subscriptions: Dict[str, object] = field(default_factory=dict)
    gc: Optional[GcMonitor] = None
    spans: Optional[dict] = None
    gate: Gate = field(default_factory=Gate)


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
def open_loop(
    submit: Callable[[int], Future],
    dues: Sequence[float],
    harvest: Callable[[int, float, float, object], None],
) -> Tuple[float, List[float], List[str], List[str]]:
    """Submit request ``i`` at ``dues[i]`` seconds from now, from this
    thread, whatever the server's state.

    Each response is handed to ``harvest(index, due, latency_s, response)``
    from its done-callback, where latency runs from the request's due
    time, and then dropped: the loop keeps no response alive, so the
    collector sees the program's garbage, not the benchmark's.  Returns
    (window seconds, generator lateness per request, outcomes, harvest
    errors)."""
    count = len(dues)
    start = time.perf_counter() + 0.01
    late = [0.0] * count
    outcomes = ["failed"] * count
    errors: List[str] = []
    last_done = [start]
    pending = [count]
    lock = threading.Lock()
    finished = threading.Event()

    def complete(index: int, due: float, future: Future) -> None:
        now = time.perf_counter()
        outcome = _outcome(future)
        with lock:
            outcomes[index] = outcome
            last_done[0] = max(last_done[0], now)
            try:
                if outcome == "served":
                    harvest(index, due, now - due, future.result())
            except Exception as exc:  # reported by the gate, never lost
                errors.append(f"harvesting request {index}: {exc!r}")
            pending[0] -= 1
            if pending[0] == 0:
                finished.set()

    for i in range(count):
        due = start + dues[i]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late[i] = time.perf_counter() - due
        submit(i).add_done_callback(functools.partial(complete, i, due))
    if not finished.wait(DRAIN_TIMEOUT_S):
        errors.append(f"{pending[0]} requests still pending after {DRAIN_TIMEOUT_S} s")
    with lock:
        return last_done[0] - start, late, list(outcomes), errors


def _outcome(future: Future) -> str:
    if not future.done():
        return "failed"
    exc = future.exception()
    if exc is None:
        return "served"
    if isinstance(exc, Overloaded):
        return "shed"
    if isinstance(exc, DeadlineExceeded):
        return "expired"
    return "failed"


def _tally(result: PassResult, outcomes: Sequence[str]) -> None:
    result.counts["submitted"] += len(outcomes)
    for outcome in outcomes:
        result.counts[outcome] += 1


def _note_read(
    result: PassResult, served: object, due: float, latency_s: float, seen: set
) -> None:
    """Per-read serving fields, and the batch's blocks once per batch."""
    result.reads += 1
    result.read_lat_s.append((due, latency_s))
    serving = served.serving  # type: ignore[attr-defined]
    result.queue_wait_s.append(serving.queue_wait_s)
    result.service_s.append(serving.service_s)
    result.batch_sizes.append(serving.batch_size)
    result.fanins.append(serving.coalesce_fanin)
    result.shards_visited.append(served.result.report.shards_visited)  # type: ignore[attr-defined]
    batch = (serving.pinned_version, serving.service_s, serving.batch_size, serving.batch_blocks)
    if batch not in seen:
        seen.add(batch)
        result.read_blocks += serving.batch_blocks
        result.busy_s += serving.service_s


def _note_write(
    result: PassResult, report: object, due: float, latency_s: float, probe: bool = False
) -> None:
    result.writes += 1
    (result.probe_lat_s if probe else result.write_lat_s).append((due, latency_s))
    result.write_blocks += report.blocks  # type: ignore[attr-defined]
    result.write_maintenance_blocks += report.maintenance_blocks  # type: ignore[attr-defined]


def _update(op: str, point: Point) -> UpdateRequest:
    return UpdateRequest.insert(point) if op == "insert" else UpdateRequest.delete(point)


def _space_amp(status: Dict[str, object], engine: SkylineEngine) -> float:
    block = engine.backend.block_size()
    return status["blocks_in_use"] * block / max(1, status["live_points"])  # type: ignore[operator]


def _status(front: object) -> Dict[str, object]:
    """The backend's describe() dict, read through the server's gate
    when a server owns the engine."""
    return front.describe()["backend"]  # type: ignore[attr-defined,return-value]


def _sample_indices(count: int) -> List[int]:
    step = max(1, count // ANSWER_SAMPLES)
    return list(range(0, count, step))[:ANSWER_SAMPLES]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
#: Reference timings before each set-up build and after the last.
SETUP_SPEED_SAMPLES = 3


def timed_setup(
    build: Callable[[], object], repeats: int, speed: Speed
) -> Tuple[object, List[float]]:
    """Build ``repeats`` times (keeping the last), timing each build,
    with reference timings into ``speed`` before each and after the last."""
    times: List[float] = []
    built: object = None
    for _ in range(repeats):
        if built is not None:
            _teardown(built)
            built = None
        # Every build starts from an empty collector: the full
        # collections a build triggers are part of its cost, garbage left
        # by input generation or an earlier build is not.
        gc.collect()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return built, times


def _teardown(built: object) -> None:
    server = built[1] if isinstance(built, tuple) else None
    if server is not None:
        server.stop()


# ----------------------------------------------------------------------
# Workload passes
# ----------------------------------------------------------------------
def _warm_reads(
    result: PassResult, server: SkylineServer, rects: Sequence[RangeQuery], rate: float
) -> None:
    """Untimed open-loop reads before the window; only their outcomes
    count (in ``attempted`` and the outcome partition)."""
    _, _, outcomes, errors = open_loop(
        lambda i: server.submit_query(QueryRequest(rect=rects[i])),
        [i / rate for i in range(len(rects))],
        lambda i, due, latency, served: None,
    )
    _tally(result, outcomes)
    result.gate.errors.extend(errors)


def read_hot_pass(
    inputs: ReadHotInputs,
    built: Tuple[SkylineEngine, SkylineServer],
    window: "Window",
) -> PassResult:
    engine, server = built
    result = PassResult()
    spec = SPECS["read-hot"]
    rects = [inputs.pool[i] for i in inputs.schedule]
    _warm_reads(result, server, [inputs.pool[i] for i in inputs.warmup], spec.rate_ops_s)  # type: ignore[arg-type]
    result.status_before = _status(server)
    window.begin()

    def submit(i: int) -> Future:
        return server.submit_query(QueryRequest(rect=rects[i]))

    seen: set = set()
    samples: List[Tuple[RangeQuery, Sequence[Point]]] = []
    sampled = set(_sample_indices(len(rects)))

    def harvest(i: int, due: float, latency_s: float, served: object) -> None:
        _note_read(result, served, due, latency_s, seen)
        if i in sampled:
            samples.append((rects[i], served.points))  # type: ignore[attr-defined]

    result.window_s, result.late_s, outcomes, errors = open_loop(
        submit, inputs.dues, harvest
    )
    _tally(result, outcomes)
    result.gate.errors.extend(errors)
    result.window_ops = result.reads
    result.space_amp = _space_amp(_status(server), engine)
    server.stop()
    result.gate.outcomes(result.counts, server.metrics.describe())
    _engine_write_probe(result, engine, inputs.probe)
    window.end()
    result.gate.answers(inputs.points, samples)
    _check_after_probe(result, engine, inputs.points, inputs.probe, inputs.pool[:8])
    result.status_end = _status(engine)
    result.gate.ledger(engine)
    result.gate.outcomes(result.counts)
    return result


def _engine_write_probe(
    result: PassResult, engine: SkylineEngine, probe: Sequence[Tuple[str, Point]]
) -> None:
    """The read-only workloads' closing write phase: a closed loop of
    updates straight into the engine, after the measured window."""
    for op, point in probe:
        started = time.perf_counter()
        update = engine.update(_update(op, point))
        _note_write(result, update.report, started, time.perf_counter() - started, probe=True)
    result.counts["submitted"] += len(probe)
    result.counts["served"] += len(probe)


def _check_after_probe(
    result: PassResult,
    engine: SkylineEngine,
    base: Sequence[Point],
    probe: Sequence[Tuple[str, Point]],
    rects: Sequence[RangeQuery],
) -> None:
    """Re-query a few rectangles after the write probe and check them
    against the oracle over the replayed live set."""
    live = replay(base, probe)
    if len(engine) != len(live):
        result.gate.errors.append(
            f"live point count {len(engine)} != replayed {len(live)}"
        )
    samples = [(rect, engine.query(rect).points) for rect in rects]
    result.gate.answers(live, samples)


def adhoc_read_pass(
    inputs: AdhocInputs, engine: SkylineEngine, seconds: float, window: "Window"
) -> PassResult:
    result = PassResult()
    for rect in inputs.warmup:
        engine.query(rect)
    result.counts.update(submitted=len(inputs.warmup), served=len(inputs.warmup))
    result.status_before = _status(engine)
    window.begin()
    rects = inputs.rects
    samples: List[Tuple[RangeQuery, Sequence[Point]]] = []
    sample_every = max(1, len(rects) // (4 * ANSWER_SAMPLES))
    lat = result.read_lat_s
    speed = Speed()
    paused = 0.0  # reference timings, kept out of the window
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while i < len(rects) and time.perf_counter() < deadline:
        paused += speed.maybe_sample()
        t0 = time.perf_counter()
        answer = engine.query(rects[i])
        lat.append((t0, time.perf_counter() - t0))
        result.read_blocks += answer.report.blocks
        result.shards_visited.append(answer.report.shards_visited)
        if i % sample_every == 0 and len(samples) < ANSWER_SAMPLES:
            samples.append((rects[i], answer.points))
        i += 1
    result.window_s = time.perf_counter() - started - paused
    result.window_speed = speed
    result.reads = result.window_ops = i
    result.busy_s = sum(latency for _, latency in lat)
    result.counts["submitted"] += i
    result.counts["served"] += i
    result.space_amp = _space_amp(_status(engine), engine)
    _engine_write_probe(result, engine, inputs.probe)
    window.end()
    result.gate.answers(inputs.points, samples)
    _check_after_probe(result, engine, inputs.points, inputs.probe, rects[:8])
    result.status_end = _status(engine)
    result.gate.ledger(engine)
    result.gate.outcomes(result.counts)
    return result


def mixed_write_pass(
    inputs: MixedInputs,
    built: Tuple[SkylineEngine, SkylineServer],
    window: "Window",
) -> PassResult:
    engine, server = built
    result = PassResult()
    spec = SPECS["mixed-write"]
    ops = inputs.ops
    # Standing subscriptions; each callback folds its deltas into the
    # subscriber's view, checked against the oracle at the end.
    views: List[Dict[Tuple[float, float], Point]] = []
    for rect in inputs.subscriptions:
        view: Dict[Tuple[float, float], Point] = {}
        views.append(view)

        def fold(delta: object, view: Dict[Tuple[float, float], Point] = view) -> None:
            for p in delta.left:  # type: ignore[attr-defined]
                view.pop((p.x, p.y), None)
            for p in delta.entered:  # type: ignore[attr-defined]
                view[(p.x, p.y)] = p

        server.subscribe(SubscribeRequest(rect=rect), callback=fold)
    _warm_reads(result, server, inputs.warmup, spec.rate_ops_s / 2)  # type: ignore[operator]
    result.status_before = _status(server)
    window.begin()

    def submit(i: int) -> Future:
        op, payload = ops[i]
        if op == "read":
            return server.submit_query(QueryRequest(rect=payload))  # type: ignore[arg-type]
        return server.submit_update(_update(op, payload))  # type: ignore[arg-type]

    seen: set = set()
    read_samples: List[Tuple[int, RangeQuery, Sequence[Point]]] = []
    read_positions = [i for i, (op, _) in enumerate(ops) if op == "read"]
    sampled = {read_positions[j] for j in _sample_indices(len(read_positions))}

    def harvest(i: int, due: float, latency_s: float, served: object) -> None:
        if ops[i][0] == "read":
            _note_read(result, served, due, latency_s, seen)
            if i in sampled:
                read_samples.append(
                    (served.serving.pinned_version, ops[i][1], served.points)  # type: ignore[attr-defined]
                )
        else:
            _note_write(result, served.report, due, latency_s)  # type: ignore[attr-defined]
            result.busy_s += served.serving.service_s  # type: ignore[attr-defined]

    result.window_s, result.late_s, outcomes, errors = open_loop(
        submit, inputs.dues, harvest
    )
    _tally(result, outcomes)
    result.gate.errors.extend(errors)
    result.window_ops = result.reads + result.writes
    result.status_end = _status(server)
    result.space_amp = _space_amp(result.status_end, engine)
    result.subscriptions = server.describe()["server"]["subscriptions"]  # type: ignore[index]
    server.stop()
    window.end()
    # Reads executed against the state after their pinned number of
    # applied writes: replay the write log up to that prefix.
    writes = [(op, p) for op, p in ops if op != "read"]
    for version, rect, points in sorted(read_samples, key=lambda s: s[0]):
        result.gate.answers(replay(inputs.points, writes[:version]), [(rect, points)])
    final = replay(inputs.points, writes)
    if len(engine) != len(final):
        result.gate.errors.append(
            f"live point count {len(engine)} != replayed {len(final)}"
        )
    result.gate.answers(final, [(rect, list(v.values())) for rect, v in zip(inputs.subscriptions, views)])
    result.gate.ledger(engine)
    result.gate.outcomes(result.counts, server.metrics.describe())
    return result


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_read_hot(points: Sequence[Point]) -> Tuple[SkylineEngine, SkylineServer]:
    engine = SkylineEngine.sharded(points, ServiceConfig(shard_count=SPECS["read-hot"].shards))
    return engine, SkylineServer(engine)


def build_adhoc(points: Sequence[Point]) -> SkylineEngine:
    return SkylineEngine.sharded(points, ServiceConfig(shard_count=SPECS["adhoc-read"].shards))


#: Mixed-write service shape: a durable, adaptive 16-shard service.  A
#: small memtable and a low fold bar make seals, merges and folds happen
#: throughout the run, and the one tombstone-reclaim compaction (at
#: ``delta_threshold * level_growth`` = 128 tombstones) fire in its last
#: fifth, so the first two thirds of the window show the steady state.
MIXED_DELTA_THRESHOLD = 32
MIXED_FOLD_PRESSURE = 0.05


def build_mixed(points: Sequence[Point]) -> Tuple[SkylineEngine, SkylineServer]:
    knobs: Dict[str, object] = dict(
        shard_count=SPECS["mixed-write"].shards,
        durability=True,
        adaptive_topology=True,
        delta_threshold=MIXED_DELTA_THRESHOLD,
    )
    # The fold trigger is a tuning knob a later topology policy may
    # replace; set it only while it exists.
    if "fold_pressure_factor" in {f.name for f in dataclasses.fields(ServiceConfig)}:
        knobs["fold_pressure_factor"] = MIXED_FOLD_PRESSURE
    config = ServiceConfig(**knobs)  # type: ignore[arg-type]
    engine = SkylineEngine.sharded(points, config, store=DurableStore())
    return engine, SkylineServer(engine)


class Window:
    """The measured stretch of a pass: GC capture always, layer spans
    when traced.  Warm-up runs before :meth:`begin`; answer checks run
    after :meth:`end`."""

    def __init__(self, traced: bool) -> None:
        self.monitor = GcMonitor()
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self._open = False

    def begin(self) -> None:
        self._open = True
        self.monitor.install()
        if self.tracer is not None:
            install_layer_spans(self.tracer)

    def end(self) -> None:
        if not self._open:
            return
        self._open = False
        self.monitor.remove()
        if self.tracer is not None:
            self.tracer.remove()


def run_pass(name: str, inputs: object, seconds: float, repeats: int, traced: bool) -> PassResult:
    """Set up (``repeats`` times), then measure one pass of ``name``."""
    builders = {
        "read-hot": build_read_hot,
        "adhoc-read": build_adhoc,
        "mixed-write": build_mixed,
    }
    setup_speed = Speed()
    built, setup_times = timed_setup(
        lambda: builders[name](inputs.points), repeats, setup_speed  # type: ignore[attr-defined]
    )
    # Start every pass from the same collector state, so whether a full
    # collection lands in the window does not depend on set-up garbage.
    gc.collect()
    window = Window(traced)
    try:
        if name == "read-hot":
            result = read_hot_pass(inputs, built, window)  # type: ignore[arg-type]
        elif name == "adhoc-read":
            result = adhoc_read_pass(inputs, built, seconds, window)  # type: ignore[arg-type]
        else:
            result = mixed_write_pass(inputs, built, window)  # type: ignore[arg-type]
    finally:
        window.end()
        _teardown(built)
    result.setup_s = sorted(setup_times)[len(setup_times) // 2]
    result.setup_speed = setup_speed
    result.gc = window.monitor
    if window.tracer is not None:
        result.spans = window.tracer.spans()
    return result
