"""The closed-loop load generator: the paper's client model.

Each client is one thread that sends its next transaction when the previous
one is acknowledged.  A client owns one or more *lanes* — a session pinned to
a replica plus the deterministic input stream ``RandomStreams(seed + lane)``
— and walks them round-robin (one lane per client on the live workloads; the
single-threaded functional workload alternates two).  The program under test
sees only the generated transactions.

:class:`TimedSession` is the client's own stopwatch, not tracing: it times
the calls a real client would time (a read statement, begin → commit ack)
and is present on traced and untraced runs alike.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import TransactionAborted
from repro.sim.rng import RandomStreams

from bench.tracing import Target, Tracer


@dataclass
class Samples:
    """What one phase observed (times in seconds, ``done_at`` on the phase clock)."""

    #: Committed update transactions: begin -> commit ack, the commit() call
    #: alone, and when the ack arrived.
    update_s: list[float] = field(default_factory=list)
    commit_call_s: list[float] = field(default_factory=list)
    update_at: list[float] = field(default_factory=list)
    #: Read statements and when each returned.
    read_s: list[float] = field(default_factory=list)
    read_at: list[float] = field(default_factory=list)
    reads_in_updates: int = 0
    #: Completion times of committed transactions (read-only and update).
    done_at: list[float] = field(default_factory=list)
    update_commits: int = 0
    readonly_commits: int = 0
    aborts: int = 0
    failed: int = 0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def commits(self) -> int:
        return self.update_commits + self.readonly_commits

    def merge(self, other: "Samples") -> None:
        for name, value in vars(other).items():
            if isinstance(value, list):
                getattr(self, name).extend(value)
            else:
                setattr(self, name, getattr(self, name) + value)


class TimedSession:
    """A session wrapper that times statements the way a client would."""

    def __init__(self, session) -> None:
        self.session = session
        self.samples = Samples()
        self._began = 0.0
        self._wrote = False
        self._reads = 0

    def begin(self) -> None:
        self._began = time.perf_counter()
        self._wrote = False
        self._reads = 0
        self.session.begin()

    def read(self, table: str, key: object):
        started = time.perf_counter()
        row = self.session.read(table, key)
        done = time.perf_counter()
        self.samples.read_s.append(done - started)
        self.samples.read_at.append(done)
        self._reads += 1
        return row

    def insert(self, table: str, key: object, **values: object) -> None:
        self._wrote = True
        self.session.insert(table, key, **values)

    def update(self, table: str, key: object, **values: object) -> None:
        self._wrote = True
        self.session.update(table, key, **values)

    def delete(self, table: str, key: object) -> None:
        self._wrote = True
        self.session.delete(table, key)

    def abort(self) -> None:
        self.session.abort()

    def commit(self):
        started = time.perf_counter()
        outcome = self.session.commit()
        done = time.perf_counter()
        samples = self.samples
        if not outcome.committed:
            return outcome
        if self._wrote:
            samples.update_commits += 1
            samples.update_s.append(done - self._began)
            samples.commit_call_s.append(done - started)
            samples.update_at.append(done)
            samples.reads_in_updates += self._reads
        else:
            samples.readonly_commits += 1
        samples.done_at.append(done)
        return outcome


class Lane:
    """One session with its input stream; survives across phases."""

    def __init__(self, session, index: int, seed: int) -> None:
        self.timed = TimedSession(session)
        self.index = index
        self.rng = RandomStreams(seed + index)
        self.sequence = 0


def _run_client(workload, lanes: list[Lane], barrier: threading.Barrier,
                seconds: float, tracer: Tracer | None, root_id: int,
                clock_out: list[float]) -> None:
    state = tracer.thread() if tracer is not None else None
    barrier.wait()
    started = time.perf_counter()
    clock_out.append(started)
    deadline = started + seconds
    turn = 0
    while time.perf_counter() < deadline:
        lane = lanes[turn % len(lanes)]
        turn += 1
        samples = lane.timed.samples
        samples.attempted += 1
        if state is not None:
            state.txn = f"{lane.index}:{lane.sequence}"
            root = tracer.open(state, root_id)
        try:
            committed = workload.run_transaction(
                lane.timed, lane.rng, client_index=lane.index, sequence=lane.sequence)
            if not committed:
                samples.aborts += 1
        except TransactionAborted:
            samples.aborts += 1
        except Exception as exc:  # noqa: BLE001 - counted, reported, client stops
            # In doubt, timed out or unexpected: a failure, never a latency
            # sample.  The client stops so a dead node cannot spin the loop.
            samples.failed += 1
            samples.errors.append(f"lane {lane.index} seq {lane.sequence}: {exc!r}")
            return
        finally:
            lane.sequence += 1
            if state is not None:
                tracer.close(state, root)


@dataclass
class Phase:
    samples: Samples
    seconds: float
    #: ``perf_counter`` when the clients were released.
    started: float
    #: Runner-side counters observed across exactly this phase.
    counts: dict[str, float] = field(default_factory=dict)

    def committed_by(self, fraction_from: float, fraction_to: float) -> int:
        low = self.started + fraction_from * self.seconds
        high = self.started + fraction_to * self.seconds
        return sum(1 for t in self.samples.done_at if low <= t < high)

    @property
    def tps(self) -> float:
        """Committed transactions acknowledged inside the window, per second."""
        return self.committed_by(0.0, 1.0) / self.seconds


ROOT_SPAN = "bench.driver:txn"


def run_phase(workload, clients: list[list[Lane]], seconds: float,
              tracer: Tracer | None = None) -> Phase:
    """Release every client for ``seconds`` and collect what they observed.

    With a ``tracer`` every transaction runs under a root span carrying its
    id; the caller installs and removes the layer wrappers around the phase.
    """
    for lanes in clients:
        for lane in lanes:
            lane.timed.samples = Samples()
    barrier = threading.Barrier(len(clients) + 1)
    root_id = tracer.name_id(ROOT_SPAN) if tracer is not None else 0
    starts: list[float] = []
    threads = [threading.Thread(target=_run_client, name=f"bench-client-{i}", daemon=True,
                                args=(workload, lanes, barrier, seconds, tracer, root_id, starts))
               for i, lanes in enumerate(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()
    merged = Samples()
    for lanes in clients:
        for lane in lanes:
            merged.merge(lane.timed.samples)
    return Phase(samples=merged, seconds=seconds, started=min(starts))


class Stack:
    """A set-up system with its clients attached; each runner subclasses it."""

    def __init__(self, spec, generator, clients: list[list[Lane]]) -> None:
        self.spec = spec
        self.generator = generator
        self.clients = clients
        #: Everything any client was acknowledged, across all phases — what
        #: the final table contents are checked against.
        self.acknowledged = Samples()

    def run(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        phase = run_phase(self.generator, self.clients, seconds, tracer)
        self.acknowledged.merge(phase.samples)
        return phase


#: Slice pattern of a traced window: blocks of two traced slices between two
#: untraced ones, so each block carries its own untraced reference on either
#: side, and both the first and the last slice of the window are untraced.
TRACED_PATTERN = "UTTU" * 4


@dataclass
class Window:
    """The measured window of one run: one phase, or a traced run's slices."""

    phases: list[Phase]
    tracer: Tracer | None = None
    #: Closed-loop client threads that ran every phase.
    client_threads: int = 1

    def _slices(self, kind: str) -> list[Phase]:
        if self.tracer is None:
            return self.phases if kind == "U" else []
        return [phase for phase, k in zip(self.phases, TRACED_PATTERN) if k == kind]

    @property
    def traced(self) -> list[Phase]:
        return self._slices("T")

    @property
    def everything(self) -> Samples:
        """All slices: what counter deltas over the window are divided by."""
        return _merged(phase.samples for phase in self.phases)

    @property
    def untraced(self) -> Samples:
        """The unperturbed slices: where client latencies are read from."""
        return _merged(phase.samples for phase in self._slices("U"))

    def trace_overhead_share(self) -> float:
        """1 - traced throughput / untraced throughput at the same point of the window.

        Block by block: the untraced throughput expected in a block's two
        ``T`` slices is read off a line through the time per transaction of
        its two ``U`` slices.  Comparing plain sums would call decay an
        overhead: where throughput falls along a convex curve (the
        in-process workload loses two thirds of it within a window), the
        ends of a block average higher than its middle with no wrapper
        installed at all.
        """
        counts = [phase.committed_by(0.0, 1.0) for phase in self.phases]
        traced = expected = 0.0
        for block in range(0, len(counts), 4):
            first, one, two, last = counts[block:block + 4]
            if first and last:
                traced += one + two
                expected += 3 / (2 / first + 1 / last) + 3 / (1 / first + 2 / last)
        return 1.0 - traced / expected if expected else 0.0


def _merged(parts) -> Samples:
    merged = Samples()
    for part in parts:
        merged.merge(part)
    return merged


def run_window(run, seconds: float, span_targets: list[Target] | None,
               client_threads: int) -> Window:
    """Run the measured window through ``run(seconds, tracer=None) -> Phase``.

    Untraced: one phase.  Traced: equal slices in :data:`TRACED_PATTERN`; the
    wrappers exist only while a ``T`` slice runs.
    """
    if span_targets is None:
        return Window([run(seconds)], client_threads=client_threads)
    tracer = Tracer()
    phases = []
    for kind in TRACED_PATTERN:
        if kind == "U":
            phases.append(run(seconds / len(TRACED_PATTERN)))
            continue
        tracer.install(span_targets)
        try:
            phases.append(run(seconds / len(TRACED_PATTERN), tracer))
        finally:
            tracer.uninstall()
    return Window(phases, tracer, client_threads)
