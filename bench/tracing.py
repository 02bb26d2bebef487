"""In-memory spans around the layers' public functions, recorded from outside.

The tracer replaces a public method (or module function) with a wrapper that
records one span per call — name, start, end, the span that caused it and the
transaction id — into a per-thread list.  Nothing under ``src/`` knows about
it; :meth:`Tracer.uninstall` puts every original back.  Only threads that
opted in (:meth:`Tracer.thread`) record; on any other thread a wrapper calls
straight through, so control-plane traffic never pollutes the spans.

A layer's *self time* is its spans' duration minus the part covered by their
child spans.  Spans of one thread nest strictly (a child starts after and
ends before its parent), so that part is the sum of the direct children.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

class ThreadSpans:
    """One opted-in thread's spans, in start order, as parallel columns.

    Columns of plain ints instead of one object per span: nothing here is
    tracked by the cyclic garbage collector, so recording a few hundred
    thousand spans does not lengthen its passes over the program's heap.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.names: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.txns: list[object] = []
        self.stack: list[int] = []
        self.txn: object = None

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` (a class or a module), reported under ``layer``."""

    owner: object
    attr: str
    layer: str

    @property
    def span_name(self) -> str:
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__.rsplit(".", 1)[-1]
        return f"{self.layer}:{owner}.{self.attr}"


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadSpans] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def thread(self) -> ThreadSpans:
        """Opt the calling thread in (idempotent) and return its span list."""
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = ThreadSpans(len(self.threads))
                self.threads.append(state)
            self._local.state = state
        return state

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def open(self, state: ThreadSpans, name_id: int) -> int:
        """Start a span by hand (the driver's per-transaction root)."""
        index = len(state.starts)
        state.names.append(name_id)
        state.parents.append(state.stack[-1] if state.stack else -1)
        state.txns.append(state.txn)
        state.ends.append(0)
        state.stack.append(index)
        state.starts.append(time.perf_counter_ns())
        return index

    def close(self, state: ThreadSpans, index: int) -> None:
        state.ends[index] = time.perf_counter_ns()
        state.stack.pop()

    def _wrap(self, function, name_id: int):
        local = self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                return function(*args, **kwargs)
            stack = state.stack
            starts = state.starts
            index = len(starts)
            state.names.append(name_id)
            state.parents.append(stack[-1] if stack else -1)
            state.txns.append(state.txn)
            state.ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                state.ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    # -- install / uninstall ------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            original = vars(target.owner)[target.attr]
            setattr(target.owner, target.attr,
                    self._wrap(original, self.name_id(target.span_name)))
            self._patched.append((target.owner, target.attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------------

    def write_jsonl(self, path: Path, *, limit: int = 50_000) -> int:
        """One JSON line per span (at most ``limit``; a header states the total)."""
        total = sum(len(state) for state in self.threads)
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"spans_total": total, "spans_written": min(total, limit),
                                  "clock": "perf_counter_ns"}) + "\n")
            for state in self.threads:
                for index in range(len(state)):
                    if written >= limit:
                        return written
                    parent = state.parents[index]
                    out.write(json.dumps({
                        "id": f"t{state.index}.{index}",
                        "name": self.names[state.names[index]],
                        "start_ns": state.starts[index], "end_ns": state.ends[index],
                        "parent": None if parent < 0 else f"t{state.index}.{parent}",
                        "txn": state.txns[index],
                    }) + "\n")
                    written += 1
        return written


def self_times(state: ThreadSpans) -> list[int]:
    """Self time (ns) of each span of one thread: duration minus direct children."""
    own = [end - start for start, end in zip(state.starts, state.ends)]
    for index, parent in enumerate(state.parents):
        if parent >= 0:
            own[parent] -= state.ends[index] - state.starts[index]
    return own


def layer_self_ns(tracer: Tracer, *, start_ns: int | None = None,
                  end_ns: int | None = None) -> dict[str, int]:
    """Total self time per layer, over spans that *started* inside [start, end)."""
    totals: dict[str, int] = defaultdict(int)
    layers = [name.split(":", 1)[0] for name in tracer.names]
    for state in tracer.threads:
        for name, started, own in zip(state.names, state.starts, self_times(state)):
            if start_ns is None or start_ns <= started < end_ns:
                totals[layers[name]] += own
    return dict(totals)


def span_duration_ns(tracer: Tracer, span_name: str) -> int:
    """Total duration of every span called ``span_name`` (0 when never recorded)."""
    name_id = tracer.name_id(span_name)
    return sum(ended - started for state in tracer.threads
               for name, started, ended in zip(state.names, state.starts, state.ends)
               if name == name_id)


def count_spans(tracer: Tracer, name_id: int, *, start_ns: int | None = None,
                end_ns: int | None = None) -> int:
    return sum(1 for state in tracer.threads
               for name, started in zip(state.names, state.starts)
               if name == name_id and (start_ns is None or start_ns <= started < end_ns))


def span_cost_ns(calls: int = 20_000) -> float:
    """What recording one span costs here and now: wrapped minus bare call, per call."""
    class Probe:
        def noop(self) -> None:
            return None

    def loop(probe: Probe) -> int:
        started = time.perf_counter_ns()
        for _ in range(calls):
            probe.noop()
        return time.perf_counter_ns() - started

    probe = Probe()
    bare = loop(probe)
    tracer = Tracer()
    tracer.thread()
    tracer.install([Target(Probe, "noop", "bench.calibration")])
    try:
        wrapped = loop(probe)
    finally:
        tracer.uninstall()
    return max(0.0, (wrapped - bare) / calls)
